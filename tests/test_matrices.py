import pytest

from mfcat import QQ, PolyMatrix, RingContext, parse_poly


CTX = RingContext(QQ, ("z",))


def m(rows, cols=None):
    entries = [[parse_poly(CTX, s) for s in row] for row in rows]
    return PolyMatrix(CTX, entries, cols=cols)


def test_construction_and_shape():
    a = m([["z", "1"], ["0", "z^2"]])
    assert a.rows == 2 and a.cols == 2
    empty = PolyMatrix(CTX, [], cols=3)
    assert empty.rows == 0 and empty.cols == 3
    with pytest.raises(ValueError, match="shape-mismatch"):
        m([["z", "1"], ["0"]])


def test_identity_scalar_zero():
    assert PolyMatrix.identity(CTX, 2) == m([["1", "0"], ["0", "1"]])
    z = parse_poly(CTX, "z")
    assert PolyMatrix.scalar(CTX, z, 2) == m([["z", "0"], ["0", "z"]])
    assert PolyMatrix.zero(CTX, 2, 3).is_zero()


def test_matmul():
    a = m([["z", "1"], ["0", "z"]])
    b = m([["1", "z"], ["z", "0"]])
    assert a @ b == m([["2*z", "z^2"], ["z^2", "0"]])
    ident = PolyMatrix.identity(CTX, 2)
    assert a @ ident == a
    with pytest.raises(ValueError, match="shape-mismatch"):
        a @ PolyMatrix.zero(CTX, 3, 2)


def test_matmul_degenerate_shapes():
    a = PolyMatrix.zero(CTX, 0, 2)
    b = m([["z"], ["1"]])
    c = a @ b
    assert c.rows == 0 and c.cols == 1
    d = b @ PolyMatrix.zero(CTX, 1, 0)
    assert d.rows == 2 and d.cols == 0


def test_add_sub_neg_scale():
    a = m([["z", "0"], ["1", "z"]])
    b = m([["1", "z"], ["0", "1"]])
    assert a + b == m([["z + 1", "z"], ["1", "z + 1"]])
    assert (a - a).is_zero()
    assert -a == m([["-z", "0"], ["-1", "-z"]])
    assert a.scale(parse_poly(CTX, "z")) == m([["z^2", "0"], ["z", "z^2"]])


def test_block_assembly():
    a = m([["z"]])
    zero = PolyMatrix.zero(CTX, 1, 1)
    blk = PolyMatrix.block([[a, zero], [zero, a]])
    assert blk == m([["z", "0"], ["0", "z"]])
    with pytest.raises(ValueError, match="shape-mismatch"):
        PolyMatrix.block([[a, PolyMatrix.zero(CTX, 2, 1)]])


def test_transpose_and_derivative():
    a = m([["z^2", "z"], ["1", "0"]])
    assert a.transpose() == m([["z^2", "1"], ["z", "0"]])
    assert a.partial_derivative("z") == m([["2*z", "1"], ["0", "0"]])


def test_context_mismatch():
    other = RingContext(QQ, ("x",))
    b = PolyMatrix(other, [[parse_poly(other, "x")]], cols=1)
    with pytest.raises(ValueError, match="context-mismatch"):
        m([["z"]]) + b


def test_entry_context_compared_by_value():
    twin = RingContext(QQ, ("z",))
    assert twin is not CTX and twin == CTX
    assert PolyMatrix(CTX, [[parse_poly(twin, "z")]]) == m([["z"]])
    assert parse_poly(twin, "z") + parse_poly(CTX, "1") == parse_poly(CTX, "z + 1")
    other = RingContext(QQ, ("z",), weights=(1,))
    with pytest.raises(ValueError, match="context-mismatch"):
        PolyMatrix(CTX, [[parse_poly(other, "z")]])
    with pytest.raises(ValueError, match="context-mismatch"):
        parse_poly(other, "z") * parse_poly(CTX, "z")
