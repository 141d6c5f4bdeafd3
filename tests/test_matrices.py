import random
from fractions import Fraction

import pytest

from mfcat import QQ, Poly, PolyMatrix, PrimeField, RingContext, parse_poly
from mfcat.poly import EXPONENT_LIMIT


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
    with pytest.raises(ValueError, match="shape-mismatch"):
        PolyMatrix.zero(CTX, 2, -1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PolyMatrix.zero(CTX, 0, -1),
        lambda: PolyMatrix(CTX, [], cols=-1),
        lambda: PolyMatrix.identity(CTX, -1),
        lambda: PolyMatrix.scalar(CTX, 1, -1),
        lambda: PolyMatrix.zero(CTX, -2, 3),
    ],
    ids=["zero-0x-1", "constructor-0x-1", "identity", "scalar", "zero-rows"],
)
def test_negative_sizes_rejected(build):
    with pytest.raises(ValueError, match="shape-mismatch: negative size"):
        build()


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


# -- the product kernel and trusted results against a naive reference ----

KERNEL_CONTEXTS = [
    RingContext(field, names)
    for field in (QQ, PrimeField(2), PrimeField(101))
    for names in (("z",), ("z", "x"))
]


def random_poly(rng, ctx):
    """Few terms, small exponents and coefficients, so sums cancel often."""
    terms = {}
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        exp = tuple(rng.randrange(3) for _ in range(ctx.nvars))
        den = rng.choice((1, 1, 2)) if ctx.field is QQ else 1
        terms[exp] = Fraction(rng.choice((-2, -1, 1, 2)), den)
    return Poly(ctx, terms)


def random_matrix(rng, ctx, rows, cols):
    return PolyMatrix(ctx, [[random_poly(rng, ctx) for _ in range(cols)] for _ in range(rows)], cols=cols)


def reference(ctx, rows, cols, entry):
    """The validated matrix of entry(i, j), built with Poly arithmetic."""
    return PolyMatrix(ctx, [[entry(i, j) for j in range(cols)] for i in range(rows)], cols=cols)


def naive_mul(p, q):
    """p * q as a Poly sum of validated monomials, apart from the term loop
    that Poly.__mul__ and PolyMatrix.__matmul__ share."""
    ctx, acc = p.ctx, p.ctx.zero()
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            acc = acc + Poly(ctx, {exp: ctx.field.mul(c1, c2)})
    return acc


def reference_product(a, b):
    def entry(i, j):
        acc = a.ctx.zero()
        for k in range(a.cols):
            acc = acc + naive_mul(a.entries[i][k], b.entries[k][j])
        return acc

    return reference(a.ctx, a.rows, b.cols, entry)


def assert_clean(result, expected):
    assert result == expected
    assert type(result.entries) is tuple and len(result.entries) == result.rows
    for row in result.entries:
        assert type(row) is tuple and len(row) == result.cols
        for p in row:
            assert type(p) is Poly and p.ctx == result.ctx
            assert not any(result.ctx.field.is_zero(c) for c in p.terms.values())
    assert result == PolyMatrix(result.ctx, result.entries, cols=result.cols)


SHAPES = [(0, 3, 2), (2, 0, 3), (2, 3, 0), (3, 2, 0), (0, 0, 0), (1, 1, 1), (2, 3, 2), (3, 4, 3)]


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"{c.field.name}-{len(c.variables)}")
def test_kernel_matches_naive_reference(ctx):
    rng = random.Random(17)
    for _ in range(12):
        for n, k, m_ in SHAPES:
            a, a2 = random_matrix(rng, ctx, n, k), random_matrix(rng, ctx, n, k)
            b = random_matrix(rng, ctx, k, m_)
            assert_clean(a @ b, reference_product(a, b))
            assert_clean(a + a2, reference(ctx, n, k, lambda i, j: a.entries[i][j] + a2.entries[i][j]))
            assert_clean(a - a2, reference(ctx, n, k, lambda i, j: a.entries[i][j] - a2.entries[i][j]))
            assert_clean(-a, reference(ctx, n, k, lambda i, j: ctx.zero() - a.entries[i][j]))
            f = random_poly(rng, ctx)
            assert_clean(a.scale(f), reference(ctx, n, k, lambda i, j: naive_mul(f, a.entries[i][j])))
            assert_clean(a.transpose(), reference(ctx, k, n, lambda i, j: a.entries[j][i]))
            assert_clean(
                PolyMatrix.block([[a, a2], [-a2, a]]),
                reference(
                    ctx, 2 * n, 2 * k,
                    lambda i, j: [[a, a2], [-a2, a]][i // n][j // k].entries[i % n][j % k],
                ),
            )
            assert_clean(PolyMatrix.zero(ctx, n, k), reference(ctx, n, k, lambda i, j: ctx.zero()))
            one = ctx.one()
            assert_clean(
                PolyMatrix.identity(ctx, k), reference(ctx, k, k, lambda i, j: one if i == j else 0)
            )
            assert_clean(
                PolyMatrix.scalar(ctx, f, k), reference(ctx, k, k, lambda i, j: f if i == j else 0)
            )


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=lambda c: f"{c.field.name}-{len(c.variables)}")
def test_kernel_forced_cancellations(ctx):
    rng = random.Random(4)
    for _ in range(20):
        a = random_matrix(rng, ctx, 2, 3)
        b = random_matrix(rng, ctx, 3, 2)
        # [a, a] @ [b; -b] cancels every term, and so does a - a.
        zero = PolyMatrix.block([[a, a]]) @ PolyMatrix.block([[b], [-b]])
        assert_clean(zero, PolyMatrix.zero(ctx, 2, 2))
        assert all(not p.terms for row in zero.entries for p in row)
        assert_clean(a - a, PolyMatrix.zero(ctx, 2, 3))
        # Partial cancellation: (a + c) @ b - c @ b leaves a @ b.
        c = random_matrix(rng, ctx, 2, 3)
        assert_clean((a + c) @ b - c @ b, reference_product(a, b))
    # 1 * 1 + 1 * 1 = 2 cancels over F_2.
    one = ctx.one()
    ones = PolyMatrix(ctx, [[one, one]]) @ PolyMatrix(ctx, [[one], [one]])
    assert_clean(ones, PolyMatrix(ctx, [[ctx.constant(2)]]))


def test_product_keeps_the_exponent_bound():
    z = CTX.variable("z")
    top = CTX.monomial((EXPONENT_LIMIT,))
    assert (PolyMatrix(CTX, [[top]]) @ PolyMatrix(CTX, [[CTX.one()]])).entries[0][0] == top
    with pytest.raises(ValueError, match="malformed-exponent"):
        PolyMatrix(CTX, [[top]]) @ PolyMatrix(CTX, [[z]])
    with pytest.raises(ValueError, match="malformed-exponent"):
        PolyMatrix(CTX, [[CTX.one(), top]]) @ PolyMatrix(CTX, [[z], [z]])
