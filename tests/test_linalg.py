import random
from fractions import Fraction

import pytest

from mfcat import QQ, PrimeField
from mfcat import linalg


F = Fraction


def test_rref_and_rank():
    a = [[F(1), F(2)], [F(2), F(4)]]
    red, pivots = linalg.rref(QQ, a)
    assert pivots == [0]
    assert red[0] == [F(1), F(2)]
    assert linalg.rank(QQ, a) == 1
    assert linalg.rank(QQ, [[F(1), F(0)], [F(0), F(1)]]) == 2
    assert linalg.rank(QQ, []) == 0


def test_solve_particular():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = linalg.solve(QQ, a, b)
    assert x == [F(1), F(3)]
    # inconsistent system
    assert linalg.solve(QQ, [[F(1)], [F(1)]], [F(0), F(1)]) is None


def test_solve_underdetermined_zeroes_free_vars():
    # one equation, two unknowns: canonical witness puts 0 in the free slot
    x = linalg.solve(QQ, [[F(1), F(1)]], [F(3)])
    assert x == [F(3), F(0)]


def test_nullspace():
    a = [[F(1), F(2), F(3)]]
    basis = linalg.nullspace(QQ, a)
    assert len(basis) == 2
    for v in basis:
        assert sum(a[0][i] * v[i] for i in range(3)) == 0
    assert linalg.nullspace(QQ, [[F(1), F(0)], [F(0), F(1)]]) == []


def test_row_space_contains():
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    red, _ = linalg.rref(QQ, rows)
    assert linalg.row_space_contains(QQ, red[:2], [F(2), F(3), F(5)])
    assert not linalg.row_space_contains(QQ, red[:2], [F(0), F(0), F(1)])
    assert linalg.row_space_contains(QQ, [], [F(0), F(0)])
    assert not linalg.row_space_contains(QQ, [], [F(1), F(0)])


def test_prime_field_solve():
    f = PrimeField(5)
    a = [[1, 2], [3, 4]]
    b = [0, 1]
    x = linalg.solve(f, a, b)
    assert x is not None
    for i in range(2):
        assert (a[i][0] * x[0] + a[i][1] * x[1] - b[i]) % 5 == 0


def test_randomized_solve_consistency():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        a = [[F(rng.randrange(-4, 5)) for _ in range(m)] for _ in range(n)]
        xs = [F(rng.randrange(-4, 5)) for _ in range(m)]
        b = [sum(a[i][j] * xs[j] for j in range(m)) for i in range(n)]
        sol = linalg.solve(QQ, a, b)
        assert sol is not None
        for i in range(n):
            assert sum(a[i][j] * sol[j] for j in range(m)) == b[i]


def test_randomized_nullspace_is_kernel():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 5)
        a = [[F(rng.randrange(-3, 4)) for _ in range(m)] for _ in range(n)]
        basis = linalg.nullspace(QQ, a)
        assert len(basis) == m - linalg.rank(QQ, a)
        for v in basis:
            for i in range(n):
                assert sum(a[i][j] * v[j] for j in range(m)) == 0


# -- differential tests against a dense reference --------------------------


def _reference_rref(field, matrix):
    """Dense Gauss-Jordan with first-nonzero pivoting, kept as the reference
    for the sparse kernel; returns (rows, pivot column list)."""
    m = [list(row) for row in matrix]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if not field.is_zero(m[i][c])), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _reference_solve(field, a, b):
    ncols = len(a[0]) if a else 0
    red, pivots = _reference_rref(field, [list(row) + [x] for row, x in zip(a, b)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero()] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def _reference_nullspace(field, a):
    ncols = len(a[0]) if a else 0
    red, pivots = _reference_rref(field, a)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [field.zero()] * ncols
        v[f] = field.one()
        for r, c in enumerate(pivots):
            v[c] = field.neg(red[r][f])
        basis.append(v)
    return basis


def _random_sparse(rng, field, nrows, ncols, density):
    return [
        [
            field.coerce(rng.choice([-3, -2, -1, 1, 2, 3])) if rng.random() < density else field.zero()
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


FIELDS = [QQ, PrimeField(5), PrimeField(101)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_sparse_kernel_matches_dense_reference(field):
    rng = random.Random(20)
    inconsistent = 0
    for trial in range(120):
        nrows, ncols = rng.randrange(0, 9), rng.randrange(0, 9)
        a = _random_sparse(rng, field, nrows, ncols, rng.choice([0.1, 0.3, 0.6]))
        if nrows and trial % 4 == 0:
            a[rng.randrange(nrows)] = [field.zero()] * ncols
        red, pivots = _reference_rref(field, a)
        assert linalg.rref(field, a) == (red, pivots)
        sparse = linalg.sparse_rref(
            field, [{j: x for j, x in enumerate(row) if x} for row in a]
        )
        assert list(sparse) == pivots
        for row, c in zip(red, pivots):
            assert sparse[c] == {j: x for j, x in enumerate(row) if x}
        assert linalg.rank(field, a) == len(pivots)
        assert linalg.nullspace(field, a) == _reference_nullspace(field, a)
        b = [field.coerce(rng.randrange(-2, 3)) for _ in range(nrows)]
        want = _reference_solve(field, a, b)
        inconsistent += want is None
        assert linalg.solve(field, a, b) == want
    assert inconsistent > 10


def test_empty_and_zero_matrices():
    for a in ([], [[]], [[], []]):
        assert linalg.rref(QQ, a) == ([[] for _ in a], [])
        assert linalg.rank(QQ, a) == 0
        assert linalg.nullspace(QQ, a) == []
    assert linalg.sparse_rref(QQ, []) == {}
    assert linalg.sparse_rref(QQ, [{}, {}]) == {}
    zero = [[F(0)] * 3 for _ in range(2)]
    assert linalg.rref(QQ, zero) == (zero, [])
    assert linalg.nullspace(QQ, zero) == [
        [F(int(i == j)) for i in range(3)] for j in range(3)
    ]
    assert linalg.solve(QQ, zero, [F(0), F(0)]) == [F(0)] * 3
    assert linalg.solve(QQ, zero, [F(0), F(1)]) is None


def test_inconsistent_augmented_column():
    # the constant column becomes a pivot exactly when A x = b has no solution
    a = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.solve(QQ, a, [F(1), F(3)]) is None
    assert linalg.sparse_rref(QQ, [{0: F(1), 1: F(2), 2: F(1)}, {0: F(2), 1: F(4), 2: F(3)}]) == {
        0: {0: F(1), 1: F(2)},
        2: {2: F(1)},
    }


@pytest.mark.parametrize("p", [5, 101])
def test_rank_mod_p_never_exceeds_rank_over_q(p):
    rng = random.Random(p)
    fp = PrimeField(p)
    dropped = 0
    for _ in range(150):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        ints = [[rng.randrange(-6, 7) if rng.random() < 0.5 else 0 for _ in range(ncols)] for _ in range(nrows)]
        over_q = linalg.rank(QQ, [[F(x) for x in row] for row in ints])
        over_p = linalg.rank(fp, [[fp.coerce(x) for x in row] for row in ints])
        assert over_p <= over_q
        dropped += over_p < over_q
    if p == 5:
        assert dropped
