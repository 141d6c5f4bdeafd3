import copy
import random
from fractions import Fraction
from math import lcm

import pytest

from mfcat import QQ, PrimeField
from mfcat import linalg


F = Fraction


def _rows(matrix):
    """A dense matrix as sparse rows {column: nonzero entry}."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def _rank(field, matrix):
    return linalg.rank(field, _rows(matrix))


def _solve(field, a, b):
    """sparse_solve of A x = b for one right-hand side, as a dense x."""
    ncols = len(a[0]) if a else 0
    rows = [{**r, **({ncols: x} if x else {})} for r, x in zip(_rows(a), b)]
    solution = linalg.sparse_solve(field, rows, ncols)
    if solution is None:
        return None
    return [solution.get(c, {}).get(ncols, field.zero()) for c in range(ncols)]


def _is_canonical(field, x):
    """Over Q an int for an integral value and a Fraction otherwise; over F_p an int."""
    return type(x) is (F if field == QQ and x.denominator != 1 else int)


def _nullspace(field, a):
    """null_basis of A, as dense vectors."""
    ncols = len(a[0]) if a else 0
    basis = linalg.null_basis(field, linalg.sparse_rref(field, _rows(a)), ncols)
    return [[v.get(j, field.zero()) for j in range(ncols)] for v in basis]


def test_reduced_entries_are_ints_where_integral():
    reduced = linalg.sparse_rref(QQ, [{0: 2, 1: 4, 2: 1}, {1: F(3, 2), 2: 3}])
    assert reduced == {0: {0: 1, 2: F(-7, 2)}, 1: {1: 1, 2: 2}}
    assert [type(x) for row in reduced.values() for x in row.values()] == [int, F, int, int]
    solution = linalg.sparse_solve(QQ, [{0: 2, 2: 4}, {1: 2, 2: 3}], 2)
    assert solution == {0: {2: 2}, 1: {2: F(3, 2)}}
    assert [type(solution[c][2]) for c in (0, 1)] == [int, F]


def test_rref_and_rank():
    a = [[F(1), F(2)], [F(2), F(4)]]
    red, pivots = linalg.rref(QQ, a)
    assert pivots == [0]
    assert red[0] == [F(1), F(2)]
    assert _rank(QQ, a) == 1
    assert linalg.pivot_columns(QQ, _rows(a)) == [0]
    assert _rank(QQ, [[F(1), F(0)], [F(0), F(1)]]) == 2
    assert _rank(QQ, []) == 0


def test_solve_particular():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = _solve(QQ, a, b)
    assert x == [F(1), F(3)]
    # inconsistent system
    assert _solve(QQ, [[F(1)], [F(1)]], [F(0), F(1)]) is None


def test_solve_underdetermined_zeroes_free_vars():
    # one equation, two unknowns: canonical witness puts 0 in the free slot
    x = _solve(QQ, [[F(1), F(1)]], [F(3)])
    assert x == [F(3), F(0)]


def test_nullspace():
    a = [[F(1), F(2), F(3)]]
    basis = _nullspace(QQ, a)
    assert len(basis) == 2
    for v in basis:
        assert sum(a[0][i] * v[i] for i in range(3)) == 0
    assert _nullspace(QQ, [[F(1), F(0)], [F(0), F(1)]]) == []


def test_row_space_contains():
    # v lies in the row space exactly when appending it keeps the rank.
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    red, _ = linalg.rref(QQ, rows)
    assert _rank(QQ, red[:2] + [[F(2), F(3), F(5)]]) == 2
    assert _rank(QQ, red[:2] + [[F(0), F(0), F(1)]]) == 3
    assert _rank(QQ, [[F(0), F(0)]]) == 0
    assert _rank(QQ, [[F(1), F(0)]]) == 1


def test_prime_field_solve():
    f = PrimeField(5)
    a = [[1, 2], [3, 4]]
    b = [0, 1]
    x = _solve(f, a, b)
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
        sol = _solve(QQ, a, b)
        assert sol is not None
        for i in range(n):
            assert sum(a[i][j] * sol[j] for j in range(m)) == b[i]


def test_randomized_nullspace_is_kernel():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 5)
        a = [[F(rng.randrange(-3, 4)) for _ in range(m)] for _ in range(n)]
        basis = _nullspace(QQ, a)
        assert len(basis) == m - _rank(QQ, a)
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
    """X with A X = B and free variables zero, for B given as one row of
    right-hand sides per row of A, or None."""
    ncols = len(a[0]) if a else 0
    red, pivots = _reference_rref(field, [list(row) + list(x) for row, x in zip(a, b)])
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[field.zero()] * len(b[0]) if b else [] for _ in range(ncols)]
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols:]
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


SMALL = [-3, -2, -1, 1, 2, 3]
# Denominators to clear, non-unit pivots and multi-digit entries.
RATIONAL = [F(-1, 2), F(5, 3), F(7, 11), F(-13, 4), F(1000, 7), 1, -1, 12, -407, 65536]


def _random_sparse(rng, field, nrows, ncols, density, values=SMALL):
    return [
        [
            field.coerce(rng.choice(values)) if rng.random() < density else field.zero()
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(101)]
KERNEL_CASES = [pytest.param(f, SMALL, id=f.name) for f in FIELDS] + [
    pytest.param(QQ, RATIONAL, id="Q-rational")
]


@pytest.mark.parametrize("field, values", KERNEL_CASES)
def test_sparse_kernel_matches_dense_reference(field, values):
    rng = random.Random(20)
    inconsistent = 0
    for trial in range(120):
        nrows, ncols = rng.randrange(0, 9), rng.randrange(0, 9)
        a = _random_sparse(rng, field, nrows, ncols, rng.choice([0.1, 0.3, 0.6]), values)
        if nrows and trial % 4 == 0:
            a[rng.randrange(nrows)] = [field.zero()] * ncols
        if nrows and trial % 3 == 1:
            # A duplicate, a dependent and a zero row, in any order: forward
            # elimination must clear each until its leading column is new.
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            c = field.coerce(rng.choice(values))
            a += [list(a[i]), [field.add(x, field.mul(c, y)) for x, y in zip(a[i], a[j])]]
            a.append([field.zero()] * ncols)
            rng.shuffle(a)
            nrows = len(a)
        red, pivots = _reference_rref(field, a)
        assert linalg.rref(field, a) == (red, pivots)
        rows = [{j: x for j, x in enumerate(row) if x} for row in a]
        kept = copy.deepcopy(rows)
        sparse = linalg.sparse_rref(field, rows)
        assert rows == kept
        assert list(sparse) == pivots
        assert linalg.rank(field, rows) == len(pivots)
        assert rows == kept
        assert linalg.pivot_columns(field, rows) == pivots
        assert rows == kept
        for row, c in zip(red, pivots):
            assert sparse[c] == {j: x for j, x in enumerate(row) if x}
        scalars = [x for row in sparse.values() for x in row.values()]
        assert all(_is_canonical(field, x) for x in scalars)
        assert _nullspace(field, a) == _reference_nullspace(field, a)
        for nrhs in (1, rng.choice([2, 3])):
            b = [[field.coerce(rng.randrange(-2, 3)) for _ in range(nrhs)] for _ in range(nrows)]
            want = _reference_solve(field, a, b)
            inconsistent += want is None
            augmented = [{**r, **_sparse_row(x, ncols)} for r, x in zip(rows, b)]
            kept_augmented = copy.deepcopy(augmented)
            got = linalg.sparse_solve(field, augmented, ncols)
            assert augmented == kept_augmented
            if want is None:
                assert got is None
            else:
                assert got == {c: _sparse_row(x, ncols) for c, x in enumerate(want) if any(x)}
                scalars = [x for row in got.values() for x in row.values()]
                assert all(_is_canonical(field, x) for x in scalars)
                _overwrite(got.values())
                assert augmented == kept_augmented
        # No output row is an input row: writing to them leaves the input.
        _overwrite(sparse.values())
        assert rows == kept
    assert inconsistent > 20


def _overwrite(rows):
    """Write to every row: one entry changed, one added."""
    for row in rows:
        for c in row:
            row[c] = "written"
            break
        row[-1] = "added"


def _sparse_row(values, start):
    return {start + j: x for j, x in enumerate(values) if x}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_solve_stops_at_first_inconsistent_row(field):
    # x0 + x1 = 1, then 2 x0 + x2 = 3 and a dependent row, then
    # x0 + x1 = 2 in a scaled form: its leading column is the constants.
    c = field.coerce
    rows = [
        {0: c(1), 1: c(1), 3: c(1)},
        {0: c(2), 2: c(1), 3: c(3)},
        {1: c(2), 2: c(-1), 3: c(-1)},
        {0: c(3), 1: c(3), 3: c(6)},
    ]

    def read():
        yield from rows
        raise AssertionError("read past the first inconsistent row")

    assert linalg.sparse_solve(field, read(), 3) is None
    consistent = linalg.sparse_solve(field, rows[:3], 3)
    assert consistent == {0: {3: c(F(3, 2))}, 1: {3: c(F(-1, 2))}}


def test_empty_and_zero_matrices():
    for a in ([], [[]], [[], []]):
        assert linalg.rref(QQ, a) == ([[] for _ in a], [])
        assert _rank(QQ, a) == 0
        assert _nullspace(QQ, a) == []
    assert linalg.sparse_rref(QQ, []) == {}
    assert linalg.sparse_rref(QQ, [{}, {}]) == {}
    zero = [[F(0)] * 3 for _ in range(2)]
    assert linalg.rref(QQ, zero) == (zero, [])
    assert _nullspace(QQ, zero) == [
        [F(int(i == j)) for i in range(3)] for j in range(3)
    ]
    assert _solve(QQ, zero, [F(0), F(0)]) == [F(0)] * 3
    assert _solve(QQ, zero, [F(0), F(1)]) is None


def test_inconsistent_augmented_column():
    # the constant column becomes a pivot exactly when A x = b has no solution
    a = [[F(1), F(2)], [F(2), F(4)]]
    assert _solve(QQ, a, [F(1), F(3)]) is None
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
        over_q = _rank(QQ, [[F(x) for x in row] for row in ints])
        over_p = _rank(fp, [[fp.coerce(x) for x in row] for row in ints])
        assert over_p <= over_q
        dropped += over_p < over_q
    if p == 5:
        assert dropped


# -- the product of scalar matrices --------------------------------------------


def _naive_product(field, a, b):
    """The product of dense matrices by the definition: every entry is the
    sum of all its inner products, zero ones included."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out.append([])
        for j in range(cols):
            acc = field.zero()
            for x, b_row in zip(row, b):
                acc = field.add(acc, field.mul(x, b_row[j]))
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
def test_product_matches_naive_dense_product(field):
    rng = random.Random(30)
    values = [-2, -1, 1, 2, F(1, 2), F(-1, 2)]
    cancelled = 0
    for rows in range(4):
        for inner in range(4):
            for cols in range(4):
                for _ in range(6):
                    a = _random_sparse(rng, field, rows, inner, 0.6, values)
                    b = _random_sparse(rng, field, inner, cols, 0.6, values)
                    want = _naive_product(field, a, b)
                    assert linalg.mat_mul(field, a, b) == want
                    # Sums that cancel are dropped, and only they.
                    assert linalg.sparse_mul(field, _rows(a), _rows(b)) == _rows(want)
                    cancelled += sum(
                        not want[i][j] and any(a[i][k] and b[k][j] for k in range(inner))
                        for i in range(rows)
                        for j in range(cols if inner else 0)
                    )
    assert cancelled > 0
    one = field.one()
    assert linalg.sparse_mul(field, [{0: one, 1: one}], [{0: one}, {0: field.neg(one)}]) == [{}]
    # A k x 0 times a 0 x k matrix, and a 0 x k times a k x 2 one.
    assert linalg.mat_mul(field, [[], []], []) == [[], []]
    assert linalg.sparse_mul(field, [{}, {}], []) == [{}, {}]
    assert linalg.mat_mul(field, [], [[one, one]] * 3) == []


@pytest.mark.parametrize(
    "a, b",
    [
        ([[F(1), F(2)]], [[F(1)]]),
        ([[F(1)]], []),
        ([[]], [[F(1)]]),
        # Ragged: a row of b, or a later row of a, of the wrong length.
        ([[F(1), F(1)]], [[F(1), F(2)], [F(3)]]),
        ([[F(1), F(1)], [F(1)]], [[F(1)], [F(2)]]),
    ],
)
def test_product_rejects_mismatched_shapes(a, b):
    with pytest.raises(ValueError, match="shape-mismatch"):
        linalg.mat_mul(QQ, a, b)


def _echelon_over_lcm(rows, stop):
    """Forward elimination over Q that reads every row in over the lcm of
    its denominators, ints included: the reference for the int read-in."""
    basis = {}
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        r = linalg._primitive({c: v.numerator * (den // v.denominator) for c, v in row.items()})
        while r and (piv := min(r)) in basis:
            r = linalg._eliminate(r, piv, basis[piv])
        if not r:
            continue
        if piv >= stop:
            return None
        if r[piv] < 0:
            r = {c: -v for c, v in r.items()}
        basis[piv] = r
    return basis


def _typed(value):
    """value with the type of every scalar in it, recursively."""
    if isinstance(value, dict):
        return [(k, _typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return value, type(value)


def test_int_rows_read_in_as_they_are(monkeypatch):
    # A row of ints goes to elimination as it is and a row holding a
    # Fraction over the lcm of its denominators.  On mixed systems every
    # entry gives the typed output of reading each row over the lcm, and
    # leaves its input rows as they were.
    rng = random.Random(34)
    systems = []
    kinds = set()
    for _ in range(150):
        ncols = rng.randrange(1, 7)
        rows = []
        for _ in range(rng.randrange(1, 9)):
            den = rng.choice([1, 1, 2, 3, 4])
            picked = sorted(rng.sample(range(ncols + 1), rng.randrange(ncols + 2)))
            row = {c: QQ.coerce(F(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]), rng.choice([1, den]))) for c in picked}
            rows.append(row)
            kinds.add(tuple(sorted({t.__name__ for t in map(type, row.values())})))
        systems.append((rows, ncols))
    assert {("int",), ("Fraction",), ("Fraction", "int")} <= kinds

    def outputs():
        out = []
        for rows, ncols in systems:
            before = _typed(rows)
            out.append(_typed([
                linalg.sparse_rref(QQ, rows),
                linalg.sparse_solve(QQ, rows, ncols) or {},
                linalg.sparse_solve(QQ, rows, ncols) is None,
                linalg.rank(QQ, rows),
                linalg.pivot_columns(QQ, rows),
            ]))
            assert _typed(rows) == before
        return out

    got = outputs()
    monkeypatch.setattr(linalg, "_echelon_rational", _echelon_over_lcm)
    assert got == outputs()
