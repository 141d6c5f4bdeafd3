"""Smith normal form against a test-only reference.

`reference_smith_normal_form` is the reduction with both transforms
tracked: the same pivoting as `smith.smith_normal_form`, which keeps only
the row operations of U and the diagonal, with U, U^(-1), the column
transform V and its inverse as matrices.  Its `check` verifies U * M * V =
D, U * U^(-1) = I, V^(-1) * V = I and the divisibility chain.  Every test
but the last asserts `check` on the reference and that replaying the row
operations of `smith_normal_form` on the unit columns rebuilds the
reference's U and U^(-1), and that the diagonals agree.  The last checks
on the same seeded matrices that no product in the reduction or the
replay has a zero factor.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

from mfcat import QQ, PrimeField
from mfcat import smith
from mfcat import univariate as uni
from mfcat.fields import Field


F = Fraction


# -- reference: the reduction with V and V^(-1) tracked ------------------


def _poly_mat_identity(field: Field, n: int):
    return [[[field.one()] if i == j else [] for j in range(n)] for i in range(n)]


def _poly_mat_mul(field: Field, a, b):
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    out = [[[] for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if uni.is_zero(a[i][k]):
                continue
            for j in range(cols):
                if not uni.is_zero(b[k][j]):
                    out[i][j] = uni.add(field, out[i][j], uni.mul(field, a[i][k], b[k][j]))
    return out


def _poly_mat_eq(field: Field, a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if uni.add(field, x, uni.neg(field, y)):
                return False
    return True


class ReferenceDecomposition:
    """U * M * V = D with U, V unimodular and D = diag(d_1 | d_2 | ...)."""

    def __init__(self, field, u, u_inv, v, v_inv, diagonal, rows, cols):
        self.field = field
        self.u = u
        self.u_inv = u_inv
        self.v = v
        self.v_inv = v_inv
        self.diagonal = diagonal  # dense lists, length min(rows, cols)
        self.rows = rows
        self.cols = cols

    def diagonal_matrix(self):
        d = [[[] for _ in range(self.cols)] for _ in range(self.rows)]
        for i, di in enumerate(self.diagonal):
            d[i][i] = list(di)
        return d

    def check(self, m) -> bool:
        field = self.field
        lhs = _poly_mat_mul(field, _poly_mat_mul(field, self.u, m), self.v)
        if not _poly_mat_eq(field, lhs, self.diagonal_matrix()):
            return False
        ident_r = _poly_mat_identity(field, self.rows)
        ident_c = _poly_mat_identity(field, self.cols)
        if not _poly_mat_eq(field, _poly_mat_mul(field, self.u, self.u_inv), ident_r):
            return False
        if not _poly_mat_eq(field, _poly_mat_mul(field, self.v_inv, self.v), ident_c):
            return False
        for a, b in zip(self.diagonal, self.diagonal[1:]):
            if uni.is_zero(a):
                if not uni.is_zero(b):
                    return False
            elif not uni.divides(field, a, b):
                return False
        return True


def reference_smith_normal_form(field: Field, matrix) -> ReferenceDecomposition:
    m = [[list(e) for e in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = _poly_mat_identity(field, rows)
    u_inv = _poly_mat_identity(field, rows)
    v = _poly_mat_identity(field, cols)
    v_inv = _poly_mat_identity(field, cols)

    def swap_rows(i, j):
        if i == j:
            return
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        # Column swap on the inverse transform.
        for r in range(rows):
            u_inv[r][i], u_inv[r][j] = u_inv[r][j], u_inv[r][i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row_multiple(dst, src, q):
        # row dst += q * row src
        if uni.is_zero(q):
            return
        for c in range(cols):
            m[dst][c] = uni.add(field, m[dst][c], uni.mul(field, q, m[src][c]))
        for c in range(rows):
            u[dst][c] = uni.add(field, u[dst][c], uni.mul(field, q, u[src][c]))
        nq = uni.neg(field, q)
        for r in range(rows):
            u_inv[r][src] = uni.add(field, u_inv[r][src], uni.mul(field, nq, u_inv[r][dst]))

    def add_col_multiple(dst, src, q):
        # col dst += q * col src
        if uni.is_zero(q):
            return
        for r in range(rows):
            m[r][dst] = uni.add(field, m[r][dst], uni.mul(field, q, m[r][src]))
        for r in range(cols):
            v[r][dst] = uni.add(field, v[r][dst], uni.mul(field, q, v[r][src]))
        nq = uni.neg(field, q)
        for c in range(cols):
            v_inv[src][c] = uni.add(field, v_inv[src][c], uni.mul(field, nq, v_inv[dst][c]))

    def scale_row(i, c):
        inv = field.inv(c)
        m[i] = [uni.scale(field, c, e) for e in m[i]]
        u[i] = [uni.scale(field, c, e) for e in u[i]]
        for r in range(rows):
            u_inv[r][i] = uni.scale(field, inv, u_inv[r][i])

    def select_pivot(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if not uni.is_zero(m[i][j]):
                    d = uni.deg(m[i][j])
                    if best is None or d < best[0]:
                        best = (d, i, j)
        return best

    def diagonalize():
        for k in range(min(rows, cols)):
            while True:
                found = select_pivot(k)
                if found is None:
                    return
                _, pi, pj = found
                swap_rows(k, pi)
                swap_cols(k, pj)
                dirty = False
                for i in range(k + 1, rows):
                    if uni.is_zero(m[i][k]):
                        continue
                    q, _ = uni.divmod_poly(field, m[i][k], m[k][k])
                    add_row_multiple(i, k, uni.neg(field, q))
                    if not uni.is_zero(m[i][k]):
                        dirty = True
                for j in range(k + 1, cols):
                    if uni.is_zero(m[k][j]):
                        continue
                    q, _ = uni.divmod_poly(field, m[k][j], m[k][k])
                    add_col_multiple(j, k, uni.neg(field, q))
                    if not uni.is_zero(m[k][j]):
                        dirty = True
                if not dirty:
                    break

    diagonalize()
    # Enforce the divisibility chain, repeating the reduction as needed.
    while True:
        diag = [m[i][i] for i in range(min(rows, cols))]
        bad = None
        for i in range(len(diag) - 1):
            if uni.is_zero(diag[i]):
                if not uni.is_zero(diag[i + 1]):
                    bad = i
                    break
                continue
            if not uni.divides(field, diag[i], diag[i + 1]):
                bad = i
                break
        if bad is None:
            break
        add_col_multiple(bad, bad + 1, [field.one()])
        diagonalize()

    for i in range(min(rows, cols)):
        if not uni.is_zero(m[i][i]):
            lead = m[i][i][-1]
            if not field.is_zero(field.sub(lead, field.one())):
                scale_row(i, field.inv(lead))

    diagonal = [m[i][i] for i in range(min(rows, cols))]
    return ReferenceDecomposition(field, u, u_inv, v, v_inv, diagonal, rows, cols)


# -- tests ---------------------------------------------------------------


def _transform(d, rows, inverse):
    """U, or U^(-1) with inverse set, rebuilt column by column by replaying
    the recorded row operations on the unit columns."""
    units = _poly_mat_identity(d.field, rows)
    columns = [d.replay(e, inverse) for e in units]
    return [[column[r] for column in columns] for r in range(rows)]


def decompose(field, m):
    """smith_normal_form(field, m), after checking it against the reference."""
    reference = reference_smith_normal_form(field, m)
    assert reference.check(m)
    d = smith.smith_normal_form(field, m)
    u, u_inv = _transform(d, len(m), False), _transform(d, len(m), True)
    assert (u, u_inv, d.diagonal) == (reference.u, reference.u_inv, reference.diagonal)
    return d


def c(*vals):
    # low-to-high coefficient list
    return [F(v) for v in vals]


def test_already_diagonal():
    m = [[c(0, 1), []], [[], c(0, 0, 1)]]  # diag(z, z^2)
    d = decompose(QQ, m)
    assert d.diagonal == [c(0, 1), c(0, 0, 1)]


def test_divisibility_enforced():
    # diag(z^2, z) must reorganize into diag(z, z^2)
    m = [[c(0, 0, 1), []], [[], c(0, 1)]]
    d = decompose(QQ, m)
    assert d.diagonal == [c(0, 1), c(0, 0, 1)]


def test_unit_entry_collapses():
    # [[z^2, 1], [0, z]]: entry gcd 1, determinant z^3
    m = [[c(0, 0, 1), c(1)], [[], c(0, 1)]]
    d = decompose(QQ, m)
    assert d.diagonal[0] == [F(1)]
    assert d.diagonal[1] == c(0, 0, 0, 1)


def test_entry_gcd_nontrivial():
    # [[z^2, z], [0, z]]: entry gcd z, determinant z^3
    m = [[c(0, 0, 1), c(0, 1)], [[], c(0, 1)]]
    d = decompose(QQ, m)
    assert d.diagonal == [c(0, 1), c(0, 0, 1)]


def test_zero_and_rectangular():
    m = [[[], []], [[], []]]
    d = decompose(QQ, m)
    assert d.diagonal == [[], []]
    rect = [[c(0, 1), c(1), c(0, 0, 1)]]
    d2 = decompose(QQ, rect)
    assert d2.diagonal == [[F(1)]]


def _random_coeffs(rng, maxdeg):
    return uni.trim(QQ, [F(rng.randrange(-3, 4)) for _ in range(maxdeg + 1)])


def test_randomized_decomposition_property():
    rng = random.Random(20260821)
    for _ in range(30):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = [[_random_coeffs(rng, rng.randrange(0, 3)) for _ in range(cols)] for _ in range(rows)]
        d = decompose(QQ, m)
        # invariant factors are monic and each divides the next
        for a, b in zip(d.diagonal, d.diagonal[1:]):
            if uni.is_zero(a):
                assert uni.is_zero(b)
            else:
                assert a[-1] == 1
                assert uni.divides(QQ, a, b)


def test_randomized_prime_field():
    f = PrimeField(5)
    rng = random.Random(9)
    for _ in range(20):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = [
            [
                uni.trim(f, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        decompose(f, m)


def _random_matrix(rng, field):
    """0-4 rows by 0-4 columns; each entry zero with probability 1/3, else
    of degree at most 2 with small coefficients."""
    rows, cols = rng.randrange(5), rng.randrange(5)

    def entry():
        if rng.randrange(3) == 0:
            return []
        return uni.trim(field, [field.coerce(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 4))])

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _seeded_matrices():
    rng = random.Random(18)
    for field in (QQ, PrimeField(5), PrimeField(101)):
        for _ in range(200):
            yield field, _random_matrix(rng, field)


def test_seeded_matrices_match_reference():
    shapes, zero = set(), 0
    for field, m in _seeded_matrices():
        decompose(field, m)
        shapes.add((len(m), len(m[0]) if m else 0))
        zero += bool(m and m[0]) and not any(e for row in m for e in row)
    assert len(shapes) == 21  # every r x c with 0 <= r, c <= 4; 0 x c reads as 0 x 0
    assert zero > 0


def test_no_product_has_a_zero_factor(monkeypatch):
    # Every recorded quotient is nonzero and every zero source entry is
    # skipped, in the reduction and in the replay of U and U^(-1).
    operands = []

    def mul(field, a, b):
        operands.append((a, b))
        return uni.mul(field, a, b)

    monkeypatch.setattr(smith, "uni", SimpleNamespace(**{**vars(uni), "mul": mul}))
    for field, m in _seeded_matrices():
        d = smith.smith_normal_form(field, m)
        for e in _poly_mat_identity(field, len(m)):
            d.replay(e)
            d.replay(e, inverse=True)
    assert operands
    assert all(a and b for a, b in operands)
