"""Smith normal form over a univariate polynomial ring.

Input matrices are grids of dense coefficient lists (see univariate.py).
Pivoting picks the nonzero entry of minimal degree, ties broken row-major,
and clears by Euclidean division; the diagonal is made monic and the
divisibility chain d_i | d_{i+1} is enforced.

For unimodular U and V with U * M * V = D, only the row transform U and
its inverse are tracked.  The image of M * V is the image of M, so U alone
maps coker M onto coker D, the direct sum of the k[z]/(d_i): U pushes
classes into the Smith coordinates and U^(-1) lifts them back.  The column
transform V is applied to M but never kept.
"""

from __future__ import annotations

from . import univariate as uni
from .fields import Field


def _poly_mat_identity(field: Field, n: int):
    return [[[field.one()] if i == j else [] for j in range(n)] for i in range(n)]


class SmithDecomposition:
    """U * M * V = D for some unimodular V, with U unimodular and D =
    diag(d_1 | d_2 | ...); V itself is not kept."""

    def __init__(self, u, u_inv, diagonal):
        self.u = u
        self.u_inv = u_inv
        self.diagonal = diagonal  # dense lists, length min(rows, cols)


def smith_normal_form(field: Field, matrix) -> SmithDecomposition:
    m = [[list(e) for e in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = _poly_mat_identity(field, rows)
    u_inv = _poly_mat_identity(field, rows)

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
    return SmithDecomposition(u, u_inv, diagonal)
