"""Smith normal form over a univariate polynomial ring.

Input matrices are grids of dense coefficient lists (see univariate.py).
Pivoting picks the nonzero entry of minimal degree, ties broken row-major,
and clears by Euclidean division; the diagonal is made monic and the
divisibility chain d_i | d_{i+1} is enforced.

For unimodular U and V with U * M * V = D, only the row transform U is
kept, and only as the row operations that build it, in order: swap rows
i and j, add q times row j to row i, scale row i by c.  The image of
M * V is the image of M, so U alone maps coker M onto coker D, the direct
sum of the k[z]/(d_i): U pushes classes into the Smith coordinates and
U^(-1) lifts them back.  `SmithDecomposition.replay` applies either to a
column, U by the operations in order and U^(-1) by their inverses in
reverse order.  The column transform V is applied to M but never kept.
"""

from __future__ import annotations

from . import univariate as uni
from .fields import Field


class SmithDecomposition:
    """U * M * V = D for some unimodular V, with U unimodular and D =
    diag(d_1 | d_2 | ...); U is kept as its row operations, V not at all."""

    def __init__(self, field: Field, ops, diagonal):
        self.field = field
        # ("swap", i, j), ("add", i, j, q): row i += q * row j, or ("scale", i, c)
        self.ops = ops
        self.diagonal = diagonal  # dense lists, length min(rows, cols)

    def replay(self, column, inverse: bool = False):
        """U * column, or U^(-1) * column, for a column of dense lists."""
        field = self.field
        v = list(column)
        for op in reversed(self.ops) if inverse else self.ops:
            kind, i = op[0], op[1]
            if kind == "swap":
                v[i], v[op[2]] = v[op[2]], v[i]
            elif kind == "add":
                if v[op[2]]:
                    q = uni.neg(field, op[3]) if inverse else op[3]
                    v[i] = uni.add(field, v[i], uni.mul(field, q, v[op[2]]))
            elif v[i]:
                v[i] = uni.scale(field, field.inv(op[2]) if inverse else op[2], v[i])
        return v


def smith_normal_form(field: Field, matrix) -> SmithDecomposition:
    m = [[list(e) for e in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    ops = []

    def swap_rows(i, j):
        if i == j:
            return
        m[i], m[j] = m[j], m[i]
        ops.append(("swap", i, j))

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]

    def add_row_multiple(dst, src, q):
        # row dst += q * row src
        for c in range(cols):
            m[dst][c] = uni.add(field, m[dst][c], uni.mul(field, q, m[src][c]))
        ops.append(("add", dst, src, q))

    def add_col_multiple(dst, src, q):
        # col dst += q * col src
        for r in range(rows):
            m[r][dst] = uni.add(field, m[r][dst], uni.mul(field, q, m[r][src]))

    def scale_row(i, c):
        m[i] = [uni.scale(field, c, e) for e in m[i]]
        ops.append(("scale", i, c))

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
        bad = next((i for i in range(len(diag) - 1) if not uni.divides(field, diag[i], diag[i + 1])), None)
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
    return SmithDecomposition(field, ops, diagonal)
