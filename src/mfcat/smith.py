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
U^(-1) lifts them back.

One step, `_row_op`, applies a row operation or its inverse to a column
in place, and skips an add whose source entry is zero.  The reduction
holds M as a list of columns, records each row operation and applies it
to every column by that step; `SmithDecomposition.replay` applies the
recorded list to a column by the same step, U by the operations in order
and U^(-1) by their inverses in reverse order.  The column operations of
V are applied to M (a swap is one list swap) but never kept.
"""

from __future__ import annotations

from . import univariate as uni
from .fields import Field


def _row_op(field: Field, op, v, inverse: bool = False) -> None:
    """Apply one recorded row operation, or its inverse, to the column v."""
    kind, i = op[0], op[1]
    if kind == "swap":
        v[i], v[op[2]] = v[op[2]], v[i]
    elif kind == "add":
        if v[op[2]]:
            q = uni.neg(field, op[3]) if inverse else op[3]
            v[i] = uni.add(field, v[i], uni.mul(field, q, v[op[2]]))
    elif v[i]:
        v[i] = uni.scale(field, field.inv(op[2]) if inverse else op[2], v[i])


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
        v = list(column)
        for op in reversed(self.ops) if inverse else self.ops:
            _row_op(self.field, op, v, inverse)
        return v


def smith_normal_form(field: Field, matrix) -> SmithDecomposition:
    rows = len(matrix)
    # m[j][i] is the entry in row i and column j.
    m = [[list(row[j]) for row in matrix] for j in range(len(matrix[0]) if rows else 0)]
    cols = len(m)
    ops = []

    def row_op(*op):
        ops.append(op)
        for column in m:
            _row_op(field, op, column)

    def add_col_multiple(dst, src, q):
        # col dst += q * col src
        m[dst] = [uni.add(field, d, uni.mul(field, q, s)) if s else d for d, s in zip(m[dst], m[src])]

    def select_pivot(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if m[j][i]:
                    d = uni.deg(m[j][i])
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
                if pi != k:
                    row_op("swap", k, pi)
                m[k], m[pj] = m[pj], m[k]
                dirty = False
                for i in range(k + 1, rows):
                    if m[k][i]:
                        q, _ = uni.divmod_poly(field, m[k][i], m[k][k])
                        row_op("add", i, k, uni.neg(field, q))
                        if m[k][i]:
                            dirty = True
                for j in range(k + 1, cols):
                    if m[j][k]:
                        q, _ = uni.divmod_poly(field, m[j][k], m[k][k])
                        add_col_multiple(j, k, uni.neg(field, q))
                        if m[j][k]:
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
        if m[i][i] and not field.is_zero(field.sub(m[i][i][-1], field.one())):
            row_op("scale", i, field.inv(m[i][i][-1]))

    diagonal = [m[i][i] for i in range(min(rows, cols))]
    return SmithDecomposition(field, ops, diagonal)
