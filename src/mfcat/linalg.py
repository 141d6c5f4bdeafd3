"""Exact dense linear algebra over a coefficient field.

Matrices are lists of row lists of raw scalars.  Everything is plain
Gaussian elimination with deterministic pivoting (first nonzero entry),
which keeps witnesses and quotient bases reproducible run to run.
"""

from __future__ import annotations

from .fields import Field


def mat_zero(field: Field, rows: int, cols: int):
    z = field.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]

def mat_identity(field: Field, n: int):
    m = mat_zero(field, n, n)
    for i in range(n):
        m[i][i] = field.one()
    return m

def mat_mul(field: Field, a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError(f"shape-mismatch: {len(a[0])} vs {inner}")
    out = mat_zero(field, rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if field.is_zero(c):
                continue
            bk = b[k]
            for j in range(cols):
                if not field.is_zero(bk[j]):
                    oi[j] = field.add(oi[j], field.mul(c, bk[j]))
    return out

def mat_add(field: Field, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_scale(field: Field, c, a):
    return [[field.mul(c, x) for x in row] for row in a]

def mat_eq(field: Field, a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not field.is_zero(field.sub(x, y)):
                return False
    return True

def mat_is_zero(field: Field, a) -> bool:
    return all(field.is_zero(x) for row in a for x in row)


def rref(field: Field, matrix):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not field.is_zero(m[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(field: Field, matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(rref(field, matrix)[1])


def solve(field: Field, a, b):
    """One solution of A x = b with free variables set to zero, or None.

    b may be a vector or a matrix of stacked right-hand-side columns; the
    returned x has matching shape.
    """
    vector_rhs = b and not isinstance(b[0], list)
    bcols = [[x] for x in b] if vector_rhs else [list(r) for r in b]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    nrhs = len(bcols[0]) if bcols else 0
    aug = [list(a[i]) + bcols[i] for i in range(nrows)]
    red, pivots = rref(field, aug)
    # Inconsistent if a pivot lands in the right-hand block.
    for p in pivots:
        if p >= ncols:
            return None
    x = mat_zero(field, ncols, nrhs)
    for r, c in enumerate(pivots):
        for j in range(nrhs):
            x[c][j] = red[r][ncols + j]
    if vector_rhs:
        return [row[0] for row in x]
    return x


def nullspace(field: Field, a):
    """Basis of the right kernel of A, as a list of vectors."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [
            [field.one() if i == j else field.zero() for i in range(ncols)]
            for j in range(ncols)
        ]
    red, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for r, c in enumerate(pivots):
            v[c] = field.neg(red[r][f])
        basis.append(v)
    return basis


def row_space_contains(field: Field, basis_rows, vector) -> bool:
    """Whether the vector lies in the span of the given rows."""
    if all(field.is_zero(x) for x in vector):
        return True
    if not basis_rows:
        return False
    base_rank = rank(field, basis_rows)
    return rank(field, list(basis_rows) + [vector]) == base_rank
