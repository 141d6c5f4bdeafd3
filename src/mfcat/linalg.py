"""Exact linear algebra over a coefficient field.

One eliminator, `sparse_rref`, does all the work.  It takes rows as sparse
dicts {column: nonzero scalar} and returns the reduced row echelon form as
{pivot column: reduced row}.  Each incoming row is cleared against the
pivot rows found so far; its first remaining column becomes a new pivot,
and that column is then cleared from the earlier pivot rows.  Only nonzero
entries are ever touched.  Scalars are canonical field elements, so a
scalar is zero exactly when it is falsy.

The reduced row echelon form of a matrix depends only on the matrix and its
column order, not on the order of the row operations that reach it.  The
solution with free variables set to zero and the nullspace basis read off
it (`null_basis`) are therefore canonical, which keeps witnesses and
quotient bases reproducible.

`LinearSystem` in `homotopy` feeds its sparse rows to `sparse_rref`
directly.  Dense matrices, lists of row lists as used by `modules`, go
through the adapters `rref`, `rank`, `solve`, `nullspace` and
`row_space_contains`, which convert rows to dicts and back.
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


def sparse_rref(field: Field, rows):
    """Reduced row echelon form of sparse rows {column: nonzero scalar}.

    Returns {pivot column: reduced row} in ascending pivot order; each
    reduced row holds 1 at its pivot and 0 (absent) at every other pivot
    column.  The input rows are not modified.
    """
    inv, mul = field.inv, field.mul
    one = field.one()
    basis = {}
    for row in rows:
        r = dict(row)
        # Basis rows vanish at each other's pivots, so clearing one pivot
        # column of r leaves the others untouched.
        for p in [c for c in r if c in basis]:
            _subtract(field, r, r[p], basis[p])
        if not r:
            continue
        p = min(r)
        if r[p] != one:
            scale = inv(r[p])
            r = {c: mul(scale, v) for c, v in r.items()}
        for other in basis.values():
            if p in other:
                _subtract(field, other, other[p], r)
        basis[p] = r
    return {p: basis[p] for p in sorted(basis)}


def _subtract(field: Field, target, factor, row):
    """target -= factor * row, in place, dropping entries that cancel."""
    sub, mul, zero = field.sub, field.mul, field.zero()
    for c, v in row.items():
        x = sub(target.get(c, zero), mul(factor, v))
        if x:
            target[c] = x
        else:
            del target[c]


def _sparse(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def null_basis(field: Field, reduced, ncols: int):
    """Kernel basis of a reduced matrix with ncols columns: one vector per
    non-pivot column f, with 1 at f and free variables 0."""
    zero, one = field.zero(), field.one()
    basis = []
    for f in range(ncols):
        if f in reduced:
            continue
        v = [zero] * ncols
        v[f] = one
        for c, row in reduced.items():
            if f in row:
                v[c] = field.neg(row[f])
        basis.append(v)
    return basis


def rref(field: Field, matrix):
    """Dense reduced row echelon form; returns (rows, pivot column list)."""
    ncols = len(matrix[0]) if matrix else 0
    reduced = sparse_rref(field, _sparse(matrix))
    zero = field.zero()
    rows = [[row.get(j, zero) for j in range(ncols)] for row in reduced.values()]
    rows += [[zero] * ncols for _ in range(len(matrix) - len(rows))]
    return rows, list(reduced)


def rank(field: Field, matrix) -> int:
    return len(sparse_rref(field, _sparse(matrix)))


def solve(field: Field, a, b):
    """One solution of A x = b with free variables set to zero, or None.

    b may be a vector or a matrix of stacked right-hand-side columns; the
    returned x has matching shape.
    """
    vector_rhs = b and not isinstance(b[0], list)
    bcols = [[x] for x in b] if vector_rhs else [list(r) for r in b]
    ncols = len(a[0]) if a else 0
    nrhs = len(bcols[0]) if bcols else 0
    reduced = sparse_rref(field, _sparse([list(a[i]) + bcols[i] for i in range(len(a))]))
    # Inconsistent if a pivot lands in the right-hand block.
    if any(p >= ncols for p in reduced):
        return None
    x = mat_zero(field, ncols, nrhs)
    for c, row in reduced.items():
        for j in range(nrhs):
            x[c][j] = row.get(ncols + j, field.zero())
    if vector_rhs:
        return [row[0] for row in x]
    return x


def nullspace(field: Field, a):
    """Basis of the right kernel of A, as a list of vectors."""
    ncols = len(a[0]) if a else 0
    return null_basis(field, sparse_rref(field, _sparse(a)), ncols)


def row_space_contains(field: Field, basis_rows, vector) -> bool:
    """Whether the vector lies in the span of the given rows."""
    if all(field.is_zero(x) for x in vector):
        return True
    if not basis_rows:
        return False
    base_rank = rank(field, basis_rows)
    return rank(field, list(basis_rows) + [vector]) == base_rank
