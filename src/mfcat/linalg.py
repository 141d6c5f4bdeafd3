"""Exact linear algebra over a coefficient field.

One forward-elimination loop per field does all the elimination.  It takes
rows as sparse dicts {column: nonzero scalar} and builds an echelon basis
{leading column: row}: an incoming row is cleared at its leading column,
and again at each new leading column, until that column is not yet a
pivot; its non-leading entries stay, and no pivot is ever cleared from
earlier rows.  Only nonzero entries are ever touched.  Scalars are
canonical field elements, so a scalar is zero exactly when it is falsy.

Three entries sit on that loop.  `rank` returns the number of basis rows:
the leading columns of any echelon basis are the pivot columns of the
reduced form, so their number is the rank.  `sparse_rref` returns the
reduced row echelon form {pivot column: reduced row}, by one pass in
descending pivot order that clears each row at the later pivots by their
rows, already final.  `sparse_solve` treats the columns from a given one on
as right-hand sides: it returns None as soon as a row leads at a right-hand
column, and otherwise runs the same pass on the pivot and right-hand
columns alone, which gives the solution with free variables set to zero.

The loops run on plain ints.  Over F_p they are residues in [0, p) and
every update is (a - f*v) % p.  Over Q each row is a primitive integer
row (coprime entries), a nonzero multiple of the row it stands for, with a
positive pivot entry; a column is cleared fraction-free, by the
integer-preserving step of Bareiss (1968), and the content is divided out
after each step.  A row of ints is read in as it is, and a row holding a
Fraction over the lcm of its denominators; the reduced rows are written
out as v / pivot entry, an int where the quotient is exact and a Fraction
otherwise, so over Q the output is in the canonical form of `fields`.

The reduced row echelon form of a matrix depends only on the matrix and its
column order, not on the order of the row operations that reach it, nor on
the scaling of the rows on the way.  The output of either kernel is
therefore the same canonical form, and so are the solution with free
variables set to zero and the nullspace basis read off it (`null_basis`),
which keeps witnesses and quotient bases reproducible.

`LinearSystem` in `homotopy`, the module side in `modules` and `critical`
feed their sparse rows to these entries directly; `pivot_columns` gives
the pivot columns from forward elimination alone.  `sparse_mul` is the
one product of scalar matrices, on sparse rows; it drops sums that
cancel.  `mat_mul` and `rref` convert lists of row lists to sparse rows
and back and are kept for callers outside the package; `andyn.an_verify`
also multiplies its dense module maps with `mat_mul`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, inf, lcm

from .errors import MfcatError
from .fields import Field, PrimeField


def sparse_mul(field: Field, a, b):
    """The product of two matrices given as sparse rows, as sparse rows.
    Only nonzero entries are multiplied; sums that cancel are dropped."""
    add, mul = field.add, field.mul
    out = []
    for ra in a:
        acc = {}
        for k, x in ra.items():
            for j, y in b[k].items():
                acc[j] = add(acc[j], mul(x, y)) if j in acc else mul(x, y)
        out.append({j: v for j, v in acc.items() if v})
    return out


def mat_mul(field: Field, a, b):
    """The product of two dense matrices, by `sparse_mul`."""
    ncols = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a) or any(len(row) != ncols for row in b):
        raise MfcatError("shape-mismatch", f"rows of a need {len(b)} entries, rows of b {ncols}")
    return _dense(field, sparse_mul(field, sparse_rows(a), sparse_rows(b)), ncols)


def rank(field: Field, rows) -> int:
    """The rank of sparse rows {column: nonzero scalar}, by forward
    elimination alone.  The input rows are not modified."""
    return len(_echelon(field, rows))


def sparse_rref(field: Field, rows):
    """Reduced row echelon form of sparse rows {column: nonzero scalar}.

    Returns {pivot column: reduced row} in ascending pivot order; each
    reduced row holds 1 at its pivot and 0 (absent) at every other pivot
    column.  The input rows are not modified.
    """
    return _reduced(field, _echelon(field, rows), 0)


def pivot_columns(field: Field, rows):
    """The pivot columns of sparse rows in ascending order, by forward
    elimination alone: a column is one exactly when it is not a combination
    of the columns before it.  The input rows are not modified."""
    return sorted(_echelon(field, rows))


def sparse_solve(field: Field, rows, ncols: int):
    """The solution with free variables set to zero of sparse rows whose
    columns >= ncols are right-hand sides, or None if there is none.

    Returns {pivot column: {right-hand column: nonzero value}}, the nonzero
    right-hand blocks of the reduced rows: for right-hand column j, x[pivot]
    is the value at j and every other x is zero.  Rows are read only up to
    the first one whose leading column, once cleared, is a right-hand side.
    The input rows are not modified.
    """
    basis = _echelon(field, rows, ncols)
    if basis is None:
        return None
    # Free variables are zero, so only pivot and right-hand columns count.
    basis = {p: {c: v for c, v in r.items() if c >= ncols or c in basis} for p, r in basis.items()}
    return {p: r for p, r in _reduced(field, basis, ncols).items() if r}


def _echelon(field: Field, rows, stop=inf):
    """Echelon basis {leading column: row} by forward elimination, or None
    at the first row that leads at a column >= stop."""
    if isinstance(field, PrimeField):
        return _echelon_mod_p(field.p, rows, stop)
    return _echelon_rational(rows, stop)


def _echelon_mod_p(p: int, rows, stop):
    """Forward elimination over F_p on canonical residues in [0, p); each
    basis row has 1 at its leading column."""
    basis = {}
    for row in rows:
        r = dict(row)
        while r and (piv := min(r)) in basis:
            _eliminate_mod_p(p, r, piv, basis[piv])
        if not r:
            continue
        if piv >= stop:
            return None
        if r[piv] != 1:
            scale = pow(r[piv], p - 2, p)
            r = {c: v * scale % p for c, v in r.items()}
        basis[piv] = r
    return basis


def _eliminate_mod_p(p, r, c, b):
    """r - r[c] b in place, for b with 1 at c; it vanishes at c."""
    f = r[c]
    for col, v in b.items():
        x = (r.get(col, 0) - f * v) % p
        if x:
            r[col] = x
        else:
            del r[col]
    return r


def _echelon_rational(rows, stop):
    """Fraction-free forward elimination over Q on primitive integer rows,
    each a nonzero multiple of the row it stands for, with a positive
    leading entry."""
    basis = {}
    for row in rows:
        if Fraction in map(type, row.values()):
            den = lcm(*(v.denominator for v in row.values()))
            r = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        else:
            r = dict(row)
        r = _primitive(r)
        while r and (piv := min(r)) in basis:
            r = _eliminate(r, piv, basis[piv])
        if not r:
            continue
        if piv >= stop:
            return None
        if r[piv] < 0:
            r = {c: -v for c, v in r.items()}
        basis[piv] = r
    return basis


def _reduced(field: Field, basis, start: int):
    """The reduced rows of an echelon basis, in ascending pivot order and
    from column start on, as field elements.  Pivots are taken in
    descending order, and each row is cleared at the later pivots by their
    rows, which are final by then; this adds entries only in non-pivot
    columns.  The basis rows are consumed."""
    mod_p = isinstance(field, PrimeField)
    eliminate = partial(_eliminate_mod_p, field.p) if mod_p else _eliminate
    order = sorted(basis)
    for piv in reversed(order):
        r = basis[piv]
        for c in [c for c in r if c != piv and c in basis]:
            r = eliminate(r, c, basis[c])
        basis[piv] = r
    if mod_p:
        return {p: {c: v for c, v in basis[p].items() if c >= start} for p in order}
    return {p: {c: _quotient(v, basis[p][p]) for c, v in basis[p].items() if c >= start} for p in order}


def _quotient(v: int, d: int):
    """v / d over Q, as an int when d divides v."""
    return Fraction(v, d) if v % d else v // d


def _eliminate(r, c, b):
    """The primitive integer row (d/g) r - (f/g) b, where d = b[c] > 0,
    f = r[c] and g = gcd(d, f); it vanishes at c.  May update r in place."""
    d, f = b[c], r[c]
    g = gcd(d, f)
    if g != d:
        m = d // g
        r = {col: m * v for col, v in r.items()}
    f //= g
    for col, v in b.items():
        x = r.get(col, 0) - f * v
        if x:
            r[col] = x
        else:
            del r[col]
    return _primitive(r)


def _primitive(r):
    """r divided by the gcd of its entries."""
    g = gcd(*r.values())
    if g > 1:
        return {c: v // g for c, v in r.items()}
    return r


def sparse_rows(matrix):
    """The rows of a dense matrix as sparse rows {column: nonzero entry}."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def _dense(field: Field, rows, ncols: int):
    """Sparse rows as a dense matrix with ncols columns."""
    zero = field.zero()
    return [[row.get(j, zero) for j in range(ncols)] for row in rows]


def null_basis(field: Field, reduced, ncols: int):
    """Kernel basis of a reduced matrix with ncols columns: one sparse
    vector {column: nonzero value} per non-pivot column f, with 1 at f and
    free variables 0."""
    one = field.one()
    basis = {f: {f: one} for f in range(ncols) if f not in reduced}
    for c, row in reduced.items():
        for f, x in row.items():
            if f != c:
                basis[f][c] = field.neg(x)
    return list(basis.values())


def rref(field: Field, matrix):
    """Dense reduced row echelon form; returns (rows, pivot column list)."""
    reduced = sparse_rref(field, sparse_rows(matrix))
    rows = list(reduced.values()) + [{}] * (len(matrix) - len(reduced))
    return _dense(field, rows, len(matrix[0]) if matrix else 0), list(reduced)
