"""Finite-dimensional modules over the singular fiber ring k[z]/(W).

A module is a pair (W, Z): a univariate fiber polynomial W and a square
scalar matrix Z giving the action of z, with W(Z) = 0.  Morphisms are the
scalar matrices commuting with the actions.  The stable morphism space
divides out everything that factors through a free module, tested against
the maps through the ring itself, whose Hom space from the source is read
off the divided difference of W with no solve.

This side of the engine is deliberately elementary (finite exact linear
algebra only) so it can serve as an independent check of the homotopy
category computations.  Matrices are dense lists of rows where they enter
or leave (the action, Hom bases, maps).  Inside, every elimination and
every product runs on sparse rows {column: nonzero scalar}, through
`linalg`'s sparse kernel and its one product `linalg.sparse_mul`, which
skips zero entries.  One Horner pass on the action Z gives W(Z), for the
W(Z) = 0 check, and on the way the divided difference of W at Z, which
`stabilize` and `StableHom` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Sequence, Tuple

from . import linalg, univariate as uni
from .errors import MfcatError
from .factorization import MatrixFactorization, mf_new
from .fields import QQ, Field
from .matrices import PolyMatrix
from .poly import Poly, RingContext
from .smith import smith_normal_form


@dataclass(frozen=True, slots=True, init=False, repr=False)
class QuotModule:
    """Module over k[z]/(W) given by the z-action matrix on a k-basis."""

    ctx: RingContext
    w: Poly
    dim: int
    z_action: Tuple[Tuple, ...]
    # Z as sparse rows, kept from the check for every product with Z.
    _z_rows: List[Dict] = dc_field(compare=False)

    def __init__(self, ctx: RingContext, w: Poly, z_rows: Sequence[Sequence]):
        if ctx.nvars != 1:
            raise MfcatError("not-univariate", f"context has variables {ctx.variables}")
        if not isinstance(w, Poly) or w.ctx != ctx:
            raise MfcatError("context-mismatch", "W must live in the module context")
        if w.is_zero():
            raise MfcatError("zero-superpotential", "fiber polynomial is zero")
        field = ctx.field
        dim = len(z_rows)
        rows = []
        for r in z_rows:
            row = [field.coerce(x) for x in r]
            if len(row) != dim:
                raise MfcatError("wrong-arity", f"Z must be {dim}x{dim}, got a row of {len(row)}")
            rows.append(tuple(row))
        z = tuple(rows)
        z_rows = linalg.sparse_rows(z)
        if any(_horner(field, uni.from_poly(w, ctx.variables[0]), z_rows)[0]):
            raise MfcatError("superpotential-mismatch", "W(Z) is not zero")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "z_action", z)
        object.__setattr__(self, "_z_rows", z_rows)

    @property
    def field(self) -> Field:
        return self.ctx.field

    @property
    def var(self) -> str:
        return self.ctx.variables[0]

    def z_matrix(self) -> List[List]:
        return [list(r) for r in self.z_action]

    def __repr__(self):
        return f"QuotModule(W={self.w}, dim={self.dim})"


def _horner(field: Field, wc, z):
    """[W(Z), B_0, ..., B_(n-1)] as sparse rows, for W of degree n with
    coefficients wc and a square matrix Z given as sparse rows: the partial
    sums of Horner's rule, from B_(n-1) = c_n I by B_(i-1) = Z B_i + c_i I
    down to W(Z) = Z B_0 + c_0 I.  The B_i are the divided difference of W
    at Z: sum_i x^i B_i = (W(x) - W(Z)) / (x - Z), so B_i = sum_(k > i) c_k
    Z^(k-1-i)."""
    out = [[{i: wc[-1]} for i in range(len(z))]]
    for c in reversed(wc[:-1]):
        acc = linalg.sparse_mul(field, z, out[-1])
        if c:
            for i, row in enumerate(acc):
                v = field.add(row[i], c) if i in row else c
                if v:
                    row[i] = v
                else:
                    del row[i]
        out.append(acc)
    return out[::-1]


def module_new(w: Poly, z_rows: Sequence[Sequence]) -> QuotModule:
    ctx = w.ctx
    if ctx.w0 != ctx.field.zero():
        ctx = ctx.shifted(w0=ctx.field.zero())
        w = Poly(ctx, dict(w.terms))
    return QuotModule(ctx, w, z_rows)


def an_context(field: Field = QQ) -> RingContext:
    """k[z] with weight 1, the ring of W = z^n."""
    return RingContext(field=field, variables=("z",), weights=(1,))


def cyclic_module(field: Field, n: int, mu: int) -> QuotModule:
    """The quotient k[z]/(z^mu) as a module over k[z]/(z^n), 0 <= mu <= n."""
    if not (0 <= mu <= n):
        raise MfcatError("index-out-of-range", f"need 0 <= {mu} <= {n}")
    ctx = an_context(field)
    w = ctx.variable("z") ** n
    z = [[field.zero()] * mu for _ in range(mu)]
    for i in range(mu - 1):
        z[i + 1][i] = field.one()
    return QuotModule(ctx, w, z)


def direct_sum_modules(m: QuotModule, n: QuotModule) -> QuotModule:
    if m.ctx != n.ctx or m.w != n.w:
        raise MfcatError("superpotential-mismatch", "cannot sum modules over different fibers")
    zero = m.field.zero()
    z = [list(r) + [zero] * n.dim for r in m.z_action] + [[zero] * m.dim + list(r) for r in n.z_action]
    return QuotModule(m.ctx, m.w, z)


# -- morphisms ---------------------------------------------------------


def hom_space(m: QuotModule, n: QuotModule) -> List[List[List]]:
    """Basis of the space of module morphisms M -> N (scalar matrices)."""
    return [_unflatten(m.field, v, n.dim, m.dim) for v in _hom_vectors(m, n)]


def _hom_vectors(m: QuotModule, n: QuotModule):
    """Basis of Hom(M, N) as sparse vectors: the nn x nm matrices F with
    F Zm = Zn F, flattened row by row, as the reduced kernel basis.  With
    M or N zero the system has no row and no unknown, so the basis is []."""
    if m.ctx != n.ctx or m.w != n.w:
        raise MfcatError("superpotential-mismatch", "modules over different fibers")
    field = m.field
    nm, nn = m.dim, n.dim
    # Unknown F is nn x nm; rows of the system: entries of F Zm - Zn F.
    zero = field.zero()
    zm_columns = list(zip(*m.z_action))
    rows = []
    for i, zn_row in enumerate(n.z_action):
        for j, zm_column in enumerate(zm_columns):
            row = {i * nm + k: x for k, x in enumerate(zm_column) if x}
            for k, x in enumerate(zn_row):
                if x:
                    row[k * nm + j] = field.sub(row.get(k * nm + j, zero), x)
            rows.append({e: v for e, v in row.items() if v})
    return linalg.null_basis(field, linalg.sparse_rref(field, rows), nn * nm)


def _unflatten(field: Field, vec, rows, cols):
    zero = field.zero()
    return [[vec.get(i * cols + j, zero) for j in range(cols)] for i in range(rows)]


def _join(rows, cols):
    """Sparse rows flattened row by row into one sparse vector."""
    return {i * cols + j: x for i, row in enumerate(rows) for j, x in row.items()}


def is_module_morphism(m: QuotModule, n: QuotModule, f) -> bool:
    return _morphism_rows(m, n, f) is not None


def _morphism_rows(m: QuotModule, n: QuotModule, f):
    """A map M -> N as sparse rows of field elements, or None when it does
    not intertwine the actions."""
    if len(f) != n.dim or any(len(row) != m.dim for row in f):
        raise MfcatError("shape-mismatch", f"a map M -> N is {n.dim}x{m.dim}")
    field = m.field
    f = linalg.sparse_rows([[field.coerce(x) for x in row] for row in f])
    return f if linalg.sparse_mul(field, f, m._z_rows) == linalg.sparse_mul(field, n._z_rows, f) else None


class StableHom:
    """Hom(M, N) together with the subspace factoring through a free module.

    A map factors through a free module exactly when it lies in the span of
    the maps pi_j . R over j and R in Hom(M, A), A = k[z]/(W), where pi_j :
    A -> N sends the class of z^k to Z_N^k applied to basis vector j.  The
    ring A is symmetric, and Hom(M, A) has the basis R_0, ..., R_{dim M - 1}
    read off the divided difference B_i of W at Z_M, with no solve: row i of
    R_s is row s of B_i (Higman's criterion; the leading coefficient of W
    only scales them).  The B_i come from the one Horner pass, and the Z_N
    powers and the pi_j . R_s are products of sparse rows.  For the zero
    target nothing is divided out.

    The factoring maps and the Hom basis, in that order, are the columns of
    one sparse system over the entries of a map.  Its pivot columns pick a
    basis of the factoring span and the quotient basis: each Hom basis
    vector independent of the factoring span and of the earlier ones.  The
    system on those columns alone gives the stable coordinates.
    """

    def __init__(self, m: QuotModule, n: QuotModule):
        field = m.field
        self.source = m
        self.target = n
        self.field = field
        hom = _hom_vectors(m, n)
        self.hom_basis = [_unflatten(field, v, n.dim, m.dim) for v in hom]
        b = _horner(field, uni.from_poly(m.w, m.var), m._z_rows)[1:]
        hom_to_ring = [[bi[s] for bi in b] for s in range(m.dim)]
        powers = [[{i: field.one()} for i in range(n.dim)]]
        for _ in range(len(b) - 1):
            powers.append(linalg.sparse_mul(field, n._z_rows, powers[-1]))
        factoring = []
        for j in range(n.dim):
            # pi_j, whose column k is Z_N^k e_j.
            pj = [{k: p[i][j] for k, p in enumerate(powers) if j in p[i]} for i in range(n.dim)]
            for h in hom_to_ring:
                factoring.append(_join(linalg.sparse_mul(field, pj, h), m.dim))
        rows = [{} for _ in range(n.dim * m.dim)]
        for col, vec in enumerate(factoring + hom):
            for e, v in vec.items():
                rows[e][col] = v
        kept = linalg.pivot_columns(field, rows)
        quotient = [c - len(factoring) for c in kept if c >= len(factoring)]
        self.quotient_basis = [self.hom_basis[c] for c in quotient]
        self.dim = len(quotient)
        # Quotient columns first, then the factoring basis.
        order = {c: i for i, c in enumerate(sorted(kept, key=lambda c: c < len(factoring)))}
        self._rows = [{order[c]: v for c, v in row.items() if c in order} for row in rows]
        self._ncols = len(order)

    def is_stably_zero(self, f) -> bool:
        return not any(self.stable_coordinates(f))

    def stable_coordinates(self, f):
        """Coordinates of the stable class of f in the quotient basis."""
        return self.stable_coordinates_many([f])[0]

    def stable_coordinates_many(self, maps):
        """The stable coordinates of each map, by one solve with one
        right-hand side per map."""
        if not maps:
            return []
        ncols = self._ncols
        rows = [dict(r) for r in self._rows]
        for j, f in enumerate(maps):
            f = _morphism_rows(self.source, self.target, f)
            if f is None:
                raise MfcatError("not-a-morphism", "matrix does not intertwine the actions")
            for e, x in _join(f, self.source.dim).items():
                rows[e][ncols + j] = x
        # Each map intertwines the actions, so it lies in the span of the
        # kept columns, which contains Hom(M, N), and the solve succeeds.
        solution = linalg.sparse_solve(self.field, rows, ncols)
        zero = self.field.zero()
        return [
            [solution.get(k, {}).get(ncols + j, zero) for k in range(self.dim)]
            for j in range(len(maps))
        ]


def stable_hom(m: QuotModule, n: QuotModule) -> StableHom:
    return StableHom(m, n)


# -- Jordan decomposition over a nilpotent fiber -----------------------


def decompose(m: QuotModule) -> Dict[int, int]:
    """Multiplicities of the cyclic summands when W is a pure power z^n."""
    terms = list(m.w.terms.items())
    if len(terms) != 1 or sum(terms[0][0]) == 0:
        raise MfcatError("not-nilpotent-form", f"fiber polynomial {m.w} is not a pure power")
    n = sum(terms[0][0])
    field = m.field
    ranks = [m.dim]
    power = [{i: field.one()} for i in range(m.dim)]
    for _ in range(n + 1):
        power = linalg.sparse_mul(field, power, m._z_rows)
        ranks.append(linalg.rank(field, power))
    # No multiplicity is negative: W(Z) = 0 gives Z^n = 0, and rank Z^(k-1) -
    # rank Z^k counts the blocks of size >= k, which never rises with k.
    out: Dict[int, int] = {}
    for mu in range(1, n + 1):
        mult = ranks[mu - 1] - 2 * ranks[mu] + ranks[mu + 1]
        if mult:
            out[mu] = mult
    return out


# -- the cokernel functor ----------------------------------------------


class CokPresentation:
    """Cokernel of p1 in Smith-normal coordinates, with transport maps.

    The module is the direct sum of k[z]/(d_i) over the nonunit diagonal
    entries; `blocks` lists (start in the module basis, diagonal index i,
    d_i) for each.  `class_of` pushes a polynomial column vector into
    Smith coordinates by replaying the row operations of U and reduces
    entry i mod d_i, and `lift_of_basis` lifts z^k e_i by replaying their
    inverses in reverse order.  The module is built by `module_new`, which
    drops w0.
    """

    def __init__(self, x: MatrixFactorization):
        ctx = x.ctx
        if ctx.nvars != 1:
            raise MfcatError("not-univariate", f"context has variables {ctx.variables}")
        field = ctx.field
        var = ctx.variables[0]
        self.ctx = ctx
        self.field = field
        self.var = var
        self.source = x
        grid = [
            [uni.from_poly(x.p1.entries[i][j], var) for j in range(x.rank)]
            for i in range(x.rank)
        ]
        self.snf = smith_normal_form(field, grid)
        wc = uni.from_poly(x.w, var)
        self.blocks: List[Tuple[int, int, List]] = []
        offset = 0
        for i, d in enumerate(self.snf.diagonal):
            if uni.is_zero(d):
                raise MfcatError("not-a-factorization", "p1 is singular")
            if not uni.divides(field, d, wc):
                raise MfcatError("superpotential-mismatch", "invariant factor outside the fiber")
            if uni.deg(d) >= 1:
                self.blocks.append((offset, i, d))
                offset += uni.deg(d)
        self.dim = offset
        z = [[field.zero()] * offset for _ in range(offset)]
        for start, _, d in self.blocks:
            k = uni.deg(d)
            for i in range(k - 1):
                z[start + i + 1][start + i] = field.one()
            for i in range(k):
                z[start + i][start + k - 1] = field.neg(d[i])
        self.module = module_new(uni.to_poly(ctx, var, wc), z)

    def class_of(self, column: Sequence[Poly]):
        """Class in the module of a column vector over k[z]."""
        if len(column) != self.source.rank:
            raise MfcatError(
                "shape-mismatch", f"need a column of {self.source.rank} entries, got {len(column)}"
            )
        field = self.field
        pushed = self.snf.replay([uni.from_poly(p, self.var) for p in column])
        out = [field.zero()] * self.dim
        for start, i, d in self.blocks:
            for k, c in enumerate(uni.mod(field, pushed[i], d)):
                out[start + k] = c
        return out

    def lift_of_basis(self, index: int) -> List[Poly]:
        """A polynomial column vector representing the given basis class."""
        field = self.field
        for start, i, d in self.blocks:
            if start <= index < start + uni.deg(d):
                column = [[] for _ in range(self.source.rank)]
                column[i] = [field.zero()] * (index - start) + [field.one()]
                return [uni.to_poly(self.ctx, self.var, e) for e in self.snf.replay(column, inverse=True)]
        raise MfcatError("index-out-of-range", f"{index} not below {self.dim}")


def cok(x: MatrixFactorization) -> CokPresentation:
    return CokPresentation(x)


def cok_induced_map(src: CokPresentation, dst: CokPresentation, f) -> List[List]:
    """Matrix of the induced module morphism cok(X) -> cok(Y) of f = (f1, f0),
    for f : X -> Y with src = cok(X) and dst = cok(Y)."""
    if src.ctx != dst.ctx:
        raise MfcatError("context-mismatch", "presentations over different contexts")
    for end, pres in ((f.source, src), (f.target, dst)):
        if end is not pres.source and end != pres.source:
            raise MfcatError("not-composable", "f does not run between the presented factorizations")
    lifts = [src.lift_of_basis(b) for b in range(src.dim)]
    rows = [[lift[r] for lift in lifts] for r in range(src.source.rank)]
    image = f.f0 @ PolyMatrix(src.ctx, rows, cols=src.dim)
    columns = [dst.class_of([row[j] for row in image.entries]) for j in range(src.dim)]
    return [[columns[j][i] for j in range(src.dim)] for i in range(dst.dim)]


# -- stabilization ------------------------------------------------------


def stabilize(m: QuotModule) -> MatrixFactorization:
    """A factorization of W whose cokernel recovers the module.

    The kernel of the surjection k[z]^dim ->> M sending generators to the
    k-basis is free with basis the columns of z*I - Z, so p1 = z*I - Z;
    p0 solves p1 * p0 = W * I exactly via the divided difference
    (W(z) - W(y)) / (z - y) at y = Z, as `QuotModule` checks W(Z) = 0.  It
    keeps `mf_new`: a faster raw build raises the benchmark's peak memory
    through its per-query record (ROADMAP item 1).
    """
    ctx = m.ctx
    field = ctx.field
    var = ctx.variables[0]
    d = m.dim
    zvar = ctx.variable(var)
    p1_rows = []
    for i in range(d):
        row = []
        for j in range(d):
            e = zvar if i == j else ctx.zero()
            row.append(e - ctx.constant(m.z_action[i][j]))
        p1_rows.append(row)
    p1 = PolyMatrix(ctx, p1_rows, cols=d)
    b = _horner(field, uni.from_poly(m.w, var), m._z_rows)[1:]
    # p0 = sum_i z^i * B_i.
    zero = field.zero()
    p0_rows = [[uni.to_poly(ctx, var, [bi[r].get(c, zero) for bi in b]) for c in range(d)] for r in range(d)]
    p0 = PolyMatrix(ctx, p0_rows, cols=d)
    return mf_new(ctx, m.w, p1, p0)
