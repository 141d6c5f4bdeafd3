"""Matrix factorizations of a shifted superpotential and their morphisms.

An object is a pair of square polynomial matrices (p1, p0) of equal rank
with p1 * p0 = p0 * p1 = (W - w0) * I.  Rank zero is the zero object.
Morphisms are pairs (f1, f0) satisfying f1 * p0 = q0 * f0 and
q1 * f1 = f0 * p1; a homotopy (s, t) between f and g certifies
f - g = (q0 t + s p1, t p0 + q1 s).  The translation X[1] swaps the two
modules and negates both maps; on morphisms it swaps the components, and
applying it twice is literally the identity.

Over the polynomial ring, a domain, each second identity follows from the
first (Eisenbud 1980): p1 p0 = (W - w0) I makes p0 / (W - w0) the inverse
of p1, and q1 (f1 p0 - q0 f0) p1 = (W - w0) (q1 f1 - f0 p1) with q1, p1
injective.  So `mf_new` and `morphism_new` check the first alone.

One rule says where an identity is checked.  Entries check input they
cannot trust: `mf_new`, `morphism_new`, `cone` and the helpers on them, the
file readers, the catalogue's objects and triangle maps, `knorrer_morphism`.
Solvers and witness functions check what they hand out.  Constructions from
valid inputs (`mf_shift`, `mf_direct_sum`, `standard_triangle`'s g and h,
the catalogue's morphisms, `knorrer`) use the raw constructors and state
their identity.  A raw `MFMorphism` need not be a morphism, so
`Homotopy.bounds` compares both components.  A `Homotopy` is input as
often as output, so it checks its fiber and its shapes itself.  Assembly
follows the same rule (`homotopy` module docstring).

The mapping cone of f : X -> Y is the factorization

    c1 = [[q1, f0], [0, -p0]]       c0 = [[q0, f1], [0, -p1]]

on Y1 + X0 and Y0 + X1, with the inclusion g = (id, 0) and the projection
h = (0, -id) onto X[1].  `cone` checks c1 c0 = (W - w0) I alone, whose
corner block q1 f1 - f0 p1 checks that f is a morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import MfcatError
from .matrices import PolyMatrix
from .poly import Poly, RingContext


@dataclass(frozen=True, slots=True, repr=False)
class MatrixFactorization:
    """Pair of matrices multiplying to (W - w0) times the identity."""

    ctx: RingContext
    w: Poly
    rank: int
    p1: PolyMatrix
    p0: PolyMatrix

    def __repr__(self):
        return f"MatrixFactorization(rank={self.rank}, W={self.w})"


def mf_new(ctx: RingContext, w_total: Poly, p1: PolyMatrix, p0: PolyMatrix) -> MatrixFactorization:
    """Validate and build a factorization of W - w0 over the context.

    `w_total` is the unshifted superpotential; the stored fiber polynomial
    is W - w0 and must be nonzero.  Only p1 * p0 is checked (module
    docstring).
    """
    if w_total.ctx is not ctx and w_total.ctx != ctx:
        raise MfcatError("context-mismatch", "W from a different context")
    if (p1.ctx is not ctx and p1.ctx != ctx) or (p0.ctx is not ctx and p0.ctx != ctx):
        raise MfcatError("context-mismatch", "matrices from a different context")
    w = w_total - ctx.constant(ctx.w0)
    if w.is_zero():
        raise MfcatError("zero-superpotential", "W - w0 must be nonzero")
    if p1.rows != p1.cols or p0.rows != p0.cols or p1.rows != p0.rows:
        raise MfcatError(
            "invalid-shape", f"need equal square shapes, got {p1.rows}x{p1.cols} and {p0.rows}x{p0.cols}"
        )
    rank = p1.rows
    w_ident = PolyMatrix.scalar(ctx, w, rank)
    prod = p1 @ p0
    if prod != w_ident:
        raise MfcatError(
            "not-a-factorization", "p1 * p0 differs from (W - w0) * I; "
            f"first offending entry {_first_difference(prod, w_ident)}"
        )
    return MatrixFactorization(ctx, w, rank, p1, p0)


def _first_difference(a: PolyMatrix, b: PolyMatrix) -> str:
    for i in range(a.rows):
        for j in range(a.cols):
            if a.entries[i][j] != b.entries[i][j]:
                return f"({i},{j}): {a.entries[i][j] - b.entries[i][j]}"
    return "(none)"


def mf_from_polys(ctx: RingContext, w_total: Poly, p1_entries, p0_entries) -> MatrixFactorization:
    p1 = PolyMatrix(ctx, [[_as_poly(ctx, e) for e in row] for row in p1_entries])
    p0 = PolyMatrix(ctx, [[_as_poly(ctx, e) for e in row] for row in p0_entries])
    return mf_new(ctx, w_total, p1, p0)


def _as_poly(ctx: RingContext, e) -> Poly:
    if isinstance(e, Poly):
        return e
    if isinstance(e, str):
        return ctx.parse(e)
    return ctx.constant(e)


def mf_zero_object(ctx: RingContext, w_total: Poly) -> MatrixFactorization:
    empty = PolyMatrix(ctx, [], cols=0)
    return mf_new(ctx, w_total, empty, empty)


def rank_one(ctx: RingContext, w_total: Poly, a: Poly, b: Poly) -> MatrixFactorization:
    """The rank-one factorization (a, b) with a * b = W - w0."""
    return mf_new(ctx, w_total, PolyMatrix(ctx, [[a]]), PolyMatrix(ctx, [[b]]))


def unshifted_w(x: MatrixFactorization) -> Poly:
    return x.w + x.ctx.constant(x.ctx.w0)


def mf_shift(x: MatrixFactorization) -> MatrixFactorization:
    """The translation X[1] = (P0, P1, -p0, -p1)."""
    return MatrixFactorization(x.ctx, x.w, x.rank, -x.p0, -x.p1)


def mf_direct_sum(x: MatrixFactorization, y: MatrixFactorization) -> MatrixFactorization:
    _check_same_fiber(x, y)
    z01 = PolyMatrix.zero(x.ctx, x.rank, y.rank)
    z10 = PolyMatrix.zero(x.ctx, y.rank, x.rank)
    p1 = PolyMatrix.block([[x.p1, z01], [z10, y.p1]])
    p0 = PolyMatrix.block([[x.p0, z01], [z10, y.p0]])
    return MatrixFactorization(x.ctx, x.w, x.rank + y.rank, p1, p0)


def _check_same_fiber(x: MatrixFactorization, y: MatrixFactorization):
    if x.ctx is not y.ctx and x.ctx != y.ctx:
        raise MfcatError("context-mismatch", "factorizations over different contexts")
    if x.w != y.w:
        raise MfcatError("superpotential-mismatch", "factorizations of different fibers")


@dataclass(frozen=True, slots=True, repr=False)
class MFMorphism:
    """Morphism (f1, f0) between factorizations of the same fiber."""

    source: MatrixFactorization
    target: MatrixFactorization
    f1: PolyMatrix
    f0: PolyMatrix

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f0.is_zero()

    def __repr__(self):
        return f"MFMorphism({self.source.rank} -> {self.target.rank})"


def morphism_new(x: MatrixFactorization, y: MatrixFactorization, f1: PolyMatrix, f0: PolyMatrix) -> MFMorphism:
    """Validate (f1, f0) : X -> Y by f1 * p0 = q0 * f0 alone (module docstring)."""
    _check_same_fiber(x, y)
    if f1.rows != y.rank or f1.cols != x.rank or f0.rows != y.rank or f0.cols != x.rank:
        raise MfcatError(
            "invalid-shape", f"morphism components must be {y.rank}x{x.rank}, "
            f"got {f1.rows}x{f1.cols} and {f0.rows}x{f0.cols}"
        )
    lhs = f1 @ x.p0
    rhs = y.p0 @ f0
    if lhs != rhs:
        raise MfcatError(
            "not-a-morphism", "f1 * p0 differs from q0 * f0; "
            f"first offending entry {_first_difference(lhs, rhs)}"
        )
    return MFMorphism(x, y, f1, f0)


def morphism_from_polys(x, y, f1_entries, f0_entries) -> MFMorphism:
    ctx = x.ctx
    f1 = PolyMatrix(ctx, [[_as_poly(ctx, e) for e in row] for row in f1_entries], cols=x.rank)
    f0 = PolyMatrix(ctx, [[_as_poly(ctx, e) for e in row] for row in f0_entries], cols=x.rank)
    return morphism_new(x, y, f1, f0)


def identity_morphism(x: MatrixFactorization) -> MFMorphism:
    ident = PolyMatrix.identity(x.ctx, x.rank)
    return MFMorphism(x, x, ident, ident)


def zero_morphism(x: MatrixFactorization, y: MatrixFactorization) -> MFMorphism:
    _check_same_fiber(x, y)
    z = PolyMatrix.zero(x.ctx, y.rank, x.rank)
    return MFMorphism(x, y, z, z)


def compose(g: MFMorphism, f: MFMorphism) -> MFMorphism:
    """g after f."""
    if f.target != g.source:
        raise MfcatError("not-composable", "target of f is not source of g")
    return MFMorphism(f.source, g.target, g.f1 @ f.f1, g.f0 @ f.f0)


def morphism_add(f: MFMorphism, g: MFMorphism) -> MFMorphism:
    if f.source != g.source or f.target != g.target:
        raise MfcatError("not-composable", "morphisms between different objects")
    return MFMorphism(f.source, f.target, f.f1 + g.f1, f.f0 + g.f0)


def morphism_sub(f: MFMorphism, g: MFMorphism) -> MFMorphism:
    if f.source != g.source or f.target != g.target:
        raise MfcatError("not-composable", "morphisms between different objects")
    return MFMorphism(f.source, f.target, f.f1 - g.f1, f.f0 - g.f0)


def morphism_scale(f: MFMorphism, c) -> MFMorphism:
    return MFMorphism(f.source, f.target, f.f1.scale(c), f.f0.scale(c))


def shift_morphism(f: MFMorphism) -> MFMorphism:
    """f[1] = (f0, f1) between the shifted objects."""
    return MFMorphism(mf_shift(f.source), mf_shift(f.target), f.f0, f.f1)


def direct_sum_morphism(f: MFMorphism, g: MFMorphism) -> MFMorphism:
    src = mf_direct_sum(f.source, g.source)
    dst = mf_direct_sum(f.target, g.target)
    ctx = f.source.ctx
    z01 = PolyMatrix.zero(ctx, f.target.rank, g.source.rank)
    z10 = PolyMatrix.zero(ctx, g.target.rank, f.source.rank)
    f1 = PolyMatrix.block([[f.f1, z01], [z10, g.f1]])
    f0 = PolyMatrix.block([[f.f0, z01], [z10, g.f0]])
    return MFMorphism(src, dst, f1, f0)


@dataclass(frozen=True, slots=True, eq=False)
class Homotopy:
    """Pair (s, t) with s : P0 -> Q1 and t : P1 -> Q0.

    Its boundary is the morphism (q0 t + s p1, t p0 + q1 s); a homotopy
    witnesses that the morphism it bounds is zero in the homotopy
    category.
    """

    source: MatrixFactorization
    target: MatrixFactorization
    s: PolyMatrix
    t: PolyMatrix

    def __post_init__(self):
        source, target, s, t = self.source, self.target, self.s, self.t
        _check_same_fiber(source, target)
        if s.rows != target.rank or s.cols != source.rank or t.rows != target.rank or t.cols != source.rank:
            raise MfcatError(
                "invalid-shape", f"homotopy components must be {target.rank}x{source.rank}"
            )

    def boundary(self) -> MFMorphism:
        x, y = self.source, self.target
        f1 = y.p0 @ self.t + self.s @ x.p1
        f0 = self.t @ x.p0 + y.p1 @ self.s
        return MFMorphism(x, y, f1, f0)

    def bounds(self, f: MFMorphism) -> bool:
        """Exact check that this homotopy exhibits f as null-homotopic."""
        b = self.boundary()
        return b.f1 == f.f1 and b.f0 == f.f0


def cone(f: MFMorphism) -> MatrixFactorization:
    """The mapping cone of f : X -> Y, checked by c1 * c0 alone (module docstring)."""
    x, y = f.source, f.target
    ctx = x.ctx
    z = PolyMatrix.zero(ctx, x.rank, y.rank)
    c1 = PolyMatrix.block([[y.p1, f.f0], [z, -x.p0]])
    c0 = PolyMatrix.block([[y.p0, f.f1], [z, -x.p1]])
    w_ident = PolyMatrix.scalar(ctx, x.w, x.rank + y.rank)
    if c1 @ c0 != w_ident:
        raise MfcatError("not-a-factorization", "cone blocks fail the product identity")
    return MatrixFactorization(ctx, x.w, x.rank + y.rank, c1, c0)


def standard_triangle(f: MFMorphism) -> Tuple[MatrixFactorization, MFMorphism, MFMorphism]:
    """The cone with its inclusion g = (id, 0) and projection h = (0, -id).

    Returns (cone, g : Y -> cone, h : cone -> X[1]).  `cone` checks f; g and
    h are morphisms for every f, since c0 g0 = [q0; 0] = g1 q0 and
    h1 c0 = [0, p1] = (-p1) h0, where -p1 is the p0 of X[1].
    """
    x, y = f.source, f.target
    ctx = x.ctx
    c = cone(f)
    zero = PolyMatrix.zero(ctx, x.rank, y.rank)
    g = PolyMatrix.block([[PolyMatrix.identity(ctx, y.rank)], [zero]])
    h = PolyMatrix.block([[zero, -PolyMatrix.identity(ctx, x.rank)]])
    return c, MFMorphism(y, c, g, g), MFMorphism(c, mf_shift(x), h, h)


def cone_inclusion_homotopy(f: MFMorphism) -> Homotopy:
    """Explicit witness that g composed with f is null-homotopic."""
    x, y = f.source, f.target
    ctx = x.ctx
    c, g, _ = standard_triangle(f)
    s = PolyMatrix.block([[PolyMatrix.zero(ctx, y.rank, x.rank)], [PolyMatrix.identity(ctx, x.rank)]])
    h = Homotopy(x, c, s, s)
    if not h.bounds(compose(g, f)):
        raise MfcatError("not-a-morphism", "cone inclusion witness failed")
    return h


def multiplication_morphism(x: MatrixFactorization, factor: Poly) -> MFMorphism:
    """Multiplication by a polynomial as an endomorphism of X."""
    m1 = PolyMatrix.scalar(x.ctx, factor, x.rank)
    return MFMorphism(x, x, m1, m1)


def partial_derivative_homotopy(x: MatrixFactorization, var: str) -> Tuple[MFMorphism, Homotopy]:
    """Multiplication by dW/d(var) with its explicit contracting homotopy.

    Differentiating p0 p1 = (W - w0) I in the variable gives the witness
    (s, t) = (d p0, d p1); the pair is checked exactly before returning.
    """
    f = multiplication_morphism(x, x.w.partial_derivative(var))
    h = Homotopy(x, x, x.p0.partial_derivative(var), x.p1.partial_derivative(var))
    if not h.bounds(f):
        raise MfcatError("not-a-morphism", "derivative homotopy identity failed")
    return f, h


def w_multiplication_homotopy(x: MatrixFactorization) -> Tuple[MFMorphism, Homotopy]:
    """Multiplication by the fiber polynomial is contracted by (p0, 0)."""
    f = multiplication_morphism(x, x.w)
    h = Homotopy(x, x, x.p0, PolyMatrix.zero(x.ctx, x.rank, x.rank))
    if not h.bounds(f):
        raise MfcatError("not-a-morphism", "fiber multiplication witness failed")
    return f, h
