"""Closed-form catalogue of the singularity category for W = z^n.

Indecomposable objects are V_mu = k[z]/(z^mu) for 1 <= mu <= n-1 (the free
module V_n is the zero object).  Between V_mu and V_nu there is a basis of
morphisms indexed by an integer peak lam with
max(mu, nu) <= lam <= min(mu + nu - 1, n - 1); the element with peak lam
is "multiply by z^(lam-mu)" on the module side, which factors through
V_lam.  Compositions rewrite to this basis through three rules: a
composite through a middle index m is the basis element with peak
lam_a + lam_b - m, it vanishes when the peak reaches mu + nu (the map
factors through a valley of non-positive index), and it vanishes when the
peak reaches n (the map factors through the free module).

The catalogue also knows the translation (shift) action, the End rings,
and for each basis morphism an exact triangle with explicit third object
and connecting maps.  Everything here can be realized as honest matrix
factorizations and certified against the cone construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import product
from typing import List, Optional, Sequence, Tuple

from .errors import MfcatError
from .factorization import (
    MatrixFactorization,
    MFMorphism,
    mf_direct_sum,
    mf_shift,
    mf_zero_object,
    morphism_new,
    rank_one,
    shift_morphism,
    standard_triangle,
    zero_morphism,
)
from .fields import QQ, Field
from .homotopy import _comparison_system, _find_invertible
from .linalg import mat_mul
from .matrices import PolyMatrix
from .modules import an_context, cok, cok_induced_map, cyclic_module, stable_hom
from .poly import Poly, RingContext


def _check_n(n: int):
    if n < 2:
        raise MfcatError("index-out-of-range", f"need n >= 2, got {n}")


def _check_index(n: int, mu: int):
    _check_n(n)
    if not 1 <= mu <= n - 1:
        raise MfcatError("index-out-of-range", f"{mu} not in 1..{n - 1}")


def pad(n: int, mu: int) -> int:
    """Reduce an object index modulo n into 0..n-1, with 0 the zero object."""
    return ((mu % n) + n) % n


def an_depth(n: int, mu: int) -> int:
    _check_index(n, mu)
    return min(mu, n - mu)


def an_hom_dim(n: int, mu: int, nu: int) -> int:
    return min(an_depth(n, mu), an_depth(n, nu))


def an_hom_basis(n: int, mu: int, nu: int) -> List[int]:
    """Peaks of the basis morphisms V_mu -> V_nu, in increasing order."""
    _check_index(n, mu)
    _check_index(n, nu)
    return list(range(max(mu, nu), min(mu + nu - 1, n - 1) + 1))


def _basis_padded(n: int, mu: int, nu: int) -> List[int]:
    if mu == 0 or nu == 0:
        return []
    return an_hom_basis(n, mu, nu)


def an_hom_table(n: int) -> List[List[int]]:
    _check_n(n)
    return [
        [an_hom_dim(n, mu, nu) for nu in range(1, n)] for mu in range(1, n)
    ]


@dataclass(frozen=True, slots=True, repr=False)
class AnMorphism:
    """A morphism V_mu -> V_nu as coefficients over the peak basis.

    Index 0 for source or target stands for the zero object (empty basis).
    """

    field: Field = dc_field(hash=False)  # hashed by (n, mu, nu, coeffs)
    n: int
    mu: int
    nu: int
    coeffs: Tuple
    peaks: Tuple[int, ...] = dc_field(init=False, compare=False)

    def __post_init__(self):
        n, mu, nu = self.n, self.mu, self.nu
        _check_n(n)
        if not 0 <= mu <= n - 1 or not 0 <= nu <= n - 1:
            raise MfcatError("index-out-of-range", f"({mu}, {nu}) for n={n}")
        peaks = _basis_padded(n, mu, nu)
        if len(self.coeffs) != len(peaks):
            raise MfcatError(
                "shape-mismatch", f"{len(peaks)} basis peaks, {len(self.coeffs)} coefficients"
            )
        object.__setattr__(self, "peaks", tuple(peaks))
        object.__setattr__(self, "coeffs", tuple(self.field.coerce(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def __repr__(self):
        terms = [
            f"{self.field.format(c)}*a[{lam}]"
            for lam, c in zip(self.peaks, self.coeffs)
            if not self.field.is_zero(c)
        ]
        body = " + ".join(terms) if terms else "0"
        return f"AnMorphism(V_{self.mu} -> V_{self.nu}, {body})"


def an_zero(field: Field, n: int, mu: int, nu: int) -> AnMorphism:
    return AnMorphism(field, n, mu, nu, [field.zero()] * len(_basis_padded(n, mu, nu)))


def an_basis_morphism(field: Field, n: int, mu: int, nu: int, lam: int) -> AnMorphism:
    peaks = _basis_padded(n, mu, nu)
    if lam not in peaks:
        raise MfcatError("index-out-of-range", f"peak {lam} not in basis {peaks}")
    coeffs = [field.one() if p == lam else field.zero() for p in peaks]
    return AnMorphism(field, n, mu, nu, coeffs)


def an_generator(field: Field, n: int, mu: int, nu: int) -> AnMorphism:
    """The projection (mu >= nu) or z-power injection (nu >= mu): the
    basis element with the smallest peak max(mu, nu)."""
    if mu == 0 or nu == 0:
        return an_zero(field, n, mu, nu)
    return an_basis_morphism(field, n, mu, nu, max(mu, nu))


def an_identity(field: Field, n: int, mu: int) -> AnMorphism:
    return an_generator(field, n, mu, mu)


def an_add(a: AnMorphism, b: AnMorphism) -> AnMorphism:
    if (a.n, a.mu, a.nu, a.field) != (b.n, b.mu, b.nu, b.field):
        raise MfcatError("shape-mismatch", "adding morphisms of different types")
    field = a.field
    return AnMorphism(
        field, a.n, a.mu, a.nu,
        [field.add(x, y) for x, y in zip(a.coeffs, b.coeffs)],
    )


def an_scale(a: AnMorphism, c) -> AnMorphism:
    field = a.field
    cc = field.coerce(c)
    return AnMorphism(field, a.n, a.mu, a.nu, [field.mul(cc, x) for x in a.coeffs])


def an_compose(a: AnMorphism, b: AnMorphism) -> AnMorphism:
    """a after b: b goes V_mu -> V_mid, a goes V_mid -> V_nu."""
    if a.field != b.field or a.n != b.n or a.mu != b.nu:
        raise MfcatError(
            "not-composable", f"V_{b.mu}->V_{b.nu} then V_{a.mu}->V_{a.nu}"
        )
    field = a.field
    n = a.n
    mid = a.mu
    mu, nu = b.mu, a.nu
    result = list(an_zero(field, n, mu, nu).coeffs)
    peaks = _basis_padded(n, mu, nu)
    for lam_a, ca in zip(a.peaks, a.coeffs):
        if field.is_zero(ca):
            continue
        for lam_b, cb in zip(b.peaks, b.coeffs):
            if field.is_zero(cb):
                continue
            peak = lam_a + lam_b - mid
            # Vanishes through a non-positive valley or through the free module.
            if peak >= mu + nu or peak >= n:
                continue
            idx = peaks.index(peak)
            result[idx] = field.add(result[idx], field.mul(ca, cb))
    return AnMorphism(field, n, mu, nu, result)


def an_translate_index(n: int, mu: int) -> int:
    _check_n(n)
    if not 0 <= mu <= n - 1:
        raise MfcatError("index-out-of-range", f"{mu} for n={n}")
    return pad(n, -mu)


def an_translate(a: AnMorphism) -> AnMorphism:
    """Shift action: V_mu -> V_{n-mu} on objects, peak lam -> n+lam-mu-nu."""
    n = a.n
    return AnMorphism(
        a.field,
        n,
        an_translate_index(n, a.mu),
        an_translate_index(n, a.nu),
        a.coeffs,
    )


def an_end_ring(field: Field, n: int, mu: int) -> dict:
    """End(V_mu) as k[x]/(x^d): d, the generator, and its powers."""
    d = an_depth(n, mu)
    powers = [an_identity(field, n, mu)]
    if d > 1:
        x = an_basis_morphism(field, n, mu, mu, mu + 1)
        for _ in range(d - 1):
            powers.append(an_compose(x, powers[-1]))
    x = powers[1] if d > 1 else an_zero(field, n, mu, mu)
    x_d = an_compose(x, powers[-1]) if d > 1 else x
    if not x_d.is_zero():
        raise MfcatError("relation-violated", "generator power x^d is nonzero")
    if powers[-1].is_zero():
        raise MfcatError("relation-violated", "generator power x^(d-1) vanished")
    return {"n": n, "mu": mu, "d": d, "generator": x, "powers": powers}


# -- realization as matrix factorizations ------------------------------


def _z_power(ctx: RingContext, k: int, c=1) -> Poly:
    """c z^k, with z the first variable of the context, as one monomial."""
    return ctx.monomial((k,) + (0,) * (ctx.nvars - 1), c)


def an_w(ctx: RingContext, n: int) -> Poly:
    _check_n(n)
    return _z_power(ctx, n)


def realize_an_object(ctx: RingContext, n: int, mu: int) -> MatrixFactorization:
    w = an_w(ctx, n)
    if pad(n, mu) == 0:
        return mf_zero_object(ctx, w)
    mu = pad(n, mu)
    return rank_one(ctx, w, _z_power(ctx, mu), _z_power(ctx, n - mu))


def realize_an_sum(ctx: RingContext, n: int, indices: Sequence[int]) -> MatrixFactorization:
    parts = [realize_an_object(ctx, n, i) for i in indices if pad(n, i) != 0]
    if not parts:
        return mf_zero_object(ctx, an_w(ctx, n))
    return reduce(mf_direct_sum, parts)


def realize_an_morphism(a: AnMorphism, ctx: RingContext) -> MFMorphism:
    """The basis element with peak lam becomes (z^(lam-nu), z^(lam-mu)), a
    morphism since z^(lam-nu) z^(n-mu) = z^(n-nu) z^(lam-mu) for every lam."""
    return _realize_morphism(a, ctx, {k: realize_an_object(ctx, a.n, k) for k in {a.mu, a.nu}})


def _realize_morphism(a: AnMorphism, ctx: RingContext, built: dict) -> MFMorphism:
    """`realize_an_morphism` between objects already built, indexed by k."""
    x, y = built[a.mu], built[a.nu]
    if x.rank == 0 or y.rank == 0:
        return zero_morphism(x, y)
    # A zero coefficient gives the zero monomial.
    f1 = sum((_z_power(ctx, lam - a.nu, c) for lam, c in zip(a.peaks, a.coeffs)), ctx.zero())
    f0 = sum((_z_power(ctx, lam - a.mu, c) for lam, c in zip(a.peaks, a.coeffs)), ctx.zero())
    return MFMorphism(x, y, PolyMatrix(ctx, [[f1]], cols=1), PolyMatrix(ctx, [[f0]], cols=1))


def shift_identification(ctx: RingContext, n: int, mu: int) -> MFMorphism:
    """The strict isomorphism V_mu[1] -> V_{n-mu}, components (-1, 1): a
    morphism since (-1) (-z^mu) = z^mu 1, and its own inverse.  Either sign
    pattern gives a strict isomorphism; this is the one under which the
    catalogue triangles certify with their stated signs."""
    _check_index(n, mu)
    shifted = mf_shift(realize_an_object(ctx, n, mu))
    target = realize_an_object(ctx, n, n - mu)
    one = PolyMatrix.identity(ctx, 1)
    return MFMorphism(shifted, target, -one, one)


# -- module realization -------------------------------------------------


def an_module(field: Field, n: int, mu: int):
    _check_index(n, mu)
    return cyclic_module(field, n, mu)


def an_module_map(a: AnMorphism) -> List[List]:
    """The morphism as a nu x mu scalar matrix in the power bases."""
    field = a.field
    mat = [[field.zero()] * a.mu for _ in range(a.nu)]
    for lam, c in zip(a.peaks, a.coeffs):
        if field.is_zero(c):
            continue
        shiftexp = lam - a.mu
        for i in range(a.mu):
            j = shiftexp + i
            if j < a.nu:
                mat[j][i] = field.add(mat[j][i], c)
    return mat


# -- exact triangles ---------------------------------------------------


@dataclass
class AnTriangle:
    """Catalogue triangle V_mu -> V_nu -> third -> V_{n-mu}.

    third lists the padded summand indices (0 entries are zero summands);
    g and h hold one catalogue morphism per summand, signs included.
    """

    field: Field
    n: int
    f: AnMorphism
    lam: int
    third: Tuple[int, ...]
    g: Tuple[AnMorphism, ...]
    h: Tuple[AnMorphism, ...]


def an_triangle(f: AnMorphism) -> AnTriangle:
    """The exact triangle on a basis morphism with peak lam: the third
    object is V_(lam-mu) + V_(nu-lam), indices mod n, g the generators out
    of V_nu and h the generators into V_(n-mu) with signs (+, -).  A zero
    summand is dropped, but the first stays when both are; only the plain
    generator (smallest peak) has one, so its third object is V_(nu-mu)
    and h gets a minus sign exactly when nu < mu."""
    field = f.field
    n, mu, nu = f.n, f.mu, f.nu
    if mu == 0 or nu == 0:
        raise MfcatError("invalid-shape", "triangles need nonzero endpoints")
    unit = [
        (lam, c)
        for lam, c in zip(f.peaks, f.coeffs)
        if not field.is_zero(c)
    ]
    if len(unit) != 1 or unit[0][1] != field.one():
        raise MfcatError("invalid-shape", "triangle input must be a basis morphism")
    lam = unit[0][0]
    parts = ((lam - mu, 1), (pad(n, nu - lam), -1))
    parts = [p for p in parts if p[0]] or parts[:1]
    third = tuple(t for t, _ in parts)
    g = tuple(an_generator(field, n, nu, t) for t in third)
    h = tuple(an_scale(an_generator(field, n, t, pad(n, -mu)), sign) for t, sign in parts)
    return AnTriangle(field, n, f, lam, third, g, h)


def realize_an_triangle(tri: AnTriangle, ctx: RingContext):
    """The triangle as matrix factorizations: (X, Y, T, f, g, h) where h
    lands in the shift X[1] through the standard identification.

    Each catalogue object V_k is built once per call and shared by every
    morphism that starts or ends at it, and by the sum T.  g and h are
    checked: an `AnTriangle` may hold parts that do not match its summands,
    and certification's f1-slot systems need them closed."""
    n = tri.n
    built = {k: realize_an_object(ctx, n, k) for k in {tri.f.mu, tri.f.nu, pad(n, -tri.f.mu), *tri.third}}
    f = _realize_morphism(tri.f, ctx, built)
    x, y = f.source, f.target
    t = reduce(mf_direct_sum, [built[k] for k in tri.third])
    g_parts = [_realize_morphism(gi, ctx, built) for gi in tri.g]
    h_parts = [_realize_morphism(hi, ctx, built) for hi in tri.h]
    g1 = PolyMatrix.block([[p.f1] for p in g_parts])
    g0 = PolyMatrix.block([[p.f0] for p in g_parts])
    g = morphism_new(y, t, g1, g0)
    h1 = PolyMatrix.block([[p.f1 for p in h_parts]])
    h0 = PolyMatrix.block([[p.f0 for p in h_parts]])
    # The parts land in V_(n-mu) = X[1], identified with components (-1, 1)
    # as in `shift_identification`.
    h = morphism_new(t, mf_shift(x), -h1, h0)
    return x, y, t, f, g, h


def certify_an_triangle(
    tri: AnTriangle, ctx: Optional[RingContext] = None, bound: Optional[int] = None
) -> dict:
    """Certify the catalogue triangle against the cone of its first map.

    Solves `homotopy._comparison_system` for a comparison map
    w: T -> cone(f) with w g ~ g_std as maps Y -> cone and h_std w ~ h as
    maps T -> X[1], every unknown of entry degree <= bound, then looks for
    an invertible one in w + span(kernel) with `_find_invertible`; the
    kernel of the system is computed only if w itself is not invertible.
    Returns a certificate dict; "certified" is False when no invertible
    comparison map was found.
    """
    if ctx is None:
        ctx = an_context(tri.field)
    n = tri.n
    _, _, t, f, g, h = realize_an_triangle(tri, ctx)
    cone_obj, g_std, h_std = standard_triangle(f)
    if bound is None:
        bound = 2 * n
    system = _comparison_system(g, g_std, h_std, h, bound, bound)
    certificate = {
        "n": n,
        "mu": tri.f.mu,
        "nu": tri.f.nu,
        "lam": tri.lam,
        "third": list(tri.third),
        "certified": False,
        "candidates_tried": 0,
    }
    particular = system.solve()
    if particular is None:
        certificate["reason"] = "no comparison map up to the degree bound"
        return certificate

    def directions():
        parts = system.homogeneous_nullspace()
        kernel = [morphism_new(t, cone_obj, a["m1"], a["m0"]) for a in parts]
        return [d for d in kernel if not d.is_zero()]

    base = morphism_new(t, cone_obj, particular["m1"], particular["m0"])
    found = _find_invertible(certificate, bound, base, directions)
    if found is None:
        certificate["reason"] = "comparison maps found but none invertible"
        return certificate
    comparison = found[0]
    certificate["certified"] = True
    certificate["w1"] = [[str(p) for p in row] for row in comparison.f1.entries]
    certificate["w0"] = [[str(p) for p in row] for row in comparison.f0.entries]
    return certificate


# -- cross verification -------------------------------------------------


def an_verify(n: int, field: Field = QQ) -> dict:
    """Cross-check the catalogue against the module and factorization
    engines: dimensions, composition, translation, and triangles.

    Returns {"n", "ok", "checks": [record...]} with one record per check.
    """
    _check_n(n)
    ctx = an_context(field)
    checks: List[dict] = []

    def record(check: str, params: dict, ok: bool, **extra):
        checks.append({"check": check, "params": params, "ok": ok, **extra})

    pairs = list(product(range(1, n), repeat=2))
    # Each catalogue value is built once: the basis of every Hom space, its
    # module maps, the objects V_mu and the cokernels of their shifts.
    basis = {
        (mu, nu): [an_basis_morphism(field, n, mu, nu, lam) for lam in an_hom_basis(n, mu, nu)]
        for mu, nu in pairs
    }
    maps = {key: [an_module_map(a) for a in morphisms] for key, morphisms in basis.items()}
    built = {mu: realize_an_object(ctx, n, mu) for mu in range(1, n)}
    shifted = {mu: cok(mf_shift(x)) for mu, x in built.items()}
    modules = {mu: an_module(field, n, mu) for mu in range(1, n)}
    stable = {(mu, nu): stable_hom(modules[mu], modules[nu]) for mu, nu in pairs}
    for mu, nu in pairs:
        want = an_hom_dim(n, mu, nu)
        got = stable[(mu, nu)].dim
        record("hom-dim", {"mu": mu, "nu": nu}, want == got, catalogue=want, module_side=got)

    # Composition tables against stable classes of module maps.
    for mu, mid, nu in product(range(1, n), repeat=3):
        # Module products, then catalogue composites, in one solve.
        products, composites = [], []
        for b, map_b in zip(basis[(mu, mid)], maps[(mu, mid)]):
            for a, map_a in zip(basis[(mid, nu)], maps[(mid, nu)]):
                products.append(mat_mul(field, map_a, map_b))
                composites.append(an_module_map(an_compose(a, b)))
        coords = stable[(mu, nu)].stable_coordinates_many(products + composites)
        ok = coords[: len(products)] == coords[len(products) :]
        record("compose", {"mu": mu, "mid": mid, "nu": nu}, ok)

    # Translation against the shift functor through cok.
    for mu, nu in pairs:
        ok = all(
            cok_induced_map(shifted[mu], shifted[nu], shift_morphism(_realize_morphism(a, ctx, built)))
            == an_module_map(an_translate(a))
            for a in basis[(mu, nu)]
        )
        record("translate", {"mu": mu, "nu": nu}, ok)

    # One triangle per basis morphism; the first peak is the generator's.
    for mu, nu in pairs:
        for a in basis[(mu, nu)]:
            tri = an_triangle(a)
            cert = certify_an_triangle(tri, ctx)
            if tri.lam == max(mu, nu):
                record("triangle-fst", {"mu": mu, "nu": nu}, cert["certified"], certificate=cert)
            else:
                record("triangle-lst", {"mu": mu, "nu": nu, "lam": tri.lam}, cert["certified"], certificate=cert)

    return {"n": n, "ok": all(c["ok"] for c in checks), "checks": checks}
