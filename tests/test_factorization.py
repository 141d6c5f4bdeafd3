import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from mfcat import (
    QQ,
    PolyMatrix,
    PrimeField,
    RingContext,
    compose,
    cone,
    cone_inclusion_homotopy,
    identity_morphism,
    mf_direct_sum,
    mf_from_polys,
    mf_new,
    mf_shift,
    mf_zero_object,
    morphism_add,
    morphism_from_polys,
    morphism_new,
    morphism_scale,
    multiplication_morphism,
    parse_poly,
    partial_derivative_homotopy,
    rank_one,
    shift_morphism,
    standard_triangle,
    unshifted_w,
    w_multiplication_homotopy,
    zero_morphism,
)
from mfcat import andyn
from mfcat.andyn import (
    an_add,
    an_basis_morphism,
    an_context,
    an_hom_basis,
    an_scale,
    an_triangle,
    realize_an_morphism,
    realize_an_object,
    realize_an_triangle,
    shift_identification,
)
from mfcat.errors import MfcatError
from mfcat.factorization import (
    Homotopy,
    MatrixFactorization,
    MFMorphism,
    _check_same_fiber,
    _first_difference,
    direct_sum_morphism,
)
from mfcat.knorrer import knorrer, knorrer_morphism
from mfcat.poly import Poly


CTX = RingContext(QQ, ("z",), weights=(1,))
W5 = parse_poly(CTX, "z^5")


def v(mu):
    a = parse_poly(CTX, f"z^{mu}")
    b = parse_poly(CTX, f"z^{5 - mu}")
    return rank_one(CTX, W5, a, b)


def test_constructor_checks_products():
    mf_from_polys(CTX, W5, [["z^2"]], [["z^3"]])
    with pytest.raises(ValueError, match="not-a-factorization"):
        mf_from_polys(CTX, W5, [["z^2"]], [["z^2"]])
    with pytest.raises(ValueError, match="invalid-shape"):
        mf_new(CTX, W5, PolyMatrix.zero(CTX, 1, 1), PolyMatrix.zero(CTX, 2, 2))
    with pytest.raises(ValueError, match="zero-superpotential"):
        mf_from_polys(CTX, CTX.zero(), [["z"]], [["z"]])


def test_noncommutative_factorization():
    # p1 and p0 are not scalar matrices; p0 * p1 = W follows from p1 * p0 = W
    ctx = RingContext(QQ, ("z",))
    w = parse_poly(ctx, "z^2")
    p1 = PolyMatrix(ctx, [[parse_poly(ctx, "z"), parse_poly(ctx, "1")],
                          [parse_poly(ctx, "0"), parse_poly(ctx, "z")]])
    p0 = PolyMatrix(ctx, [[parse_poly(ctx, "z"), parse_poly(ctx, "-1")],
                          [parse_poly(ctx, "0"), parse_poly(ctx, "z")]])
    x = mf_new(ctx, w, p1, p0)
    assert x.rank == 2


def test_base_point_shifts_fiber():
    ctx = RingContext(QQ, ("z",), w0=Fraction(2))
    w_total = parse_poly(ctx, "z^3 - 3*z")
    # z^3 - 3z - 2 = (z + 1)^2 (z - 2)
    a = parse_poly(ctx, "z + 1")
    b = parse_poly(ctx, "z^2 - z - 2")
    x = rank_one(ctx, w_total, a, b)
    assert x.w == parse_poly(ctx, "z^3 - 3*z - 2")
    assert unshifted_w(x) == w_total


def test_zero_object():
    z = mf_zero_object(CTX, W5)
    assert z.rank == 0
    s = mf_direct_sum(z, v(2))
    assert s.rank == 1


def test_shift_is_strict_involution():
    for mu in (1, 2, 3):
        x = v(mu)
        assert mf_shift(x) != x
        assert mf_shift(mf_shift(x)) == x
    y = mf_direct_sum(v(1), mf_shift(v(2)))
    assert mf_shift(mf_shift(y)) == y


def test_shift_negates_and_swaps():
    x = v(2)
    sx = mf_shift(x)
    assert sx.p1 == -x.p0
    assert sx.p0 == -x.p1


def test_morphism_validation():
    x, y = v(3), v(2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    assert f.f1.entries[0][0] == parse_poly(CTX, "z")
    with pytest.raises(ValueError, match="not-a-morphism"):
        morphism_from_polys(x, y, [["1"]], [["1"]])
    with pytest.raises(ValueError, match="superpotential-mismatch"):
        w4 = parse_poly(CTX, "z^4")
        other = rank_one(CTX, w4, parse_poly(CTX, "z"), parse_poly(CTX, "z^3"))
        morphism_from_polys(x, other, [["1"]], [["1"]])


def test_compose_and_identity():
    x, y = v(3), v(2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    assert compose(identity_morphism(y), f).f1 == f.f1
    assert compose(f, identity_morphism(x)).f0 == f.f0
    with pytest.raises(ValueError, match="not-composable"):
        compose(f, f)


def test_morphism_algebra():
    x = v(2)
    f = identity_morphism(x)
    two = morphism_add(f, f)
    assert two.f1 == PolyMatrix.scalar(CTX, parse_poly(CTX, "2"), 1)
    half = morphism_scale(two, Fraction(1, 2))
    assert half.f1 == f.f1
    z = zero_morphism(x, x)
    assert morphism_add(f, z).f1 == f.f1


def test_shift_morphism_swaps_components():
    x, y = v(3), v(2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    sf = shift_morphism(f)
    assert sf.f1 == f.f0 and sf.f0 == f.f1
    assert sf.source == mf_shift(x) and sf.target == mf_shift(y)


def test_direct_sum_morphism_blocks():
    f = identity_morphism(v(1))
    g = identity_morphism(v(2))
    s = direct_sum_morphism(f, g)
    assert s.source.rank == 2
    assert s.f1 == PolyMatrix.identity(CTX, 2)


def test_cone_blocks():
    x, y = v(3), v(2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    c = cone(f)
    assert c.rank == 2
    # c1 = [[q1, f0], [0, -p0]] mixes target and shifted source
    assert c.p1.entries[0][0] == y.p1.entries[0][0]
    assert c.p1.entries[0][1] == f.f0.entries[0][0]
    assert c.p1.entries[1][0].is_zero()
    assert c.p1.entries[1][1] == -x.p0.entries[0][0]
    # c0 = [[q0, f1], [0, -p1]]
    assert c.p0.entries[0][0] == y.p0.entries[0][0]
    assert c.p0.entries[0][1] == f.f1.entries[0][0]
    assert c.p0.entries[1][1] == -x.p1.entries[0][0]


def test_standard_triangle_shapes():
    x, y = v(3), v(2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    c, g, h = standard_triangle(f)
    assert g.source == y and g.target == c
    assert h.source == c and h.target == mf_shift(x)
    # g = (id, 0) into the cone, h = (0, -id) out of it
    assert g.f1.entries[0][0] == CTX.one()
    assert g.f1.entries[1][0].is_zero()
    assert h.f1.entries[0][0].is_zero()
    assert h.f1.entries[0][1] == -CTX.one()


def test_cone_inclusion_homotopy():
    # g o f is null-homotopic with the explicit witness (0; id)
    x, y = v(3), v(2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    c, g, h = standard_triangle(f)
    gf = compose(g, f)
    witness = cone_inclusion_homotopy(f)
    assert witness.bounds(gf)


def test_homotopy_boundary_is_morphism():
    x, y = v(3), v(2)
    s = PolyMatrix(CTX, [[parse_poly(CTX, "z")]])
    t = PolyMatrix(CTX, [[parse_poly(CTX, "1")]])
    h = Homotopy(x, y, s, t)
    f = h.boundary()
    # boundaries always satisfy the morphism identities
    morphism_new(x, y, f.f1, f.f0)
    assert h.bounds(f)
    assert not h.bounds(zero_morphism(x, y)) or f.f1.is_zero()


def test_partial_derivative_witness():
    x = v(2)
    f, h = partial_derivative_homotopy(x, "z")
    assert f.f1.entries[0][0] == parse_poly(CTX, "5*z^4")
    assert h.s == x.p0.partial_derivative("z")
    assert h.t == x.p1.partial_derivative("z")
    assert h.bounds(f)


def test_w_multiplication_witness():
    x = v(2)
    f, h = w_multiplication_homotopy(x)
    assert f.f1.entries[0][0] == x.w
    assert h.s == x.p0
    assert h.t.is_zero()
    assert h.bounds(f)


def test_multiplication_morphism_is_central():
    x, y = v(3), v(2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    zx = multiplication_morphism(x, parse_poly(CTX, "z"))
    zy = multiplication_morphism(y, parse_poly(CTX, "z"))
    assert compose(f, zx).f1 == compose(zy, f).f1


# -- one product identity each, against the two-check reference -----------
#
# Over the polynomial ring, a domain, p1 p0 = (W - w0) I implies p0 p1 =
# (W - w0) I for square matrices, and for factorizations X and Y the
# identity f1 p0 = q0 f0 implies q1 f1 = f0 p1.  The references below check
# both halves and the library checks one: every input must get the same
# object or the same error text.


def _reference_mf_new(ctx, w_total, p1, p0):
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
    w_ident = PolyMatrix.scalar(ctx, w, p1.rows)
    for prod, name in ((p1 @ p0, "p1 * p0"), (p0 @ p1, "p0 * p1")):
        if prod != w_ident:
            raise MfcatError(
                "not-a-factorization", f"{name} differs from (W - w0) * I; "
                f"first offending entry {_first_difference(prod, w_ident)}"
            )
    return MatrixFactorization(ctx, w, p1.rows, p1, p0)


def _reference_morphism_new(x, y, f1, f0):
    _check_same_fiber(x, y)
    if f1.rows != y.rank or f1.cols != x.rank or f0.rows != y.rank or f0.cols != x.rank:
        raise MfcatError(
            "invalid-shape", f"morphism components must be {y.rank}x{x.rank}, "
            f"got {f1.rows}x{f1.cols} and {f0.rows}x{f0.cols}"
        )
    for lhs, rhs, name in (
        (f1 @ x.p0, y.p0 @ f0, "f1 * p0 differs from q0 * f0"),
        (y.p1 @ f1, f0 @ x.p1, "q1 * f1 differs from f0 * p1"),
    ):
        if lhs != rhs:
            raise MfcatError("not-a-morphism", f"{name}; first offending entry {_first_difference(lhs, rhs)}")
    return MFMorphism(x, y, f1, f0)


def _reference_cone(f):
    x, y = f.source, f.target
    ctx = x.ctx
    z = PolyMatrix.zero(ctx, x.rank, y.rank)
    c1 = PolyMatrix.block([[y.p1, f.f0], [z, -x.p0]])
    c0 = PolyMatrix.block([[y.p0, f.f1], [z, -x.p1]])
    w_ident = PolyMatrix.scalar(ctx, x.w, x.rank + y.rank)
    if c1 @ c0 != w_ident or c0 @ c1 != w_ident:
        raise MfcatError("not-a-factorization", "cone blocks fail the product identity")
    return MatrixFactorization(ctx, x.w, x.rank + y.rank, c1, c0)


def _outcome(build, *args):
    """The object built, or the text of the error raised."""
    try:
        return build(*args)
    except MfcatError as exc:
        return str(exc)


def _bump(rng, m):
    """m with c z^k added to one seeded entry, c a nonzero scalar."""
    ctx = m.ctx
    field = ctx.field
    rows = [list(row) for row in m.entries]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    c = field.coerce(rng.choice([c for c in (1, -1, 2, 3) if not field.is_zero(field.coerce(c))]))
    rows[i][j] = rows[i][j] + ctx.monomial((rng.randrange(4),) + (0,) * (ctx.nvars - 1), c)
    return PolyMatrix(ctx, rows, cols=m.cols)


def _catalogue(field, rng):
    """Objects and morphisms for n <= 5: V_mu, shifts, direct sums, cones and
    Knoerrer lifts; basis morphisms, their shifts, sums and lifts."""
    ctx = an_context(field)
    objects, morphisms = [], []
    for n in range(2, 6):
        vs = [realize_an_object(ctx, n, mu) for mu in range(n)]
        basis = [
            realize_an_morphism(an_basis_morphism(field, n, mu, nu, lam), ctx)
            for mu in range(1, n)
            for nu in range(1, n)
            for lam in an_hom_basis(n, mu, nu)
        ]
        sums = [
            morphism_add(f, g)
            for f in basis
            for g in basis
            if f is not g and (f.source, f.target) == (g.source, g.target)
        ]
        pairs = [rng.sample(basis, 2) for _ in range(3 if len(basis) > 1 else 0)]
        morphisms += basis + sums + [shift_morphism(f) for f in basis]
        morphisms += [direct_sum_morphism(f, g) for f, g in pairs]
        objects += vs + [mf_shift(x) for x in vs] + [mf_direct_sum(f.source, g.target) for f, g in pairs]
        objects += [cone(f) for f in basis]
        if n <= 4:
            objects += [knorrer(x) for x in vs[1:]]
            morphisms += [knorrer_morphism(f) for f in basis]
    return objects, morphisms


def _rank_one_candidates(field, rng):
    """(ctx, W, a, b) with a b = W - w0 and with a b off by one term."""
    for ctx in (an_context(field), RingContext(field, ("z",), weights=(1,), w0=2)):
        z = ctx.variable("z")
        yield ctx, ctx.constant(ctx.w0), z, ctx.zero()
        for _ in range(20):
            a = sum((ctx.constant(rng.randrange(-2, 3)) * z**k for k in range(3)), ctx.zero())
            b = sum((ctx.constant(rng.randrange(-2, 3)) * z**k for k in range(3)), ctx.zero())
            w = a * b + ctx.constant(ctx.w0)
            for w_total in (w, w + ctx.constant(rng.choice([1, 2])) * z ** rng.randrange(5)):
                yield ctx, w_total, a, b


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=lambda f: f.name)
def test_one_product_check_matches_the_two_check_reference(field):
    rng = random.Random(23)
    objects, morphisms = _catalogue(field, rng)
    outcomes = []

    def same(build, reference, *args):
        got, want = _outcome(build, *args), _outcome(reference, *args)
        assert got == want, (args, got, want)
        outcomes.append(want)

    for x in objects:
        w_total = unshifted_w(x)
        same(mf_new, _reference_mf_new, x.ctx, w_total, x.p1, x.p0)
        if x.rank:
            same(mf_new, _reference_mf_new, x.ctx, w_total, _bump(rng, x.p1), x.p0)
            same(mf_new, _reference_mf_new, x.ctx, w_total, x.p1, _bump(rng, x.p0))
    for ctx, w_total, a, b in _rank_one_candidates(field, rng):
        same(mf_new, _reference_mf_new, ctx, w_total, PolyMatrix(ctx, [[a]]), PolyMatrix(ctx, [[b]]))
    for f in morphisms:
        x, y = f.source, f.target
        g = rng.choice([g for g in morphisms if (g.source, g.target) == (x, y)])
        candidates = [
            (f.f1, f.f0),
            (f.f1 + g.f1, f.f0 + g.f0),
            (f.f1 + g.f0, f.f0 + g.f1),
        ]
        if x.rank and y.rank:
            candidates += [(_bump(rng, f.f1), f.f0), (f.f1, _bump(rng, f.f0))]
        for f1, f0 in candidates:
            same(morphism_new, _reference_morphism_new, x, y, f1, f0)
            same(cone, _reference_cone, MFMorphism(x, y, f1, f0))
    texts = [o for o in outcomes if isinstance(o, str)]
    assert sum(map(bool, texts)) > 100 and len(outcomes) - len(texts) > 100
    assert {t.split(":")[0] for t in texts} == {"not-a-factorization", "not-a-morphism", "zero-superpotential"}


# -- constructions from valid inputs, against the validating entries ------
#
# `standard_triangle`'s g and h, the catalogue's morphisms, the shift
# identification and `knorrer` build with the raw constructors, each valid by
# an identity that holds for every valid input.  The entries they no longer
# call must accept every output and return it unchanged, and the entries and
# witness functions must still refuse bad raw input.


def _catalogue_maps(field, ns):
    """Realized basis morphisms and two-term sums a + 2b, for n in ns."""
    ctx = an_context(field)
    out = []
    for n in ns:
        for mu in range(1, n):
            for nu in range(1, n):
                basis = [an_basis_morphism(field, n, mu, nu, lam) for lam in an_hom_basis(n, mu, nu)]
                sums = [an_add(a, an_scale(b, 2)) for a, b in itertools.combinations(basis, 2)]
                out += [realize_an_morphism(a, ctx) for a in basis + sums]
    return out


def _revalidated(f):
    return morphism_new(f.source, f.target, f.f1, f.f0)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=lambda f: f.name)
def test_catalogue_morphisms_pass_the_validating_entry(field):
    ctx = an_context(field)
    maps = _catalogue_maps(field, range(2, 7))
    maps += [shift_identification(ctx, n, mu) for n in range(2, 7) for mu in range(1, n)]
    assert len(maps) > 100
    for f in maps:
        assert _revalidated(f) == f


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=lambda f: f.name)
def test_standard_triangle_maps_pass_the_validating_entry(field):
    # f, its shift, and the maps into and out of its cone
    for f in _catalogue_maps(field, range(2, 7)):
        _, g, h = standard_triangle(f)
        for m in (f, shift_morphism(f), g, h):
            _, *maps = standard_triangle(m)
            assert [_revalidated(u) for u in maps] == maps


def _moved(ctx, x):
    """x over ctx, whose base point w0 shifts the fiber back to that of x."""

    def move(m):
        return PolyMatrix(ctx, [[Poly(ctx, p.terms) for p in row] for row in m.entries], cols=m.cols)

    return mf_new(ctx, Poly(ctx, x.w.terms) + ctx.constant(ctx.w0), move(x.p1), move(x.p0))


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=lambda f: f.name)
def test_knorrer_passes_the_validating_entry(field):
    # catalogue objects, their shifts, sums and cones, weighted and over an
    # unweighted context with w0 = 2
    ctx = an_context(field)
    objects = []
    for n in range(2, 6):
        vs = [realize_an_object(ctx, n, mu) for mu in range(n)]
        objects += vs + [mf_shift(x) for x in vs]
        objects += [mf_direct_sum(x, y) for x, y in itertools.combinations_with_replacement(vs[1:], 2)]
        objects += [cone(f) for f in _catalogue_maps(field, [n])]
    unweighted = RingContext(field, ("z",), w0=2)
    objects += [_moved(unweighted, x) for x in objects]
    for x in objects:
        k = knorrer(x)
        assert mf_new(k.ctx, unshifted_w(k), k.p1, k.p0) == k


def test_constructions_call_no_validating_entry(monkeypatch):
    # Calls are counted through each name that the three modules bind.  The
    # catalogue objects are built first, through their validating entry.
    ctx = an_context(QQ)
    objects = {k: realize_an_object(ctx, 5, k) for k in range(5)}
    realize = andyn.realize_an_object
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for module in [importlib.import_module(f"mfcat.{m}") for m in ("factorization", "andyn", "knorrer")]:
        for name in ("mf_new", "morphism_new"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(andyn, "realize_an_object", lambda ctx, n, mu: objects[andyn.pad(n, mu)])
    a = an_basis_morphism(QQ, 5, 2, 3, 4)
    c, _, _ = standard_triangle(realize_an_morphism(a, ctx))
    shift_identification(ctx, 5, 2)
    knorrer(c)
    assert calls == Counter()
    # The triangle's g and h are entries: its parts need not match T.
    realize_an_triangle(an_triangle(a), ctx)
    assert calls == Counter(morphism_new=2)
    calls.clear()
    realize(ctx, 5, 2)
    assert calls == Counter(mf_new=1)


def test_entries_and_witnesses_reject_bad_raw_input():
    x, y = v(3), v(2)
    one = PolyMatrix.identity(CTX, 1)
    bad = MFMorphism(x, y, one, one)
    for build in (cone, standard_triangle):
        with pytest.raises(MfcatError, match="not-a-factorization"):
            build(bad)
    with pytest.raises(MfcatError, match="not-a-morphism"):
        knorrer_morphism(bad)
    # p1 p0 = z^5 + z^4, off by a non-constant term
    off = MatrixFactorization(
        CTX, W5, 1, PolyMatrix(CTX, [[parse_poly(CTX, "z^2")]]), PolyMatrix(CTX, [[parse_poly(CTX, "z^3 + z^2")]])
    )
    with pytest.raises(MfcatError, match="not-a-morphism"):
        w_multiplication_homotopy(off)
    with pytest.raises(MfcatError, match="not-a-morphism"):
        partial_derivative_homotopy(off, "z")
