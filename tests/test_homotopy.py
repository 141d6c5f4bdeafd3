import importlib.util
import itertools
import pathlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import mfcat
from mfcat import (
    QQ,
    Homotopy,
    MatrixFactorization,
    PolyMatrix,
    PrimeField,
    RingContext,
    SearchPolicy,
    bounded_stable_hom_estimate,
    compose,
    cone,
    find_null_homotopy,
    graded_stable_hom_dim,
    identity_morphism,
    infer_generator_degrees,
    is_contractible,
    is_iso_in_db,
    mf_shift,
    mf_zero_object,
    morphism_add,
    morphism_from_polys,
    multiplication_morphism,
    morphism_space_basis,
    morphism_sub,
    parse_poly,
    rank_one,
    standard_triangle,
    zero_morphism,
)
from mfcat import homotopy as ho
from mfcat import linalg
from mfcat import andyn
from mfcat.errors import MfcatError
from mfcat.knorrer import knorrer, knorrer_morphism
from mfcat.modules import cyclic_module, stabilize
from mfcat.poly import grlex_key


F = Fraction
CTX = andyn.an_context()


def v(n, mu):
    return andyn.realize_an_object(CTX, n, mu)


def test_frozen_smooth_fiber_witness():
    # identity of (z - 1, z + 1) over z^2 - 1 bounds with (s, t) = (-1/2, 1/2)
    ctx = RingContext(QQ, ("z",), weights=(1,))
    w = parse_poly(ctx, "z^2 - 1")
    x = rank_one(ctx, w, parse_poly(ctx, "z - 1"), parse_poly(ctx, "z + 1"))
    res = find_null_homotopy(identity_morphism(x), SearchPolicy(mode="bounded"))
    assert res.status == "found"
    assert res.homotopy.s.entries[0][0] == ctx.constant(F(-1, 2))
    assert res.homotopy.t.entries[0][0] == ctx.constant(F(1, 2))
    assert _coefficient_types(res.homotopy.s, res.homotopy.t) == {F}
    assert res.certificate["bound_used"] == 0


def _coefficient_types(*matrices):
    return {type(c) for m in matrices for row in m.entries for p in row for c in p.terms.values()}


def test_catalogue_witnesses_hold_integral_coefficients_as_ints():
    rot = andyn.realize_an_morphism(andyn.an_generator(QQ, 2, 1, 1), CTX)
    _, g, _ = standard_triangle(rot)
    x = cone(g)
    r = is_iso_in_db(x, mf_shift(rot.source), SearchPolicy(mode="bounded", bound=4))
    assert r.status == "iso"
    assert _coefficient_types(x.p1, x.p0, r.u.f1, r.u.f0, r.v.f1, r.v.f0) == {int}
    assert _coefficient_types(r.source_homotopy.s, r.source_homotopy.t) == {int}
    f = morphism_from_polys(v(5, 2), v(5, 2), [["z^3"]], [["z^3"]])
    res = find_null_homotopy(f, SearchPolicy(mode="graded"))
    assert _coefficient_types(res.homotopy.s, res.homotopy.t) == {int}
    basis = morphism_space_basis(v(5, 2), v(5, 3), 4)
    assert _coefficient_types(*(m for b in basis for m in (b.f1, b.f0))) == {int}


def test_zero_morphism_fast_path():
    x = v(5, 2)
    res = find_null_homotopy(zero_morphism(x, x))
    assert res.status == "found"
    assert res.homotopy.s.is_zero() and res.homotopy.t.is_zero()


def test_identity_of_nontrivial_object_not_null():
    x = v(5, 2)
    res = find_null_homotopy(identity_morphism(x), SearchPolicy(mode="graded"))
    assert res.status == "proven-none"
    assert "failed_degree" in res.certificate
    bounded = find_null_homotopy(identity_morphism(x), SearchPolicy(mode="bounded", bound=6))
    assert bounded.status == "none-up-to-bound"


def test_bounded_witness_verifies():
    x, y = v(5, 3), v(5, 2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    # z^2 * f factors through z^2-action, which kills the depth-2 catalogue class
    g = compose(
        morphism_from_polys(y, y, [["z^2"]], [["z^2"]]), f
    )
    res = find_null_homotopy(g, SearchPolicy(mode="bounded"))
    assert res.status == "found"
    assert res.homotopy.bounds(g)


def test_graded_and_bounded_agree_on_null():
    x, y = v(5, 3), v(5, 2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    g = compose(morphism_from_polys(y, y, [["z^2"]], [["z^2"]]), f)
    res = find_null_homotopy(g, SearchPolicy(mode="graded"))
    assert res.status == "found"
    assert res.homotopy.bounds(g)


def test_cone_of_identity_contractible():
    x = v(4, 2)
    c = cone(identity_morphism(x))
    res = is_contractible(c)
    assert res.status == "found"
    res_graded = is_contractible(c, SearchPolicy(mode="graded"))
    assert res_graded.status == "found"


def test_contractible_rank_one_unit():
    ctx = RingContext(QQ, ("z",), weights=(1,))
    w = parse_poly(ctx, "z^5")
    triv = rank_one(ctx, w, parse_poly(ctx, "1"), w)
    assert is_contractible(triv).status == "found"
    nontriv = rank_one(ctx, w, parse_poly(ctx, "z^2"), parse_poly(ctx, "z^3"))
    assert is_contractible(nontriv, SearchPolicy(mode="graded")).status == "proven-none"


def test_generator_degree_inference():
    x = v(5, 2)
    a, b = infer_generator_degrees(x)
    # p1 = z^2 pins the P1 generator two above the P0 generator
    assert b[0] - a[0] == 2
    ctx = RingContext(QQ, ("z",), weights=(1,))
    w = parse_poly(ctx, "z^2 - 1")
    mixed = rank_one(ctx, w, parse_poly(ctx, "z - 1"), parse_poly(ctx, "z + 1"))
    with pytest.raises(ValueError, match="policy-infeasible"):
        infer_generator_degrees(mixed)


def test_graded_stable_hom_frozen_table():
    expected = [
        [1, 1, 1, 1],
        [1, 2, 2, 1],
        [1, 2, 2, 1],
        [1, 1, 1, 1],
    ]
    for mu in range(1, 5):
        for nu in range(1, 5):
            dim, cert = graded_stable_hom_dim(v(5, mu), v(5, nu))
            assert dim == expected[mu - 1][nu - 1]
            assert cert["total"] == dim
            assert sum(d for _, d in cert["degrees"]) == dim


def test_graded_certificate_overscan_finds_nothing_late():
    # the degrees just past the certified bound hold nothing
    x, y = v(5, 2), v(5, 3)
    _, cert = graded_stable_hom_dim(x, y)
    late = range(cert["scan_bound"] + 1, cert["scan_bound"] + 6)
    assert ho._degree_dimensions(ho.HomComplex(x, y), late) == [0] * 5


def test_rank_zero_certificate_takes_the_common_shape():
    # A rank-0 side leaves no degree to scan: the certificate has every key
    # of the others, in their order, and no scan bound.
    for x, y in [(v(5, 0), v(5, 2)), (v(5, 2), v(5, 0)), (v(5, 0), v(5, 0))]:
        dim, cert = graded_stable_hom_dim(x, y)
        assert dim == 0
        assert list(cert.items()) == [
            ("total", 0), ("degrees", []), ("scan_bound", None), ("window", 3), ("weights", [1])
        ]
        assert list(cert) == list(graded_stable_hom_dim(v(5, 2), v(5, 3))[1])
    # A pair that cannot be graded is refused, whatever its ranks.
    ctx = RingContext(QQ, ("z",), weights=(1,))
    w = parse_poly(ctx, "z^2 - 1")
    mixed = rank_one(ctx, w, parse_poly(ctx, "z - 1"), parse_poly(ctx, "z + 1"))
    zero = mf_zero_object(ctx, w)
    for x, y in [(zero, mixed), (mixed, zero), (zero, zero)]:
        with pytest.raises(MfcatError, match="policy-infeasible: non-quasi-homogeneous"):
            graded_stable_hom_dim(x, y)
    unweighted = RingContext(QQ, ("z",))
    zero = mf_zero_object(unweighted, parse_poly(unweighted, "z^5"))
    with pytest.raises(MfcatError, match="policy-infeasible: graded mode requires configured weights"):
        graded_stable_hom_dim(zero, zero)


def test_iso_between_zero_objects_is_trivial():
    zero = v(5, 0)
    for policy in (SearchPolicy(mode="bounded", bound=2), SearchPolicy(mode="graded")):
        r = is_iso_in_db(zero, zero, policy)
        assert (r.status, r.certificate) == ("iso", {"trivial": True})
        assert (r.u.source, r.u.target, r.v.source, r.v.target) == (zero,) * 4
        assert r.u.f1.rows == r.source_homotopy.s.rows == 0


def test_iso_between_zero_and_contractible_tries_the_zero_map():
    # With a rank-0 side the only map is 0 and the morphism basis is empty:
    # the zero map is the one candidate, certified against the contractible
    # (1, z^3) and failing against V_1.
    w = andyn.an_w(CTX, 3)
    zero, contractible, v1 = v(3, 0), rank_one(CTX, w, CTX.one(), w), v(3, 1)
    for mode in ("bounded", "graded"):
        for x, y in ((zero, contractible), (contractible, zero)):
            r = is_iso_in_db(x, y, SearchPolicy(mode=mode, bound=3))
            assert (r.status, r.certificate["candidates_tried"]) == ("iso", 1)
            assert r.u == zero_morphism(x, y) and r.v == zero_morphism(y, x)
            assert r.source_homotopy.bounds(morphism_sub(compose(r.v, r.u), identity_morphism(x)))
            assert r.target_homotopy.bounds(morphism_sub(compose(r.u, r.v), identity_morphism(y)))
        for x, y in ((zero, v1), (v1, zero)):
            r = is_iso_in_db(x, y, SearchPolicy(mode=mode, bound=3))
            if mode == "bounded":
                assert (r.status, r.certificate["candidates_tried"]) == ("unknown", 1)
            else:
                assert r.status == "not-iso"


def _nonzero_degrees(x, y):
    return {phi: d for phi, d in graded_stable_hom_dim(x, y)[1]["degrees"] if d}


def _lifted_catalogue(field, n, lifts):
    ctx = andyn.an_context(field)
    objects = []
    for mu in range(1, n):
        x = andyn.realize_an_object(ctx, n, mu)
        for names in (("x", "y"), ("u", "v"))[:lifts]:
            x = knorrer(x, *names)
        objects.append(x)
    return objects


@pytest.mark.parametrize(
    "field, n, lifts, pairs",
    [
        (QQ, 3, 0, None),
        (QQ, 3, 1, None),
        (QQ, 3, 2, [(0, 1)]),
        (QQ, 5, 0, None),
        (QQ, 5, 1, None),
        (PrimeField(3), 3, 1, None),
        (PrimeField(3), 4, 1, None),
        (PrimeField(3), 6, 1, None),
        (PrimeField(2), 4, 1, None),
        (PrimeField(5), 5, 1, None),
        (PrimeField(101), 6, 1, None),
    ],
)
def test_graded_serre_duality_mirror(field, n, lifts, pairs):
    # Graded Serre duality for an isolated quasi-homogeneous singularity in
    # an odd number m of variables (Auslander 1978; Buchweitz 1986):
    # H(X, Y)_phi and H(Y, X[1])_(c - phi) have the same dimension, with
    # c = (d - sum w) + ((m - 1) / 2) d - (b_X[0] - a_X[0]) for d the
    # weighted degree of W and (a_X, b_X) the inferred generator degrees.
    # The scan computes both sides independently; the fields include
    # p dividing n.
    objects = _lifted_catalogue(field, n, lifts)
    if pairs is None:
        pairs = [(i, j) for i in range(len(objects)) for j in range(len(objects))]
    for i, j in pairs:
        x, y = objects[i], objects[j]
        weights = x.ctx.weights
        m, d = len(weights), x.w.weighted_degree()
        assert m % 2 == 1
        a_x, b_x = infer_generator_degrees(x)
        c = (d - sum(weights)) + (m - 1) // 2 * d - (b_x[0] - a_x[0])
        forward = _nonzero_degrees(x, y)
        assert forward
        mirrored = {c - phi: dim for phi, dim in forward.items()}
        assert _nonzero_degrees(y, mf_shift(x)) == mirrored, (i, j)


def test_bounded_estimate_matches_graded():
    for n in (4, 5):
        for mu in range(1, n):
            for nu in range(1, n):
                x, y = v(n, mu), v(n, nu)
                graded, _ = graded_stable_hom_dim(x, y)
                assert bounded_stable_hom_estimate(x, y, 2 * n) == graded


def test_morphism_space_basis_members_are_morphisms():
    x, y = v(5, 2), v(5, 3)
    basis = morphism_space_basis(x, y, 4)
    assert len(basis) >= 2
    for f in basis:
        # constructor re-validates the commuting squares
        assert f.source == x and f.target == y


def test_shift_preserves_hom_dimensions():
    x, y = v(5, 2), v(5, 3)
    d0, _ = graded_stable_hom_dim(x, y)
    d1, _ = graded_stable_hom_dim(mf_shift(x), mf_shift(y))
    assert d0 == d1


def test_iso_search_positive():
    x = v(4, 2)
    r = is_iso_in_db(x, mf_shift(mf_shift(x)), SearchPolicy(mode="bounded", bound=3))
    assert r.status == "iso"
    assert r.u is not None and r.v is not None
    # the returned homotopies witness both composites against the identities
    vu = compose(r.v, r.u)
    uv = compose(r.u, r.v)
    from mfcat import morphism_sub

    assert r.source_homotopy.bounds(morphism_sub(vu, identity_morphism(x)))
    assert r.target_homotopy.bounds(morphism_sub(uv, identity_morphism(r.u.target)))


def test_iso_search_certified_negative():
    ctx = RingContext(QQ, ("z",), weights=(1,))
    w = parse_poly(ctx, "z^5")
    a = rank_one(ctx, w, parse_poly(ctx, "z^2"), parse_poly(ctx, "z^3"))
    b = rank_one(ctx, w, parse_poly(ctx, "z"), parse_poly(ctx, "z^4"))
    r = is_iso_in_db(a, b, SearchPolicy(mode="graded"))
    assert r.status == "not-iso"
    assert r.certificate["stable_dims"] == {"hom": 1, "end_source": 2, "end_target": 1}


def test_iso_search_unknown_is_not_a_negative():
    # shifted object is isomorphic only through a degree-3 comparison map;
    # an over-tight bound must answer "unknown", never "not-iso"
    ctx = RingContext(QQ, ("z",))
    w = parse_poly(ctx, "z^5")
    a = rank_one(ctx, w, parse_poly(ctx, "z^2"), parse_poly(ctx, "z^3"))
    b = rank_one(ctx, w, parse_poly(ctx, "z^3"), parse_poly(ctx, "z^2"))
    r = is_iso_in_db(a, b, SearchPolicy(mode="bounded", bound=0))
    assert r.status == "unknown"


@pytest.mark.parametrize("mode", ["graded", "bounded"])
def test_iso_search_rejects_mismatched_fibers(mode):
    # objects over z^3 and z^4, nonzero and zero: an input error, never
    # "unknown" or "iso"
    for x, y in ((v(3, 1), v(4, 1)), (v(3, 3), v(4, 4))):
        with pytest.raises(ValueError, match="superpotential-mismatch"):
            is_iso_in_db(x, y, SearchPolicy(mode=mode))


def test_iso_search_ungradable_falls_back_to_witness_search():
    ctx = RingContext(QQ, ("z",), weights=(1,))
    x = rank_one(
        ctx, parse_poly(ctx, "z^3 + z^4"), parse_poly(ctx, "z^2"), parse_poly(ctx, "z + z^2")
    )
    r = is_iso_in_db(x, x, SearchPolicy(mode="graded", bound=1))
    assert r.status == "iso"
    assert "stable_dims" not in r.certificate


def test_invertibility_search_tries_the_base_first():
    x = v(4, 2)
    base = identity_morphism(x)

    def directions():
        pytest.fail("directions are needed only after the base fails")

    certificate = {"candidates_tried": 0}
    u, inverse, h_source, h_target = ho._find_invertible(certificate, 4, base, directions)
    assert certificate["candidates_tried"] == 1 and u is base
    assert h_source.bounds(morphism_sub(compose(inverse, u), identity_morphism(x)))
    assert h_target.bounds(morphism_sub(compose(u, inverse), identity_morphism(x)))


def test_invertibility_search_moves_off_a_zero_base():
    # The zero endomorphism is tried (and fails) before base + direction.
    x = v(4, 2)
    certificate = {"candidates_tried": 0}
    ident = identity_morphism(x)
    found = ho._find_invertible(certificate, 4, zero_morphism(x, x), lambda: [ident])
    assert certificate["candidates_tried"] == 2
    assert (found[0].f1, found[0].f0) == (ident.f1, ident.f0)


def test_invertibility_search_order(monkeypatch):
    tried = []
    monkeypatch.setattr(ho, "_two_sided_inverse", lambda u, bound: tried.append(_entries(u.f1)))
    basis = morphism_space_basis(v(5, 2), v(5, 3), 4)  # f1 = 1, z, z^2, z^3
    assert ho._find_invertible({"candidates_tried": 0}, 4, None, lambda: basis) is None
    f1 = [entries[0][0] for entries in tried]
    assert len(f1) == 44
    assert f1[:8] == ["1", "z", "z^2", "z^3", "z + 1", "-z + 1", "2*z + 1", "-2*z + 1"]
    assert f1[-4:] == ["z^3 + z^2 + z", "-z^3 + z^2 + z", "z^3 - z^2 + z", "-z^3 - z^2 + z"]


@pytest.mark.parametrize(
    "n, mu, nu, bound, tried", [(6, 2, 3, 4, 4 + 24 + 16), (4, 1, 2, 3, 19)]
)
def test_iso_search_enumeration_is_pinned(n, mu, nu, bound, tried):
    # Basis maps, then pairs with coefficients 1, -1, 2, -2, then triples
    # with signs +-1; the counts were recorded before the search was shared.
    r = is_iso_in_db(v(n, mu), v(n, nu), SearchPolicy(mode="bounded", bound=bound))
    assert r.status == "unknown"
    assert r.certificate == {"mode": "bounded", "bound": bound, "candidates_tried": tried}


def test_rotation_iso():
    x, y = v(4, 1), v(4, 2)
    f = morphism_from_polys(x, y, [["1"]], [["z"]])
    c, g, h = standard_triangle(f)
    rot_cone = cone(g)
    r = is_iso_in_db(rot_cone, mf_shift(x), SearchPolicy(mode="bounded", bound=4))
    assert r.status == "iso"


def test_policy_validation():
    with pytest.raises(ValueError, match="policy-infeasible"):
        SearchPolicy(mode="exhaustive")
    with pytest.raises(ValueError, match="policy-infeasible"):
        SearchPolicy(bound=-1)
    with pytest.raises(ValueError, match="policy-infeasible: negative degree bound"):
        bounded_stable_hom_estimate(v(3, 1), v(3, 1), -1)
    with pytest.raises(ValueError, match="policy-infeasible: degree bound above the exponent limit"):
        SearchPolicy(bound=2**31)
    with pytest.raises(ValueError, match="policy-infeasible: degree bound above the exponent limit"):
        bounded_stable_hom_estimate(v(3, 1), v(3, 1), 2**31)
    SearchPolicy(bound=2**31 - 1)


def _reference_resolve_bound(policy, *objects_and_maps):
    """The derived default with the fiber read off the last argument."""
    if policy is not None and policy.bound is not None:
        return policy.bound
    matrices, fiber = [], None
    for item in objects_and_maps:
        if isinstance(item, MatrixFactorization):
            matrices += [item.p1, item.p0]
            fiber = item.w
        else:
            matrices += [item.f1, item.f0]
            fiber = item.source.w
    degree = ho._max_entry_degree(matrices)
    if fiber is not None and not fiber.is_zero():
        degree += fiber.degree()
    return degree


def test_bound_policy_and_derived_default():
    x = v(5, 2)
    assert ho.resolve_bound(SearchPolicy(bound=7), x) == 7
    # derived default: max entry degree (3) plus fiber degree (5)
    assert ho.resolve_bound(None, x) == 8
    # The fiber of x is that of every argument the callers pass.
    f = andyn.realize_an_morphism(andyn.an_generator(QQ, 5, 1, 3), CTX)
    z7 = multiplication_morphism(f.source, CTX.monomial((7,)))
    ctx = RingContext(QQ, ("z",), w0=2)
    u = rank_one(ctx, parse_poly(ctx, "z^3 - 3*z"), parse_poly(ctx, "z + 1"), parse_poly(ctx, "z^2 - z - 2"))
    lifted = knorrer(f.source, "x", "y")
    cases = [
        (f.source, f.target),
        (f.source, f.target, f),
        (f.source, f.source, z7),
        (f.target, cone(f), standard_triangle(f)[1]),
        (mf_shift(f.target), mf_shift(f.source)),
        (u, u, identity_morphism(u)),
        (lifted, lifted, identity_morphism(lifted)),
        (v(5, 0), v(5, 2)),
    ]
    for args in cases:
        for policy in (None, SearchPolicy(), SearchPolicy("graded"), SearchPolicy(bound=4)):
            assert ho.resolve_bound(policy, *args) == _reference_resolve_bound(policy, *args)
    assert ho.resolve_bound(None, f.source, f.source, z7) == 7 + 5


def test_monomials_up_to_degree_match_the_filtered_product():
    for nvars in range(4):
        for bound in range(7):
            product = itertools.product(range(bound + 1), repeat=nvars)
            reference = sorted((e for e in product if sum(e) <= bound), key=grlex_key)
            assert ho.monomials_up_to_degree(nvars, bound) == reference


def _entries(m):
    return [[str(p) for p in row] for row in m.entries]


def test_pinned_witnesses():
    # Canonical outputs of every solver built on the Hom-complex equations;
    # a change of sign convention or of unknown order moves one of these.
    f = morphism_from_polys(v(5, 2), v(5, 2), [["z^3"]], [["z^3"]])
    bounded = find_null_homotopy(f, SearchPolicy(mode="bounded"))
    assert (_entries(bounded.homotopy.s), _entries(bounded.homotopy.t)) == ([["0"]], [["1"]])
    graded = find_null_homotopy(f, SearchPolicy(mode="graded"))
    assert (_entries(graded.homotopy.s), _entries(graded.homotopy.t)) == ([["z"]], [["0"]])

    basis = morphism_space_basis(v(5, 2), v(5, 3), 4)
    assert [(_entries(b.f1), _entries(b.f0)) for b in basis] == [
        ([["1"]], [["z"]]),
        ([["z"]], [["z^2"]]),
        ([["z^2"]], [["z^3"]]),
        ([["z^3"]], [["z^4"]]),
    ]

    rot = andyn.realize_an_morphism(andyn.an_generator(QQ, 2, 1, 1), CTX)
    _, g, _ = standard_triangle(rot)
    r = is_iso_in_db(cone(g), mf_shift(rot.source), SearchPolicy(mode="bounded", bound=4))
    assert r.status == "iso" and r.certificate["candidates_tried"] == 5
    assert (_entries(r.u.f1), _entries(r.u.f0)) == ([["0", "1", "0"]],) * 2
    assert (_entries(r.v.f1), _entries(r.v.f0)) == ([["0"], ["1"], ["-1"]],) * 2
    lower = [["0", "0", "0"], ["0", "0", "0"], ["-1", "0", "0"]]
    assert (_entries(r.source_homotopy.s), _entries(r.source_homotopy.t)) == (lower, lower)
    assert (_entries(r.target_homotopy.s), _entries(r.target_homotopy.t)) == ([["0"]], [["0"]])

    cert = andyn.certify_an_triangle(andyn.an_triangle(andyn.an_generator(QQ, 3, 1, 2)))
    assert (cert["w1"], cert["w0"]) == ([["0"], ["1"]], [["1"], ["-z"]])

    assert [bounded_stable_hom_estimate(v(3, 1), v(3, 1), b) for b in (0, 1, 3)] == [1, 1, 1]


def _constant(value):
    return PolyMatrix(CTX, [[parse_poly(CTX, value)]], cols=1)


def test_linear_system_without_unknowns():
    # With no unknown coefficients a system is solvable exactly when every
    # constant is zero, and its solution assigns nothing.
    inconsistent = ho.LinearSystem(CTX)
    inconsistent.add_matrix_equation([], _constant("2*z"), (1, 1))
    assert inconsistent.total == 0 and inconsistent.rows
    assert inconsistent.solve() is None
    assert inconsistent.coefficient_rank() == 0
    consistent = ho.LinearSystem(CTX)
    consistent.add_matrix_equation([], _constant("0"), (1, 1))
    assert consistent.solve() == {}
    empty_support = ho.LinearSystem(CTX)
    u = empty_support.unknown("u", 1, 1, lambda r, c: [])
    empty_support.add_matrix_equation([(None, u, None, 1)], None, (1, 1))
    assert empty_support.total == 0
    assert _entries(empty_support.solve()["u"]) == [["0"]]
    assert empty_support.homogeneous_nullspace() == []


def test_linear_system_nullspace_edges():
    system = ho.LinearSystem(CTX)
    system.unknown("u", 1, 2, lambda r, c: [(0,), (1,)])
    # no equations: every coefficient is free, one basis vector each
    basis = [_entries(a["u"]) for a in system.homogeneous_nullspace()]
    assert basis == [[["1", "0"]], [["z", "0"]], [["0", "1"]], [["0", "z"]]]
    assert system.coefficient_rank() == 0
    inhomogeneous = ho.LinearSystem(CTX)
    u = inhomogeneous.unknown("u", 1, 1, lambda r, c: [(0,)])
    inhomogeneous.add_matrix_equation([(None, u, None, 1)], _constant("1"), (1, 1))
    assert _entries(inhomogeneous.solve()["u"]) == [["1"]]


# -- packed-key assembly against the tuple-keyed reference -----------------


def _reference_add_matrix_equation(system, terms, rhs, shape):
    """The rows that `rows` lists for one equation, computed with
    exponent-tuple keys sorted by grlex_key: the reference for the
    packed-int keys.  Over Q the sign, 0 and 1 are ints, as a Poly holds
    integral coefficients, so a value is an int exactly when every scalar
    it comes from is one."""
    field = system.field
    buckets, consts = {}, {}
    nrows, ncols = shape
    one = ((0,) * system.ctx.nvars, 1)
    for left, unk, right, sign in terms:
        sgn = field.coerce(sign)
        sgn = sgn.numerator if sgn.denominator == 1 else sgn
        for k in range(unk.rows):
            lefts = [(k, one)] if left is None else [
                (i, term) for i in range(nrows) for term in left.entries[i][k].terms.items()
            ]
            for l in range(unk.cols):
                rights = [(l, one)] if right is None else [
                    (j, term) for j in range(ncols) for term in right.entries[l][j].terms.items()
                ]
                for i, (e_left, c_left) in lefts:
                    for j, (e_right, c_right) in rights:
                        coeff = field.mul(sgn, field.mul(c_left, c_right))
                        if field.is_zero(coeff):
                            continue
                        for k_idx, e_unk in enumerate(unk.supports[k][l]):
                            exp = tuple(a + b + c for a, b, c in zip(e_left, e_unk, e_right))
                            row = buckets.setdefault((i, j, exp), {})
                            var = unk.index(k, l, k_idx)
                            acc = field.add(row.get(var, 0), coeff)
                            if field.is_zero(acc):
                                row.pop(var, None)
                            else:
                                row[var] = acc
    if rhs is not None:
        for i in range(nrows):
            for j in range(ncols):
                for exp, c in rhs.entries[i][j].terms.items():
                    consts[i, j, exp] = field.add(consts.get((i, j, exp), 0), c)
    keys = sorted(set(buckets) | set(consts), key=lambda k: (k[0], k[1], ho.grlex_key(k[2])))
    return [(buckets.get(key, {}), consts.get(key, 0)) for key in keys]


def _random_poly(rng, ctx, nterms, max_exp):
    field = ctx.field
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randrange(max_exp + 1) for _ in range(ctx.nvars))
        c = field.coerce(F(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3])))
        terms[exp] = field.add(terms.get(exp, field.zero()), c)
    return ho.Poly(ctx, terms)


def _random_matrix(rng, ctx, rows, cols, max_exp=2):
    entries = [
        [_random_poly(rng, ctx, rng.choice([0, 1, 1, 2, 3]), max_exp) for _ in range(cols)]
        for _ in range(rows)
    ]
    return PolyMatrix(ctx, entries, cols=cols)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=lambda f: f.name)
def test_packed_assembly_matches_tuple_reference(field):
    rng = random.Random(5)
    high_rhs = 0
    for trial in range(90):
        nvars = 1 + trial % 3
        ctx = RingContext(field, ("x", "y", "z")[:nvars])
        nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
        system = ho.LinearSystem(ctx)
        monomials = ho.monomials_up_to_degree(nvars, 2)
        terms = []
        term_degree = 0
        for name in ("u", "v", "w")[: rng.randrange(1, 4)]:
            kind = rng.choice(["left", "right", "both", "none"])
            rows = nrows if kind in ("right", "none") else rng.randrange(1, 4)
            cols = ncols if kind in ("left", "none") else rng.randrange(1, 4)
            supports = {
                (r, c): rng.sample(monomials, rng.randrange(len(monomials) + 1))
                for r in range(rows)
                for c in range(cols)
            }
            unk = system.unknown(name, rows, cols, lambda r, c: supports[r, c])
            left = _random_matrix(rng, ctx, nrows, rows) if kind in ("left", "both") else None
            right = _random_matrix(rng, ctx, cols, ncols) if kind in ("right", "both") else None
            terms.append((left, unk, right, rng.choice([1, -1, 2])))
            factors = [ho._max_entry_degree([m]) for m in (left, right) if m is not None]
            term_degree = max(term_degree, sum(factors) + max(map(sum, monomials)))
        rhs = None
        if trial % 2:
            rhs = _random_matrix(rng, ctx, nrows, ncols, max_exp=rng.choice([1, 9]))
            high_rhs += ho._max_entry_degree([rhs]) > term_degree
        want = _reference_add_matrix_equation(system, terms, rhs, (nrows, ncols))
        system.add_matrix_equation(terms, rhs, (nrows, ncols))
        assert system.rows == want
        assert [list(row.items()) for row, _ in system.rows] == [list(row.items()) for row, _ in want]
        assert [type(c) for _, c in system.rows] == [type(c) for _, c in want]
        assert [list(map(type, row.values())) for row, _ in system.rows] == [
            list(map(type, row.values())) for row, _ in want
        ]
    assert high_rhs > 5


def test_assembly_skips_a_term_whose_sign_is_zero_in_the_field():
    ctx = RingContext(PrimeField(2), ("x", "y"))

    def matrix(rows):
        return PolyMatrix(ctx, [[ctx.parse(e) for e in row] for row in rows])

    left, right = matrix([["x + 1", "y"], ["0", "x*y + y^2"]]), matrix([["1", "x"], ["y^2", "x + y"]])
    rhs = matrix([["x^2", "0"], ["y", "1"]])
    monomials = ho.monomials_up_to_degree(2, 2)

    def system_and_terms(with_zero_signs):
        system = ho.LinearSystem(ctx)
        u = system.unknown("u", 2, 2, lambda r, c: monomials)
        v = system.unknown("v", 2, 2, lambda r, c: monomials[r + c:])
        terms = [(left, u, right, 1), (None, u, right, -1)]
        if with_zero_signs:
            # Over F_2 the sign 2 is zero: these terms add no entry and no row.
            terms += [(left, v, None, 2), (None, v, None, 2)]
        return system, terms

    system, terms = system_and_terms(True)
    want = _reference_add_matrix_equation(system, terms, rhs, (2, 2))
    system.add_matrix_equation(terms, rhs, (2, 2))
    assert system.rows == want
    plain, terms = system_and_terms(False)
    plain.add_matrix_equation(terms, rhs, (2, 2))
    assert plain.rows == want


# -- f1-slot equations against the two-slot reference ---------------------


def _exact_quotient(a, w):
    """a / w for a multiple a of w, by leading terms in grlex order."""
    field, lead = a.ctx.field, max(w.terms, key=ho.grlex_key)
    quotient = a.ctx.zero()
    while not a.is_zero():
        top = max(a.terms, key=ho.grlex_key)
        exp = tuple(e - l for e, l in zip(top, lead))
        assert min(exp) >= 0, "not a multiple of W - w0"
        term = a.ctx.monomial(exp, field.div(a.terms[top], w.terms[lead]))
        quotient, a = quotient + term, a - term * w
    return quotient


class _TwoSlotComplex(ho.HomComplex):
    """The Hom-complex writer that also writes the f0 slot (P0 -> Q0) of each
    equation after its f1 slot: the reference for the f1-slot systems.  The
    f0 slot of a right-hand side g1 is g0 = q1 g1 p0 / (W - w0), checked to
    make (g1, g0) closed."""

    def closed(self, f1, f0):
        x, y = self.x, self.y
        return super().closed(f1, f0), [(y.p1, f1, None, 1), (None, f0, x.p1, -1)]

    def boundary(self, s, t, sign=1):
        x, y = self.x, self.y
        return super().boundary(s, t, sign), [(None, t, x.p0, sign), (y.p1, s, None, sign)]

    def compose(self, g, f):
        if isinstance(f, ho.MFMorphism):
            return super().compose(g, f), [(None, g[1], f.f0, 1)]
        return super().compose(g, f), [(g.f0, f[1], None, 1)]

    def equate(self, system, *parts, rhs=None):
        x, y = self.x, self.y
        rhs0 = None
        if rhs is not None:
            rhs0 = (y.p1 @ rhs @ x.p0).map_entries(lambda p: _exact_quotient(p, x.w))
            assert rhs @ x.p0 == y.p0 @ rhs0 and y.p1 @ rhs == rhs0 @ x.p1
        super().equate(system, *(part[0] for part in parts), rhs=rhs)
        system.add_matrix_equation([term for part in parts for term in part[1]], rhs0, self.shape)


def _eliminated_systems(monkeypatch, writer, queries, solved=None, systems=None):
    """(field, total, rows) of every system that the queries eliminate,
    with `writer` as the Hom-complex writer.  Each solved system and what
    its `solve` returned are appended to `solved`, and each system
    eliminated to `systems`, if given."""
    log = []
    with monkeypatch.context() as m:
        m.setattr(ho, "HomComplex", writer)
        for name in ("solve", "coefficient_rank", "homogeneous_nullspace"):
            original = getattr(ho.LinearSystem, name)

            def record(self, *args, _original=original, _name=name):
                log.append((self.field, self.total, list(self.rows)))
                result = _original(self, *args)
                if solved is not None and _name == "solve":
                    solved.append((self, result))
                if systems is not None:
                    systems.append(self)
                return result

            m.setattr(ho.LinearSystem, name, record)
        for query in queries:
            query()
    return log


def _canonical(reduced):
    return [(p, list(row.items()), [type(x) for x in row.values()]) for p, row in reduced.items()]


def _f1_slot_queries(field, n, lifted):
    ctx = andyn.an_context(field)
    objects = [andyn.realize_an_object(ctx, n, mu) for mu in range(1, n)]
    f = andyn.realize_an_morphism(andyn.an_generator(field, n, 1, n - 2), ctx)
    objects += [mf_shift(objects[0]), cone(f), andyn.realize_an_object(ctx, n, 0)]
    if lifted:
        objects = [knorrer(x, "x", "y") for x in objects[:2]]
    pairs = [(x, y) for x in objects for y in objects[:2]] + [(objects[0], objects[-1])]
    queries = []
    for x, y in pairs:
        queries += [
            lambda x=x, y=y: graded_stable_hom_dim(x, y),
            lambda x=x, y=y: bounded_stable_hom_estimate(x, y, 2),
        ]
    x, y = objects[0], objects[1]
    for g in morphism_space_basis(x, y, 2)[:2] + [identity_morphism(x)]:
        for mode in ("bounded", "graded"):
            queries.append(lambda g=g, mode=mode: find_null_homotopy(g, SearchPolicy(mode, 3)))
    queries += [
        lambda: morphism_space_basis(x, y, 3),
        lambda: ho._find_invertible({"candidates_tried": 0}, 2, identity_morphism(x), lambda: []),
        lambda: is_iso_in_db(x, mf_shift(mf_shift(x)), SearchPolicy("bounded", 2)),
    ]
    if not lifted:
        tri = andyn.an_triangle(andyn.an_generator(field, n, 1, n - 2))
        queries.append(lambda: andyn.certify_an_triangle(tri, ctx))
    return queries


@pytest.mark.parametrize(
    "field, n, lifted",
    [(QQ, 3, False), (QQ, 5, False), (QQ, 3, True), (PrimeField(3), 3, False),
     (PrimeField(3), 6, False), (PrimeField(101), 4, False)],
    ids=["Q-3", "Q-5", "Q-3-lift", "F3-3", "F3-6", "F101-4"],
)
def test_f1_slot_systems_match_full_systems(monkeypatch, field, n, lifted):
    # Every system written with the f1 slot alone has the reduced row echelon
    # form it has with both slots written, augmented and without constants.
    queries = _f1_slot_queries(field, n, lifted)
    written = _eliminated_systems(monkeypatch, ho.HomComplex, queries)
    full = _eliminated_systems(monkeypatch, _TwoSlotComplex, queries)
    assert len(written) == len(full) > 10
    halved = 0
    for (fd, total, rows), (_, full_total, full_rows) in zip(written, full):
        assert total == full_total and len(rows) <= len(full_rows)
        halved += 2 * len(rows) <= len(full_rows)
        augmented = [
            [row if fd.is_zero(c) else {**row, total: c} for row, c in system]
            for system in (rows, full_rows)
        ]
        a, b = (linalg.sparse_rref(fd, system) for system in augmented)
        assert _canonical(a) == _canonical(b)
        a, b = (linalg.sparse_rref(fd, [row for row, _ in system]) for system in (rows, full_rows))
        assert _canonical(a) == _canonical(b)
    assert halved > len(written) // 2


def test_rank_and_nullspace_never_read_rows(monkeypatch):
    # The rank and the nullspace eliminate each equation's rows as they were
    # assembled; the sorted `rows` view is for readers outside them.
    def queries():
        out = []
        for field in (QQ, PrimeField(101)):
            ctx = andyn.an_context(field)
            x, y = (knorrer(andyn.realize_an_object(ctx, 4, mu), "x", "y") for mu in (1, 2))
            out.append(graded_stable_hom_dim(x, y))
            assert out[-1][0] == andyn.an_hom_dim(4, 1, 2)
        x, y = v(4, 1), v(4, 2)
        out += [bounded_stable_hom_estimate(x, y, 2), morphism_space_basis(x, y, 2)]
        return out

    def refuse(system):
        raise AssertionError("LinearSystem.rows read")

    want = queries()
    with monkeypatch.context() as m:
        m.setattr(ho.LinearSystem, "rows", property(refuse))
        assert queries() == want


@pytest.mark.parametrize(
    "field, n, lifted",
    [(QQ, 3, False), (QQ, 3, True), (PrimeField(3), 3, False), (PrimeField(101), 4, False)],
    ids=["Q-3", "Q-3-lift", "F3-3", "F101-4"],
)
def test_rank_and_nullspace_match_the_sorted_rows(monkeypatch, field, n, lifted):
    # On every system that the f1-slot queries eliminate, the rank and the
    # nullspace equal those of the sorted rows without their constants.
    systems = []
    _eliminated_systems(monkeypatch, ho.HomComplex, _f1_slot_queries(field, n, lifted), systems=systems)
    assert len(systems) > 10
    rng = random.Random(35)
    for system in systems:
        fd, total = system.field, system.total
        rows = [row for row, _ in system.rows]
        labels = [rng.randrange(3) for _ in range(total)]
        pivots = linalg.pivot_columns(fd, rows)
        assert system.coefficient_rank() == len(pivots)
        assert system.coefficient_rank(labels) == Counter(labels[c] for c in pivots)
        reduced = linalg.sparse_rref(fd, rows)
        want = [system._extract(vec) for vec in linalg.null_basis(fd, reduced, total)]
        got = system.homogeneous_nullspace()
        assert got == want
        assert list(map(_typed_entries, got)) == list(map(_typed_entries, want))


def _assignment_from_rref(system):
    """The solution of a system with free variables set to zero, read off
    the full reduced form of its augmented rows into a dense vector, with
    validating Poly constructors; None if the constants column is a pivot."""
    field, total = system.field, system.total
    reduced = linalg.sparse_rref(
        field, [row if field.is_zero(c) else {**row, total: c} for row, c in system.rows]
    )
    if total in reduced:
        return None
    values = [field.zero()] * total
    for p, row in reduced.items():
        values[p] = row.get(total, field.zero())
    return {
        unk.name: PolyMatrix(
            system.ctx,
            [
                [
                    ho.Poly(system.ctx, {e: values[unk.index(r, c, k)] for k, e in enumerate(unk.supports[r][c])})
                    for c in range(unk.cols)
                ]
                for r in range(unk.rows)
            ],
            cols=unk.cols,
        )
        for unk in system.unknowns
    }


def _typed_entries(assignment):
    return {
        name: [
            [(type(p), list(p.terms.items()), [type(x) for x in p.terms.values()]) for p in row]
            for row in m.entries
        ]
        for name, m in assignment.items()
    }


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)], ids=["Q", "F3", "F101"])
def test_solve_matches_reduced_form(monkeypatch, field):
    # LinearSystem.solve stops at echelon form and back-substitutes the
    # constants only; its answer, the inconsistent None included, is the one
    # read off the full reduced form of the augmented rows.
    ctx = andyn.an_context(field)
    queries = [
        lambda tri=andyn.an_triangle(andyn.an_generator(field, n, mu, nu)): andyn.certify_an_triangle(tri, ctx)
        for n in (2, 3, 4)
        for mu in range(1, n)
        for nu in range(1, n)
    ]
    x, y = andyn.realize_an_object(ctx, 5, 2), andyn.realize_an_object(ctx, 5, 3)
    # A boundary D(s, 0) on a cone, whose graded supports differ by entry,
    # with s off the diagonal.
    c = cone(andyn.realize_an_morphism(andyn.an_generator(field, 5, 1, 2), ctx))
    s = PolyMatrix(ctx, [[ctx.zero(), ctx.zero()], [ctx.parse("z^3"), ctx.zero()]])
    g = ho.morphism_new(c, c, s @ c.p1, c.p1 @ s)
    bounded = SearchPolicy("bounded", 2)
    queries += [
        lambda: is_iso_in_db(x, mf_shift(mf_shift(x)), bounded),
        lambda: is_iso_in_db(x, y, bounded),
        lambda: find_null_homotopy(morphism_from_polys(x, x, [["z^3"]], [["z^3"]]), bounded),
        lambda: find_null_homotopy(identity_morphism(x), bounded),
        lambda: find_null_homotopy(g, SearchPolicy("bounded", 3)),
        lambda: find_null_homotopy(g, SearchPolicy("graded")),
    ]
    # Over k[z, x, y] the components mix variables: Knoerrer lifts.
    lx, ly = knorrer(x, "x", "y"), knorrer(mf_shift(mf_shift(x)), "x", "y")
    lifted = knorrer_morphism(morphism_from_polys(x, x, [["z^4"]], [["z^4"]]))
    queries += [
        lambda: is_iso_in_db(lx, ly, bounded),
        lambda: find_null_homotopy(lifted, bounded),
    ]
    solved = []
    _eliminated_systems(monkeypatch, ho.HomComplex, queries, solved)
    found = 0
    for system, got in solved:
        want = _assignment_from_rref(system)
        if want is None:
            assert got is None
            continue
        found += 1
        assert got == want
        assert _typed_entries(got) == _typed_entries(want)
        assert all(type(m) is PolyMatrix for m in got.values())
    assert found > 10 and len(solved) - found > 5


# -- solve eliminates only the components that hold a constant ------------


def _nonzero_scalar(rng, field):
    while True:
        x = rng.randrange(-5, 6)
        x = field.coerce(F(x, rng.choice([1, 2, 3])) if field is QQ else x)
        if not field.is_zero(x):
            return x


def _random_block_system(rng, field, trial):
    """A LinearSystem whose rows and total hold a random block-diagonal
    system over field, the rows of its blocks shuffled together and
    constants in some blocks only, and the columns of the blocks with a
    constant.  Some trials have total 0, a row 0 = c, or an inconsistent
    pair of rows after every constant-free row.  Each row is written as
    one 1 x 1 equation u @ R = const, R the column of its coefficients; a
    row 0 = 0 writes no row."""
    ctx = RingContext(field, ("z",))
    system = ho.LinearSystem(ctx)
    total = 0 if trial % 7 == 0 else rng.randrange(1, 13)
    unk = system.unknown("u", 1, total, lambda r, c: [(0,)]) if total else None
    blocks = [[] for _ in range(4)]
    for c in range(total):
        rng.choice(blocks).append(c)
    rows, late, with_constant = [], [], set()
    for columns in blocks:
        if not columns:
            continue
        constants = rng.random() < 0.5
        for _ in range(rng.randrange(len(columns) + 3)):
            picked = rng.sample(columns, rng.randrange(1, min(3, len(columns)) + 1))
            row = {c: _nonzero_scalar(rng, field) for c in sorted(picked)}
            const = _nonzero_scalar(rng, field) if constants and rng.random() < 0.6 else field.zero()
            rows.append((row, const))
            if not field.is_zero(const):
                with_constant.update(columns)
        if constants and trial % 3 == 1:
            # the same left-hand side equal to two different constants
            row = {c: _nonzero_scalar(rng, field) for c in columns[:2]}
            const = _nonzero_scalar(rng, field)
            late += [(row, const), (row, field.add(const, field.one()))]
            with_constant.update(columns)
    if trial % 5 == 2:
        rows.append(({}, _nonzero_scalar(rng, field)))
    if trial % 4 == 3:
        rows.append(({}, field.zero()))
    rng.shuffle(rows)
    for row, const in rows + late:
        right = PolyMatrix(ctx, [[ctx.constant(row.get(c, 0))] for c in range(total)], cols=1)
        terms = [(None, unk, right, 1)] if total else []
        system.add_matrix_equation(terms, PolyMatrix(ctx, [[ctx.constant(const)]]), (1, 1))
    return system, with_constant


def _solve_all_rows(system):
    """The assignment that `linalg.sparse_solve` gives on every row."""
    field, total = system.field, system.total
    solution = linalg.sparse_solve(
        field, [row if field.is_zero(c) else {**row, total: c} for row, c in system.rows], total
    )
    if solution is None:
        return None
    return system._extract({p: x[total] for p, x in solution.items()})


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)], ids=["Q", "F2", "F101"])
def test_solve_matches_sparse_solve_on_all_rows(field):
    # Eliminating only the blocks that hold a constant gives the answer,
    # None included, of eliminating every row.
    rng = random.Random(16)
    answers = Counter()
    for trial in range(300):
        system, _ = _random_block_system(rng, field, trial)
        got, want = system.solve(), _solve_all_rows(system)
        assert got == want
        if want is not None:
            assert _typed_entries(got) == _typed_entries(want)
        answers["none" if want is None else "total 0" if not system.total else "found"] += 1
    assert answers["none"] > 30 and answers["found"] > 30 and answers["total 0"] > 10


def test_solve_passes_on_no_constant_free_component(monkeypatch):
    # Every row that reaches `sparse_solve` lies in a block with a constant,
    # and the constant-free blocks, which solve to 0, never reach it.
    received = []
    original = linalg.sparse_solve

    def recorded(field, rows, ncols):
        return original(field, (received.append(row) or row for row in rows), ncols)

    monkeypatch.setattr(linalg, "sparse_solve", recorded)
    rng = random.Random(17)
    dropped = 0
    for trial in range(200):
        system, with_constant = _random_block_system(rng, QQ, trial)
        received.clear()
        system.solve()
        assert all(c in with_constant for row in received for c in row if c != system.total)
        dropped += sum(bool(row) for row, _ in system.rows) - sum(bool(row) for row in received)
    assert dropped > 200


def _constant_component(system):
    """The nonempty rows, augmented by their constants, of the connected
    component of the constants column `total` in the graph linking each
    row to its columns: the rows a union-find pass over every row keeps."""
    field, total = system.field, system.total
    rows = [row if field.is_zero(c) else {**row, total: c} for row, c in system.rows]
    parent = list(range(total + 1))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        root = find(next(iter(row), total))
        for c in row:
            parent[find(c)] = root
    return [row for row in rows if row and find(next(iter(row))) == find(total)]


def test_solve_on_comparison_systems_matches_all_rows(monkeypatch):
    # On every comparison system of triangle certification at n <= 4, of the
    # inverse searches on stabilize(V_mu) at n <= 3 and of the one on the
    # rotation at n = 2, `solve` gives the all-rows answer with the same
    # typed entries, and the nonempty rows it eliminates are those of the
    # constants' component: no walk through a cancelling sum adds a row.
    received = []
    original_sparse_solve, original_solve = linalg.sparse_solve, ho.LinearSystem.solve

    def recorded(field, rows, ncols):
        received.append(list(rows))
        return original_sparse_solve(field, received[-1], ncols)

    solved = []

    def record(self):
        received.clear()
        result = original_solve(self)
        [rows] = received
        solved.append((self, result, rows))
        return result

    monkeypatch.setattr(linalg, "sparse_solve", recorded)
    monkeypatch.setattr(ho.LinearSystem, "solve", record)
    ctx = andyn.an_context(QQ)
    for n in (2, 3, 4):
        for mu in range(1, n):
            for nu in range(1, n):
                tri = andyn.an_triangle(andyn.an_generator(QQ, n, mu, nu))
                assert andyn.certify_an_triangle(tri, ctx)["certified"]
    for n in (2, 3):
        for mu in range(1, n):
            lifted = stabilize(cyclic_module(QQ, n, mu))
            assert is_iso_in_db(lifted, v(n, mu), SearchPolicy("bounded", 3)).status == "iso"
    f = andyn.realize_an_morphism(andyn.an_generator(QQ, 2, 1, 1), ctx)
    _, g, _ = standard_triangle(f)
    assert is_iso_in_db(cone(g), mf_shift(f.source), SearchPolicy("bounded", 4)).status == "iso"
    monkeypatch.setattr(linalg, "sparse_solve", original_sparse_solve)

    def key(row):
        return tuple(sorted(row.items()))

    found = eliminated = assembled = 0
    for system, got, rows in solved:
        want = _solve_all_rows(system)
        assert got == want
        if want is not None:
            found += 1
            assert _typed_entries(got) == _typed_entries(want)
        assert Counter(key(row) for row in rows if row) == Counter(map(key, _constant_component(system)))
        eliminated += len(rows)
        assembled += len(system.rows)
    assert len(solved) > 30 and found > 10 and len(solved) - found > 5
    # 189 of 2,218 rows on the systems of one `certify` benchmark round
    assert eliminated * 10 < assembled


def test_unknown_degree_is_the_top_total_degree(monkeypatch):
    # On every unknown of one round of the `certify` and `graded` benchmark
    # workloads: the degree sets the packing base of `LinearSystem._assemble`.
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    unknowns = []
    original = ho.LinearSystem.unknown
    monkeypatch.setattr(
        ho.LinearSystem, "unknown", lambda self, *args: unknowns.append(original(self, *args)) or unknowns[-1]
    )
    for build in (workloads.build_certify, workloads.build_graded):
        for query in build(mfcat, 1):
            query.run()
    shared = 0
    for unk in unknowns:
        supports = [s for row in unk.supports for s in row]
        assert all(type(s) is tuple for s in supports)
        assert unk.degree == max((sum(e) for s in supports for e in s), default=0)
        shared += len({id(s) for s in supports}) < len(supports)
    assert len(unknowns) > 300 and shared > len(unknowns) // 2


# -- the batched graded scan against the per-degree reference --------------


def _slot_dimension(hom, phi):
    """dim H_phi from a cycle system and a boundary system of degree phi
    alone, the per-degree computation that the batched scan replaced."""
    cycle = ho.LinearSystem(hom.x.ctx)
    g1, g0, _ = hom.graded_unknowns(cycle, ("g1", "g0"), 0, [phi])
    if g1.size + g0.size == 0:
        return 0
    hom.equate(cycle, hom.closed(g1, g0))
    cycle_dim = g1.size + g0.size - cycle.coefficient_rank()
    if cycle_dim == 0:
        return 0
    boundary = ho.LinearSystem(hom.x.ctx)
    s, t, _ = hom.graded_unknowns(boundary, ("s", "t"), 1, [phi])
    hom.equate(boundary, hom.boundary(s, t))
    return cycle_dim - boundary.coefficient_rank()


def _reference_scan(x, y):
    """(total, degrees) of the scan run one degree at a time up to the
    bound and on until DEFAULT_STALE_WINDOW empty degrees in a row; a
    nonzero degree past the bound raises the scan's policy-infeasible."""
    hom = ho.HomComplex(x, y)
    ax, bx = infer_generator_degrees(x)
    ay, by = infer_generator_degrees(y)
    dw = x.w.weighted_degree()
    offsets = [by[r] - bx[c] for r in range(y.rank) for c in range(x.rank)]
    offsets += [ay[r] - ax[c] for r in range(y.rank) for c in range(x.rank)]
    if not offsets:
        return 0, []
    scan_bound = max(offsets) + max(0, sum(dw - 2 * w for w in x.ctx.weights)) + dw
    degrees, zero_run, phi = [], 0, min(offsets)
    while phi <= scan_bound or zero_run < ho.DEFAULT_STALE_WINDOW:
        dim = _slot_dimension(hom, phi)
        if dim and phi > scan_bound:
            raise MfcatError(
                "policy-infeasible", f"non-isolated singularity: dimension {dim} in "
                f"degree {phi}, above the scan bound {scan_bound}"
            )
        degrees.append([phi, dim])
        zero_run = 0 if dim else zero_run + 1
        phi += 1
    return sum(dim for _, dim in degrees), degrees


def _scan_cases(field, n, lifts):
    """The catalogue objects of z^n, Knoerrer-lifted `lifts` times; with no
    lift also a shift, a cone and the rank-0 object."""
    objects = _lifted_catalogue(field, n, lifts)
    if lifts == 0:
        ctx = objects[0].ctx
        f = andyn.realize_an_morphism(andyn.an_generator(field, n, 1, n - 2), ctx)
        objects += [mf_shift(objects[0]), cone(f), andyn.realize_an_object(ctx, n, 0)]
    return objects


@pytest.mark.parametrize(
    "field, n, lifts",
    [(QQ, n, lifts) for n in (3, 4, 5, 6) for lifts in (0, 1, 2)]
    + [(PrimeField(3), 4, 1), (PrimeField(3), 6, 1), (PrimeField(101), 7, 1)],
    ids=lambda arg: "Q" if arg is QQ else f"F{arg.p}" if isinstance(arg, PrimeField) else str(arg),
)
def test_batched_scan_matches_per_degree_reference(field, n, lifts):
    # One cycle and one boundary system for all degrees give every degree
    # the dimension that its own two systems give, and the same degrees.
    objects = _scan_cases(field, n, lifts)
    pairs = list(itertools.product(objects, repeat=2))
    if lifts == 2:
        # Double lifts are slow: the two ends of the catalogue only.
        pairs = list(itertools.product([objects[0], objects[-1]], repeat=2))
    for x, y in pairs:
        total, cert = graded_stable_hom_dim(x, y)
        assert (total, cert["degrees"]) == _reference_scan(x, y)
        assert total == cert["total"]


def test_scan_assembles_once(monkeypatch):
    # One cycle and one boundary system for the degrees up to the bound, and
    # at most one of each for the degrees past it.
    calls = []
    original = ho.LinearSystem.add_matrix_equation
    monkeypatch.setattr(
        ho.LinearSystem, "add_matrix_equation",
        lambda self, *args: calls.append(1) or original(self, *args),
    )
    for x, y in [(v(5, 2), v(5, 3)), (knorrer(v(4, 1), "x", "y"), knorrer(v(4, 2), "x", "y"))]:
        calls.clear()
        _, cert = graded_stable_hom_dim(x, y)
        assert len(cert["degrees"]) > 4 and 1 <= len(calls) <= 4
        late = [phi for phi, _ in cert["degrees"] if phi > cert["scan_bound"]]
        assert len(calls) <= 2 or late


def test_non_isolated_scan_stops_past_the_bound():
    # W = x^2 y is singular along the y-axis: End(X) of X = (x, x y) is
    # nonzero in every degree, and the first degree past the bound stops
    # the scan with the message of the per-degree scan.
    ctx = RingContext(QQ, ("x", "y"), weights=(1, 1))
    x = rank_one(ctx, parse_poly(ctx, "x^2*y"), parse_poly(ctx, "x"), parse_poly(ctx, "x*y"))
    message = (
        "policy-infeasible: non-isolated singularity: dimension 1 in degree 6, "
        "above the scan bound 5"
    )
    with pytest.raises(MfcatError) as batched:
        graded_stable_hom_dim(x, x)
    with pytest.raises(MfcatError) as reference:
        _reference_scan(x, x)
    assert str(batched.value) == str(reference.value) == message
    assert batched.value.exit_status == 2


# -- the graded null-homotopy search against the two-slot reference -------


def _reference_null_homotopy(f):
    """(status, certificate, witness) of graded find_null_homotopy computed
    from the union of the degrees of the f1 and f0 slots of f, each degree
    solved alone with both slots of D(s, t) = f_phi written, and with its
    offsets derived here from the generator degrees."""
    x, y = f.source, f.target
    ctx, weights, shape = x.ctx, tuple(x.ctx.weights), (y.rank, x.rank)
    ax, bx = infer_generator_degrees(x)
    ay, by = infer_generator_degrees(y)
    dw = x.w.weighted_degree()

    def split(m, offset):
        parts = {}
        for r in range(y.rank):
            for c in range(x.rank):
                for exp, coeff in m.entries[r][c].terms.items():
                    phi = sum(w * e for w, e in zip(weights, exp)) - offset(r, c)
                    parts.setdefault(phi, {}).setdefault((r, c), {})[exp] = coeff
        return parts

    def matrix(terms):
        rows = [[ho.Poly(ctx, terms.get((r, c), {})) for c in range(x.rank)] for r in range(y.rank)]
        return PolyMatrix(ctx, rows, cols=x.rank)

    f1s = split(f.f1, lambda r, c: bx[c] - by[r])
    f0s = split(f.f0, lambda r, c: ax[c] - ay[r])
    degrees = sorted(f1s.keys() | f0s.keys())

    def support(phi, shift):
        return lambda r, c: ho.monomials_of_weighted_degree(weights, phi + shift(r, c))

    total_s = total_t = PolyMatrix.zero(ctx, *shape)
    for phi in degrees:
        system = ho.LinearSystem(ctx)
        s = system.unknown("s", *shape, support(phi, lambda r, c: ax[c] - by[r]))
        t = system.unknown("t", *shape, support(phi, lambda r, c: bx[c] - ay[r] - dw))
        # D(s, t) = (q0 t + s p1, t p0 + q1 s)
        system.add_matrix_equation([(y.p0, t, None, 1), (None, s, x.p1, 1)], matrix(f1s.get(phi, {})), shape)
        system.add_matrix_equation([(None, t, x.p0, 1), (y.p1, s, None, 1)], matrix(f0s.get(phi, {})), shape)
        sol = system.solve()
        if sol is None:
            return "proven-none", {
                "mode": "graded", "degrees": degrees, "failed_degree": phi, "weights": list(weights)
            }, None
        total_s, total_t = total_s + sol["s"], total_t + sol["t"]
    return "found", {"mode": "graded", "degrees": degrees}, (total_s, total_t)


def _null_homotopy_cases(field):
    """Catalogue basis morphisms f, none null-homotopic, and z^(n-1) f,
    all null-homotopic since z^depth kills End(V_mu); the maps g and h of
    a standard triangle, with g f; a Knoerrer lift."""
    ctx = andyn.an_context(field)
    for n in range(2, 7):
        for mu in range(1, n):
            for nu in range(1, n):
                for lam in andyn.an_hom_basis(n, mu, nu):
                    f = andyn.realize_an_morphism(andyn.an_basis_morphism(field, n, mu, nu, lam), ctx)
                    yield f
                    yield compose(multiplication_morphism(f.target, ctx.monomial((n - 1,))), f)
    f = andyn.realize_an_morphism(andyn.an_generator(field, 5, 1, 3), ctx)
    _, g, h = standard_triangle(f)
    yield from (g, h, compose(g, f), knorrer_morphism(f))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_graded_null_homotopy_matches_two_slot_reference(field):
    # Splitting f by its f1 slot alone finds the degrees of both slots, and
    # each degree's f1-slot system gives the witness of both slots written.
    statuses = Counter()
    for f in _null_homotopy_cases(field):
        res = find_null_homotopy(f, SearchPolicy(mode="graded"))
        status, certificate, witness = _reference_null_homotopy(f)
        assert (res.status, res.certificate) == (status, certificate)
        if witness is not None:
            assert (res.homotopy.s, res.homotopy.t) == witness
        statuses[status] += 1
    assert statuses["found"] > 10 and statuses["proven-none"] > 10


# -- shapes that assembly trusts, the no-live scan, `homotopy_equal` -------


@pytest.mark.parametrize(
    "field, n, lifted",
    [(QQ, 3, False), (QQ, 4, True), (PrimeField(101), 4, False), (PrimeField(101), 3, True)],
    ids=["Q-3", "Q-4-lift", "F101-4", "F101-3-lift"],
)
def test_assembly_shapes_agree_by_construction(monkeypatch, field, n, lifted):
    # `add_matrix_equation` does not check shapes: every term and right-hand
    # side that the solvers write has the shape of its equation.
    shapes = []
    original = ho.LinearSystem.add_matrix_equation

    def checked(self, terms, rhs, shape):
        nrows, ncols = shape
        for left, unk, right, _ in terms:
            assert left is None or (left.rows, left.cols) == (nrows, unk.rows)
            assert right is None or (right.rows, right.cols) == (unk.cols, ncols)
            assert left is not None or unk.rows == nrows
            assert right is not None or unk.cols == ncols
        assert rhs is None or (rhs.rows, rhs.cols) == shape
        shapes.append(shape)
        return original(self, terms, rhs, shape)

    monkeypatch.setattr(ho.LinearSystem, "add_matrix_equation", checked)
    for query in _f1_slot_queries(field, n, lifted):
        query()
    assert len(shapes) > 20


def test_degree_dimensions_without_cycles_are_zero(monkeypatch):
    # Below -max(offsets) no degree holds a cycle: every system eliminated
    # has no unknown and no row, and every dimension is 0.
    totals = []
    original = ho.LinearSystem.coefficient_rank
    monkeypatch.setattr(
        ho.LinearSystem, "coefficient_rank",
        lambda self, *args: totals.append((self.total, len(self.rows))) or original(self, *args),
    )
    for x, y in [(v(5, 2), v(5, 3)), (knorrer(v(4, 1), "x", "y"), knorrer(v(4, 2), "x", "y"))]:
        hom = ho.HomComplex(x, y)
        top = max(o for table in hom.offsets[0] for row in table for o in row)
        totals.clear()
        assert ho._degree_dimensions(hom, range(-top - 4, -top)) == [0] * 4
        assert totals and set(totals) == {(0, 0)}


@pytest.mark.parametrize("mode", ["bounded", "graded"])
def test_homotopy_equal_finds_a_boundary_apart(mode):
    # f and f + D(s, t) are equal in the homotopy category, witnessed by a
    # homotopy that bounds their difference.
    for f in [
        andyn.realize_an_morphism(andyn.an_generator(QQ, 5, 2, 3), CTX),
        knorrer_morphism(andyn.realize_an_morphism(andyn.an_generator(QQ, 4, 1, 2), CTX)),
    ]:
        x, y = f.source, f.target
        rng = random.Random(x.rank)
        s, t = (_random_matrix(rng, x.ctx, y.rank, x.rank) for _ in range(2))
        g = morphism_add(f, Homotopy(x, y, s, t).boundary())
        assert not morphism_sub(g, f).is_zero()
        res = ho.homotopy_equal(g, f, SearchPolicy(mode))
        assert res.status == "found"
        assert res.homotopy.bounds(morphism_sub(g, f))


def test_homotopy_equal_proves_a_basis_map_nonzero():
    for n, mu, nu in [(3, 1, 2), (5, 2, 2), (6, 2, 4)]:
        f = andyn.realize_an_morphism(andyn.an_generator(QQ, n, mu, nu), CTX)
        res = ho.homotopy_equal(f, zero_morphism(f.source, f.target), SearchPolicy("graded"))
        assert res.status == "proven-none" and res.homotopy is None
