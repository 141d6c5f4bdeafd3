import os
from fractions import Fraction

import pytest

from mfcat import (
    QQ,
    PolyMatrix,
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
    mf_from_polys,
    mf_shift,
    morphism_from_polys,
    morphism_space_basis,
    parse_poly,
    rank_one,
    standard_triangle,
    zero_morphism,
)
from mfcat import homotopy as ho
from mfcat import andyn


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
    assert res.certificate["bound_used"] == 0


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
    # scanning far beyond the certified bound must not change the answer
    x, y = v(5, 2), v(5, 3)
    dim, cert = graded_stable_hom_dim(x, y)
    wide_dim, wide_cert = graded_stable_hom_dim(x, y, window=cert["scan_bound"] + 5)
    assert wide_dim == dim
    late = [
        (phi, d)
        for phi, d in wide_cert["degrees"]
        if phi > cert["scan_bound"] and d > 0
    ]
    assert late == []


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
    with pytest.raises(ValueError, match="policy-infeasible"):
        SearchPolicy(window=0)


def test_bound_environment_override(monkeypatch):
    x = v(5, 2)
    monkeypatch.setenv(ho.DEFAULT_BOUND_ENV, "7")
    assert ho.resolve_bound(None, x) == 7
    monkeypatch.setenv(ho.DEFAULT_BOUND_ENV, "bogus")
    with pytest.raises(ValueError, match="policy-infeasible"):
        ho.resolve_bound(None, x)
    monkeypatch.delenv(ho.DEFAULT_BOUND_ENV)
    # derived default: max entry degree (3) plus fiber degree (5)
    assert ho.resolve_bound(None, v(5, 2)) == 8


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
    basis = [_entries(a["u"]) for a in system.nullspace_assignments()]
    assert basis == [[["1", "0"]], [["z", "0"]], [["0", "1"]], [["0", "z"]]]
    assert system.coefficient_rank() == 0
    inhomogeneous = ho.LinearSystem(CTX)
    u = inhomogeneous.unknown("u", 1, 1, lambda r, c: [(0,)])
    inhomogeneous.add_matrix_equation([(None, u, None, 1)], _constant("1"), (1, 1))
    assert _entries(inhomogeneous.solve()["u"]) == [["1"]]
    with pytest.raises(ValueError, match="shape-mismatch"):
        inhomogeneous.nullspace_assignments()
