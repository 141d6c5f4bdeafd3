import pytest

from mfcat import QQ, PrimeField, compose, identity_morphism, mf_shift, parse_poly
from mfcat import andyn
from mfcat.andyn import (
    AnMorphism,
    AnTriangle,
    an_add,
    an_basis_morphism,
    an_compose,
    an_context,
    an_depth,
    an_end_ring,
    an_generator,
    an_hom_basis,
    an_hom_dim,
    an_hom_table,
    an_identity,
    an_module_map,
    an_scale,
    an_translate,
    an_translate_index,
    an_triangle,
    an_verify,
    an_zero,
    certify_an_triangle,
    pad,
    realize_an_morphism,
    realize_an_object,
    realize_an_sum,
    shift_identification,
)


def test_pad_and_depth():
    assert pad(5, 0) == 0
    assert pad(5, 7) == 2
    assert pad(5, -2) == 3
    assert an_depth(5, 2) == 2
    assert an_depth(6, 3) == 3
    with pytest.raises(ValueError, match="index-out-of-range"):
        an_depth(5, 0)
    with pytest.raises(ValueError, match="index-out-of-range"):
        an_depth(5, 5)
    with pytest.raises(ValueError, match="index-out-of-range"):
        an_hom_table(1)


def test_hom_tables():
    assert an_hom_table(2) == [[1]]
    assert an_hom_table(5) == [
        [1, 1, 1, 1],
        [1, 2, 2, 1],
        [1, 2, 2, 1],
        [1, 1, 1, 1],
    ]
    assert an_hom_table(6) == [
        [1, 1, 1, 1, 1],
        [1, 2, 2, 2, 1],
        [1, 2, 3, 2, 1],
        [1, 2, 2, 2, 1],
        [1, 1, 1, 1, 1],
    ]


def test_hom_basis_peaks():
    assert an_hom_basis(5, 2, 3) == [3, 4]
    assert an_hom_basis(5, 1, 1) == [1]
    assert an_hom_basis(5, 4, 4) == [4]
    assert an_hom_basis(6, 3, 3) == [3, 4, 5]
    for n in (4, 5, 6, 7):
        for mu in range(1, n):
            for nu in range(1, n):
                assert len(an_hom_basis(n, mu, nu)) == an_hom_dim(n, mu, nu)


def test_morphism_validation():
    with pytest.raises(ValueError, match="shape-mismatch"):
        AnMorphism(QQ, 5, 2, 3, [1])
    with pytest.raises(ValueError, match="index-out-of-range"):
        AnMorphism(QQ, 5, 5, 1, [])
    with pytest.raises(ValueError, match="index-out-of-range"):
        an_basis_morphism(QQ, 5, 2, 3, 5)
    with pytest.raises(ValueError, match="not-composable"):
        an_compose(an_generator(QQ, 5, 2, 3), an_generator(QQ, 5, 1, 3))


def test_zero_object_homs_are_empty():
    z = an_zero(QQ, 5, 0, 3)
    assert z.peaks == () and z.is_zero()
    assert an_generator(QQ, 5, 3, 0).is_zero()


def test_compose_collapse_rules():
    up = an_generator(QQ, 5, 2, 3)
    down = an_generator(QQ, 5, 3, 2)
    # Through a deeper object both round trips give the nilpotent generator.
    assert an_compose(down, up) == an_basis_morphism(QQ, 5, 2, 2, 3)
    assert an_compose(up, down) == an_basis_morphism(QQ, 5, 3, 3, 4)
    # Through a shallower object the valley collapses to zero.
    assert an_compose(an_generator(QQ, 4, 2, 1), an_generator(QQ, 4, 1, 2)).is_zero()
    # Peak sum reaching n kills the free summand.
    a = an_basis_morphism(QQ, 6, 3, 4, 5)
    b = an_basis_morphism(QQ, 6, 4, 3, 5)
    assert an_compose(b, a).is_zero()


def test_compose_bilinear():
    f = an_add(
        an_basis_morphism(QQ, 5, 2, 3, 3),
        an_scale(an_basis_morphism(QQ, 5, 2, 3, 4), 2),
    )
    g = an_generator(QQ, 5, 3, 2)
    lhs = an_compose(g, f)
    rhs = an_add(
        an_compose(g, an_basis_morphism(QQ, 5, 2, 3, 3)),
        an_scale(an_compose(g, an_basis_morphism(QQ, 5, 2, 3, 4)), 2),
    )
    assert lhs == rhs
    assert an_compose(an_identity(QQ, 5, 3), f) == f
    assert an_compose(f, an_identity(QQ, 5, 2)) == f


def test_translate_involution():
    assert an_translate_index(5, 2) == 3
    assert an_translate_index(5, 0) == 0
    a = an_add(
        an_basis_morphism(QQ, 6, 2, 3, 3),
        an_scale(an_basis_morphism(QQ, 6, 2, 3, 4), 7),
    )
    t = an_translate(a)
    assert (t.mu, t.nu) == (4, 3)
    assert t.coeffs == a.coeffs
    assert an_translate(t) == a


def test_end_ring_nilpotency():
    ring = an_end_ring(QQ, 7, 3)
    assert ring["d"] == 3
    assert len(ring["powers"]) == 3
    for k in range(3):
        assert ring["powers"][k] == an_basis_morphism(QQ, 7, 3, 3, 3 + k)
    assert an_compose(ring["generator"], ring["powers"][-1]).is_zero()
    trivial = an_end_ring(QQ, 7, 1)
    assert trivial["d"] == 1 and trivial["generator"].is_zero()


def test_triangle_on_generator():
    tri = an_triangle(an_generator(QQ, 5, 2, 3))
    assert tri.third == (1,)
    assert tri.g == (an_generator(QQ, 5, 3, 1),)
    assert tri.h == (an_generator(QQ, 5, 1, 3),)
    # Downward generator picks up the minus sign on h.
    tri2 = an_triangle(an_generator(QQ, 5, 3, 2))
    assert tri2.third == (4,)
    assert tri2.g == (an_generator(QQ, 5, 2, 4),)
    assert tri2.h == (an_scale(an_generator(QQ, 5, 4, 2), -1),)


def test_triangle_on_higher_peak():
    tri = an_triangle(an_basis_morphism(QQ, 5, 2, 3, 4))
    assert tri.third == (2, 4)
    assert tri.g == (an_generator(QQ, 5, 3, 2), an_generator(QQ, 5, 3, 4))
    assert tri.h == (
        an_generator(QQ, 5, 2, 3),
        an_scale(an_generator(QQ, 5, 4, 3), -1),
    )
    with pytest.raises(ValueError, match="invalid-shape"):
        an_triangle(an_scale(an_generator(QQ, 5, 2, 3), 2))
    with pytest.raises(ValueError, match="invalid-shape"):
        an_triangle(
            an_add(
                an_basis_morphism(QQ, 5, 2, 3, 3),
                an_basis_morphism(QQ, 5, 2, 3, 4),
            )
        )


def _two_branch_triangle(f):
    """The catalogue triangle with the generator written as its own case:
    a reference for `an_triangle`'s one formula."""
    field, n, mu, nu = f.field, f.n, f.mu, f.nu
    (lam,) = [lam for lam, c in zip(f.peaks, f.coeffs) if not field.is_zero(c)]
    if lam == max(mu, nu):
        t = pad(n, nu - mu)
        sign = -1 if nu - mu < 0 else 1
        h = (an_scale(an_generator(field, n, t, pad(n, -mu)), sign),)
        return AnTriangle(field, n, f, lam, (t,), (an_generator(field, n, nu, t),), h)
    t1, t2 = lam - mu, pad(n, nu - lam)
    g = (an_generator(field, n, nu, t1), an_generator(field, n, nu, t2))
    h = (an_generator(field, n, t1, pad(n, -mu)), an_scale(an_generator(field, n, t2, pad(n, -mu)), -1))
    return AnTriangle(field, n, f, lam, (t1, t2), g, h)


def test_triangle_formula_matches_two_branch_reference():
    count = 0
    for field in (QQ, PrimeField(101), PrimeField(2), PrimeField(3)):
        for n in range(2, 11):
            for mu in range(1, n):
                for nu in range(1, n):
                    for lam in an_hom_basis(n, mu, nu):
                        f = an_basis_morphism(field, n, mu, nu, lam)
                        assert an_triangle(f) == _two_branch_triangle(f)
                        count += 1
    assert count == 1980


def test_realize_objects_and_sums():
    ctx = an_context()
    v2 = realize_an_object(ctx, 5, 2)
    assert v2.p1.entries[0][0] == parse_poly(ctx, "z^2")
    assert v2.p0.entries[0][0] == parse_poly(ctx, "z^3")
    assert realize_an_object(ctx, 5, 0).rank == 0
    s = realize_an_sum(ctx, 5, (2, 0, 3))
    assert s.rank == 2
    assert s.p1.entries[0][0] == parse_poly(ctx, "z^2")
    assert s.p1.entries[1][1] == parse_poly(ctx, "z^3")
    assert s.p1.entries[0][1] == parse_poly(ctx, "0")
    assert realize_an_sum(ctx, 5, (0, 0)).rank == 0


def test_realize_morphism_components():
    ctx = an_context()
    f = realize_an_morphism(an_generator(QQ, 5, 3, 2), ctx)
    assert f.f1.entries[0][0] == parse_poly(ctx, "z")
    assert f.f0.entries[0][0] == parse_poly(ctx, "1")
    two_term = an_add(
        an_basis_morphism(QQ, 5, 2, 3, 3),
        an_scale(an_basis_morphism(QQ, 5, 2, 3, 4), 2),
    )
    g = realize_an_morphism(two_term, ctx)
    assert g.f1.entries[0][0] == parse_poly(ctx, "2*z + 1")
    assert g.f0.entries[0][0] == parse_poly(ctx, "2*z^2 + z")


def test_module_map_matrices():
    proj = an_module_map(an_generator(QQ, 5, 3, 2))
    assert proj == [[QQ.one(), QQ.zero(), QQ.zero()], [QQ.zero(), QQ.one(), QQ.zero()]]
    inj = an_module_map(an_generator(QQ, 5, 2, 3))
    assert inj == [
        [QQ.zero(), QQ.zero()],
        [QQ.one(), QQ.zero()],
        [QQ.zero(), QQ.one()],
    ]


def test_shift_identification_strict_involution():
    ctx = an_context()
    iota = shift_identification(ctx, 5, 2)
    assert iota.f1.entries[0][0] == parse_poly(ctx, "-1")
    assert iota.f0.entries[0][0] == parse_poly(ctx, "1")
    assert iota.source.p1 == mf_shift(realize_an_object(ctx, 5, 2)).p1
    assert iota.target.p1 == realize_an_object(ctx, 5, 3).p1
    from mfcat.factorization import morphism_new

    back = morphism_new(iota.target, iota.source, iota.f1, iota.f0)
    assert compose(back, iota).f1 == identity_morphism(iota.source).f1
    assert compose(iota, back).f1 == identity_morphism(iota.target).f1


def test_certify_generator_triangle():
    cert = certify_an_triangle(an_triangle(an_generator(QQ, 4, 1, 2)))
    assert cert["certified"]
    assert cert["third"] == [1]
    assert cert["candidates_tried"] >= 1
    assert "w1" in cert and "w0" in cert


def test_certify_builds_each_catalogue_object_once(monkeypatch):
    built = []
    realize = andyn.realize_an_object

    def counting(ctx, n, mu):
        built.append(mu)
        return realize(ctx, n, mu)

    monkeypatch.setattr(andyn, "realize_an_object", counting)
    for f, indices in (
        (an_generator(QQ, 5, 2, 3), {1, 2, 3}),
        (an_basis_morphism(QQ, 5, 2, 3, 4), {2, 3, 4}),
        (an_generator(QQ, 4, 2, 2), {0, 2}),
    ):
        built.clear()
        assert certify_an_triangle(an_triangle(f))["certified"]
        assert sorted(built) == sorted(indices)


def test_certify_rejects_flipped_sign():
    tri = an_triangle(an_generator(QQ, 4, 1, 2))
    bad = AnTriangle(
        tri.field,
        tri.n,
        tri.f,
        tri.lam,
        tri.third,
        tri.g,
        tuple(an_scale(h, -1) for h in tri.h),
    )
    cert = certify_an_triangle(bad)
    assert not cert["certified"]
    assert "reason" in cert


def test_verify_n3_report():
    report = an_verify(3)
    assert report["n"] == 3 and report["ok"]
    kinds = {c["check"] for c in report["checks"]}
    assert kinds == {"hom-dim", "compose", "translate", "triangle-fst"}
    assert len(report["checks"]) == 20
    assert all(c["ok"] for c in report["checks"])


def test_verify_prime_field():
    report = an_verify(3, field=PrimeField(7))
    assert report["ok"]
    kinds = {c["check"] for c in report["checks"]}
    assert kinds == {"hom-dim", "compose", "translate", "triangle-fst"}
    assert len(report["checks"]) == 20


def test_verify_takes_each_shifted_cokernel_once(monkeypatch):
    calls = []
    cok = andyn.cok

    def counting(x):
        calls.append(x)
        return cok(x)

    monkeypatch.setattr(andyn, "cok", counting)
    assert an_verify(5)["ok"]
    assert len(calls) == 4
