import random
from fractions import Fraction

import pytest

from mfcat import (
    QQ,
    PrimeField,
    RingContext,
    bounded_stable_hom_estimate,
    cok,
    cok_induced_map,
    cyclic_module,
    decompose,
    direct_sum_modules,
    hom_space,
    identity_morphism,
    knorrer,
    module_new,
    morphism_from_polys,
    parse_poly,
    rank_one,
    stable_hom,
    stabilize,
)
from mfcat import andyn, linalg, modules
from mfcat import univariate as uni


F = Fraction


def jordan_module(n, parts):
    """Module over k[z]/z^n given by nilpotent Jordan blocks."""
    d = sum(parts)
    z = [[F(0)] * d for _ in range(d)]
    off = 0
    for p in parts:
        for i in range(1, p):
            z[off + i][off + i - 1] = F(1)
        off += p
    ctx = andyn.an_context()
    return module_new(andyn.an_w(ctx, n), z)


def test_module_validation():
    ctx = RingContext(QQ, ("z",))
    w = parse_poly(ctx, "z^2")
    module_new(w, [[F(0)]])
    with pytest.raises(ValueError, match="superpotential-mismatch"):
        module_new(w, [[F(1)]])
    with pytest.raises(ValueError, match="wrong-arity"):
        module_new(w, [[F(0), F(0)]])


def test_action_entries_over_q_are_ints_where_integral():
    assert type(RingContext(QQ).w0) is int
    m = jordan_module(4, [3, 1])
    assert {type(x) for row in m.z_action for x in row} == {int}
    assert {type(x) for row in cyclic_module(QQ, 5, 3).z_action for x in row} == {int}
    ctx = RingContext(QQ, ("z",))
    half = module_new(parse_poly(ctx, "z^2 - 1/4"), [[F(1, 2), F(0)], [F(0), F(-1, 2)]])
    assert [type(x) for row in half.z_action for x in row] == [F, int, int, F]


def test_cyclic_module():
    m = cyclic_module(QQ, 5, 2)
    assert m.dim == 2
    z = m.z_matrix()
    assert z[1][0] == 1 and z[0][0] == 0
    zero = cyclic_module(QQ, 5, 0)
    assert zero.dim == 0
    with pytest.raises(ValueError, match="index-out-of-range"):
        cyclic_module(QQ, 5, 6)


def test_hom_space_dimensions():
    # Hom(k[z]/z^a, k[z]/z^b) has dimension min(a, b)
    for a in range(1, 5):
        for b in range(1, 5):
            m = cyclic_module(QQ, 5, a)
            n = cyclic_module(QQ, 5, b)
            assert len(hom_space(m, n)) == min(a, b)


def test_hom_space_zero_module_and_mismatch():
    zero, m = cyclic_module(QQ, 5, 0), cyclic_module(QQ, 5, 2)
    assert hom_space(zero, m) == hom_space(m, zero) == hom_space(zero, zero) == []
    with pytest.raises(ValueError, match="superpotential-mismatch"):
        hom_space(m, cyclic_module(QQ, 4, 2))


def test_stable_hom_min_depth():
    # frozen grid for n = 5: depth mu = min(mu, 5 - mu)
    expected = [
        [1, 1, 1, 1],
        [1, 2, 2, 1],
        [1, 2, 2, 1],
        [1, 1, 1, 1],
    ]
    for mu in range(1, 5):
        for nu in range(1, 5):
            sh = stable_hom(cyclic_module(QQ, 5, mu), cyclic_module(QQ, 5, nu))
            assert sh.dim == expected[mu - 1][nu - 1]


def test_stable_hom_free_module_is_zero():
    free = cyclic_module(QQ, 4, 4)  # the ring itself
    m = cyclic_module(QQ, 4, 2)
    assert stable_hom(free, m).dim == 0
    assert stable_hom(m, free).dim == 0
    assert stable_hom(free, free).dim == 0


def test_stable_hom_identity_class():
    m = cyclic_module(QQ, 5, 2)
    sh = stable_hom(m, m)
    ident = [[F(1), F(0)], [F(0), F(1)]]
    assert not sh.is_stably_zero(ident)
    # z^2 acts as zero on V_2, and z factors through the free cover? no:
    # multiplication by z is depth-1 nonzero only when 2*1 < ... check directly
    zmap = m.z_matrix()
    coords = sh.stable_coordinates(zmap)
    assert len(coords) == sh.dim


def test_stable_hom_mismatch():
    with pytest.raises(ValueError, match="superpotential-mismatch"):
        stable_hom(cyclic_module(QQ, 5, 2), cyclic_module(QQ, 4, 2))


def test_direct_sum_and_decompose():
    m = direct_sum_modules(cyclic_module(QQ, 5, 2), cyclic_module(QQ, 5, 3))
    assert m.dim == 5
    assert decompose(m) == {2: 1, 3: 1}
    assert decompose(jordan_module(4, [1, 1, 4, 2])) == {1: 2, 2: 1, 4: 1}
    ctx = RingContext(QQ, ("z",))
    smooth = module_new(parse_poly(ctx, "z^2 - 1"), [[F(1)]])
    with pytest.raises(ValueError, match="not-nilpotent-form"):
        decompose(smooth)


def test_cok_of_rank_one():
    ctx = RingContext(QQ, ("z",), weights=(1,))
    x = rank_one(ctx, parse_poly(ctx, "z^5"), parse_poly(ctx, "z^2"), parse_poly(ctx, "z^3"))
    pres = cok(x)
    assert pres.module.dim == 2
    assert decompose(pres.module) == {2: 1}


def test_cok_induced_map_respects_composition():
    ctx = RingContext(QQ, ("z",), weights=(1,))
    v2 = rank_one(ctx, parse_poly(ctx, "z^5"), parse_poly(ctx, "z^2"), parse_poly(ctx, "z^3"))
    v3 = rank_one(ctx, parse_poly(ctx, "z^5"), parse_poly(ctx, "z^3"), parse_poly(ctx, "z^2"))
    # projection V_3 -> V_2 realized on factorizations
    f = morphism_from_polys(v3, v2, [["z"]], [["1"]])
    p3, p2 = cok(v3), cok(v2)
    mat = cok_induced_map(p3, p2, f)
    assert len(mat) == 2 and len(mat[0]) == 3
    # the induced map intertwines the z-actions
    z3, z2 = p3.module.z_matrix(), p2.module.z_matrix()
    lhs = [[sum(mat[i][k] * z3[k][j] for k in range(3)) for j in range(3)] for i in range(2)]
    rhs = [[sum(z2[i][k] * mat[k][j] for k in range(2)) for j in range(3)] for i in range(2)]
    assert lhs == rhs


def test_stabilize_roundtrip():
    m = jordan_module(5, [2])
    x = stabilize(m)
    assert x.rank == 2
    back = cok(x)
    assert decompose(back.module) == {2: 1}


def test_cok_over_a_shifted_fiber():
    # W = z^3 - 3z with w0 = 2: X = (z + 1, z^2 - z - 2) factors W - w0, and
    # its cokernel lives over the fiber z^3 - 3z - 2 with w0 dropped.
    ctx = RingContext(QQ, ("z",), weights=(1,), w0=2)
    x = rank_one(ctx, parse_poly(ctx, "z^3 - 3*z"), parse_poly(ctx, "z + 1"), parse_poly(ctx, "z^2 - z - 2"))
    pres = cok(x)
    m = pres.module
    assert (m.dim, m.ctx.w0, m.z_matrix()) == (1, F(0), [[F(-1)]])
    assert m.w == parse_poly(m.ctx, "z^3 - 3*z - 2")
    assert [(start, d) for start, _, d in pres.blocks] == [(0, [F(1), F(1)])]
    assert stable_hom(m, m).dim == 1
    assert pres.lift_of_basis(0) == [ctx.one()]
    assert pres.class_of([parse_poly(ctx, "z^2")]) == [F(1)]
    back = cok(stabilize(m))
    assert back.module == m
    assert [d for _, _, d in back.blocks] == [[F(1), F(1)]]


def test_stabilize_of_free_is_contractible_block():
    m = jordan_module(3, [3])
    x = stabilize(m)
    # the free module stabilizes to a contractible factorization: cok = 0... or free
    dec = decompose(cok(x).module)
    assert all(k == 3 for k in dec)


def test_stable_hom_prime_field():
    for p in (5, 101):
        f = PrimeField(p)
        sh = stable_hom(cyclic_module(f, 5, 2), cyclic_module(f, 5, 3))
        assert sh.dim == 2


# -- the module side against the factorization side -------------------------
#
def test_stable_hom_reads_map_entries_in_the_field():
    # Over F_5, 5 is 0 and 6 and -4 are 1: the map is read as field elements.
    field = PrimeField(5)
    m = cyclic_module(field, 4, 2)
    sh = stable_hom(m, m)
    assert sh.is_stably_zero([[5, 0], [0, 5]])
    assert sh.stable_coordinates([[1, 0], [0, 1]]) == [0, 1]
    assert sh.stable_coordinates([[6, 0], [0, 6]]) == [0, 1]
    assert sh.stable_coordinates([[-4, 0], [0, -4]]) == [0, 1]
    assert sh.stable_coordinates_many([[[6, 0], [0, 6]], [[10, 0], [0, 10]]]) == [[0, 1], [0, 0]]
    assert modules.is_module_morphism(m, m, [[0, 0], [5, 0]])
    for bad in ([["1", 0], [0, 1]], [[True, 0], [0, 1]]):
        with pytest.raises(ValueError, match="context-mismatch"):
            sh.stable_coordinates(bad)
        with pytest.raises(ValueError, match="context-mismatch"):
            modules.is_module_morphism(m, m, bad)
    with pytest.raises(ValueError, match="shape-mismatch"):
        sh.stable_coordinates([["1", 0]])


# Random modules by the recipe of the benchmark's `modules` workload: a direct
# sum of cyclic modules over k[z]/z^n in a random unimodular basis, so that
# the z-action is dense.


def _unimodular(rng, d):
    """A random integer matrix of determinant 1 and its inverse."""
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    p_inv = [row[:] for row in p]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]  # p <- (I + c e_ij) p
        for row in p_inv:  # p_inv <- p_inv (I - c e_ij)
            row[j] -= c * row[i]
    return p, p_inv


def _random_partition(rng, total, cap):
    parts = []
    while total:
        part = rng.randint(1, min(cap, total))
        parts.append(part)
        total -= part
    return sorted(parts, reverse=True)


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_module(rng, n, dim, field=QQ):
    parts = _random_partition(rng, dim, n)
    m = cyclic_module(field, n, parts[0])
    for part in parts[1:]:
        m = direct_sum_modules(m, cyclic_module(field, n, part))
    if m.dim < 2:
        return m
    p, p_inv = _unimodular(rng, m.dim)
    return module_new(m.w, _product(_product(p, m.z_matrix()), p_inv))


def _random_pairs(seed, count, ns, dims, field=QQ):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(ns)
        a = _random_module(rng, n, rng.choice(dims), field)
        yield n, a, _random_module(rng, n, rng.choice(dims), field)


def test_stable_hom_matches_factorization_side():
    # Buchweitz: the stable category of the fibre ring is the homotopy
    # category of factorizations, with stabilize as the equivalence; and
    # Knoerrer periodicity keeps Hom under the lift to W + xy.
    for n, a, b in _random_pairs(5, 12, (2, 3, 4), (1, 2, 3, 4)):
        want = stable_hom(a, b).dim
        assert bounded_stable_hom_estimate(stabilize(a), stabilize(b), 2 * n) == want
    for n, a, b in _random_pairs(8, 2, (3, 4), (2, 3)):
        lifted = bounded_stable_hom_estimate(knorrer(stabilize(a)), knorrer(stabilize(b)), 2 * n)
        assert lifted == stable_hom(a, b).dim


def test_quotient_basis_is_the_greedy_choice():
    # A Hom basis vector is kept exactly when it is independent of the
    # factoring span and of the vectors before it: a kept one has a unit
    # vector as stable coordinates, any other one lies in the span of the
    # kept vectors before it.
    for _, a, b in _random_pairs(3, 10, (2, 3, 4), (2, 3, 4)):
        sh = stable_hom(a, b)
        coords = sh.stable_coordinates_many(sh.hom_basis)
        assert coords == [sh.stable_coordinates(h) for h in sh.hom_basis]
        kept = 0
        for h, c in zip(sh.hom_basis, coords):
            if kept < sh.dim and h == sh.quotient_basis[kept]:
                assert c == [F(int(k == kept)) for k in range(sh.dim)]
                kept += 1
            else:
                assert not any(c[kept:])
                assert sh.is_stably_zero(h) == (not any(c))
        assert kept == sh.dim


# -- Hom(M, A) in closed form against the free-cover construction ------------


def _companion(coeffs):
    """The action of z on k[z]/(f), f monic with the given coefficients, in
    the basis 1, z, ..., z^(deg f - 1)."""
    d = len(coeffs) - 1
    z = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        z[i + 1][i] = 1
    for i in range(d):
        z[i][d - 1] = -coeffs[i]
    return z


def _free_cover_quotient_basis(m, n):
    """The quotient basis of stable Hom(M, N) as built before the closed
    form: Hom(M, A) solved for as hom_space(M, A), with A = k[z]/(W) the
    module of the companion matrix of monic W, the factoring maps pi_j . h
    with pi_j(z^k) = Z_N^k e_j, and each Hom basis vector kept when it
    raises the rank of the factoring maps and the vectors kept before it."""
    field = m.field
    wc = uni.monic(field, uni.from_poly(m.w, m.var))
    ring = module_new(m.w, _companion(wc))
    powers = [[[int(i == j) for j in range(n.dim)] for i in range(n.dim)]]
    for _ in range(len(wc) - 2):
        powers.append(_product(n.z_matrix(), powers[-1]))

    def flat(f):
        return {
            i * m.dim + j: v
            for i, row in enumerate(f)
            for j, x in enumerate(row)
            if (v := field.coerce(x))
        }

    span = []
    for j in range(n.dim):
        pj = [[power[i][j] for power in powers] for i in range(n.dim)]
        span += [flat(_product(pj, h)) for h in hom_space(m, ring)]
    rank = linalg.rank(field, span)
    kept = []
    for h in hom_space(m, n):
        if linalg.rank(field, span + [flat(h)]) > rank:
            span.append(flat(h))
            kept.append(h)
            rank += 1
    return kept


def _modules_over(field, w_text, factors, seed, count):
    """Random modules over k[z]/(W): direct sums of one or two k[z]/(f) for
    monic f dividing W (given by coefficients), in a random unimodular
    basis."""
    ctx = RingContext(field, ("z",))
    w = parse_poly(ctx, w_text)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        blocks = [_companion(rng.choice(factors)) for _ in range(rng.randint(1, 2))]
        d = sum(len(b) for b in blocks)
        z = [[0] * d for _ in range(d)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                z[off + i][off:off + len(b)] = row
            off += len(b)
        if d >= 2:
            p, p_inv = _unimodular(rng, d)
            z = _product(_product(p, z), p_inv)
        out.append(module_new(w, z))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
def test_closed_form_matches_free_cover(field):
    pairs = [(a, b) for _, a, b in _random_pairs(5, 12, (2, 3, 4), (1, 2, 3, 4), field)]
    for w_text, factors in (
        ("z^3 - 3*z", ([0, 1], [-3, 0, 1], [0, -3, 0, 1])),
        ("2*z^3", ([0, 1], [0, 0, 1], [0, 0, 0, 1])),
        ("z^3 + z^2", ([0, 1], [1, 1], [0, 0, 1], [0, 1, 1], [0, 0, 1, 1])),
    ):
        modules = _modules_over(field, w_text, factors, 7, 4)
        pairs += [(a, b) for a in modules for b in modules]
    for a, b in pairs:
        sh = stable_hom(a, b)
        want = _free_cover_quotient_basis(a, b)
        assert (sh.dim, sh.quotient_basis) == (len(want), want)


def test_class_of_rejects_a_column_of_the_wrong_length():
    ctx = andyn.an_context()
    pres = cok(andyn.realize_an_sum(ctx, 4, [1, 2]))
    assert len(pres.class_of([ctx.one(), ctx.zero()])) == pres.dim
    for length in (1, 3):
        with pytest.raises(ValueError, match="shape-mismatch"):
            pres.class_of([ctx.one()] * length)


def test_cok_induced_map_rejects_a_morphism_between_other_factorizations():
    ctx = andyn.an_context()
    x = andyn.realize_an_sum(ctx, 4, [1, 2])
    y = andyn.realize_an_sum(ctx, 4, [3, 1])
    px, py = cok(x), cok(y)
    identity = [[F(int(i == j)) for j in range(px.dim)] for i in range(px.dim)]
    assert cok_induced_map(px, px, identity_morphism(x)) == identity
    for src, dst in ((py, py), (px, py), (py, px)):
        with pytest.raises(ValueError, match="not-composable"):
            cok_induced_map(src, dst, identity_morphism(x))
