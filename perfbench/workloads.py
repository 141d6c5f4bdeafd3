"""The benchmark's workloads: queries against mfcat's public API.

A workload builder takes the freshly imported ``mfcat`` package and a seed
and returns its queries.  Building runs mfcat's validating constructors
(``realize_an_object``, ``knorrer``, ``cyclic_module``, ``module_new``,
``mf_new``) and counts as set-up.  A query is one public call whose answer
the benchmark can check: ``run()`` is the timed call; ``check(answer)``
runs outside the timed part, checks the answer against its closed form,
re-validates the returned witnesses, and returns the JSON-able record that
goes into the witness digest.  It raises ``WrongAnswer`` on a failed check.

Every call into mfcat goes through a module attribute at call time, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List


class WrongAnswer(Exception):
    """An answer or witness that does not match its closed form."""


@dataclass
class Query:
    qid: str
    run: Callable[[], object]
    check: Callable[[object], object]


def _require(ok, what):
    if not ok:
        raise WrongAnswer(what)


def _scalar_rows(field, rows):
    return [[field.format(c) for c in row] for row in rows]


# -- certify: triangle certification and isomorphism search over Q ----------

CERTIFY_TRIANGLE_NS = range(2, 5)
CERTIFY_STABILIZE_NS = range(2, 4)
CERTIFY_ROTATION_NS = range(2, 3)
STABILIZE_POLICY = {"mode": "bounded", "bound": 3}
ROTATION_POLICY = {"mode": "bounded", "bound": 4}


def _iso_check(mf, x, y, want):
    """Check an IsoResult between prebuilt x and y; re-validate u, v and
    both homotopies from scratch."""
    fac = mf.factorization
    fmt = mf.formats

    def check(r):
        _require(r.status == "iso", f"status {r.status!r}, want 'iso' ({want})")
        u = fac.morphism_new(x, y, r.u.f1, r.u.f0)
        v = fac.morphism_new(y, x, r.v.f1, r.v.f0)
        vu = fac.morphism_sub(fac.compose(v, u), fac.identity_morphism(x))
        uv = fac.morphism_sub(fac.compose(u, v), fac.identity_morphism(y))
        _require(r.source_homotopy.bounds(vu), "source homotopy does not bound v u - id")
        _require(r.target_homotopy.bounds(uv), "target homotopy does not bound u v - id")
        return {
            "certificate": r.certificate,
            "u": fmt.morphism_to_dict(u, "X", "Y"),
            "v": fmt.morphism_to_dict(v, "Y", "X"),
            "source_homotopy": fmt.homotopy_to_dict(r.source_homotopy, "X", "X"),
            "target_homotopy": fmt.homotopy_to_dict(r.target_homotopy, "Y", "Y"),
        }

    return check


def build_certify(mf, seed):
    an = mf.andyn
    fac = mf.factorization
    field = mf.QQ
    ctx = an.an_context(field)
    queries: List[Query] = []

    for n in CERTIFY_TRIANGLE_NS:
        for mu in range(1, n):
            for nu in range(1, n):
                tri = an.an_triangle(an.an_generator(field, n, mu, nu))
                _, _, t, f, _, _ = an.realize_an_triangle(tri, ctx)
                cone_obj = fac.cone(f)

                def check(cert, n=n, mu=mu, nu=nu, t=t, cone_obj=cone_obj):
                    _require(cert["certified"] is True, f"triangle n={n} {mu}->{nu} not certified")
                    _require((cert["n"], cert["mu"], cert["nu"]) == (n, mu, nu), "certificate labels")
                    w1 = mf.PolyMatrix(ctx, [[ctx.parse(s) for s in row] for row in cert["w1"]], cols=t.rank)
                    w0 = mf.PolyMatrix(ctx, [[ctx.parse(s) for s in row] for row in cert["w0"]], cols=t.rank)
                    fac.morphism_new(t, cone_obj, w1, w0)
                    return cert

                queries.append(
                    Query(
                        f"triangle n={n} mu={mu} nu={nu}",
                        lambda tri=tri: an.certify_an_triangle(tri, ctx),
                        check,
                    )
                )

    policy = mf.SearchPolicy(**STABILIZE_POLICY)
    for n in CERTIFY_STABILIZE_NS:
        for mu in range(1, n):
            lifted = mf.modules.stabilize(mf.modules.cyclic_module(field, n, mu))
            model = an.realize_an_object(ctx, n, mu)
            queries.append(
                Query(
                    f"stabilize-iso n={n} mu={mu}",
                    lambda x=lifted, y=model: mf.homotopy.is_iso_in_db(x, y, policy),
                    _iso_check(mf, lifted, model, f"stabilize V_{mu} over z^{n}"),
                )
            )

    policy_rot = mf.SearchPolicy(**ROTATION_POLICY)
    for n in CERTIFY_ROTATION_NS:
        for mu in range(1, n):
            for nu in range(1, n):
                f = an.realize_an_morphism(an.an_generator(field, n, mu, nu), ctx)
                _, g, _ = fac.standard_triangle(f)
                x = fac.cone(g)
                y = fac.mf_shift(f.source)
                queries.append(
                    Query(
                        f"rotation n={n} mu={mu} nu={nu}",
                        lambda x=x, y=y: mf.homotopy.is_iso_in_db(x, y, policy_rot),
                        _iso_check(mf, x, y, f"rotation n={n} {mu}->{nu}"),
                    )
                )
    return queries


# -- graded: graded Hom dimensions between Knoerrer lifts ------------------

GRADED_FIELDS = (("Q", range(4, 5)), ("Fp:101", range(7, 8)))


def build_graded(mf, seed):
    an = mf.andyn
    queries: List[Query] = []
    for token, ns in GRADED_FIELDS:
        field = mf.field_from_token(token)
        ctx = an.an_context(field)
        for n in ns:
            lifted = {mu: mf.knorrer(an.realize_an_object(ctx, n, mu)) for mu in range(1, n)}
            for mu in range(1, n):
                for nu in range(1, n):
                    want = an.an_hom_dim(n, mu, nu)

                    def check(answer, want=want):
                        dim, cert = answer
                        _require(dim == want, f"graded dim {dim}, want {want}")
                        _require(cert["total"] == dim, "certificate total differs from the dimension")
                        degrees = [d for d, _ in cert["degrees"]]
                        _require(degrees == list(range(degrees[0], degrees[0] + len(degrees))), "degree scan has gaps")
                        _require(sum(v for _, v in cert["degrees"]) == dim, "degree dimensions do not sum to the total")
                        _require(degrees[-1] >= cert["scan_bound"], "scan stopped below its bound")
                        return cert

                    queries.append(
                        Query(
                            f"graded {token} n={n} mu={mu} nu={nu}",
                            lambda x=lifted[mu], y=lifted[nu]: mf.homotopy.graded_stable_hom_dim(x, y),
                            check,
                        )
                    )
    return queries


# -- modules: the module side and polynomial matrix products, seeded -------

MODULES_CYCLIC_NS = range(2, 9)
MODULES_SUM_NS = range(3, 6)
MODULES_SUMS_PER_N = 8
MODULES_ROUNDTRIP_NS = range(2, 7)
MODULES_ROUNDTRIP_DIMS = (3, 4, 5, 6, 7, 8) * 2
MODULES_DERIVATIVES = 100


def _depth(n, mu):
    return min(mu, n - mu) if 0 < mu < n else 0


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


def _direct_sum(mf, field, n, parts):
    """Direct sum of k[z]/z^part over k[z]/z^n."""
    mods = mf.modules
    m = mods.cyclic_module(field, n, parts[0])
    for part in parts[1:]:
        m = mods.direct_sum_modules(m, mods.cyclic_module(field, n, part))
    return m


def _random_module(mf, rng, field, n, parts):
    """The direct sum in a random basis, so its z-action is dense."""
    mods = mf.modules
    m = _direct_sum(mf, field, n, parts)
    if m.dim < 2:
        return m
    p, p_inv = _unimodular(rng, m.dim)
    z = m.z_matrix()
    conj = mf.linalg.mat_mul(field, mf.linalg.mat_mul(field, p, z), p_inv)
    return mods.module_new(m.w, conj)


def _random_partition(rng, total, cap):
    parts = []
    while total:
        part = rng.randint(1, min(cap, total))
        parts.append(part)
        total -= part
    return sorted(parts, reverse=True)


def _stable_hom_check(field, want):
    def check(sh):
        _require(sh.dim == want, f"stable Hom dim {sh.dim}, want {want}")
        _require(len(sh.quotient_basis) == want, "quotient basis size differs from the dimension")
        return {"dim": sh.dim, "quotient_basis": [_scalar_rows(field, q) for q in sh.quotient_basis]}

    return check


def _roundtrip_check(got, want, n):
    got = {k: v for k, v in got.items() if k != n}
    _require(got == want, f"decompose gave {got}, want {want}")
    return sorted(got.items())


def build_modules(mf, seed):
    rng = random.Random(seed)
    mods = mf.modules
    fac = mf.factorization
    fmt = mf.formats
    field = mf.QQ
    queries: List[Query] = []

    for n in MODULES_CYCLIC_NS:
        cyclic = {mu: mods.cyclic_module(field, n, mu) for mu in range(1, n)}
        for mu in range(1, n):
            for nu in range(1, n):
                queries.append(
                    Query(
                        f"stable-hom cyclic n={n} mu={mu} nu={nu}",
                        lambda a=cyclic[mu], b=cyclic[nu]: mods.stable_hom(a, b),
                        _stable_hom_check(field, min(_depth(n, mu), _depth(n, nu))),
                    )
                )

    for n in MODULES_SUM_NS:
        for k in range(MODULES_SUMS_PER_N):
            a_parts = _random_partition(rng, n + 1, n)
            b_parts = _random_partition(rng, n + 1, n)
            a = _direct_sum(mf, field, n, a_parts)
            b = _direct_sum(mf, field, n, b_parts)
            want = sum(min(_depth(n, i), _depth(n, j)) for i in a_parts for j in b_parts)
            queries.append(
                Query(
                    f"stable-hom sum n={n} #{k} {a_parts}->{b_parts}",
                    lambda a=a, b=b: mods.stable_hom(a, b),
                    _stable_hom_check(field, want),
                )
            )

    for n in MODULES_ROUNDTRIP_NS:
        for k, dim in enumerate(MODULES_ROUNDTRIP_DIMS):
            parts = _random_partition(rng, dim, n)
            m = _random_module(mf, rng, field, n, parts)
            want = dict(Counter(p for p in parts if p != n))
            queries.append(
                Query(
                    f"roundtrip n={n} #{k} {parts}",
                    lambda m=m: mods.decompose(mods.cok(mods.stabilize(m)).module),
                    lambda got, want=want, n=n: _roundtrip_check(got, want, n),
                )
            )

    ctx = mf.andyn.an_context(field)
    for i in range(MODULES_DERIVATIVES):
        n = 2 + i % 5
        indices = [rng.randint(1, n - 1) for _ in range(1 + i % 3)]
        x = mf.andyn.realize_an_sum(ctx, n, indices)
        if i % 2:
            x = fac.mf_shift(x)
        if i % 10 < 3:
            x = mf.knorrer(x)

        def check(pairs, x=x):
            _require(len(pairs) == len(x.ctx.variables), "one answer per variable")
            records = []
            for var, (f, h) in zip(x.ctx.variables, pairs):
                dw = fac.multiplication_morphism(x, x.w.partial_derivative(var))
                _require(f.f1 == dw.f1 and f.f0 == dw.f0, f"morphism is not d{var}(W) * id")
                _require(h.s == x.p0.partial_derivative(var), f"s is not d{var}(p0)")
                _require(h.t == x.p1.partial_derivative(var), f"t is not d{var}(p1)")
                b = h.boundary()
                _require(b.f1 == dw.f1 and b.f0 == dw.f0, f"boundary is not d{var}(W) * id")
                records.append(fmt.homotopy_to_dict(h, "X", "X"))
            return records

        queries.append(
            Query(
                f"derivative #{i} n={n} {indices} vars={len(x.ctx.variables)}",
                lambda x=x: [fac.partial_derivative_homotopy(x, v) for v in x.ctx.variables],
                check,
            )
        )
    return queries


WORKLOADS = {
    "certify": build_certify,
    "graded": build_graded,
    "modules": build_modules,
}
