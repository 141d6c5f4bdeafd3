"""A committed corpus of module-side records, pinned by one SHA-256.

Each record is canonical JSON (sorted keys, no spaces), one per case, and
the family's digest is the SHA-256 of its records joined by newlines.  A
change that alters any byte of a record fails `test_modules_family`; a
change that alters bytes on purpose re-records the digest and says which
records changed and why.

The module family covers:
- seeded random-basis modules M over k[z]/(z^n), n <= 6 and dim M <= 8,
  over Q and F_101: the blocks and z-action of cok(stabilize(M)), the map
  that cok induces from the identity of stabilize(M), and the quotient
  basis of the stable Hom space between cok(stabilize(M)) and M;
- `cok_induced_map` on every catalogue basis morphism V_mu -> V_nu for
  n <= 5, on its shift, and on seeded direct sums of two basis morphisms.

The cokernel family covers what the row transform U of the Smith form
decides, which the identity map of the module family cannot show: on
seeded stabilized modules M over Q, F_101 and F_3, with X = stabilize(M)
and its presentation cok(X), the classes of every unit column, of every
column of p0 and of z times it, and the lift of every basis class.

The bounded family holds `bounded_stable_hom_estimate` at bounds 0, n
and 2n on every pair of V_0, ..., V_(n-1) and the shift of V_1 for
2 <= n <= 5 over Q, F_101 and F_2, on every pair of Knoerrer lifts of
V_1, ..., V_(n-1) for n = 3, 4 over Q, and at bounds 0 to 6 on X = (z + 1,
z^2 - z - 2) against itself over z^3 - 3z with w0 = 2.

The critical family holds the values and the irrational flag that
`critical_values` gives on:
- the 202 seeded W of `tests/test_critical.py`, checked there against the
  sampled resultant;
- dense integer W of degree 10, 12 and 14, coefficients in [-50, 50];
- seeded products of (q z - p)^e with |p| up to 10^12.

The witnesses family holds certificates with their witness matrices as
strings, over Q and F_101:
- `certify_an_triangle` on the triangle of every catalogue basis morphism
  for n <= 5, at bounds 0, 1 and 2 and the default; the low bounds reach
  "comparison maps found but none invertible", and bound 2 also the search
  through the kernel directions;
- `is_iso_in_db` of stabilize(V_mu) against V_mu for n <= 4, at bounds 3
  and 0 and in graded mode; of the rotation cone(g) against X[1] of the
  generator's triangle for n <= 3, at bound 4; and of V_1 against V_2 over
  z^4 in graded mode, a certified "not-iso".

The graded family holds `graded_stable_hom_dim` (the dimension and its
certificate) on every pair of V_0, ..., V_n over Q for n = 2, ..., 7, F_3
for n <= 6, F_101 for n <= 8 and F_2 for n <= 5, and on every pair of
Knoerrer lifts of V_1, ..., V_(n-1) over Q, single for n <= 6 and double
for n <= 4.  It also holds the status, certificate and witness of graded
`find_null_homotopy` on every catalogue basis morphism f for n <= 6 over
Q and F_3, and on z^(n-1) f.

The shifted-cones family holds `graded_stable_hom_dim` both ways between
each V_mu and each object X among the shifts V_nu[1] and the cones of the
catalogue basis morphisms, for n <= 5 over Q and F_101.  Four of its
certificates, V_1 against V_1[1] both ways at n = 2, list degrees past
`scan_bound`.

The constructions family holds, as strings over Q and F_101 for
n = 2, ..., 5, the factorizations that `realize_an_sum` gives on every
index tuple of length 1 to 3 from 0, ..., n (so padded and zero summands
appear); the six parts (X, Y, T, f, g, h) that `realize_an_triangle`
gives on the triangle of every catalogue basis morphism; and
`knorrer_morphism` of every catalogue basis morphism for n <= 4.

Run `python tests/test_corpus.py` to print the records of every family,
one per line, and diff them against another checkout's; `python
tests/test_corpus.py graded critical` prints only the named families.
"""

import hashlib
import json
import random
import sys
from itertools import product

from mfcat import (
    QQ,
    PrimeField,
    RingContext,
    SearchPolicy,
    bounded_stable_hom_estimate,
    cok,
    cok_induced_map,
    compose,
    critical_values,
    cone,
    find_null_homotopy,
    graded_stable_hom_dim,
    identity_morphism,
    is_iso_in_db,
    mf_shift,
    multiplication_morphism,
    rank_one,
    stabilize,
    stable_hom,
    standard_triangle,
)
from mfcat import univariate as uni
from mfcat.andyn import (
    an_basis_morphism,
    an_context,
    an_generator,
    an_hom_basis,
    an_triangle,
    certify_an_triangle,
    realize_an_morphism,
    realize_an_object,
    realize_an_sum,
    realize_an_triangle,
)
from mfcat.factorization import direct_sum_morphism, shift_morphism
from mfcat.knorrer import knorrer, knorrer_morphism
from mfcat.formats import field_to_json
from mfcat.modules import cyclic_module, direct_sum_modules, module_new
from test_critical import CTX, dense_superpotential, root_product, seeded_superpotentials


MODULES_SHA256 = "e9817a525578aa3d67def27c63e7a96638c15ca47fb2d1ef6409f0fcefce4cda"
CRITICAL_SHA256 = "917dc071d1ebc433972867810f9050b4bc9bf4fb5d2b8b395dab0749a7aa3b17"
COKERNEL_SHA256 = "922e853b44a6908ebf5232115d63d2ca3b198488cf620b2587dd168903ccb740"
BOUNDED_SHA256 = "2e612a356d4497cf312971486a010f31dafc83f20eac30f08a229df0d80cb6f2"
WITNESSES_SHA256 = "5692c42361a56a945d2f706f4c39c4ee513effb21aaeac29bd8314cd410d98fe"
GRADED_SHA256 = "ea62ba2181815c1033857a4c646221b7828fa70e8ba12da76751ef26e4c75101"
SHIFTED_CONES_SHA256 = "a1a913e2a2fc90c4a6dcbf6451d876ef544d9c1c5a8a220117c0cf536bc85d13"
CONSTRUCTIONS_SHA256 = "b5ec0deb1a54f9c1f77755eca380de5dfac39f6d538f8f0bfe793350c9183e5b"

FIELDS = (QQ, PrimeField(101))
RANDOM_MODULES = 16  # per field
CATALOGUE_N = range(2, 6)
DIRECT_SUMS = 12  # per field
COKERNEL_MODULES = 120  # per field
DENSE_DEGREES = (10, 12, 14)
ROOT_PRODUCTS = 20
TRIANGLE_BOUNDS = (0, 1, 2, None)  # None: the default bound 2n
ISO_POLICIES = (("bounded", 3), ("graded", None), ("bounded", 0))
GRADED_CATALOGUE = ((QQ, 7), (PrimeField(3), 6), (PrimeField(101), 8), (PrimeField(2), 5))  # n <= max
NULL_HOMOTOPY_FIELDS = (QQ, PrimeField(3))
NULL_HOMOTOPY_N = range(2, 7)
SUM_LENGTHS = (1, 2, 3)
KNORRER_MORPHISM_N = range(2, 5)


def _scalars(field, rows):
    return [[field.format(c) for c in row] for row in rows]


def _presentation(pres):
    field = pres.field
    return {
        "blocks": [[start, [field.format(c) for c in d]] for start, _, d in pres.blocks],
        "Z": _scalars(field, pres.module.z_action),
    }


def _unimodular(rng, d):
    """A random integer matrix of determinant 1 and its inverse."""
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    p_inv = [row[:] for row in p]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_module(rng, field):
    """k[z]/z^p1 + ... + k[z]/z^pr over k[z]/z^n in a random basis."""
    n = rng.randint(2, 6)
    total, parts = rng.randint(1, 8), []
    while total:
        parts.append(rng.randint(1, min(n, total)))
        total -= parts[-1]
    m = cyclic_module(field, n, parts[0])
    for part in parts[1:]:
        m = direct_sum_modules(m, cyclic_module(field, n, part))
    if m.dim > 1:
        p, p_inv = _unimodular(rng, m.dim)
        z = [[int(field.format(c)) for c in row] for row in m.z_action]
        m = module_new(m.w, _mat_mul(_mat_mul(p, z), p_inv))
    return n, parts, m


def _module_records(field, rng):
    for _ in range(RANDOM_MODULES):
        n, parts, m = _random_module(rng, field)
        x = stabilize(m)
        pres = cok(x)
        sh = stable_hom(pres.module, m)
        yield {
            "case": "random-module",
            "field": field_to_json(field),
            "n": n,
            "parts": parts,
            "Z_M": _scalars(field, m.z_action),
            "cok": _presentation(pres),
            "identity": _scalars(field, cok_induced_map(pres, pres, identity_morphism(x))),
            "stable_hom": [_scalars(field, q) for q in sh.quotient_basis],
        }


def _induced(f):
    src, dst = cok(f.source), cok(f.target)
    return {
        "source": _presentation(src),
        "target": _presentation(dst),
        "map": _scalars(src.field, cok_induced_map(src, dst, f)),
    }


def _catalogue_records(field, rng):
    ctx = an_context(field)
    basis = []
    for n in CATALOGUE_N:
        for mu in range(1, n):
            for nu in range(1, n):
                for lam in an_hom_basis(n, mu, nu):
                    f = realize_an_morphism(an_basis_morphism(field, n, mu, nu, lam), ctx)
                    basis.append((n, mu, nu, lam, f))
                    params = {"field": field_to_json(field), "n": n, "mu": mu, "nu": nu, "lam": lam}
                    yield {"case": "basis", **params, **_induced(f)}
                    yield {"case": "basis-shift", **params, **_induced(shift_morphism(f))}
    for _ in range(DIRECT_SUMS):
        n = rng.choice(CATALOGUE_N[1:])
        (_, *a, f), (_, *b, g) = rng.sample([t for t in basis if t[0] == n], 2)
        yield {
            "case": "direct-sum",
            "field": field_to_json(field),
            "n": n,
            "summands": [a, b],
            **_induced(direct_sum_morphism(f, g)),
        }


def module_records():
    rng = random.Random(18)
    out = []
    for field in FIELDS:
        out.extend(_module_records(field, rng))
        out.extend(_catalogue_records(field, rng))
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in out]


def cokernel_records():
    rng = random.Random(22)
    out = []
    for field in FIELDS + (PrimeField(3),):
        for _ in range(COKERNEL_MODULES):
            n, parts, m = _random_module(rng, field)
            x = stabilize(m)
            pres = cok(x)
            ctx, rank = x.ctx, x.rank
            z = ctx.variable("z")
            units = [[ctx.one() if i == j else ctx.zero() for i in range(rank)] for j in range(rank)]
            p0 = [[x.p0.entries[i][j] for i in range(rank)] for j in range(rank)]
            out.append({
                "field": field_to_json(field),
                "n": n,
                "parts": parts,
                "Z_M": _scalars(field, m.z_action),
                "units": _scalars(field, [pres.class_of(col) for col in units]),
                "p0": _scalars(field, [pres.class_of(col) for col in p0]),
                "z_p0": _scalars(field, [pres.class_of([z * p for p in col]) for col in p0]),
                "lifts": [[str(p) for p in pres.lift_of_basis(b)] for b in range(pres.dim)],
            })
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in out]


def _bounded_record(case, field, n, pairs, bounds):
    for (a, x), (b, y) in pairs:
        for bound in bounds:
            yield {
                "case": case,
                "field": field_to_json(field),
                "n": n,
                "pair": [a, b],
                "bound": bound,
                "dim": bounded_stable_hom_estimate(x, y, bound),
            }


def bounded_records():
    out = []
    for field in FIELDS + (PrimeField(2),):
        ctx = an_context(field)
        for n in CATALOGUE_N:
            objects = [(str(mu), realize_an_object(ctx, n, mu)) for mu in range(n)]
            objects.append(("1[1]", mf_shift(objects[1][1])))
            pairs = [(a, b) for a in objects for b in objects]
            out.extend(_bounded_record("catalogue", field, n, pairs, (0, n, 2 * n)))
    ctx = an_context(QQ)
    for n in (3, 4):
        lifts = [(str(mu), knorrer(realize_an_object(ctx, n, mu))) for mu in range(1, n)]
        pairs = [(a, b) for a in lifts for b in lifts]
        out.extend(_bounded_record("knorrer", QQ, n, pairs, (0, n, 2 * n)))
    ctx = RingContext(QQ, ("z",), weights=(1,), w0=2)
    z = ctx.variable("z")
    x = rank_one(ctx, z**3 - 3 * z, z + 1, z**2 - z - 2)
    out.extend(_bounded_record("w0", QQ, 3, [(("X", x), ("X", x))], range(7)))
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in out]


def _strings(**matrices):
    return {name: [[str(p) for p in row] for row in m.entries] for name, m in matrices.items()}


def _iso_record(case, field, params, policy, r):
    record = {
        "case": case,
        "field": field_to_json(field),
        **params,
        "policy": [policy.mode, policy.bound],
        "status": r.status,
        "certificate": r.certificate,
    }
    if r.u is not None:
        record["witness"] = _strings(
            u1=r.u.f1, u0=r.u.f0, v1=r.v.f1, v0=r.v.f0,
            s1=r.source_homotopy.s, t1=r.source_homotopy.t,
            s2=r.target_homotopy.s, t2=r.target_homotopy.t,
        )
    return record


def witness_records():
    out = []
    for field in FIELDS:
        ctx = an_context(field)
        for n in CATALOGUE_N:
            for mu in range(1, n):
                for nu in range(1, n):
                    for lam in an_hom_basis(n, mu, nu):
                        tri = an_triangle(an_basis_morphism(field, n, mu, nu, lam))
                        for bound in TRIANGLE_BOUNDS:
                            out.append({
                                "case": "triangle",
                                "field": field_to_json(field),
                                "bound": bound,
                                "certificate": certify_an_triangle(tri, ctx, bound),
                            })
        for n in range(2, 5):
            for mu in range(1, n):
                x = stabilize(cyclic_module(field, n, mu))
                y = realize_an_object(ctx, n, mu)
                for mode, bound in ISO_POLICIES:
                    policy = SearchPolicy(mode=mode, bound=bound)
                    params = {"n": n, "mu": mu}
                    out.append(_iso_record("stabilize", field, params, policy, is_iso_in_db(x, y, policy)))
        policy = SearchPolicy(mode="bounded", bound=4)
        for n in range(2, 4):
            for mu in range(1, n):
                for nu in range(1, n):
                    f = realize_an_morphism(an_generator(field, n, mu, nu), ctx)
                    _, g, _ = standard_triangle(f)
                    r = is_iso_in_db(cone(g), mf_shift(f.source), policy)
                    out.append(_iso_record("rotation", field, {"n": n, "mu": mu, "nu": nu}, policy, r))
        policy = SearchPolicy(mode="graded")
        r = is_iso_in_db(realize_an_object(ctx, 4, 1), realize_an_object(ctx, 4, 2), policy)
        out.append(_iso_record("not-iso", field, {"n": 4, "mu": 1, "nu": 2}, policy, r))
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in out]


def _graded_records(case, field, n, pairs):
    for (a, x), (b, y) in pairs:
        dim, certificate = graded_stable_hom_dim(x, y)
        yield {
            "case": case,
            "field": field_to_json(field),
            "n": n,
            "pair": [a, b],
            "dim": dim,
            "certificate": certificate,
        }


def _all_pairs(objects):
    return [(a, b) for a in objects for b in objects]


def graded_records():
    out = []
    for field, top in GRADED_CATALOGUE:
        ctx = an_context(field)
        for n in range(2, top + 1):
            objects = [(mu, realize_an_object(ctx, n, mu)) for mu in range(n + 1)]
            out.extend(_graded_records("catalogue", field, n, _all_pairs(objects)))
    ctx = an_context(QQ)
    for case, top, lift in (
        ("lift", 6, knorrer),
        ("double-lift", 4, lambda x: knorrer(knorrer(x), "u", "v")),
    ):
        for n in range(2, top + 1):
            objects = [(mu, lift(realize_an_object(ctx, n, mu))) for mu in range(1, n)]
            out.extend(_graded_records(case, QQ, n, _all_pairs(objects)))
    policy = SearchPolicy(mode="graded")
    for field in NULL_HOMOTOPY_FIELDS:
        ctx = an_context(field)
        for n in NULL_HOMOTOPY_N:
            for mu in range(1, n):
                for nu in range(1, n):
                    for lam in an_hom_basis(n, mu, nu):
                        f = realize_an_morphism(an_basis_morphism(field, n, mu, nu, lam), ctx)
                        zf = compose(multiplication_morphism(f.target, ctx.monomial((n - 1,))), f)
                        for case, g in (("basis", f), ("z-multiple", zf)):
                            r = find_null_homotopy(g, policy)
                            record = {
                                "case": case,
                                "field": field_to_json(field),
                                "n": n, "mu": mu, "nu": nu, "lam": lam,
                                "status": r.status,
                                "certificate": r.certificate,
                            }
                            if r.homotopy is not None:
                                record["witness"] = _strings(s=r.homotopy.s, t=r.homotopy.t)
                            out.append(record)
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in out]


def shifted_cone_records():
    out = []
    for field in FIELDS:
        ctx = an_context(field)
        for n in CATALOGUE_N:
            objects = [(f"{nu}[1]", mf_shift(realize_an_object(ctx, n, nu))) for nu in range(1, n)]
            for mu in range(1, n):
                for nu in range(1, n):
                    for lam in an_hom_basis(n, mu, nu):
                        f = realize_an_morphism(an_basis_morphism(field, n, mu, nu, lam), ctx)
                        objects.append((f"cone({mu},{nu},{lam})", cone(f)))
            for mu in range(1, n):
                v = (mu, realize_an_object(ctx, n, mu))
                pairs = [pair for x in objects for pair in ((v, x), (x, v))]
                out.extend(_graded_records("shifted-cone", field, n, pairs))
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in out]


def _object(x):
    return {"W": str(x.w), "rank": x.rank, **_strings(p1=x.p1, p0=x.p0)}


def _morphism(f):
    return {"source": _object(f.source), "target": _object(f.target), **_strings(f1=f.f1, f0=f.f0)}


def construction_records():
    out = []
    for field in FIELDS:
        ctx = an_context(field)
        params = {"field": field_to_json(field)}
        for n in CATALOGUE_N:
            for length in SUM_LENGTHS:
                for indices in product(range(n + 1), repeat=length):
                    x = realize_an_sum(ctx, n, indices)
                    out.append({"case": "sum", **params, "n": n, "indices": indices, **_object(x)})
            for mu in range(1, n):
                for nu in range(1, n):
                    for lam in an_hom_basis(n, mu, nu):
                        a = an_basis_morphism(field, n, mu, nu, lam)
                        x, y, t, f, g, h = realize_an_triangle(an_triangle(a), ctx)
                        out.append({
                            "case": "triangle",
                            **params, "n": n, "mu": mu, "nu": nu, "lam": lam,
                            "X": _object(x), "Y": _object(y), "T": _object(t),
                            "f": _morphism(f), "g": _morphism(g), "h": _morphism(h),
                        })
                        if n in KNORRER_MORPHISM_N:
                            k = knorrer_morphism(realize_an_morphism(a, ctx))
                            out.append({
                                "case": "knorrer-morphism",
                                **params, "n": n, "mu": mu, "nu": nu, "lam": lam,
                                **_morphism(k),
                            })
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in out]


def _critical_record(case, coeffs):
    values, irrational = critical_values(uni.to_poly(CTX, "z", coeffs))
    return {
        "case": case,
        "W": [str(c) for c in coeffs],
        "values": [str(v) for v in values],
        "irrational": irrational,
    }


def critical_records():
    rng = random.Random(21)
    out = [_critical_record("seeded", w) for w in seeded_superpotentials()]
    out += [_critical_record("dense", dense_superpotential(d)) for d in DENSE_DEGREES]
    out += [_critical_record("root-product", root_product(rng, 10**12)[0]) for _ in range(ROOT_PRODUCTS)]
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in out]


def _digest(records):
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def test_modules_family():
    assert _digest(module_records()) == MODULES_SHA256, "module family records changed"


def test_cokernel_family():
    assert _digest(cokernel_records()) == COKERNEL_SHA256, "cokernel family records changed"


def test_bounded_family():
    assert _digest(bounded_records()) == BOUNDED_SHA256, "bounded family records changed"


def test_witnesses_family():
    assert _digest(witness_records()) == WITNESSES_SHA256, "witnesses family records changed"


def test_graded_family():
    assert _digest(graded_records()) == GRADED_SHA256, "graded family records changed"


def test_critical_family():
    assert _digest(critical_records()) == CRITICAL_SHA256, "critical family records changed"


def test_shifted_cones_family():
    assert _digest(shifted_cone_records()) == SHIFTED_CONES_SHA256, "shifted-cones family records changed"


def test_constructions_family():
    assert _digest(construction_records()) == CONSTRUCTIONS_SHA256, "constructions family records changed"


FAMILIES = {
    "modules": module_records,
    "cokernel": cokernel_records,
    "bounded": bounded_records,
    "witnesses": witness_records,
    "graded": graded_records,
    "critical": critical_records,
    "shifted-cones": shifted_cone_records,
    "constructions": construction_records,
}


if __name__ == "__main__":
    names = sys.argv[1:] or list(FAMILIES)
    unknown = [name for name in names if name not in FAMILIES]
    if unknown:
        sys.exit(f"unknown family {', '.join(unknown)}; choose from {', '.join(FAMILIES)}")
    for name in names:
        records = FAMILIES[name]()
        sys.stdout.write("\n".join(records) + "\n")
        print(f"{name}: {len(records)} records, sha256 {_digest(records)}", file=sys.stderr)
