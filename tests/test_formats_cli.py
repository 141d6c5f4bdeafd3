import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mfcat import PrimeField, QQ, RingContext, cli, formats, parse_poly, rank_one
from mfcat import modules
from mfcat.andyn import an_context, realize_an_object
from mfcat.factorization import Homotopy, morphism_from_polys


def v(n, mu):
    return realize_an_object(an_context(), n, mu)


def unweighted_pair():
    ctx = RingContext(QQ, ("z",))
    w = parse_poly(ctx, "z^5")
    x = rank_one(ctx, w, parse_poly(ctx, "z^2"), parse_poly(ctx, "z^3"))
    y = rank_one(ctx, w, parse_poly(ctx, "1"), parse_poly(ctx, "z^5"))
    return x, y


def test_canonical_json_layout():
    assert formats.canonical_json({"a": 1}) == '{\n  "a": 1\n}\n'


def test_scalar_and_field_json():
    assert formats.scalar_from_json(QQ, 3) == QQ.from_int(3)
    assert formats.scalar_from_json(QQ, "-3/2") == QQ.from_fraction(-3, 2)
    f5 = PrimeField(5)
    assert formats.scalar_from_json(f5, "7") == f5.from_int(2)
    with pytest.raises(ValueError, match="parse-error"):
        formats.scalar_from_json(QQ, "3/2/1")
    assert formats.field_from_json("Q") == QQ
    assert formats.field_from_json({"Fp": 7}) == PrimeField(7)
    with pytest.raises(ValueError, match="parse-error"):
        formats.field_from_json("R")


def test_mf_roundtrip_is_byte_identical(tmp_path):
    x = v(5, 2)
    path = str(tmp_path / "x.json")
    formats.save_mf(path, x)
    loaded = formats.load_mf(path)
    assert loaded.p1 == x.p1 and loaded.p0 == x.p0 and loaded.w == x.w
    with open(path) as fh:
        first = fh.read()
    assert first == formats.canonical_json(formats.mf_to_dict(loaded))
    d = json.loads(first)
    assert d["field"] == "Q" and d["vars"] == ["z"] and d["weights"] == [1]
    assert d["W"] == "z^5" and d["rank"] == 1


def test_mf_dict_validation():
    x = v(5, 2)
    d = formats.mf_to_dict(x)
    missing = dict(d)
    del missing["p0"]
    with pytest.raises(ValueError, match="parse-error"):
        formats.mf_from_dict(missing)
    short = dict(d)
    short["rank"] = 2
    with pytest.raises(ValueError, match="invalid-shape"):
        formats.mf_from_dict(short)


def test_morphism_refs_resolve_relative_to_file(tmp_path):
    x, y = v(5, 3), v(5, 2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    formats.save_mf(str(tmp_path / "x.json"), x)
    formats.save_mf(str(tmp_path / "y.json"), y)
    fpath = str(tmp_path / "f.json")
    formats.save_morphism(fpath, f, "x.json", "y.json")
    loaded = formats.load_morphism(fpath)
    assert loaded.f1 == f.f1 and loaded.f0 == f.f0
    assert loaded.source.p1 == x.p1


def test_homotopy_roundtrip(tmp_path):
    _, y = unweighted_pair()
    ctx = y.ctx
    h = Homotopy(
        y,
        y,
        formats._matrix_from_strings(ctx, [["1"]], 1),
        formats._matrix_from_strings(ctx, [["0"]], 1),
    )
    formats.save_mf(str(tmp_path / "y.json"), y)
    path = str(tmp_path / "h.json")
    formats.save_homotopy(path, h, "y.json", "y.json")
    loaded = formats.load_homotopy(path)
    b = loaded.boundary()
    assert b.f1.entries[0][0] == parse_poly(ctx, "1")


def test_cli_validate_homotopy(tmp_path, capsys):
    x, y = v(5, 3), v(5, 2)
    formats.save_mf(str(tmp_path / "x.json"), x)
    formats.save_mf(str(tmp_path / "y.json"), y)
    zeros = formats._matrix_from_strings(x.ctx, [["0"]], 1)
    path = str(tmp_path / "h.json")
    formats.save_homotopy(path, Homotopy(x, y, zeros, zeros), "x.json", "y.json")
    assert cli.run(["validate", path]) == 0
    assert capsys.readouterr().out == "valid homotopy: rank 1 -> rank 1\n"


def test_module_roundtrip_with_custom_variable(tmp_path):
    ctx = RingContext(QQ, ("t",))
    w = parse_poly(ctx, "t^3")
    zero, one = QQ.zero(), QQ.one()
    m = modules.module_new(w, [[zero, zero], [one, zero]])
    path = str(tmp_path / "m.json")
    formats.save_module(path, m)
    with open(path) as fh:
        d = json.load(fh)
    assert d["vars"] == ["t"] and d["dim"] == 2
    loaded = formats.load_module(path)
    assert loaded.z_matrix() == m.z_matrix()
    plain = modules.cyclic_module(QQ, 5, 2)
    formats.save_module(str(tmp_path / "p.json"), plain)
    with open(str(tmp_path / "p.json")) as fh:
        assert "vars" not in json.load(fh)


def test_classify_file(tmp_path):
    x, y = v(5, 3), v(5, 2)
    formats.save_mf(str(tmp_path / "x.json"), x)
    formats.save_mf(str(tmp_path / "y.json"), y)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    formats.save_morphism(str(tmp_path / "f.json"), f, "x.json", "y.json")
    zeros = formats._matrix_from_strings(x.ctx, [["0"]], 1)
    formats.save_homotopy(
        str(tmp_path / "h.json"), Homotopy(x, y, zeros, zeros), "x.json", "y.json"
    )
    formats.save_module(str(tmp_path / "m.json"), modules.cyclic_module(QQ, 5, 2))
    assert formats.classify_file(str(tmp_path / "x.json"))[0] == "factorization"
    assert formats.classify_file(str(tmp_path / "f.json"))[0] == "morphism"
    assert formats.classify_file(str(tmp_path / "h.json"))[0] == "homotopy"
    assert formats.classify_file(str(tmp_path / "m.json"))[0] == "module"
    stray = tmp_path / "s.json"
    stray.write_text('{"a": 1}\n')
    with pytest.raises(ValueError, match="parse-error"):
        formats.classify_file(str(stray))


def test_cli_validate_factorization(tmp_path, capsys):
    x, _ = unweighted_pair()
    path = str(tmp_path / "x.json")
    formats.save_mf(path, x)
    assert cli.run(["validate", path]) == 0
    assert capsys.readouterr().out == "valid factorization: rank 1, W = z^5\n"


def test_cli_an_table(capsys):
    assert cli.run(["an-table", "5"]) == 0
    assert capsys.readouterr().out == "1 1 1 1\n1 2 2 1\n1 2 2 1\n1 1 1 1\n"
    assert cli.run(["an-table", "4", "--csv"]) == 0
    assert capsys.readouterr().out == "1,1,1\n1,2,1\n1,1,1\n"
    assert cli.run(["an-table", "5", "--field", "Fp:101"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1 2 2 1"


def test_cli_an_table_over_a_large_prime(capsys):
    start = time.perf_counter()
    assert cli.run(["an-table", "3", "--field", "Fp:1000000000000000003"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "1 1\n1 1\n"


def test_cli_hom_against_contractible(tmp_path, capsys):
    x = v(5, 2)
    ctx = x.ctx
    free = rank_one(ctx, parse_poly(ctx, "z^5"), parse_poly(ctx, "1"), parse_poly(ctx, "z^5"))
    xp = str(tmp_path / "x.json")
    fp = str(tmp_path / "free.json")
    formats.save_mf(xp, x)
    formats.save_mf(fp, free)
    assert cli.run(["hom", xp, fp, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "dim 0"
    cert = tmp_path / "x-free-hom-certificate.json"
    assert cert.exists()
    first = cert.read_bytes()
    assert cli.run(["hom", xp, fp, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cert.read_bytes() == first


def test_cli_hom_on_a_rank_zero_file(tmp_path, capsys):
    # The certificate of a rank-0 side has the keys of every other one, and
    # no scan bound.
    zp, xp = str(tmp_path / "zero.json"), str(tmp_path / "x.json")
    formats.save_mf(zp, v(5, 0))
    formats.save_mf(xp, v(5, 2))
    for left, right in [(zp, xp), (xp, zp)]:
        assert cli.run(["hom", left, right, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dim 0"
        cert = formats.read_json(out[1].removeprefix("wrote "))
        assert cert == {"total": 0, "degrees": [], "scan_bound": None, "window": 3, "weights": [1]}


def test_cli_hom_bound_and_derived_default(tmp_path, capsys):
    ctx = RingContext(QQ, ("z",))
    x = rank_one(ctx, parse_poly(ctx, "z^4"), parse_poly(ctx, "z^2"), parse_poly(ctx, "z^2"))
    xp = str(tmp_path / "x.json")
    formats.save_mf(xp, x)
    assert cli.run(["hom", xp, xp, "--bound", "4", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "dim 2 (degree bound 4, not certified)\n"
    # derived default: max entry degree (2) plus fiber degree (4)
    assert cli.run(["hom", xp, xp, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "dim 2 (degree bound 6, not certified)\n"


def test_cli_shift_and_knorrer_emit_valid_files(tmp_path, capsys):
    x = v(5, 2)
    xp = str(tmp_path / "x.json")
    formats.save_mf(xp, x)
    assert cli.run(["shift", xp, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    shifted = str(tmp_path / "x-shift.json")
    assert cli.run(["validate", shifted]) == 0
    assert capsys.readouterr().out == "valid factorization: rank 1, W = z^5\n"
    first = Path(shifted).read_bytes()
    assert cli.run(["shift", xp, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert Path(shifted).read_bytes() == first
    assert cli.run(["knorrer", xp, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.run(["validate", str(tmp_path / "x-knorrer.json")]) == 0
    assert capsys.readouterr().out == "valid factorization: rank 2, W = z^5 + x*y\n"


def test_cli_cone_emits_revalidating_triangle(tmp_path, capsys):
    x, y = v(5, 3), v(5, 2)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    formats.save_mf(str(tmp_path / "x.json"), x)
    formats.save_mf(str(tmp_path / "y.json"), y)
    fp = str(tmp_path / "f.json")
    formats.save_morphism(fp, f, "x.json", "y.json")
    assert cli.run(["cone", fp, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    emitted = [line.split(" ", 1)[1] for line in out.splitlines()]
    assert len(emitted) == 4
    for path in emitted:
        assert cli.run(["validate", path]) == 0
        capsys.readouterr()


def test_cli_cone_references_survive_a_move(tmp_path, capsys, monkeypatch):
    run = tmp_path / "run"
    x, y = v(5, 3), v(5, 2)
    formats.save_mf(str(run / "x.json"), x)
    formats.save_mf(str(run / "y.json"), y)
    f = morphism_from_polys(x, y, [["z"]], [["1"]])
    formats.save_morphism(str(run / "f.json"), f, "x.json", "y.json")
    names = ["f-cone.json", "f-source-shift.json", "f-cone-g.json", "f-cone-h.json"]
    for cwd, args, out in ((run, ["f.json"], "o"), (tmp_path, ["run/f.json"], "run/p")):
        monkeypatch.chdir(cwd)
        assert cli.run(["cone", *args, "--out", out]) == 0
        assert capsys.readouterr().out == "".join(f"wrote {out}/{name}\n" for name in names)
    for name in names:
        assert (run / "o" / name).read_bytes() == (run / "p" / name).read_bytes()
    assert json.loads((run / "o" / "f-cone-g.json").read_text())["source"] == "../y.json"
    moved = tmp_path / "moved"
    run.rename(moved)
    for name, ranks in zip(names[2:], ("1 -> rank 2", "2 -> rank 1")):
        assert cli.run(["validate", str(moved / "o" / name)]) == 0
        assert capsys.readouterr().out == f"valid morphism: rank {ranks}, W = z^5\n"


def test_cli_module_pipeline(tmp_path, capsys):
    x = v(5, 2)
    xp = str(tmp_path / "x.json")
    formats.save_mf(xp, x)
    assert cli.run(["cok", xp, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dim 2"
    assert out[1] == "block at 0: z^2"
    mp = str(tmp_path / "x-cok.json")
    assert cli.run(["validate", mp]) == 0
    assert capsys.readouterr().out == "valid module: dim 2 over fiber z^5\n"
    assert cli.run(["decompose", mp]) == 0
    assert capsys.readouterr().out == "V_2: 1\n"
    assert cli.run(["stabilize", mp, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.run(["validate", str(tmp_path / "x-cok-stabilize.json")]) == 0
    assert capsys.readouterr().out.startswith("valid factorization: rank")


def test_cli_stable_hom(tmp_path, capsys):
    a = modules.cyclic_module(QQ, 5, 2)
    b = modules.cyclic_module(QQ, 5, 3)
    ap, bp = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    formats.save_module(ap, a)
    formats.save_module(bp, b)
    assert cli.run(["stable-hom", ap, bp, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "dim 2"
    witness = json.loads((tmp_path / "a-b-stable-hom.json").read_text())
    assert witness["dim"] == 2


def test_cli_critical_values(capsys):
    assert cli.run(["critical-values", "z^3 - 3*z"]) == 0
    assert capsys.readouterr().out == "-2\n2\nirrational-remainder: no\n"
    assert cli.run(["critical-values", "z^3 - z"]) == 0
    assert capsys.readouterr().out == "irrational-remainder: yes\n"


def test_cli_an_verify_and_knorrer_check(tmp_path, capsys):
    assert cli.run(["an-verify", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "checks 4, failures 0"
    cert = tmp_path / "an2-triangle-fst-1-1.json"
    assert json.loads(cert.read_text())["certified"] is True
    assert cli.run(["verify-knorrer", "2", "--pairs", "diag", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pair mu=1 nu=1 want 1 got 1 PASS" in out
    assert out.splitlines()[-1] == "pairs 1, failures 0"


def test_verify_knorrer_lifts_each_object_once(tmp_path, capsys, monkeypatch):
    calls = []
    lift = cli.knorrer

    def counting(x, *names):
        calls.append(x)
        return lift(x, *names)

    monkeypatch.setattr(cli, "knorrer", counting)
    assert cli.run(["verify-knorrer", "4", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "pairs 9, failures 0"
    assert len(calls) == 3  # outputs pinned in GOLDEN


def test_cli_error_exits(tmp_path, capsys):
    assert cli.run(["validate", str(tmp_path / "missing.json")]) == 2
    assert "no-such-file" in capsys.readouterr().err
    assert cli.run(["validate", str(tmp_path)]) == 2
    assert "parse-error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.run(["validate", str(bad)]) == 2
    assert "parse-error" in capsys.readouterr().err
    x, _ = unweighted_pair()
    d = formats.mf_to_dict(x)
    d["p1"] = [["z"]]
    broken = tmp_path / "broken.json"
    broken.write_text(formats.canonical_json(d))
    assert cli.run(["validate", str(broken)]) == 1
    assert "not-a-factorization" in capsys.readouterr().err
    d2 = formats.mf_to_dict(x)
    d2["W"] = "z^5 +"
    unparsable = tmp_path / "unparsable.json"
    unparsable.write_text(formats.canonical_json(d2))
    assert cli.run(["validate", str(unparsable)]) == 2
    assert "parse-error" in capsys.readouterr().err
    assert cli.run(["an-table", "5", "--field", "Fp:6"]) == 2
    assert "context-mismatch" in capsys.readouterr().err
    assert cli.run(["an-table", "1"]) == 2
    assert "index-out-of-range" in capsys.readouterr().err
    ctx = RingContext(QQ, ("z",), weights=(1,))
    mixed = rank_one(
        ctx, parse_poly(ctx, "z^3 + z^2"), parse_poly(ctx, "z"), parse_poly(ctx, "z^2 + z")
    )
    mixed_path = tmp_path / "mixed.json"
    formats.save_mf(str(mixed_path), mixed)
    assert cli.run(["knorrer", str(mixed_path), "--out", str(tmp_path)]) == 2
    assert "non-quasi-homogeneous" in capsys.readouterr().err
    module = {"field": "Q", "W": "z^2 + z", "dim": 1, "Z": [["0"]]}
    not_nilpotent = tmp_path / "not-nilpotent.json"
    not_nilpotent.write_text(formats.canonical_json(module))
    assert cli.run(["decompose", str(not_nilpotent)]) == 2
    assert "not-nilpotent-form" in capsys.readouterr().err
    for kind, key, value in (
        ("factorization", "rank", "two"),
        ("module", "dim", "one"),
        ("module", "dim", 1.5),
        ("factorization", "field", {"Fp": "seven"}),
    ):
        d3 = dict(formats.mf_to_dict(x) if kind == "factorization" else module)
        d3[key] = value
        bad_int = tmp_path / f"bad-{key}.json"
        bad_int.write_text(formats.canonical_json(d3))
        assert cli.run(["validate", str(bad_int)]) == 2
        assert "parse-error" in capsys.readouterr().err
    for kind, key, value in (
        ("factorization", "p1", 5),
        ("factorization", "p1", [5]),
        ("factorization", "p0", [[5]]),
        ("factorization", "vars", "z"),
        ("factorization", "vars", [1]),
        ("factorization", "weights", 3),
        ("factorization", "weights", ["a"]),
        ("factorization", "weights", [1.5]),
        ("factorization", "weights", [True]),
        ("factorization", "w0", True),
        ("module", "Z", 3),
        ("module", "Z", ["0"]),
        ("module", "vars", "z"),
    ):
        d4 = dict(formats.mf_to_dict(x) if kind == "factorization" else module)
        d4[key] = value
        malformed = tmp_path / f"malformed-{kind}.json"
        malformed.write_text(formats.canonical_json(d4))
        assert cli.run(["validate", str(malformed)]) == 2, (kind, key, value)
        assert "parse-error" in capsys.readouterr().err
    formats.save_mf(str(tmp_path / "x.json"), x)
    refs = {"source": "x.json", "target": "x.json"}
    for name, data in (
        ("morphism", {**refs, "f1": [["1"]], "f0": 0}),
        ("homotopy", {**refs, "s": "z", "t": [["0"]]}),
        ("morphism-source", {**refs, "source": 5, "f1": [["1"]], "f0": [["1"]]}),
        ("factorization-w", {**formats.mf_to_dict(x), "W": 5}),
        ("module-w", {**module, "W": 5}),
    ):
        path = tmp_path / f"malformed-{name}.json"
        path.write_text(formats.canonical_json(data))
        assert cli.run(["validate", str(path)]) == 2, name
        assert "parse-error" in capsys.readouterr().err
    assert cli.run(["verify-knorrer", "1", "--out", str(tmp_path)]) == 2
    assert "index-out-of-range" in capsys.readouterr().err
    x_path = str(tmp_path / "x.json")
    assert cli.run(["hom", x_path, x_path, "--bound", "-1", "--out", str(tmp_path)]) == 2
    assert "policy-infeasible: negative degree bound" in capsys.readouterr().err
    # A file holding JSON that is not an object, read directly or as the
    # source of a morphism.
    bad = str(tmp_path / "non-object.json")
    out = ["--out", str(tmp_path)]
    morphism = tmp_path / "morphism-non-object.json"
    morphism.write_text(
        formats.canonical_json({**refs, "source": "non-object.json", "f1": [["1"]], "f0": [["1"]]})
    )
    for doc in ("5", "null", '"z^2"'):
        with open(bad, "w") as fh:
            fh.write(doc + "\n")
        for argv in (
            ["validate", bad],
            ["validate", str(morphism)],
            ["shift", bad, *out],
            ["knorrer", bad, *out],
            ["cone", bad, *out],
            ["hom", bad, x_path, *out],
            ["cok", bad, *out],
            ["stabilize", bad, *out],
            ["decompose", bad],
            ["stable-hom", bad, bad, *out],
        ):
            assert cli.run(argv) == 2, (doc, argv[0])
            assert "parse-error" in capsys.readouterr().err


def test_cli_hom_rejects_non_isolated_singularity(tmp_path, capsys):
    # W = x^2 y is singular along the y-axis: End(X) is nonzero in every
    # degree, so the graded scan has to stop at its bound, not run forever.
    ctx = RingContext(QQ, ("x", "y"), weights=(1, 1))
    x = rank_one(ctx, parse_poly(ctx, "x^2*y"), parse_poly(ctx, "x"), parse_poly(ctx, "x*y"))
    path = str(tmp_path / "x.json")
    formats.save_mf(path, x)
    start = time.perf_counter()
    assert cli.run(["hom", path, path, "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "policy-infeasible: non-isolated singularity" in err and "degree 6" in err


@pytest.mark.parametrize(
    "text, error",
    [
        ("z^3 $", "parse-error: unexpected character '$' at position 4"),
        ("z^3 )", "parse-error: unexpected ')' at position 4"),
        ("3/ z", "parse-error: expected denominator at position 3"),
        ("(z + 1", "parse-error: expected ')' at position 6, got ''"),
    ],
    ids=["character", "closing", "denominator", "unclosed"],
)
def test_cli_parse_errors(text, error, capsys):
    assert cli.run(["critical-values", text]) == 2
    assert capsys.readouterr().err == error + "\n"


def test_cli_weighted_file_in_a_basis_without_grading(tmp_path, capsys):
    # V_1 + V_2 over z^3 conjugated by [[1, 1], [0, 1]]: a factorization
    # with weights whose entries z^2 - z are not quasi-homogeneous, so the
    # graded scan refuses it and the bounded estimate still answers.
    p1 = [["z", "z^2 - z"], ["0", "z^2"]]
    p0 = [["z^2", "z - z^2"], ["0", "z"]]
    cp, vp = str(tmp_path / "c.json"), str(tmp_path / "v1.json")
    formats.write_json(cp, {**formats.mf_to_dict(v(3, 1)), "rank": 2, "p1": p1, "p0": p0})
    formats.save_mf(vp, v(3, 1))
    assert cli.run(["validate", cp]) == 0
    capsys.readouterr()
    assert cli.run(["hom", cp, vp, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "policy-infeasible: non-quasi-homogeneous entry z^2 - z for weights (1,)\n"
    assert cli.run(["hom", cp, vp, "--bounded", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "dim 2 (degree bound 5, not certified)"


@pytest.mark.parametrize(
    "change, error",
    [
        ({"vars": ["z", "x"]}, "not-univariate: module files use one variable"),
        ({"dim": 2, "Z": [["0", "0"], ["1"]]}, "invalid-shape: action matrix must be dim x dim"),
    ],
    ids=["two-variables", "ragged"],
)
def test_cli_module_file_checks(change, error, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(formats.canonical_json({"field": "Q", "W": "z^2", "dim": 1, "Z": [["0"]], **change}))
    assert cli.run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == error + "\n"


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "mfcat", "an-table", "3"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0
    assert done.stdout == "1 1\n1 1\n"


# sha256 of stdout (output directory written as OUT) and of every emitted
# file, recorded before the isomorphism and triangle searches were merged;
# an-verify 6 before Hom(M, k[z]/(W)) was read off the divided difference;
# verify-knorrer 4 when each pair lifted both of its objects.
GOLDEN = {
    ("an-verify", "4"): (
        "5c9044ec214d80b995d74619aa73e2e7d22b33e9086189d2e7049a2f3946759c",
        {
            "an4-triangle-fst-1-1.json": "a905cf7baa1777b5fbe596f8c64fc68f8dadc4cd2b17dbe25e1d0bf820849a29",
            "an4-triangle-fst-1-2.json": "b680cd0c070b177f6a724540c49aaa97d6f77687e219a9635420d9ab4bb0eaf9",
            "an4-triangle-fst-1-3.json": "e36c5d234e0cca92f9ea08c3302fba607beeb04961a4e9cd4e3707f68e6cba2c",
            "an4-triangle-fst-2-1.json": "62d22346060c4505de876f19dde4dc1eab992afaa5e0ebc8df665de047350000",
            "an4-triangle-fst-2-2.json": "4522bb6e58f6a03722d51f2ff3006e9ca150b9a730725e484dca463f53006103",
            "an4-triangle-fst-2-3.json": "173e201cecfbd7bfb030acc8aca52788643be1d8cf99ea935783adbbb07af0dc",
            "an4-triangle-fst-3-1.json": "1e543d70a1be2ed5ccfc6dcd77a453b85e8dfd41d26e449a136d24b4ee2d5b48",
            "an4-triangle-fst-3-2.json": "0a5e1b1f308b49772097fc2d0f3f4a67e4eebde96ecdbf5da0989984934f5d16",
            "an4-triangle-fst-3-3.json": "1ce3688fe8c64d83b7483391fd5ecdaab70967a6b359874ab6fa4c5753713eb6",
            "an4-triangle-lst-3-2-2.json": "0d1e18aa947c9d2bdbe01fb7fdccfafb6ae6f7a28a4ce47db1b221e614e99a71",
        },
    ),
    ("an-verify", "6"): (
        "82ac31061056ca36964ca7f18a23b5dcefdf9aea42cd914f373f43b9181ac06b",
        {
            "an6-triangle-fst-1-1.json": "b33fd236418f440aff1089c0e211b64cd4eee063ddc46bf6d124e36c512a23a9",
            "an6-triangle-fst-1-2.json": "a590dc437290f808253f51fb76ab1f1516e8fed90b4d62d37494f67f51ded61d",
            "an6-triangle-fst-1-3.json": "28e20321bdb7d034417ffcd66f2139d4f6cbcf3f7b7e17c24a5cb30762b3768b",
            "an6-triangle-fst-1-4.json": "4a4133388aec81f760a5bcd236a1274d04b29b2ba12010cd08353c0c1cc0758a",
            "an6-triangle-fst-1-5.json": "40697219772161e02e45e6c241a804c0b72f232836ac1cbaf84f75cdf3935067",
            "an6-triangle-fst-2-1.json": "2a2a488ab636d767322d218b1ca4120fabe8c1e55d2a8d179066e5bba17444ee",
            "an6-triangle-fst-2-2.json": "80634beff7b50b95e1b20be451bb3a255ac3712437984f7bc5c49547e94d0134",
            "an6-triangle-fst-2-3.json": "9106973293e6534f82791af17b6ca8d71f189de61234e1316415676dfda71845",
            "an6-triangle-fst-2-4.json": "de21b1f4626a38230c6350f7ab4bc0cbe316704f81c4ad9f406b526b27d05c82",
            "an6-triangle-fst-2-5.json": "8ae558931118d625a30139e6883ee9766863cc731b7506f630784bd927ff7b3e",
            "an6-triangle-fst-3-1.json": "aa71045c62bfe9f99b64331f12b4bfa0dd8cf5f51b128430b648f02af3b96a4c",
            "an6-triangle-fst-3-2.json": "ef0b85ad339ff682177c76ba135d945b3f234f1a60f0006a50b04e9cd0f24d01",
            "an6-triangle-fst-3-3.json": "8a00f8d9d111ce0e4e50031d8d141d5d13e3e1d80818c4931819cb5853fc939c",
            "an6-triangle-fst-3-4.json": "d70316888d72b1ef481f51ad98c87794b716043bd5223cd7bb869ef8e97f8274",
            "an6-triangle-fst-3-5.json": "7e7757b24b3d70e77f4ceb2677e6d1cfc99016f1d55733a7aa3977b15c9ea056",
            "an6-triangle-fst-4-1.json": "07852ff23597962032774029cacc4e23657032c7f9e72d0a8053dba514abeeac",
            "an6-triangle-fst-4-2.json": "48f592c8bbf39cd6d1f46569d35a4bb2f2a12bf3929da860ed0d7685e2f2c1c0",
            "an6-triangle-fst-4-3.json": "66cd9a4f2c31637a91cae6244266d4b2e09853e709275dc34cd4f4862907a378",
            "an6-triangle-fst-4-4.json": "b264cab7e30745f5fe737081b6aff8c24068d3a2d9a29761c3fdccdad5c6ef3a",
            "an6-triangle-fst-4-5.json": "231d9acd1b25d4d9c182db0d3112e592ec3b44b90f8ca994f841700e0e84d09d",
            "an6-triangle-fst-5-1.json": "649c14abfc8f71891d2e8ae763d559b986c90e3293ae91905b87fd82b005eee2",
            "an6-triangle-fst-5-2.json": "6dea13a2503cc4842f6db8cb64ad02a267930afe8149e985225bfc38b2b66847",
            "an6-triangle-fst-5-3.json": "5447d91170336cd68eb088682fc2b9253c32227cbdd27f124fb163e7972996c0",
            "an6-triangle-fst-5-4.json": "dce0e1c5d1dac582935759f404a325ca7876033ee1e38247875673bffec4fb4e",
            "an6-triangle-fst-5-5.json": "edfa67b73f3e2eb723ad22b073a0036fbfdaf4b9b56befdc5e33f215be0394a6",
            "an6-triangle-lst-3-2-2.json": "f13078fc37d4ec0c8bf1c416f24a132a36dd9bd9c09f2526690aeae3cd46dbca",
            "an6-triangle-lst-4-2-3.json": "0a8ed81bb17f5333b7a23178293553dca6b5f48b1d42024cf2336fcb8dcdaf25",
            "an6-triangle-lst-4-3-2.json": "29cb32e90fcb8f37ca9c061fda9abb597cca1999738756c6890c4992f45550a4",
            "an6-triangle-lst-4-3-3.json": "bac009cb9a9926d0434d95ca2a7e4cb6fceb7ea6d9a2022f71d4a33dc39e5cac",
            "an6-triangle-lst-5-2-4.json": "dbeb194aabd56afd420c3a5d28b9e46ab0575d757330d2ef5972fd3c33c4b3c6",
            "an6-triangle-lst-5-3-3.json": "132f9f039f833ea0197dfb35b2b155a434398dc944ea87008aa3783bb16da625",
            "an6-triangle-lst-5-3-4.json": "eabbc08f874dfe7cd6205fc3720d77a5a0cf98a9a7d2651d73779036d49508a9",
            "an6-triangle-lst-5-4-2.json": "5311f82a23d7da381260646876b7e162f1b9b02dd92a114bb42ba25c51f64aaa",
            "an6-triangle-lst-5-4-3.json": "dd8dedde0ac0baf6327281f893a02729cf5d560490c498a7aca2f3fad99c97a9",
            "an6-triangle-lst-5-4-4.json": "671c2000677ab2b14ed5677d3fcd0b5e05ff263ac35be32614944082cb4fda44",
        },
    ),
    ("verify-knorrer", "3"): (
        "dfcf1ca2bd27c23947b47384779442be6b6d2ae32124b5f1122c8698ba3ad7c4",
        {"verify-knorrer-3-all.json": "478cc76dfb7da784c1be8e6dfbd01f030fd5bbac60cd7fb0a3a0ec1dd5f81a63"},
    ),
    ("verify-knorrer", "4"): (
        "09963dcd7fbed27a4a78fcb742d4cf892e3eb4ef42c4df15837eee5763f38e72",
        {"verify-knorrer-4-all.json": "ca350a168d0a96d92dfb74d13be8caf5487c280fcc8e21ad372ff857412d4726"},
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_golden_outputs(argv, tmp_path, capsys):
    assert cli.run([*argv, "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "OUT")
    files = {}
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name, "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    assert (hashlib.sha256(stdout.encode()).hexdigest(), files) == GOLDEN[argv]


def test_cli_hom_field_mismatch(tmp_path, capsys):
    x, _ = unweighted_pair()
    ctx5 = RingContext(PrimeField(5), ("z",))
    y5 = rank_one(
        ctx5, parse_poly(ctx5, "z^5"), parse_poly(ctx5, "z^2"), parse_poly(ctx5, "z^3")
    )
    xp, yp = str(tmp_path / "x.json"), str(tmp_path / "y5.json")
    formats.save_mf(xp, x)
    formats.save_mf(yp, y5)
    assert cli.run(["hom", xp, yp, "--out", str(tmp_path)]) == 2
    assert "context-mismatch" in capsys.readouterr().err


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 2


def test_cli_hom_fiber_mismatch(tmp_path, capsys):
    # Same ring, different W: both routes refuse the pair before any work.
    ctx = an_context()
    z = parse_poly(ctx, "z")
    x = rank_one(ctx, parse_poly(ctx, "z^3"), z, parse_poly(ctx, "z^2"))
    y = rank_one(ctx, parse_poly(ctx, "z^4"), z, parse_poly(ctx, "z^3"))
    xp, yp = str(tmp_path / "x.json"), str(tmp_path / "y.json")
    formats.save_mf(xp, x)
    formats.save_mf(yp, y)
    for mode in ([], ["--graded"], ["--bounded"], ["--bound", "2"]):
        assert cli.run(["hom", xp, yp, "--out", str(tmp_path), *mode]) == 2
        assert capsys.readouterr().err.startswith("superpotential-mismatch: ")
    assert not list(tmp_path.glob("*certificate*"))


@pytest.mark.parametrize(
    "target, code",
    [
        ({"W": "z^4", "p1": [["z"]], "p0": [["z^3"]]}, "superpotential-mismatch: factorizations of different fibers"),
        ({"field": {"Fp": 101}}, "context-mismatch: factorizations over different contexts"),
    ],
    ids=["fiber", "ring"],
)
def test_homotopy_file_between_different_fibers_is_refused(tmp_path, capsys, target, code):
    source = {"field": "Q", "vars": ["z"], "weights": [1], "w0": "0", "W": "z^3", "rank": 1,
              "p1": [["z"]], "p0": [["z^2"]]}
    (tmp_path / "a.json").write_text(json.dumps(source))
    (tmp_path / "b.json").write_text(json.dumps({**source, **target}))
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"source": "a.json", "target": "b.json", "s": [["1"]], "t": [["0"]]}))
    assert cli.run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == code + "\n"
    with pytest.raises(ValueError) as exc:
        formats.load_homotopy(str(path))
    assert str(exc.value) == code
