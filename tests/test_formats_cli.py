import hashlib
import json
import os
import subprocess
import sys
import time

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


def test_cli_hom_bounded_env_override(tmp_path, capsys, monkeypatch):
    x, y = unweighted_pair()
    xp, yp = str(tmp_path / "x.json"), str(tmp_path / "y.json")
    formats.save_mf(xp, x)
    formats.save_mf(yp, y)
    monkeypatch.setenv("MFCAT_DEFAULT_BOUND", "4")
    assert cli.run(["hom", xp, yp, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "dim 0 (degree bound 4, not certified)\n"
    assert cli.run(["hom", xp, yp, "--bound", "6", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "dim 0 (degree bound 6, not certified)\n"


def test_cli_shift_and_knorrer_emit_valid_files(tmp_path, capsys):
    x = v(5, 2)
    xp = str(tmp_path / "x.json")
    formats.save_mf(xp, x)
    assert cli.run(["shift", xp, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    shifted = str(tmp_path / "x-shift.json")
    assert cli.run(["validate", shifted]) == 0
    assert capsys.readouterr().out == "valid factorization: rank 1, W = z^5\n"
    first = open(shifted, "rb").read()
    assert cli.run(["shift", xp, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert open(shifted, "rb").read() == first
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


def test_cli_error_exits(tmp_path, capsys):
    assert cli.run(["validate", str(tmp_path / "missing.json")]) == 2
    assert "no such file" in capsys.readouterr().err
    assert cli.run(["validate", str(tmp_path)]) == 2
    assert "parse-error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.run(["validate", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err
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


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "mfcat", "an-table", "3"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0
    assert done.stdout == "1 1\n1 1\n"


# sha256 of stdout (output directory written as OUT) and of every emitted
# file, recorded before the isomorphism and triangle searches were merged.
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
    ("verify-knorrer", "3"): (
        "dfcf1ca2bd27c23947b47384779442be6b6d2ae32124b5f1122c8698ba3ad7c4",
        {"verify-knorrer-3-all.json": "478cc76dfb7da784c1be8e6dfbd01f030fd5bbac60cd7fb0a3a0ec1dd5f81a63"},
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
