import ast
import functools
import os
import pickle
import re

import pytest

from mfcat import PrimeField, QQ, RingContext, andyn, cli, formats, parse_poly, rank_one
from mfcat.errors import FAILED_IDENTITY_CODES, MfcatError

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mfcat")
KEBAB = re.compile(r"[a-z]+(-[a-z]+)*")


def _calls():
    """(module, line, name, first argument) of every call in src/mfcat."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    first = node.args[0] if node.args else None
                    yield name, node.lineno, node.func.id, first


@functools.lru_cache(maxsize=None)
def _source_codes():
    return frozenset(
        arg.value
        for _, _, func, arg in _calls()
        if func == "MfcatError" and isinstance(arg, ast.Constant)
    )


def test_every_error_is_an_mfcat_error_with_a_literal_code():
    plain = [(m, line) for m, line, func, _ in _calls() if func == "ValueError"]
    assert plain == []
    uncoded = [
        (m, line)
        for m, line, func, arg in _calls()
        if func == "MfcatError"
        and not (isinstance(arg, ast.Constant) and KEBAB.fullmatch(str(arg.value)))
    ]
    assert uncoded == []
    assert FAILED_IDENTITY_CODES <= _source_codes()


def test_error_text_code_and_pickling():
    e = MfcatError("parse-error", "unexpected ')' at position 3")
    assert isinstance(e, ValueError)
    assert str(e) == "parse-error: unexpected ')' at position 3"
    assert (e.code, e.detail, e.exit_status) == ("parse-error", "unexpected ')' at position 3", 2)
    back = pickle.loads(pickle.dumps(e))
    assert (str(back), back.code, back.exit_status) == (str(e), e.code, 2)
    with pytest.raises(MfcatError, match="zero-polynomial: degree of the zero"):
        RingContext().zero().degree()


def _broken_files(tmp_path):
    ctx = RingContext(QQ, ("z",))
    x = rank_one(ctx, parse_poly(ctx, "z^5"), parse_poly(ctx, "z^2"), parse_poly(ctx, "z^3"))
    formats.save_mf(str(tmp_path / "x.json"), x)
    d = formats.mf_to_dict(x)
    d["p1"] = [["z"]]
    (tmp_path / "not-mf.json").write_text(formats.canonical_json(d))
    morphism = {"source": "x.json", "target": "x.json", "f1": [["1"]], "f0": [["z"]]}
    (tmp_path / "not-morphism.json").write_text(formats.canonical_json(morphism))


def _raise(code):
    def handler(*args, **kwargs):
        raise MfcatError(code, "raised for the test")

    return handler


def test_cli_exits_1_with_the_witness_for_each_failed_identity(tmp_path, capsys, monkeypatch):
    _broken_files(tmp_path)
    assert cli.run(["validate", str(tmp_path / "not-mf.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("not-a-factorization: p1 * p0 differs from (W - w0) * I; ")
    assert "first offending entry (0,0): -z^5 + z^4" in err
    assert cli.run(["validate", str(tmp_path / "not-morphism.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("not-a-morphism: f1 * p0 differs from q0 * f0; ")
    assert "first offending entry (0,0): -z^4 + z^3" in err
    # No input reaches the A_{n-1} relation checks; a catalogue fault would.
    monkeypatch.setattr(andyn, "an_hom_table", _raise("relation-violated"))
    assert cli.run(["an-table", "3"]) == 1
    assert "relation-violated" in capsys.readouterr().err
    assert FAILED_IDENTITY_CODES == {"not-a-factorization", "not-a-morphism", "relation-violated"}


def test_cli_exits_2_for_every_other_code(capsys, monkeypatch):
    for code in sorted(_source_codes() - FAILED_IDENTITY_CODES):
        monkeypatch.setattr(andyn, "an_hom_table", _raise(code))
        assert cli.run(["an-table", "3"]) == 2, code
        assert capsys.readouterr().err == f"{code}: raised for the test\n"


def test_cli_does_not_classify_a_plain_value_error(monkeypatch):
    def fault(n):
        raise ValueError("a fault in the program, not in its input")

    monkeypatch.setattr(andyn, "an_hom_table", fault)
    with pytest.raises(ValueError, match="a fault in the program"):
        cli.run(["an-table", "3"])


def test_unreadable_input_is_a_parse_error(tmp_path, capsys):
    ctx = RingContext()
    for text in ("z^²", "1" * 5000 + "*z"):
        with pytest.raises(MfcatError, match="parse-error: unreadable integer at position"):
            ctx.parse(text)
    for name, data in (("long.json", b"1" * 5000), ("latin1.json", b'{"W": "\xe9"}')):
        path = tmp_path / name
        path.write_bytes(data)
        assert cli.run(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse-error: ")


def _write_inputs(d):
    """Every file that a case of CLI_FAILURES reads, written under d."""
    ctx = RingContext(QQ, ("z",))
    x = rank_one(ctx, parse_poly(ctx, "z^5"), parse_poly(ctx, "z^2"), parse_poly(ctx, "z^3"))
    f5 = RingContext(PrimeField(5), ("z",))
    x5 = rank_one(f5, parse_poly(f5, "z^5"), parse_poly(f5, "z^2"), parse_poly(f5, "z^3"))
    weighted = RingContext(QQ, ("z",), weights=(1,))
    mixed = rank_one(
        weighted, parse_poly(weighted, "z^3 + z^2"), parse_poly(weighted, "z"),
        parse_poly(weighted, "z^2 + z"),
    )
    good = formats.mf_to_dict(x)
    module = {"field": "Q", "W": "z^2 + z", "dim": 1, "Z": [["0"]]}
    refs = {"source": "x.json", "target": "x.json"}
    docs = {
        "x.json": good,
        "x5.json": formats.mf_to_dict(x5),
        "mixed.json": formats.mf_to_dict(mixed),
        "not-mf.json": {**good, "p1": [["z"]]},
        "unparsable-w.json": {**good, "W": "z^5 +"},
        "word-rank.json": {**good, "rank": "two"},
        "flat-p1.json": {**good, "p1": [5]},
        "not-morphism.json": {**refs, "f1": [["1"]], "f0": [["z"]]},
        "orphan-morphism.json": {**refs, "source": "gone.json", "f1": [["1"]], "f0": [["1"]]},
        "number-source.json": {**refs, "source": "number.json", "f1": [["1"]], "f0": [["1"]]},
        "string-homotopy.json": {**refs, "s": "z", "t": [["0"]]},
        "not-nilpotent.json": module,
        "fraction-dim.json": {**module, "dim": 1.5},
        "number.json": 5,
    }
    for name, doc in docs.items():
        (d / name).write_text(formats.canonical_json(doc))
    (d / "bad.json").write_text("{")
    (d / "long.json").write_bytes(b"1" * 5000)
    (d / "latin1.json").write_bytes(b'{"W": "\xe9"}')


# argv (with {d} for the input directory) and exit status of CLI runs that
# fail, one for each way an input can be unusable or a check can fail.
CLI_FAILURES = {
    "missing-file": (["validate", "{d}/missing.json"], 2),
    "missing-right-file": (["hom", "{d}/x.json", "{d}/missing.json", "--out", "{d}"], 2),
    "missing-source": (["validate", "{d}/orphan-morphism.json"], 2),
    "directory": (["validate", "{d}"], 2),
    "malformed-json": (["validate", "{d}/bad.json"], 2),
    "long-integer": (["validate", "{d}/long.json"], 2),
    "undecodable-text": (["validate", "{d}/latin1.json"], 2),
    "non-object": (["validate", "{d}/number.json"], 2),
    "non-object-source": (["validate", "{d}/number-source.json"], 2),
    "non-object-cone": (["cone", "{d}/number.json", "--out", "{d}"], 2),
    "non-object-shift": (["shift", "{d}/number.json", "--out", "{d}"], 2),
    # --out names an existing file, so no directory can be made there.
    "out-is-a-file": (["shift", "{d}/x.json", "--out", "{d}/x5.json"], 2),
    "unparsable-w": (["validate", "{d}/unparsable-w.json"], 2),
    "word-rank": (["validate", "{d}/word-rank.json"], 2),
    "flat-matrix": (["validate", "{d}/flat-p1.json"], 2),
    "fraction-dim": (["validate", "{d}/fraction-dim.json"], 2),
    "string-homotopy": (["validate", "{d}/string-homotopy.json"], 2),
    "not-a-factorization": (["validate", "{d}/not-mf.json"], 1),
    "not-a-morphism": (["validate", "{d}/not-morphism.json"], 1),
    "not-nilpotent": (["decompose", "{d}/not-nilpotent.json"], 2),
    "non-quasi-homogeneous": (["knorrer", "{d}/mixed.json", "--out", "{d}"], 2),
    "field-mismatch": (["hom", "{d}/x.json", "{d}/x5.json", "--out", "{d}"], 2),
    "negative-bound": (["hom", "{d}/x.json", "{d}/x.json", "--bound", "-1", "--out", "{d}"], 2),
    "composite-modulus": (["an-table", "5", "--field", "Fp:6"], 2),
    "an-table-index": (["an-table", "1"], 2),
    "verify-knorrer-index": (["verify-knorrer", "1", "--out", "{d}"], 2),
}


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_every_cli_failure_prints_one_code_and_detail_line(case, tmp_path, capsys):
    argv, status = CLI_FAILURES[case]
    _write_inputs(tmp_path)
    assert cli.run([arg.format(d=tmp_path) for arg in argv]) == status
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, err
    code, sep, detail = err[:-1].partition(": ")
    assert KEBAB.fullmatch(code) and sep and detail, err
    assert code in _source_codes()
