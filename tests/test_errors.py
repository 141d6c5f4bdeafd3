import ast
import os
import pickle
import re

import pytest

from mfcat import QQ, RingContext, andyn, cli, formats, parse_poly, rank_one
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


def _source_codes():
    return {
        arg.value
        for _, _, func, arg in _calls()
        if func == "MfcatError" and isinstance(arg, ast.Constant)
    }


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
