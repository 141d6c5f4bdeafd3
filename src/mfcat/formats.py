"""Reading and writing the JSON file formats.

This module is the only code that opens a file: `read_json` reads every
input and `write_json` writes every output.  Factorization files carry
their own ring description: field, variables, optional weights, the base
value w0, the full superpotential W, and the two matrices as polynomial
strings.  Morphism and homotopy files share one layout: they point at two
factorization files (paths resolved relative to the referencing file) and
carry two component matrices.  Module files carry the fiber polynomial and
the matrix of the variable action.  Emission is canonical: fixed key
order, canonical polynomial strings, two-space indent, trailing newline,
so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import MfcatError
from .factorization import (
    Homotopy,
    MatrixFactorization,
    MFMorphism,
    mf_new,
    morphism_new,
    unshifted_w,
)
from .fields import Field, PrimeField, QQ, RationalField
from .matrices import PolyMatrix
from .modules import QuotModule, module_new
from .poly import RingContext


def field_to_json(field: Field):
    if isinstance(field, RationalField):
        return "Q"
    if isinstance(field, PrimeField):
        return {"Fp": field.p}
    raise MfcatError("context-mismatch", f"unknown field {field!r}")


def _json_object(d, kind: str, keys) -> dict:
    """A JSON object holding the given keys, from a kind of file."""
    if not isinstance(d, dict):
        what = type(d).__name__
        raise MfcatError("parse-error", f"{kind} file must hold a JSON object, got {what}")
    for key in keys:
        if key not in d:
            raise MfcatError("parse-error", f"{kind} file missing {key!r}")
    return d


def _json_int(value, what: str) -> int:
    """An int, or a string holding one, from a JSON file."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise MfcatError("parse-error", f"{what} must be an integer, got {value!r}")


def _json_str(value, what: str) -> str:
    """A string from a JSON file."""
    if not isinstance(value, str):
        raise MfcatError("parse-error", f"{what} must be a string, got {value!r}")
    return value


def _json_strings(value, what: str) -> list:
    """A list of strings from a JSON file."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MfcatError("parse-error", f"{what} must be a list of strings, got {value!r}")
    return value


def _json_matrix(value, what: str) -> list:
    """A matrix from a JSON file: a list of rows, each a list."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise MfcatError("parse-error", f"{what} must be a list of lists, got {value!r}")
    return value


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return PrimeField(_json_int(obj["Fp"], "prime modulus"))
    raise MfcatError("parse-error", f"bad field description {obj!r}")


def scalar_from_json(field: Field, s):
    if isinstance(s, int) and not isinstance(s, bool):
        return field.from_int(s)
    if isinstance(s, str):
        try:
            fr = Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise MfcatError("parse-error", f"bad scalar {s!r}") from e
        return field.from_fraction(fr.numerator, fr.denominator)
    raise MfcatError("parse-error", f"bad scalar {s!r}")


def _matrix_to_strings(m: PolyMatrix) -> List[List[str]]:
    return [[str(p) for p in row] for row in m.entries]


def _matrix_from_strings(ctx: RingContext, rows, cols: int, what: str = "matrix") -> PolyMatrix:
    entries = [
        [ctx.parse(s) for s in _json_strings(row, f"a row of {what}")]
        for row in _json_matrix(rows, what)
    ]
    return PolyMatrix(ctx, entries, cols=cols)


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def read_json(path: str):
    """The JSON document in a file.  A missing path is a no-such-file error;
    a path that cannot be read otherwise (a directory, no permission),
    malformed JSON, undecodable text, or an integer longer than int() reads,
    is a parse-error naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise MfcatError("no-such-file", path) from None
    except (OSError, ValueError) as e:
        raise MfcatError("parse-error", f"{path}: {e}") from None


def write_json(path: str, obj) -> str:
    """Write obj to path as canonical JSON, creating its directory if
    needed; return the path.  A path that cannot be written (its directory
    is a file, no permission) is a write-error naming it."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(canonical_json(obj))
    except OSError as e:
        raise MfcatError("write-error", f"{path}: {e}") from None
    return path


# -- factorization files -----------------------------------------------


def mf_to_dict(x: MatrixFactorization) -> dict:
    ctx = x.ctx
    out = {"field": field_to_json(ctx.field), "vars": list(ctx.variables)}
    if ctx.weights is not None:
        out["weights"] = list(ctx.weights)
    out["w0"] = ctx.field.format(ctx.w0)
    out["W"] = str(unshifted_w(x))
    out["rank"] = x.rank
    out["p1"] = _matrix_to_strings(x.p1)
    out["p0"] = _matrix_to_strings(x.p0)
    return out


def context_from_dict(d: dict) -> RingContext:
    field = field_from_json(d["field"])
    variables = tuple(_json_strings(d["vars"], "vars"))
    weights = d.get("weights")
    if weights is not None:
        if not isinstance(weights, list):
            raise MfcatError("parse-error", f"weights must be a list, got {weights!r}")
        weights = tuple(_json_int(w, "a weight") for w in weights)
    w0 = scalar_from_json(field, d.get("w0", "0"))
    return RingContext(field=field, variables=variables, weights=weights, w0=w0)


def mf_from_dict(d: dict) -> MatrixFactorization:
    _json_object(d, "factorization", ("field", "vars", "W", "rank", "p1", "p0"))
    ctx = context_from_dict(d)
    rank = _json_int(d["rank"], "rank")
    if len(_json_matrix(d["p1"], "p1")) != rank or len(_json_matrix(d["p0"], "p0")) != rank:
        raise MfcatError("invalid-shape", "matrix row count differs from rank")
    p1 = _matrix_from_strings(ctx, d["p1"], rank, "p1")
    p0 = _matrix_from_strings(ctx, d["p0"], rank, "p0")
    w = ctx.parse(_json_str(d["W"], "W"))
    return mf_new(ctx, w, p1, p0)


def save_mf(path: str, x: MatrixFactorization) -> str:
    return write_json(path, mf_to_dict(x))


def load_mf(path: str) -> MatrixFactorization:
    return mf_from_dict(read_json(path))


# -- morphism and homotopy files ---------------------------------------


def _pair_to_dict(source_ref: str, target_ref: str, **matrices: PolyMatrix) -> dict:
    strings = {name: _matrix_to_strings(m) for name, m in matrices.items()}
    return {"source": source_ref, "target": target_ref, **strings}


def _resolve(base_dir: Optional[str], d: dict, key: str) -> str:
    return os.path.join(base_dir or "", _json_str(d[key], key))


def _pair_from_dict(d, base_dir: Optional[str], kind: str, names):
    """The source, the target and the two matrices of a morphism or
    homotopy file; the matrices map source to target."""
    _json_object(d, kind, ("source", "target", *names))
    x = load_mf(_resolve(base_dir, d, "source"))
    y = load_mf(_resolve(base_dir, d, "target"))
    first, second = (_matrix_from_strings(y.ctx, d[name], x.rank, name) for name in names)
    return x, y, first, second


def _load_pair(path: str, from_dict):
    return from_dict(read_json(path), os.path.dirname(os.path.abspath(path)))


def morphism_to_dict(f: MFMorphism, source_ref: str, target_ref: str) -> dict:
    return _pair_to_dict(source_ref, target_ref, f1=f.f1, f0=f.f0)


def morphism_from_dict(d: dict, base_dir: Optional[str] = None) -> MFMorphism:
    return morphism_new(*_pair_from_dict(d, base_dir, "morphism", ("f1", "f0")))


def save_morphism(path: str, f: MFMorphism, source_ref: str, target_ref: str) -> str:
    return write_json(path, morphism_to_dict(f, source_ref, target_ref))


def load_morphism(path: str) -> MFMorphism:
    return _load_pair(path, morphism_from_dict)


def homotopy_to_dict(h: Homotopy, source_ref: str, target_ref: str) -> dict:
    return _pair_to_dict(source_ref, target_ref, s=h.s, t=h.t)


def homotopy_from_dict(d: dict, base_dir: Optional[str] = None) -> Homotopy:
    return Homotopy(*_pair_from_dict(d, base_dir, "homotopy", ("s", "t")))


def save_homotopy(path: str, h: Homotopy, source_ref: str, target_ref: str) -> str:
    return write_json(path, homotopy_to_dict(h, source_ref, target_ref))


def load_homotopy(path: str) -> Homotopy:
    return _load_pair(path, homotopy_from_dict)


# -- module files ------------------------------------------------------


def module_to_dict(m: QuotModule) -> dict:
    field = m.field
    out = {"field": field_to_json(field)}
    if m.ctx.variables != ("z",):
        out["vars"] = list(m.ctx.variables)
    out["W"] = str(m.w)
    out["dim"] = m.dim
    out["Z"] = [[field.format(c) for c in row] for row in m.z_matrix()]
    return out


def module_from_dict(d: dict) -> QuotModule:
    _json_object(d, "module", ("field", "W", "dim", "Z"))
    field = field_from_json(d["field"])
    variables = tuple(_json_strings(d.get("vars", ["z"]), "vars"))
    if len(variables) != 1:
        raise MfcatError("not-univariate", "module files use one variable")
    ctx = RingContext(field=field, variables=variables)
    w = ctx.parse(_json_str(d["W"], "W"))
    dim = _json_int(d["dim"], "dim")
    z_rows = _json_matrix(d["Z"], "Z")
    if len(z_rows) != dim or any(len(r) != dim for r in z_rows):
        raise MfcatError("invalid-shape", "action matrix must be dim x dim")
    z = [[scalar_from_json(field, c) for c in row] for row in z_rows]
    return module_new(w, z)


def save_module(path: str, m: QuotModule) -> str:
    return write_json(path, module_to_dict(m))


def load_module(path: str) -> QuotModule:
    return module_from_dict(read_json(path))


# -- kind sniffing for validate ----------------------------------------


def classify_file(path: str) -> Tuple[str, dict]:
    """Identify a JSON file as factorization, morphism, homotopy, or module."""
    d = _json_object(read_json(path), "input", ())
    keys = set(d)
    if {"p1", "p0"} <= keys:
        return "factorization", d
    if {"f1", "f0"} <= keys:
        return "morphism", d
    if {"s", "t"} <= keys:
        return "homotopy", d
    if {"Z", "dim"} <= keys:
        return "module", d
    raise MfcatError("parse-error", "unrecognized file contents")
