"""Command line front end.

Files in, files out: every subcommand reads the JSON formats, prints a
deterministic report to stdout, and materializes witnesses (homotopies,
comparison isomorphisms, certificates) as files under --out so that
negative results stay auditable.  Exit status 0 means every check passed,
1 means a mathematical failure with a witness, 2 means unusable input.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import andyn, critical, formats, homotopy, univariate as uni
from .errors import MfcatError
from .factorization import mf_shift, standard_triangle
from .fields import field_from_token
from .knorrer import knorrer
from .modules import cok, decompose, stabilize, stable_hom
from .poly import RingContext


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _out_path(args, name: str) -> str:
    """The path of an emitted file: name under --out, a directory that
    `formats.write_json` creates if needed (default: the working directory)."""
    return os.path.join(args.out or ".", name)


def _emit(path: str) -> str:
    print(f"wrote {path}")
    return path


# -- subcommand handlers -----------------------------------------------


def cmd_validate(args) -> int:
    kind, data = formats.classify_file(args.file)
    base = os.path.dirname(os.path.abspath(args.file))
    if kind == "factorization":
        x = formats.mf_from_dict(data)
        print(f"valid factorization: rank {x.rank}, W = {formats.unshifted_w(x)}")
    elif kind == "morphism":
        f = formats.morphism_from_dict(data, base)
        print(
            f"valid morphism: rank {f.source.rank} -> rank {f.target.rank}, "
            f"W = {formats.unshifted_w(f.source)}"
        )
    elif kind == "homotopy":
        h = formats.homotopy_from_dict(data, base)
        print(f"valid homotopy: rank {h.source.rank} -> rank {h.target.rank}")
    else:
        m = formats.module_from_dict(data)
        print(f"valid module: dim {m.dim} over fiber {m.w}")
    return 0


def cmd_shift(args) -> int:
    x = formats.load_mf(args.file)
    _emit(formats.save_mf(_out_path(args, f"{_stem(args.file)}-shift.json"), mf_shift(x)))
    return 0


def cmd_cone(args) -> int:
    data = formats.read_json(args.file)
    base = os.path.dirname(os.path.abspath(args.file))
    f = formats.morphism_from_dict(data, base)
    cone_obj, g, h = standard_triangle(f)
    stem = _stem(args.file)
    cone_name, shift_name = f"{stem}-cone.json", f"{stem}-source-shift.json"
    _emit(formats.save_mf(_out_path(args, cone_name), cone_obj))
    _emit(formats.save_mf(_out_path(args, shift_name), h.target))
    # A morphism file names its ends relative to its own directory (`formats._resolve`).
    target_ref = os.path.relpath(os.path.join(base, data["target"]), args.out or ".")
    _emit(formats.save_morphism(_out_path(args, f"{stem}-cone-g.json"), g, target_ref, cone_name))
    _emit(formats.save_morphism(_out_path(args, f"{stem}-cone-h.json"), h, cone_name, shift_name))
    return 0


def cmd_knorrer(args) -> int:
    x = formats.load_mf(args.file)
    k = knorrer(x, args.x, args.y)
    _emit(formats.save_mf(_out_path(args, f"{_stem(args.file)}-knorrer.json"), k))
    return 0


def cmd_hom(args) -> int:
    x = formats.load_mf(args.left)
    y = formats.load_mf(args.right)
    # `HomComplex` refuses different rings or fibers on both routes before any work.
    bounded = args.bounded or args.bound is not None
    if args.graded or (x.ctx.weights is not None and not bounded):
        dim, cert = homotopy.graded_stable_hom_dim(x, y)
        print(f"dim {dim}")
        stem = f"{_stem(args.left)}-{_stem(args.right)}"
        _emit(formats.write_json(_out_path(args, f"{stem}-hom-certificate.json"), cert))
        return 0
    bound = args.bound if args.bound is not None else homotopy.resolve_bound(None, x, y)
    dim = homotopy.bounded_stable_hom_estimate(x, y, bound)
    print(f"dim {dim} (degree bound {bound}, not certified)")
    return 0


def cmd_stable_hom(args) -> int:
    m = formats.load_module(args.left)
    n = formats.load_module(args.right)
    sh = stable_hom(m, n)
    print(f"dim {sh.dim}")
    witness = {
        "dim": sh.dim,
        "hom_dim": len(sh.hom_basis),
        "quotient_basis": [
            [[m.field.format(c) for c in row] for row in mat] for mat in sh.quotient_basis
        ],
    }
    path = _out_path(args, f"{_stem(args.left)}-{_stem(args.right)}-stable-hom.json")
    _emit(formats.write_json(path, witness))
    return 0


def cmd_cok(args) -> int:
    x = formats.load_mf(args.file)
    pres = cok(x)
    print(f"dim {pres.module.dim}")
    for start, _, d in pres.blocks:
        print(f"block at {start}: {uni.to_poly(x.ctx, x.ctx.variables[0], d)}")
    _emit(formats.save_module(_out_path(args, f"{_stem(args.file)}-cok.json"), pres.module))
    return 0


def cmd_stabilize(args) -> int:
    m = formats.load_module(args.file)
    x = stabilize(m)
    _emit(formats.save_mf(_out_path(args, f"{_stem(args.file)}-stabilize.json"), x))
    return 0


def cmd_decompose(args) -> int:
    m = formats.load_module(args.file)
    mults = decompose(m)
    for mu in sorted(mults):
        print(f"V_{mu}: {mults[mu]}")
    return 0


def cmd_critical_values(args) -> int:
    ctx = RingContext(variables=(args.var,))
    w = ctx.parse(args.poly)
    values, has_irrational = critical.critical_values(w)
    for v in values:
        print(v)
    print(f"irrational-remainder: {'yes' if has_irrational else 'no'}")
    return 0


def cmd_an_table(args) -> int:
    field_from_token(args.field)
    table = andyn.an_hom_table(args.n)
    sep = "," if args.csv else " "
    for row in table:
        print(sep.join(str(v) for v in row))
    return 0


def cmd_an_verify(args) -> int:
    field = field_from_token(args.field)
    report = andyn.an_verify(args.n, field)
    failures = 0
    for check in report["checks"]:
        params = ",".join(f"{k}={v}" for k, v in sorted(check["params"].items()))
        status = "PASS" if check["ok"] else "FAIL"
        witness = "-"
        if "certificate" in check:
            name = f"an{args.n}-{check['check']}-" + "-".join(
                str(v) for _, v in sorted(check["params"].items())
            )
            witness = formats.write_json(_out_path(args, f"{name}.json"), check["certificate"])
        print(f"{check['check']} {params} {status} {witness}")
        if not check["ok"]:
            failures += 1
    print(f"checks {len(report['checks'])}, failures {failures}")
    return 0 if failures == 0 else 1


def cmd_verify_knorrer(args) -> int:
    field = field_from_token(args.field)
    n = args.n
    andyn._check_n(n)
    ctx = andyn.an_context(field)
    pairs = [(mu, nu) for mu in range(1, n) for nu in range(1, n) if args.pairs == "all" or mu == nu]
    lifted = {mu: knorrer(andyn.realize_an_object(ctx, n, mu)) for mu in range(1, n)}
    records = []
    for mu, nu in pairs:
        got, cert = homotopy.graded_stable_hom_dim(lifted[mu], lifted[nu])
        want = andyn.an_hom_dim(n, mu, nu)
        ok = got == want
        records.append(
            {"mu": mu, "nu": nu, "want": want, "got": got, "ok": ok, "scan": cert}
        )
        print(f"pair mu={mu} nu={nu} want {want} got {got} {'PASS' if ok else 'FAIL'}")
    _emit(formats.write_json(_out_path(args, f"verify-knorrer-{n}-{args.pairs}.json"), records))
    failures = sum(not r["ok"] for r in records)
    print(f"pairs {len(pairs)}, failures {failures}")
    return 0 if failures == 0 else 1


# -- parser and dispatch -----------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcat",
        description="Exact computations with matrix factorizations of a superpotential.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_out(p):
        p.add_argument("--out", default=None, help="directory for emitted files")
        return p

    p = sub.add_parser("validate", help="check a factorization/morphism/homotopy/module file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = with_out(sub.add_parser("shift", help="translate a factorization"))
    p.add_argument("file")
    p.set_defaults(func=cmd_shift)

    p = with_out(sub.add_parser("cone", help="mapping cone and its standard triangle"))
    p.add_argument("file")
    p.set_defaults(func=cmd_cone)

    p = with_out(sub.add_parser("knorrer", help="tensor with the hyperbolic (x, y) factorization"))
    p.add_argument("file")
    p.add_argument("--x", default="x", help="first new variable name")
    p.add_argument("--y", default="y", help="second new variable name")
    p.set_defaults(func=cmd_knorrer)

    p = with_out(sub.add_parser("hom", help="stable morphism dimension between factorizations"))
    p.add_argument("left")
    p.add_argument("right")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--graded", action="store_true", help="certified graded scan")
    mode.add_argument("--bounded", action="store_true", help="non-certified bounded search")
    mode.add_argument("--bound", type=int, default=None, help="explicit degree bound")
    p.set_defaults(func=cmd_hom)

    p = with_out(sub.add_parser("stable-hom", help="stable Hom dimension between modules"))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_stable_hom)

    p = with_out(sub.add_parser("cok", help="cokernel module of a factorization"))
    p.add_argument("file")
    p.set_defaults(func=cmd_cok)

    p = with_out(sub.add_parser("stabilize", help="factorization presenting a module"))
    p.add_argument("file")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("decompose", help="Jordan multiplicities of a module over z^n")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("critical-values", help="rational critical values of a superpotential")
    p.add_argument("poly")
    p.add_argument("--var", default="z")
    p.set_defaults(func=cmd_critical_values)

    p = sub.add_parser("an-table", help="Hom dimension grid for W = z^n")
    p.add_argument("n", type=int)
    p.add_argument("--field", default="Q")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_an_table)

    p = with_out(sub.add_parser("an-verify", help="cross-check the z^n catalogue"))
    p.add_argument("n", type=int)
    p.add_argument("--field", default="Q")
    p.set_defaults(func=cmd_an_verify)

    p = with_out(sub.add_parser("verify-knorrer", help="check hom dimensions across the hyperbolic tensor"))
    p.add_argument("n", type=int)
    p.add_argument("--pairs", choices=("all", "diag"), default="all")
    p.add_argument("--field", default="Q")
    p.set_defaults(func=cmd_verify_knorrer)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MfcatError as e:
        print(e, file=sys.stderr)
        return e.exit_status


if __name__ == "__main__":
    sys.exit(run())
