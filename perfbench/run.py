"""mfcat benchmark: time to a checked answer on fixed, seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout and treated as a
black box.  Each workload is a closed loop with one client: one query at a
time, no threads.  The timed part runs whole rounds (every query of the
workload once, in an order drawn from the seed) until ``--seconds`` have
been spent inside queries.  Every answer is checked outside the timed part;
a wrong answer, a witness that does not re-validate, or an exception counts
as a failed query.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, and prints the per-layer metrics; those are
given for one set-up plus one round.  ``--selftest`` checks the tracer
against cProfile instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

from spans import SOLVE_SPANS, Tracer
from speed import REFERENCE_NS, Calibrator
from workloads import WORKLOADS, WrongAnswer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7
MAX_ERRORS_SHOWN = 5


# -- set-up ----------------------------------------------------------------


def import_fresh():
    """Import mfcat from the checkout, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "mfcat" or m.startswith("mfcat.")]:
        del sys.modules[name]
    mf = importlib.import_module("mfcat")
    if not Path(mf.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mfcat imported from {mf.__file__}, not from {SRC}")
    return mf


def setup(workload, seed):
    """Import mfcat and build the workload's inputs SETUP_REPS times, keeping
    the last build; returns it with the raw and scaled set-up times in ns."""
    raw = []
    cal = Calibrator()
    for _ in range(SETUP_REPS):
        t0 = perf_counter_ns()
        mf = import_fresh()
        queries = WORKLOADS[workload](mf, seed)
        raw.append(perf_counter_ns() - t0)
        cal.add("setup", t0, raw[-1])
        cal.sample()
    return mf, queries, raw, cal.scaled()["setup"]


# -- the timed loop ----------------------------------------------------------


class Run:
    """Results of the timed rounds: latencies, failures and witness digests."""

    def __init__(self):
        self.rounds = 0
        self.answered = 0
        self.raw_ns = {}  # qid -> wall time of each timed call
        self.cal = Calibrator()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}  # qid -> sha256 of the first checked witness

    def fail(self, qid, message):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"{qid}: {message}")

    def record(self, canonical_json, qid, answer, check):
        """Check one answer and compare its witness digest with earlier rounds."""
        try:
            witness = check(answer)
        except WrongAnswer as exc:
            self.fail(qid, f"wrong answer: {exc}")
            return False
        except Exception as exc:  # a witness that does not re-validate raises
            self.fail(qid, f"check raised {type(exc).__name__}: {exc}")
            return False
        digest = hashlib.sha256(canonical_json(witness).encode()).hexdigest()
        if self.digests.setdefault(qid, digest) != digest:
            self.fail(qid, "witness differs from an earlier round")
            return False
        return True

    def answers_per_s(self, latencies):
        """Checked answers per round over the sum of per-query median
        latencies: one round's rate, robust to a slow spell of the machine."""
        per_round = self.answered / self.rounds
        return per_round / sum(statistics.median(v) / 1e9 for v in latencies.values())

    def witness_digest(self):
        h = hashlib.sha256()
        for qid in sorted(self.digests):
            h.update(f"{qid}\t{self.digests[qid]}\n".encode())
        return h.hexdigest()


def run_rounds(mf, queries, seconds, order_rng, run, tracer=None):
    """Run whole rounds until `seconds` of query time have been spent."""
    canonical_json = mf.formats.canonical_json
    spent_ns = 0
    budget_ns = int(seconds * 1e9)
    start_round = run.rounds
    while spent_ns < budget_ns or run.rounds == start_round:
        order = list(queries)
        order_rng.shuffle(order)
        for q in order:
            run.attempted += 1
            try:
                t0 = perf_counter_ns()
                if tracer is None:
                    answer = q.run()
                    elapsed = perf_counter_ns() - t0
                else:
                    sid = tracer.begin_query(q.qid)
                    try:
                        answer = q.run()
                    finally:
                        elapsed = tracer.end_query(sid)
            except Exception as exc:
                run.fail(q.qid, f"raised {type(exc).__name__}: {exc}")
                traceback.print_exc(limit=3, file=sys.stderr)
                continue
            spent_ns += elapsed
            run.raw_ns.setdefault(q.qid, []).append(elapsed)
            if run.record(canonical_json, q.qid, answer, q.check):
                run.answered += 1
            run.cal.add(q.qid, t0, elapsed)
        run.cal.sample()
        run.rounds += 1
    return run.rounds - start_round


# -- metrics -----------------------------------------------------------------


def timings(run, latencies, setup_ns):
    lat_ms = [t / 1e6 for v in latencies.values() for t in v]
    return {
        "answers_per_s": (run.answers_per_s(latencies), "1/s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_p75_ms": (statistics.quantiles(lat_ms, n=4)[2], "ms"),
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
    }


def end_to_end(run, setup_scaled_ns):
    metrics = timings(run, run.cal.scaled(), setup_scaled_ns)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


CALL_METRICS = [
    "linalg.rref",
    "homotopy.add_matrix_equation",
    "homotopy.graded_stable_hom_dim",
    "homotopy.is_iso_in_db",
    "andyn.certify_an_triangle",
    "factorization.mf_new",
    "factorization.morphism_new",
    "factorization.Homotopy.bounds",
    "matrices.PolyMatrix.matmul",
    "modules.stable_hom",
    "modules.cok",
    "modules.stabilize",
    "modules.decompose",
    "knorrer.knorrer",
]


def _ratio(a, b):
    return a / b if b else 0.0


def _phase(qid):
    return "setup" if qid == "setup" else "round"


def per_layer(tracer, setup_counts, rounds, overhead_ratio, scale):
    """Per-layer metrics for one traced set-up plus one traced round; span
    times are multiplied by `scale`, the traced half's speed factor."""
    totals = tracer.totals(_phase)

    def per_pass(name, field):
        return totals.get(("setup", name), (0, 0))[field] + totals.get(("round", name), (0, 0))[field] / rounds

    def count(name):
        return setup_counts.get(name, 0) + tracer.counts.get(name, 0) / rounds

    out = {}
    for name in CALL_METRICS:
        out[f"{name}.calls"] = (per_pass(name, 0), "count")
        out[f"{name}.self_s"] = (scale * per_pass(name, 1) / 1e9, "s")
    cells = count("linalg.rref.cells")
    nnz = count("linalg.rref.nnz")
    out["linalg.rref.cells"] = (cells, "count")
    out["linalg.rref.nnz"] = (nnz, "count")
    out["linalg.rref.max_cells"] = (
        max(setup_counts.get("linalg.rref.max_cells", 0), tracer.counts.get("linalg.rref.max_cells", 0)),
        "count",
    )
    out["linalg.rref.density"] = (_ratio(nnz, cells), "ratio")
    out["linalg.rref.rank_ratio"] = (_ratio(count("linalg.rref.rank"), count("linalg.rref.rows")), "ratio")
    for key in ("equations", "unknowns", "nnz"):
        out[f"homotopy.LinearSystem.{key}"] = (count(f"homotopy.LinearSystem.{key}"), "count")
    out["homotopy.LinearSystem.solve_self_s"] = (scale * sum(per_pass(name, 1) for name in SOLVE_SPANS) / 1e9, "s")
    degrees = count("homotopy.graded_stable_hom_dim.degrees_scanned")
    out["homotopy.graded_stable_hom_dim.degrees_scanned"] = (degrees, "count")
    out["homotopy.graded_stable_hom_dim.empty_degree_ratio"] = (
        _ratio(count("homotopy.graded_stable_hom_dim.empty_degrees"), degrees),
        "ratio",
    )
    iso_tried = count("homotopy.is_iso_in_db.candidates_tried")
    out["homotopy.is_iso_in_db.candidates_tried"] = (iso_tried, "count")
    out["homotopy.is_iso_in_db.candidates_per_iso"] = (
        _ratio(iso_tried, count("homotopy.is_iso_in_db.isos")),
        "ratio",
    )
    out["andyn.certify_an_triangle.candidates_tried"] = (
        count("andyn.certify_an_triangle.candidates_tried"),
        "count",
    )
    out["andyn.certify_an_triangle.certified_ratio"] = (
        _ratio(count("andyn.certify_an_triangle.certified"), per_pass("andyn.certify_an_triangle", 0)),
        "ratio",
    )
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def print_self_time_table(tracer, rounds):
    """Self time per span name in one traced round, largest first, for the
    whole round and for each kind of query (first word of its id)."""
    tables = {"all queries": {}}
    for (qid, name), (_, ns) in tracer.totals(lambda qid: qid).items():
        if qid == "setup":
            continue
        for table in (tables["all queries"], tables.setdefault(qid.split()[0], {})):
            table[name] = table.get(name, 0) + ns / rounds
    for kind, table in tables.items():
        whole = sum(table.values())
        print(f"self time per traced round, {kind}: {whole / 1e9:.4f} s")
        for name, ns in sorted(table.items(), key=lambda kv: -kv[1])[:6]:
            print(f"  {name:46s} {ns / 1e9:9.4f} s {100 * ns / whole:6.1f}%")


# -- entry point -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="check the tracer against cProfile")
    args = parser.parse_args(argv)
    if not (SRC / "mfcat" / "__init__.py").is_file():
        print(f"error: no mfcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        import selftest

        return selftest.main(args.seed, import_fresh)
    if args.workload is None:
        parser.error("--workload is required")

    mf, queries, setup_raw, setup_scaled = setup(args.workload, args.seed)
    order_rng = random.Random(f"{args.workload}:{args.seed}:order")
    run = Run()
    if args.trace:
        half = args.seconds / 2
        run_rounds(mf, queries, half, order_rng, run)
        tracer = Tracer()
        tracer.install()
        try:
            sid = tracer.begin_query("setup")
            queries = WORKLOADS[args.workload](mf, args.seed)
            tracer.end_query(sid)
            setup_counts = dict(tracer.counts)
            tracer.counts.clear()
            traced = Run()
            traced.digests = run.digests
            rounds = run_rounds(mf, queries, half, order_rng, traced, tracer)
        finally:
            tracer.uninstall()
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.errors += traced.errors
        if not (run.answered and traced.answered):
            print("error: no query was answered", *run.errors, sep="\n", file=sys.stderr)
            return 1
        overhead = run.answers_per_s(run.cal.scaled()) / traced.answers_per_s(traced.cal.scaled())
        scale = REFERENCE_NS / traced.cal.median_sample_ns()
        metrics = per_layer(tracer, setup_counts, rounds, overhead, scale)
        print_self_time_table(tracer, rounds)
    else:
        run_rounds(mf, queries, args.seconds, order_rng, run)
        if not run.answered:
            print("error: no query was answered", *run.errors, sep="\n", file=sys.stderr)
            return 1
        metrics = end_to_end(run, setup_scaled)
        timed = sum(len(v) for v in run.raw_ns.values())
        print(
            f"queries timed: {timed} (p75 has {timed - int(0.75 * timed)} samples above it); "
            f"rounds: {run.rounds}; failed_ratio: {run.failed / run.attempted:.4f}"
        )
        wall = timings(run, run.raw_ns, setup_raw)
        print("unscaled wall times:", ", ".join(f"{k}={v:.4f} {u}" for k, (v, u) in wall.items()))
        print(f"reference kernel: median {run.cal.median_sample_ns() / 1e6:.3f} ms over {len(run.cal.samples)} runs")
    print(f"witness_sha256: {run.witness_digest()}")
    for err in run.errors:
        print(f"FAILED {err}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
