"""Self-test of the tracer: run part of every workload traced and under
cProfile at once, and check that

- every traced function was called as often as cProfile counted,
- spans nest (each child lies inside its parent), and
- per query, the self times of all spans sum exactly to the query's
  traced wall time.

Run with ``python3 perfbench/run.py --selftest [--seed N]``.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import defaultdict
from time import perf_counter

from spans import END, NAME, PARENT, QID, START, Tracer
from workloads import WORKLOADS

QUERY_SECONDS = 3.0  # query time per workload, once each kind has run


def _one_of_each_kind_first(queries):
    """(rank, query) in id order, taking one of each kind (first word of the
    id) before a second of any; rank counts earlier queries of the kind."""
    seen = defaultdict(int)
    ranked = []
    for q in sorted(queries, key=lambda q: q.qid):
        kind = q.qid.split()[0]
        ranked.append((seen[kind], q.qid, q))
        seen[kind] += 1
    return [(rank, q) for rank, _, q in sorted(ranked, key=lambda r: r[:2])]


def _check_workload(name, seed, import_fresh):
    problems = []
    mf = import_fresh()
    tracer = Tracer()
    profiler = cProfile.Profile()
    tracer.install()
    try:
        def traced(qid, fn):
            sid = tracer.begin_query(qid)
            profiler.enable()
            try:
                return fn()
            finally:
                profiler.disable()
                tracer.end_query(sid)

        queries = traced("setup", lambda: WORKLOADS[name](mf, seed))
        spent = 0.0
        ran = 0
        for rank, q in _one_of_each_kind_first(queries):
            if rank and spent >= QUERY_SECONDS:
                break
            t0 = perf_counter()
            answer = traced(q.qid, q.run)
            spent += perf_counter() - t0
            q.check(answer)
            ran += 1
    finally:
        tracer.uninstall()

    stats = pstats.Stats(profiler).stats
    traced_calls = defaultdict(int)
    for span in tracer.spans:
        traced_calls[span[NAME]] += 1
    for span_name, original in sorted(tracer.originals.items()):
        code = original.__code__
        profiled = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        if profiled != traced_calls[span_name]:
            problems.append(f"{span_name}: traced {traced_calls[span_name]} calls, cProfile {profiled}")

    spans = tracer.spans
    wall = defaultdict(int)
    for span in spans:
        parent = span[PARENT]
        if parent is None:
            wall[span[QID]] += span[END] - span[START]
        elif not (spans[parent][START] <= span[START] and span[END] <= spans[parent][END]):
            problems.append(f"span {span[NAME]} escapes its parent {spans[parent][NAME]}")
    self_sum = defaultdict(int)
    for (qid, _), (_, self_ns) in tracer.totals(lambda qid: qid).items():
        self_sum[qid] += self_ns
    for qid, ns in wall.items():
        if self_sum[qid] != ns:
            problems.append(f"{qid}: self times sum to {self_sum[qid]} ns, wall time {ns} ns")
    print(
        f"selftest {name}: set-up + {ran} queries, {len(spans)} spans, "
        f"{len(tracer.originals)} functions compared with cProfile, "
        f"{len(problems)} problems"
    )
    for p in problems[:10]:
        print(f"  {p}")
    return not problems


def main(seed, import_fresh):
    ok = all([_check_workload(name, seed, import_fresh) for name in sorted(WORKLOADS)])
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1
