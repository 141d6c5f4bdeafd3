"""Span tracer that wraps mfcat's public functions from outside the package.

Each wrapped call records a span (id, name, start, end, parent span, query
id) in memory while a query is open; calls made outside a query pass
straight through.  A layer's self time is its span time minus the time of
its direct child spans.  Counters are read from the call's arguments and
result after its span has closed, inside a ``trace.count`` span, so the
bookkeeping is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

# Span fields.
SID, NAME, START, END, PARENT, QID = range(6)

PACKAGE = "mfcat"
COUNT_SPAN = "trace.count"
QUERY_SPAN = "bench.query"


# -- counters, read from (args, kwargs, result) after the call -------------


def _count_rref(counts, args, kwargs, result):
    matrix = args[1]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    cells = rows * cols
    counts["linalg.rref.rows"] += rows
    counts["linalg.rref.cells"] += cells
    counts["linalg.rref.nnz"] += sum(1 for row in matrix for x in row if x)
    counts["linalg.rref.rank"] += len(result[1])
    if cells > counts["linalg.rref.max_cells"]:
        counts["linalg.rref.max_cells"] = cells


def _count_system(counts, args, kwargs, result):
    system = args[0]
    counts["homotopy.LinearSystem.equations"] += len(system.rows)
    counts["homotopy.LinearSystem.unknowns"] += system.total
    counts["homotopy.LinearSystem.nnz"] += sum(len(row) for row, _ in system.rows)


def _count_graded(counts, args, kwargs, result):
    degrees = result[1]["degrees"]
    counts["homotopy.graded_stable_hom_dim.degrees_scanned"] += len(degrees)
    counts["homotopy.graded_stable_hom_dim.empty_degrees"] += sum(
        1 for _, dim in degrees if dim == 0
    )


def _count_iso(counts, args, kwargs, result):
    counts["homotopy.is_iso_in_db.candidates_tried"] += result.certificate.get(
        "candidates_tried", 0
    )
    counts["homotopy.is_iso_in_db.isos"] += result.status == "iso"


def _count_triangle(counts, args, kwargs, result):
    counts["andyn.certify_an_triangle.candidates_tried"] += result["candidates_tried"]
    counts["andyn.certify_an_triangle.certified"] += bool(result["certified"])


# (module, class or None, attribute, span name, counter)
TARGETS = [
    ("linalg", None, "rref", "linalg.rref", _count_rref),
    ("homotopy", "LinearSystem", "add_matrix_equation", "homotopy.add_matrix_equation", None),
    ("homotopy", "LinearSystem", "solve", "homotopy.LinearSystem.solve", _count_system),
    ("homotopy", "LinearSystem", "coefficient_rank", "homotopy.LinearSystem.coefficient_rank", _count_system),
    ("homotopy", "LinearSystem", "homogeneous_nullspace", "homotopy.LinearSystem.homogeneous_nullspace", _count_system),
    ("homotopy", None, "graded_stable_hom_dim", "homotopy.graded_stable_hom_dim", _count_graded),
    ("homotopy", None, "is_iso_in_db", "homotopy.is_iso_in_db", _count_iso),
    ("andyn", None, "certify_an_triangle", "andyn.certify_an_triangle", _count_triangle),
    ("factorization", None, "mf_new", "factorization.mf_new", None),
    ("factorization", None, "morphism_new", "factorization.morphism_new", None),
    ("factorization", "Homotopy", "bounds", "factorization.Homotopy.bounds", None),
    ("matrices", "PolyMatrix", "__matmul__", "matrices.PolyMatrix.matmul", None),
    ("modules", None, "stable_hom", "modules.stable_hom", None),
    ("modules", None, "cok", "modules.cok", None),
    ("modules", None, "stabilize", "modules.stabilize", None),
    ("modules", None, "decompose", "modules.decompose", None),
    ("knorrer", None, "knorrer", "knorrer.knorrer", None),
]

SOLVE_SPANS = (
    "homotopy.LinearSystem.solve",
    "homotopy.LinearSystem.coefficient_rank",
    "homotopy.LinearSystem.homogeneous_nullspace",
)


class Tracer:
    """Collects spans and counters for the queries run while it is installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.qid = None
        self._stack = []
        self._patched = []  # (namespace, attribute, original)
        self.originals = {}  # span name -> original function

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, perf_counter_ns(), None, parent, self.qid])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][END] = perf_counter_ns()
        self._stack.pop()

    def begin_query(self, qid):
        """Open the root span of a query; every wrapped call nests inside it."""
        self.qid = qid
        return self._open(QUERY_SPAN)

    def end_query(self, sid):
        """Close the root span and return the query's wall time in ns."""
        self._close(sid)
        self.qid = None
        span = self.spans[sid]
        return span[END] - span[START]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.qid is None:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if counter is not None:
                csid = tracer._open(COUNT_SPAN)
                counter(tracer.counts, args, kwargs, result)
                tracer._close(csid)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded namespace of the package that
        binds it, under whatever attribute name it is bound."""
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, class_name, attr, span_name, counter in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if class_name is None:
                original = getattr(module, attr)
                wrapper = self._wrap(original, span_name, counter)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)
            else:
                owner = getattr(module, class_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(original, span_name, counter))
            self.originals[span_name] = original

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self, group):
        """{(group(query id), span name): [calls, self time in ns]}."""
        child = defaultdict(int)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        out = defaultdict(lambda: [0, 0])
        for span in self.spans:
            entry = out[group(span[QID]), span[NAME]]
            entry[0] += 1
            entry[1] += span[END] - span[START] - child[span[SID]]
        return out
