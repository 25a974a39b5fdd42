"""Per-layer tracing of dualis from outside its source.

``Tracer.install`` replaces module-level bindings of dualis functions with
wrappers that record a span (name, start, end, parent, query) per call and
per-name call counts and self times.  A ``from .exact import resultant``
in another module is a binding of its own, so every module that binds the
same function object gets the wrapper; calls through the defining module's
global (such as the recursion of ``exact.poly_gcd``) are caught too.

Self time is a span's duration minus the time covered by its traced
children.  Frame and chart outcomes are read at the per-frame step
``elimination._pair_frame_count`` (``None`` is a rejected frame) and at
``dualgeom._dual_in_chart`` (``None`` is a rejected chart).
"""

from __future__ import annotations

import copy
import importlib
import json
import time
from pathlib import Path

#: traced functions, by the module that defines them
TRACED = {
    "exact": ("resultant", "discriminant", "poly_gcd", "poly_gcd_many",
              "is_squarefree", "radical", "parse_poly"),
    "elimination": ("distinct_intersection_count", "transversal_intersection_count",
                    "_pair_frame_count", "_infinity_restriction",
                    "certified_singular_count", "rational_system_points",
                    "apply_matrix", "rational_roots"),
    "curvelab": ("singular_points", "curve_report", "line_transversality"),
    "dualgeom": ("dual_equation", "_dual_in_chart", "dual_degree_oracle", "biduality_check"),
    "corpus": ("load_corpus", "run_case", "build_curve_pair", "curve_package",
               "transversal_slice_line"),
    "flopcalc": ("check_identity", "solve_unknown"),
    "charclass": ("hypersurface_package",),
    "cli": ("run_command",),
}

#: functions reported as <name>.calls and <name>.self_s
REPORTED = [
    f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns
    if fn not in ("_pair_frame_count", "_infinity_restriction", "_dual_in_chart")
] + ["curvelab.PlaneCurve"]

#: frame rejection causes, decided by how far the frame step got
REJECTION_CAUSES = ("y_leading", "infinity_line", "common_infinity", "eliminant_degree")


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in output order."""
    names = []
    for fn in REPORTED:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    names += [
        ("exact.resultant.sylvester_cells", "count"),
        ("exact.multipoly_new.count", "count"),
        ("elimination.frames_tried", "count"),
        ("elimination.frames_rejected", "count"),
        *((f"elimination.frames_rejected.{c}", "count") for c in REJECTION_CAUSES),
        ("elimination.frame_accept_ratio", "ratio"),
        ("elimination.rejected_frame_s", "s"),
        ("curvelab.singular_points.distinct_ratio", "ratio"),
        ("dualgeom.charts_tried", "count"),
        ("dualgeom.chart_accept_ratio", "ratio"),
        ("cli.refusals", "count"),
        ("cli.refusal_s", "s"),
        ("bench.deadline_misses", "count"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
    ]
    return names


class _State:
    """Everything a query can change; copied to roll a query back."""

    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counters: dict = {}
        self.by_query: dict = {}   # query index -> {counter: value}
        self.distinct_curves: set = set()
        self.n_spans = 0


class Tracer:
    def __init__(self):
        self.state = _State()
        self.spans: list = []      # [name, start, end, parent, query]
        self.queries: list = []    # query labels, indexed by span's query field
        self.query = -1
        self._stack: list = []     # open span indices
        self._child_s: dict = {}   # open span index -> time covered by children
        self._restore: list = []   # (owner, attribute, original)
        self._t0 = time.perf_counter()

    # --- installing -----------------------------------------------------

    def install(self, dualis_pkg) -> None:
        modules = {name: importlib.import_module(f"dualis.{name}")
                   for name in ("exact", "elimination", "curvelab", "dualgeom",
                                "corpus", "flopcalc", "charclass", "cli")}
        everywhere = list(modules.values()) + [dualis_pkg]
        for module_name, fns in TRACED.items():
            for fn_name in fns:
                original = getattr(modules[module_name], fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in everywhere:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        plane_curve = modules["curvelab"].PlaneCurve
        self._patch(plane_curve, "__init__",
                    self._wrap("curvelab.PlaneCurve", plane_curve.__init__))
        multipoly = modules["exact"].MultiPoly
        self._patch(multipoly, "__init__", self._count_init(multipoly.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_init(self, init):
        key = "exact.multipoly_new.count"

        def counted_init(obj, *args, **kwargs):
            counters = self.state.counters
            counters[key] = counters.get(key, 0) + 1
            return init(obj, *args, **kwargs)
        return counted_init

    def _wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            state = self.state
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            self._child_s[index] = 0.0
            mark = before(self, args) if before else None
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                state.calls[name] = state.calls.get(name, 0) + 1
                state.self_s[name] = (state.self_s.get(name, 0.0)
                                      + duration - self._child_s.pop(index))
                if parent >= 0:
                    self._child_s[parent] += duration
                self.spans[index] = [name, start - self._t0, end - self._t0,
                                     parent, self.query]
                if after:
                    after(self, args, result, duration, mark)

        return traced

    # --- queries and rollback -------------------------------------------

    def begin_query(self, label: str) -> None:
        self.queries.append(label)
        self.query = len(self.queries) - 1

    def snapshot(self):
        self.state.n_spans = len(self.spans)
        return copy.deepcopy(self.state)

    def rollback(self, snap) -> None:
        """Forget a query that missed its deadline: its partial work depends
        on timing, so keeping it would make counts unrepeatable."""
        del self.spans[snap.n_spans:]
        self.state = snap
        self._stack.clear()
        self._child_s.clear()

    def count(self, key: str, amount=1) -> None:
        """Add to a counter, in total and for the current query."""
        for counters in (self.state.counters,
                         self.state.by_query.setdefault(self.query, {})):
            counters[key] = counters.get(key, 0) + amount

    # --- output ---------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        state = self.state
        c = state.counters
        out = {}
        for fn in REPORTED:
            out[f"{fn}.calls"] = state.calls.get(fn, 0)
            out[f"{fn}.self_s"] = state.self_s.get(fn, 0.0)
        tried = c.get("elimination.frames_tried", 0)
        rejected = sum(c.get(f"elimination.frames_rejected.{k}", 0) for k in REJECTION_CAUSES)
        charts = state.calls.get("dualgeom._dual_in_chart", 0)
        sing_calls = state.calls.get("curvelab.singular_points", 0)
        out.update({
            "exact.resultant.sylvester_cells": c.get("exact.resultant.sylvester_cells", 0),
            "exact.multipoly_new.count": c.get("exact.multipoly_new.count", 0),
            "elimination.frames_tried": tried,
            "elimination.frames_rejected": rejected,
            **{f"elimination.frames_rejected.{k}": c.get(f"elimination.frames_rejected.{k}", 0)
               for k in REJECTION_CAUSES},
            "elimination.frame_accept_ratio": _ratio(tried - rejected, tried),
            "elimination.rejected_frame_s": c.get("elimination.rejected_frame_s", 0.0),
            "curvelab.singular_points.distinct_ratio":
                _ratio(len(state.distinct_curves), sing_calls),
            "dualgeom.charts_tried": charts,
            "dualgeom.chart_accept_ratio": _ratio(c.get("dualgeom.charts_accepted", 0), charts),
            "cli.refusals": c.get("cli.refusals", 0),
            "cli.refusal_s": c.get("cli.refusal_s", 0.0),
            "bench.deadline_misses": c.get("bench.deadline_misses", 0),
            "trace.spans": len(self.spans),
            "trace.wall_s": wall_s,
        })
        return out

    def write(self, path: Path, header: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in self.spans]
        payload = {**header, "span_fields": ["name", "start_s", "end_s", "parent", "query"],
                   "names": names, "queries": self.queries,
                   "query_counts": [self.state.by_query.get(i, {})
                                    for i in range(len(self.queries))],
                   "spans": rows}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _ratio(num, den) -> float:
    """num/den, and 0.0 when nothing was attempted."""
    return num / den if den else 0.0


# --- hooks: (before(tracer, args) -> mark, after(tracer, args, result, s, mark)) ---

def _sylvester_cells(tracer, args):
    f, g = args[0], args[1]
    tracer.count("exact.resultant.sylvester_cells", (f.degree + g.degree) ** 2)


def _frame_before(tracer, args):
    tracer.count("elimination.frames_tried")
    calls = tracer.state.calls
    return tuple(calls.get(n, 0) for n in
                 ("elimination._infinity_restriction", "exact.poly_gcd", "exact.resultant"))


def _frame_after(tracer, args, result, duration, mark):
    if result is not None:
        return
    calls = tracer.state.calls
    now = tuple(calls.get(n, 0) for n in
                ("elimination._infinity_restriction", "exact.poly_gcd", "exact.resultant"))
    reached = [b > a for a, b in zip(mark, now)]
    # the frame step returns None at its first failing test, in this order
    cause = ("eliminant_degree" if reached[2] else "common_infinity" if reached[1]
             else "infinity_line" if reached[0] else "y_leading")
    tracer.count(f"elimination.frames_rejected.{cause}")
    tracer.count("elimination.rejected_frame_s", duration)


def _chart_after(tracer, args, result, duration, mark):
    if result is not None:
        tracer.count("dualgeom.charts_accepted")


def _singular_after(tracer, args, result, duration, mark):
    F = args[0].F
    tracer.state.distinct_curves.add((F.variables, frozenset(F.terms.items())))


def _cli_after(tracer, args, result, duration, mark):
    if result == 2:
        tracer.count("cli.refusals")
        tracer.count("cli.refusal_s", duration)


_HOOKS = {
    "exact.resultant": (_sylvester_cells, None),
    "elimination._pair_frame_count": (_frame_before, _frame_after),
    "dualgeom._dual_in_chart": (None, _chart_after),
    "curvelab.singular_points": (None, _singular_after),
    "cli.run_command": (None, _cli_after),
}
