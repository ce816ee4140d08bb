"""Spans around imfield's public functions, for the benchmark's traced run.

``Tracer.install()`` rebinds each traced function under every name that a
module of imfield binds it to (``imfield.scatter.hankel1``,
``imfield.propagate.propagate_halfplane``, ...); ``restore()`` puts the
originals back. Nothing under ``src/`` is edited. While a request is open,
every call records a span: name, start, end, parent span and request id.
Spans stay in memory until the run writes them out.

The tracer's own bookkeeping runs on a paused clock, so span times exclude
it; it still shows in the traced wall time, which is how the run measures
tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# span name -> (module defining the function, attribute path in it)
TRACED = {
    "specfun.hankel1": ("imfield.specfun", "hankel1"),
    "fields.eval_field": ("imfield.fields", "eval_field"),
    "fields.sample_im_on_ray": ("imfield.fields", "sample_im_on_ray"),
    "farfield.extract_all": ("imfield.farfield", "extract_all"),
    "karp.karp_from_farfield": ("imfield.karp", "karp_from_farfield"),
    "karp.eval_karp": ("imfield.karp", "eval_karp"),
    "propagate.karp_line_trace": ("imfield.propagate", "karp_line_trace"),
    "propagate.trace": ("imfield.propagate", "LineTrace.psi"),
    "propagate.propagate_halfplane": ("imfield.propagate",
                                      "propagate_halfplane"),
    "propagate.reconstruct_from_im": ("imfield.propagate",
                                      "reconstruct_from_im"),
    "scatter.green_operator_matrix": ("imfield.scatter",
                                      "green_operator_matrix"),
    "scatter.solve_lippmann_schwinger": ("imfield.scatter",
                                         "solve_lippmann_schwinger"),
    "scatter.plane_wave_solution": ("imfield.scatter", "plane_wave_solution"),
    "scatter.scattering_amplitude": ("imfield.scatter",
                                     "scattering_amplitude"),
    "scatter.check_reciprocity": ("imfield.scatter", "check_reciprocity"),
    "scatter.gkl_reduce": ("imfield.scatter", "gkl_reduce"),
    "cli.run_scenario": ("imfield.cli", "run_scenario"),
}

# specfun's branch splits: series below 0.25, asymptotic from 17.5 up
SERIES_SPLIT = 0.25
ASYM_SPLIT = 17.5

ROOT = "request"
_SOLVES = ("scatter.solve_lippmann_schwinger", "scatter.plane_wave_solution",
           "scatter.gkl_reduce")


def _size_of(pos):
    return lambda args: int(np.size(args[pos]))


def _grid_cells(args):
    return int(args[0].n) ** 2


# What a span counts as its work: points evaluated, or N = n^2 for a build.
_COUNTERS = {
    "specfun.hankel1": _size_of(1),
    "karp.eval_karp": _size_of(1),
    "propagate.trace": _size_of(1),
    "scatter.green_operator_matrix": _grid_cells,
}


class Tracer:
    """Records spans of one traced pass; install() before, restore() after."""

    def __init__(self):
        # [name, start, end, parent index or None, request id, count]
        self.spans = []
        self.requests = []  # per request: id, real wall time, hankel1 counts
        self._stack = []
        self._paused = 0.0
        self._patches = []
        self._request = None
        self._hankel = None

    def now(self):
        return time.perf_counter() - self._paused

    # ------------------------------------------------------------ patching

    def install(self):
        owners = {name: importlib.import_module(mod_name)
                  for name, (mod_name, _) in TRACED.items()}
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "imfield" or k.startswith("imfield.")]
        for name, (_, attr) in TRACED.items():
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owners[name], cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owners[name], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def restore(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            b0 = time.perf_counter()
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1], tracer._request, 0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            if name == "specfun.hankel1":
                tracer._hankel.append((abs(int(args[0])), np.array(
                    args[1], dtype=float).ravel()))
            if counter is not None:
                span[5] = counter(args)
            tracer._paused += time.perf_counter() - b0
            span[1] = tracer.now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = tracer.now()
                b1 = time.perf_counter()
                tracer._stack.pop()
                tracer._paused += time.perf_counter() - b1

        return traced

    # ------------------------------------------------------------ requests

    def run_request(self, request_id, fn, *args):
        """Call fn(*args) as one request under a root span; return its
        result."""
        idx = len(self.spans)
        self._request = request_id
        self._hankel = []
        span = [ROOT, 0.0, 0.0, None, request_id, 0]
        self.spans.append(span)
        self._stack = [idx]
        t0 = time.perf_counter()
        span[1] = self.now()
        try:
            return fn(*args)
        finally:
            span[2] = self.now()
            wall = time.perf_counter() - t0
            self._stack = []
            self.requests.append({"id": request_id, "wall_s": wall,
                                  **_hankel_counts(self._hankel)})
            self._hankel = None


def _dense_bytes(cells):
    """Bytes of one dense N x N complex matrix; the inverse is as large."""
    return 16 * cells * cells


def _inverse_flops(cells):
    """Real flops of inverting an N x N complex matrix through LU, ~8 N^3."""
    return 8 * cells ** 3


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def _hankel_counts(hankel):
    """Computed from one request's hankel1 arguments, not timed: points per
    branch and distinct (|m|, x) pairs."""
    by_order = {}
    for m, x in hankel:
        by_order.setdefault(m, []).append(x)
    xs = [x for _, x in hankel]
    return {
        "hankel1_points": sum(x.size for x in xs),
        "hankel1_series": sum(int(np.count_nonzero(x < SERIES_SPLIT))
                              for x in xs),
        "hankel1_asym": sum(int(np.count_nonzero(x >= ASYM_SPLIT))
                            for x in xs),
        "hankel1_unique": sum(np.unique(np.concatenate(v)).size
                              for v in by_order.values()),
    }


def layer_metrics(tracer, untraced_wall_s):
    """Per-layer metrics of one traced pass; see bench/README.md."""
    spans = tracer.spans
    own = self_times(spans)
    calls = dict.fromkeys(TRACED, 0)
    self_s = dict.fromkeys(TRACED, 0.0)
    count = dict.fromkeys(TRACED, 0)
    for s, t in zip(spans, own):
        if s[0] == ROOT:
            continue
        calls[s[0]] += 1
        self_s[s[0]] += t
        count[s[0]] += s[5]

    def total(key):
        return sum(r[key] for r in tracer.requests)

    points, series, asym = (total("hankel1_points"), total("hankel1_series"),
                            total("hankel1_asym"))

    # a solve found a factored core when no assembly ran inside it
    builds_under = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[0] == "scatter.green_operator_matrix":
            p = s[3]
            while p is not None:
                builds_under[p] += 1
                p = spans[p][3]
    solves = [i for i, s in enumerate(spans) if s[0] in _SOLVES]
    hits = sum(1 for i in solves if builds_under[i] == 0)

    cells = [s[5] for s in spans if s[0] == "scatter.green_operator_matrix"]
    top = sum(s[2] - s[1] for s in spans
              if s[3] is not None and spans[s[3]][0] == ROOT)
    request_s = sum(s[2] - s[1] for s in spans if s[0] == ROOT)
    traced_wall = sum(r["wall_s"] for r in tracer.requests)

    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    h_self = self_s["specfun.hankel1"]
    out.update({
        "specfun.hankel1.points": (points, "count"),
        "specfun.hankel1.points_per_s": (points / h_self if h_self else 0.0,
                                         "1/s"),
        "specfun.hankel1.points_series": (series, "count"),
        "specfun.hankel1.points_miller": (points - series - asym, "count"),
        "specfun.hankel1.points_asym": (asym, "count"),
        "specfun.hankel1.unique_ratio": (
            total("hankel1_unique") / points if points else 0.0, "ratio"),
        "karp.eval_karp.points": (count["karp.eval_karp"], "count"),
        "propagate.trace.points": (count["propagate.trace"], "count"),
        "propagate.trace_points_per_target": (
            count["propagate.trace"] / calls["propagate.propagate_halfplane"]
            if calls["propagate.propagate_halfplane"] else 0.0, "count"),
        "scatter.core_hit_ratio": (hits / len(solves) if solves else 0.0,
                                   "ratio"),
        "scatter.dense_operator_bytes": (max(map(_dense_bytes, cells),
                                             default=0), "B"),
        "scatter.dense_inverse_flops": (sum(map(_inverse_flops, cells)),
                                        "flop"),
        "trace.requests": (len(tracer.requests), "count"),
        "trace.request_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall_s, "s"),
        "trace.unattributed_s": (request_s - top, "s"),
    })
    return out


def spans_document(tracer):
    """The spans and per-request computed counts, ready for json.dump."""
    own = self_times(tracer.spans)
    cells = {}
    for s in tracer.spans:
        if s[0] == "scatter.green_operator_matrix":
            cells.setdefault(s[4], []).append(s[5])
    return {
        "spans": [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                   "parent": s[3], "request": s[4], "self_s": t,
                   "count": s[5]}
                  for i, (s, t) in enumerate(zip(tracer.spans, own))],
        "computed": [dict(r, dense_operator_bytes=[
                          _dense_bytes(n) for n in cells.get(r["id"], [])],
                          dense_inverse_flops=[
                          _inverse_flops(n) for n in cells.get(r["id"], [])])
                     for r in tracer.requests],
    }
