"""Span tracer for lmpspike, installed from outside the package.

`install` wraps every public function of the traced modules (plus the
output-directory writer of `pipeline`) and every public `Polytope` method.
A function is rebound wherever any lmpspike module holds it: a
`from .opf import solve_opf` copies the function object into the importing
module, so patching only the defining module would miss every call made
through the copy.  Each call records one span (name, parent, root, start,
end); per-layer self times and counts are derived from the spans after the
run, and the spans can be written out as JSON.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "lmpspike"
TRACED_MODULES = ("grid", "opf", "lp", "qp", "polytope", "regions", "spikes",
                  "stochastic", "pipeline")
# private functions traced as well: the pipeline's output-directory writer
EXTRA_FUNCTIONS = {"pipeline": ("_prepare_outdir",)}
# spans whose self time is output writing
WRITER_SPANS = ("pipeline._prepare_outdir", "spikes.write_decay_csv",
                "stochastic.write_mc_csv", "stochastic.write_histograms",
                "regions.save_decomposition")


class Tracer:
    """In-memory span store; one span per traced call, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.root: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.child_time: list[float] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.end.append(float("nan"))
        self.child_time.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")
        parent = self.parent[idx]
        if parent >= 0:
            self.child_time[parent] += t - self.start[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # -- derived figures ------------------------------------------------------

    def self_time(self, idx: int) -> float:
        return self.end[idx] - self.start[idx] - self.child_time[idx]

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """(calls per span name, total self time per span name)."""
        calls: Counter = Counter(self.names)
        self_s: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            self_s[name] += self.self_time(idx)
        return calls, dict(self_s)

    def descendant_counts(self, ancestor: str, name: str) -> list[int]:
        """For each `ancestor` span in order, the number of `name` spans below it."""
        counts = {idx: 0 for idx, n in enumerate(self.names) if n == ancestor}
        for idx, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parent[idx]
            while p >= 0:
                if p in counts:
                    counts[p] += 1
                p = self.parent[p]
        return [counts[idx] for idx in sorted(counts)]

    def write(self, path) -> None:
        """Spans as JSON: a name table and one row per span, times from the first span."""
        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "columns": ["name", "parent", "root", "start_s", "end_s", "self_s"],
            "names": table,
            "spans": [[code[n], self.parent[i], self.root[i],
                       self.start[i] - t0, self.end[i] - t0, self.self_time(i)]
                      for i, n in enumerate(self.names)],
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- result hooks: counts that live in return values -----------------------------

def _lp_status(counters, res):
    if res.status != "optimal":
        counters["lp.solve_lp.not_optimal"] += 1


def _qp_iterations(counters, res):
    counters["qp.solve_qp.iterations"] += res.iterations


def _opf_degenerate(counters, sol):
    counters["opf.solve_opf.degenerate"] += int(sol.degenerate)


def _piece(counters, piece):
    counters["spikes.minimize_rate_piece.nonempty"] += int(piece is not None)


def _decomposition(counters, decomp):
    counters["regions.count"] += decomp.n_regions
    counters["regions.dead_partitions"] += sum(
        1 for d in decomp.degenerate_diagnostics if d.startswith("partition "))


def _mc(counters, mc):
    counters["stochastic.fallback_solves"] += mc.fallback_count
    counters["stochastic.infeasible_samples"] += mc.infeasible_count


RESULT_HOOKS = {
    "lp.solve_lp": _lp_status,
    "qp.solve_qp": _qp_iterations,
    "opf.solve_opf": _opf_degenerate,
    "spikes.minimize_rate_piece": _piece,
    "regions.enumerate_regions": _decomposition,
    "stochastic.mc_spike_probabilities": _mc,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the traced functions at every binding; returns the undo list."""
    wrapped: dict[int, tuple[object, object]] = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        extra = EXTRA_FUNCTIONS.get(short, ())
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{short}.{attr}"
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj,
                                                 RESULT_HOOKS.get(name)))
    patches: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                patches.append((mod, attr, obj))
                setattr(mod, attr, entry[1])

    polytope_cls = importlib.import_module(f"{PACKAGE}.polytope").Polytope
    for attr, raw in list(vars(polytope_cls).items()):
        if attr.startswith("_"):
            continue
        name = f"polytope.{attr}"
        if isinstance(raw, staticmethod):
            new = staticmethod(tracer.wrap(name, raw.__func__))
        elif inspect.isfunction(raw):
            new = tracer.wrap(name, raw)
        else:
            continue  # properties are attribute reads, not calls worth a span
        patches.append((polytope_cls, attr, raw))
        setattr(polytope_cls, attr, new)
    return patches


def uninstall(patches) -> None:
    for owner, attr, obj in reversed(patches):
        setattr(owner, attr, obj)


# -- per-layer metrics ------------------------------------------------------------

def _calls(span):
    return "count", lambda calls, self_s, counters: calls.get(span, 0)


def _self(span):
    return "s", lambda calls, self_s, counters: self_s.get(span, 0.0)


def _counter(key):
    return "count", lambda calls, self_s, counters: counters.get(key, 0)


def _piece_yield(calls, self_s, counters):
    tried = calls.get("spikes.minimize_rate_piece", 0)
    return counters.get("spikes.minimize_rate_piece.nonempty", 0) / tried \
        if tried else 0.0


def _module_self(prefix):
    return "s", lambda calls, self_s, counters: sum(
        v for k, v in self_s.items() if k.startswith(prefix))


def _writers_self(calls, self_s, counters):
    return sum(self_s.get(k, 0.0) for k in WRITER_SPANS)


# metric name -> (unit, function of (calls, self_s, counters)); `.s` is self time
LAYER_METRICS = {
    "lp.solve_lp.calls": _calls("lp.solve_lp"),
    "lp.solve_lp.s": _self("lp.solve_lp"),
    "lp.solve_lp.not_optimal": _counter("lp.solve_lp.not_optimal"),
    "polytope.fourier_motzkin.s": _self("polytope.fourier_motzkin"),
    "polytope.remove_redundancy.calls": _calls("polytope.remove_redundancy"),
    "polytope.remove_redundancy.s": _self("polytope.remove_redundancy"),
    "polytope.facet_point.calls": _calls("polytope.facet_point"),
    "polytope.facet_point.s": _self("polytope.facet_point"),
    "polytope.support.calls": _calls("polytope.support"),
    "polytope.chebyshev.s": _self("polytope.chebyshev"),
    "regions.feasible_set.s": _self("regions.feasible_set"),
    "regions.enumerate_regions.s": _self("regions.enumerate_regions"),
    "regions.estimate_coverage.s": _self("regions.estimate_coverage"),
    "regions.count": _counter("regions.count"),
    "regions.dead_partitions": _counter("regions.dead_partitions"),
    "regions.locate_region.calls": _calls("regions.locate_region"),
    "regions.locate_region.s": _self("regions.locate_region"),
    "qp.solve_qp.calls": _calls("qp.solve_qp"),
    "qp.solve_qp.s": _self("qp.solve_qp"),
    "qp.solve_qp.iterations": _counter("qp.solve_qp.iterations"),
    "qp.phase1_point.calls": _calls("qp.phase1_point"),
    "opf.solve_opf.calls": _calls("opf.solve_opf"),
    "opf.solve_opf.s": _self("opf.solve_opf"),
    "opf.solve_opf.degenerate": _counter("opf.solve_opf.degenerate"),
    "opf.parametric_kkt.calls": _calls("opf.parametric_kkt"),
    "opf.assemble_mpqp.s": _self("opf.assemble_mpqp"),
    "spikes.decay_rates.s": _self("spikes.decay_rates"),
    "spikes.minimize_rate_piece.calls": _calls("spikes.minimize_rate_piece"),
    "spikes.piece_yield": ("ratio", _piece_yield),
    "stochastic.sample.s": _self("stochastic.sample"),
    "stochastic.evaluate_lmp_samples.s": _self("stochastic.evaluate_lmp_samples"),
    "stochastic.mc_spike_probabilities.s": _self("stochastic.mc_spike_probabilities"),
    "stochastic.fallback_solves": _counter("stochastic.fallback_solves"),
    "stochastic.infeasible_samples": _counter("stochastic.infeasible_samples"),
    "grid.s": _module_self("grid."),
    "pipeline.write.s": ("s", _writers_self),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    calls, self_s = tracer.summary()
    return {name: {"value": fn(calls, self_s, tracer.counters), "unit": unit}
            for name, (unit, fn) in LAYER_METRICS.items()}
