"""Self-test of the tracer's coverage and counts.  Run from the repository root:

    python3 perfbench/selftest.py [--seed N]

Runs one build, one rank, one MC pass and 300 dispatch points of the
case14-study workload twice traced and, between them, once untraced, and
checks that

- while the tracer is installed no lmpspike module holds an unwrapped
  traced function (e.g. `solve_opf` in opf, regions, stochastic and
  pipeline), and that uninstalling restores every binding;
- the LP counts equal the seed baseline: 523 under `feasible_set`, 757
  under `enumerate_regions` with 16 regions, 632 under each `decay_rates`;
- span and counter totals repeat exactly across the two traced runs;
- traced outputs are byte-identical to untraced ones.

It prints the tracing overhead per step as the second traced run's time
minus the untraced run's, and exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402  (pins the thread variables before numpy loads)
import tracer as tracing  # noqa: E402

BASELINE_LPS = {"regions.feasible_set": [523],
                "regions.enumerate_regions": [757],
                "spikes.decay_rates": [632, 632]}  # rank and MC each run one pass
BASELINE_REGIONS = 16
SOLVE_POINTS = 300
# bindings made by `from .x import name` that a defining-module patch would miss
COPIED_BINDINGS = [("opf", "solve_opf"), ("regions", "solve_opf"),
                   ("stochastic", "solve_opf"), ("pipeline", "solve_opf"),
                   ("opf", "parametric_kkt"), ("regions", "parametric_kkt"),
                   ("regions", "fourier_motzkin"), ("pipeline", "build_study"),
                   ("pipeline", "feasible_set"), ("pipeline", "enumerate_regions"),
                   ("pipeline", "decay_rates"), ("pipeline", "write_decay_csv"),
                   ("pipeline", "write_mc_csv"), ("pipeline", "write_histograms"),
                   ("pipeline", "_prepare_outdir"), ("pipeline", "sample"),
                   ("pipeline", "mc_spike_probabilities"), ("cli", "cmd_rank")]
POLYTOPE_METHODS = ("chebyshev", "remove_redundancy", "facet_point", "support",
                    "contains", "from_rows")


class Checks:
    def __init__(self):
        self.failed = 0

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.failed += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" - {detail}" if detail else ""))


def is_traced(obj) -> bool:
    if isinstance(obj, staticmethod):
        obj = obj.__func__
    return hasattr(obj, "__wrapped__")


def binding_problems(patches) -> list[str]:
    originals = {id(obj) for _, _, obj in patches}
    problems = []
    for name, mod in list(sys.modules.items()):
        if name != tracing.PACKAGE and not name.startswith(tracing.PACKAGE + "."):
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and id(obj) in originals:
                problems.append(f"{name}.{attr} unwrapped")
    for short, attr in COPIED_BINDINGS:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{short}")
        if not is_traced(getattr(mod, attr)):
            problems.append(f"{short}.{attr} unwrapped")
    polytope_cls = importlib.import_module(f"{tracing.PACKAGE}.polytope").Polytope
    for attr in POLYTOPE_METHODS:
        if not is_traced(inspect.getattr_static(polytope_cls, attr)):
            problems.append(f"Polytope.{attr} unwrapped")
    return problems


def restored(patches) -> bool:
    return all(getattr(owner, attr) is obj if not isinstance(obj, staticmethod)
               else inspect.getattr_static(owner, attr) is obj
               for owner, attr, obj in patches)


def step_times(result) -> dict[str, float]:
    return {"setup": sum(result.setup_s), "rank": sum(result.rank_s),
            "mc": sum(result.mc_s), "solves": sum(result.solve_s)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tracer count self-test")
    p.add_argument("--seed", type=int, default=20240)
    args = p.parse_args(argv)
    bench.import_program()
    w = replace(bench.traced_plan(bench.WORKLOADS["case14-study"]), min_points=SOLVE_POINTS)
    check = Checks()
    bench.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT))
    try:
        traced, plain = [], None
        for k in range(2):
            if k == 1:  # untraced between the traced runs, so both sides are warm
                plain = bench.run_workload(w, args.seed, 0.0, scratch)
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                if k == 0:
                    problems = binding_problems(patches)
                    check("every binding of a traced function is wrapped",
                          not problems, "; ".join(problems[:5]))
                result = bench.run_workload(w, args.seed, 0.0, scratch, tracer)
            finally:
                tracing.uninstall(patches)
            if k == 0:
                check("uninstall restores every binding", restored(patches))
            traced.append((tracer, result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tracer = traced[0][0]
    for ancestor, want in BASELINE_LPS.items():
        got = tracer.descendant_counts(ancestor, "lp.solve_lp")
        check(f"LPs under {ancestor} = {want}", got == want, f"got {got}")
    regions = tracer.counters["regions.count"]
    check(f"{BASELINE_REGIONS} regions", regions == BASELINE_REGIONS, f"got {regions}")

    totals = [(t.summary()[0], dict(t.counters)) for t, _ in traced]
    check("span and counter totals repeat across traced runs",
          totals[0] == totals[1])
    for k, (_, res) in enumerate(traced, start=1):
        check(f"traced run {k} outputs byte-identical to untraced",
              res.digests == plain.digests)
        check(f"traced run {k} output checks pass",
              res.ops.failed == 0 and plain.ops.failed == 0,
              "; ".join((res.ops.problems + plain.ops.problems)[:3]))

    base = step_times(plain)
    for step, t in step_times(traced[1][1]).items():
        print(f"overhead {step}: traced {t:.3f} s - untraced {base[step]:.3f} s "
              f"= {t - base[step]:+.3f} s")
    print(f"spans recorded in one traced run: {len(tracer.names)}")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
