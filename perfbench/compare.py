"""Compare two sets of benchmark reports.

``python3 perfbench/run.py --compare BEFORE AFTER`` reads every report
under the two directories (as written by ``run.py --out``), groups them
by workload and tracing mode, and prints per metric: each side's median
and quartiles, the relative change of the medians, and a verdict
against the metric's bound from ``BENCHMARK.json``:

* ``regression``: worse by more than the bound;
* ``ok``: within the bound;
* ``unresolved``: either side's spread (interquartile range over
  median) is wider than the bound, so the runs cannot tell, unless every
  run after is better than every run before (``better``).

Per-layer metrics have no bound; their change is printed without a
verdict.  The exit code is 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def load_reports(directory: str) -> dict:
    """``{(workload, trace): {metric: [values...]}}`` over a directory."""
    groups: dict = {}
    pattern = os.path.join(directory, "**", "seed*-trace[01].json")
    paths = sorted(glob.glob(pattern, recursive=True))
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        env = report["environment"]
        group = groups.setdefault((env["workload"], env["trace"]), {})
        for name, entry in report["metrics"].items():
            group.setdefault(name, []).append(float(entry["value"]))
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q: tuple[float, float, float]) -> float:
    """Interquartile range over median."""
    q1, med, q3 = q
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(before: list[float], after: list[float], *, bound, better: str) -> str:
    if bound is None:
        return ""
    qb, qa = quartiles(before), quartiles(after)
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(qb), spread(qa)) > bound:
        if all(sign * (a - b) < 0 for a in after for b in before):
            return "better"
        return "unresolved"
    worse = sign * (qa[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
    return "regression" if worse > bound else "ok"


def compare(before_dir: str, after_dir: str, *, benchmark: str) -> int:
    with open(benchmark) as handle:
        spec = json.load(handle)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load_reports(before_dir), load_reports(after_dir)
    regressions = 0
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'end to end'}; "
              f"runs: {len(next(iter(before[key].values()), []))} before, "
              f"{len(next(iter(after[key].values()), []))} after)")
        print(f"{'metric':<36}{'before q1/med/q3':>36}{'after q1/med/q3':>36}"
              f"{'change':>10}{'bound':>8}  verdict")
        for name in sorted(set(before[key]) & set(after[key])):
            b, a = before[key][name], after[key][name]
            meta = declared.get(name, {})
            bound = meta.get("bound") if not trace else None
            better = meta.get("better", "lower")
            qb, qa = quartiles(b), quartiles(a)
            change = f"{(qa[1] - qb[1]) / abs(qb[1]):+.1%}" if qb[1] else "n/a"
            result = verdict(b, a, bound=bound, better=better)
            regressions += result == "regression"
            print(
                f"{name:<36}"
                f"{'/'.join(f'{v:.4g}' for v in qb):>36}"
                f"{'/'.join(f'{v:.4g}' for v in qa):>36}"
                f"{change:>10}"
                f"{'' if bound is None else f'{bound:.0%}':>8}  {result}"
            )
    missing = sorted(set(before) ^ set(after))
    for workload, trace in missing:
        print(f"== {workload} (trace {trace}): reports on one side only")
    return 1 if regressions else 0
