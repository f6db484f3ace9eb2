"""The allocation workloads: ``TIRMAllocator.allocate()`` on DBLP-like
instances generated from the workload seed.

Each run allocates a stream of distinct instances (instance ``i`` is
generated and allocated with seed ``seed * 1000 + i``) until the run's
time is up.  Times are in reference seconds (:mod:`calibration`).  Allocation time depends strongly on the instance (how long
the lazy heap walks near budget exhaustion varies with the graph), so a
run reports medians over many instances rather than repeats of one.

Both workloads use the regret penalty λ = 1 per seed.  With λ = 0 the
estimated regret is about 1e-4 of the budget and varies by 10x between
seeds, which no relative bound can track; with λ = 1 ``regret_rel`` also
reflects how many seeds the allocation spends.
"""

from __future__ import annotations

import time

from calibration import Calibration
from metrics import layer_metrics, median, p90, peak_rss_mb, scale_seconds
from tracing import Tracer, self_time_table

SELECT_HEAVY = {
    "dataset": {"scale": 0.01, "num_ads": 8, "budget_per_ad": 35.0, "penalty": 1.0},
    "allocator": {"epsilon": 0.2, "max_rr_sets_per_ad": 4_000, "engine": "serial"},
    "serial_equivalence": False,
}

SAMPLE_HEAVY = {
    "dataset": {"scale": 0.03, "num_ads": 3, "budget_per_ad": 60.0, "penalty": 1.0},
    "allocator": {
        "epsilon": 0.2, "max_rr_sets_per_ad": 60_000,
        "engine": "process", "max_workers": 2,
    },
    "serial_equivalence": True,
}

#: A run always times at least this many allocations, so every median
#: has a middle even when one allocation outlasts ``--seconds``.
MIN_ALLOCATIONS = 3


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000 + index


class Ops:
    """Operations attempted and failed; a failed correctness check
    counts as a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def run_allocations(spec: dict, *, seed: int, seconds: float, trace: bool) -> dict:
    """Run one allocation workload; returns metrics, op counts, the
    environment fields only a result can tell, and (traced) the trace."""
    from repro.algorithms.tirm import TIRMAllocator
    from repro.datasets.synthetic import dblp_like

    ops = Ops()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    def generate(index: int):
        start = time.perf_counter()
        problem = dblp_like(seed=instance_seed(seed, index), **spec["dataset"])
        return problem, time.perf_counter() - start

    def allocate(problem, index: int, *, traced: bool = False, **overrides):
        allocator = TIRMAllocator(
            seed=instance_seed(seed, index), **{**spec["allocator"], **overrides}
        )
        if tracer is not None:
            tracer.enabled = traced
        start = time.perf_counter()
        try:
            result = allocator.allocate(problem)
        finally:
            took = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        return result, took

    def check(what: str, problem, result, same_as=None) -> bool:
        allocation = result.allocation
        ok = allocation.is_valid(problem.attention) and allocation.total_seeds() > 0
        if not ok:
            what += ": attention bound violated or no seeds"
        elif same_as is not None and allocation != same_as.allocation:
            ok, what = False, what + ": seed sets differ"
        return ops.record(ok, what)

    try:
        # Warm-up, untimed: pays one-off import and allocator costs, and
        # is the reference the timed repeat of instance 0 must equal.
        problem0, _ = generate(0)
        reference, _ = allocate(problem0, 0)
        check("warm-up allocation", problem0, reference)

        calibration = Calibration()
        raw = {"setup_s": [], "allocate_s": [], "job_s": [], "traced_allocate_s": []}
        factors: list[float] = []
        traced_stats: list[dict] = []
        regret = budget = 0.0
        index = 0
        loop_start = time.perf_counter()
        while index < MIN_ALLOCATIONS or time.perf_counter() - loop_start < seconds:
            job_start = time.perf_counter()
            problem, generated = generate(index)
            same_as = reference if index == 0 else None
            if tracer is None:
                result, took = allocate(problem, index)
                check(f"allocation {index}", problem, result, same_as)
                regret += result.estimated_regret().total
                budget += float(result.budgets.sum())
            else:
                # Traced and untraced allocations of the same instance,
                # in alternating order; the trace must not change them.
                order = (False, True) if index % 2 == 0 else (True, False)
                runs = {}
                for traced in order:
                    runs[traced] = allocate(problem, index, traced=traced)
                result, took = runs[False]
                check(f"allocation {index}", problem, result, same_as)
                check(f"traced allocation {index}", problem, runs[True][0], result)
                raw["traced_allocate_s"].append(runs[True][1])
                traced_stats.append(runs[True][0].stats)
            raw["setup_s"].append(generated)
            raw["allocate_s"].append(took)
            raw["job_s"].append(time.perf_counter() - job_start)
            factors.append(calibration.after_operation())
            index += 1

        if spec["serial_equivalence"]:
            # Once per run, outside the timed loop: the process engine
            # must reproduce the serial engine's allocation exactly.
            serial, _ = allocate(problem0, 0, engine="serial")
            check("serial-engine equivalence", problem0, serial, reference)
    finally:
        if tracer is not None:
            tracer.uninstall()

    def calibrated(name: str) -> list[float]:
        return [value * factor for value, factor in zip(raw[name], factors)]

    env = {
        "backend": reference.stats["backend"],
        "transport": reference.stats["transport"],
        "engine": reference.stats["engine"],
        "start_method": reference.stats["start_method"],
        "allocations": index,
    }
    out = {
        "ops": ops,
        "env": env,
        "calibration": calibration.record(),
        "samples": {**raw, "factor": factors},
    }
    if tracer is None:
        job_s = calibrated("job_s")
        out["metrics"] = {
            "setup_s": median(calibrated("setup_s")),
            "allocate_s": median(calibrated("allocate_s")),
            "regret_rel": regret / budget,
            "peak_rss_mb": peak_rss_mb(),
            "job_p50_s": median(job_s),
            "job_p90_s": p90(job_s),
            "jobs_per_s": len(job_s) / sum(job_s),
            "ok_frac": 1.0 - ops.failed / ops.attempted,
        }
        return out
    summary = tracer.summary()
    layers = scale_seconds(layer_metrics(summary, traced_stats), calibration.run_factor())
    traced = median(calibrated("traced_allocate_s"))
    layers["trace.allocate_s"] = traced
    layers["trace.overhead_s"] = traced - median(calibrated("allocate_s"))
    out["metrics"] = layers
    out["table"] = self_time_table(summary, len(traced_stats))
    out["events"] = tracer.chrome_events()
    return out
