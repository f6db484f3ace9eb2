"""Metric names, units and the arithmetic shared by every workload.

``BENCHMARK.json`` declares the same names; the self-test checks that
the two agree and that every run emits each name with its unit.
"""

from __future__ import annotations

import math
import resource
import statistics

#: End-to-end metrics, emitted by every workload with tracing off.
END_TO_END = {
    "setup_s": "s",
    "allocate_s": "s",
    "regret_rel": "ratio",
    "peak_rss_mb": "MB",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "ok_frac": "ratio",
}

#: Per-layer metrics, emitted by every workload's traced run.  Times and
#: counts are per allocation (per job on served-mix), so the session
#: phases add up to the traced allocation time.
PER_LAYER = {
    "session.pilot_s": "s",
    "session.estimate_theta_s": "s",
    "session.select_s": "s",
    "session.grow_s": "s",
    "session.steps": "count",
    "tirm.picks": "count",
    "tirm.scanned_per_pick": "ratio",
    "tim.greedy_cover_s": "s",
    "tim.greedy_cover_calls": "count",
    "engine.ensure_s": "s",
    "engine.ensure_calls": "count",
    "engine.wait_s": "s",
    "engine.backend_invocations": "count",
    "engine.prefetch_submitted": "count",
    "engine.wasted_chunks": "count",
    "pool.append_s": "s",
    "pool.append_calls": "count",
    "pool.remove_covered_s": "s",
    "pool.remove_covered_calls": "count",
    "pool.sets": "count",
    "pool.memory_mb": "MB",
    "sampler.chunk_s": "s",
    "sampler.chunks": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "trace.allocate_s": "s",
    "trace.overhead_s": "s",
}

#: Client-side service metrics.  Only served-mix has a service, so they
#: appear in its traced report and table but not in the per-layer set
#: every workload must emit.
SERVICE_ONLY = {
    "service.submit_rtt_s": "s",
    "service.wait_rtt_s": "s",
    "service.job_run_s": "s",
    "service.overhead_s": "s",
    "service.warm_ratio": "ratio",
    "service.backend_invocations.cold": "count",
    "service.backend_invocations.cached": "count",
    "service.backend_invocations.warm": "count",
    "service.backend_invocations.reallocate": "count",
}

UNITS = {**END_TO_END, **PER_LAYER, **SERVICE_ONLY}


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """The 90th percentile (``statistics.quantiles``, inclusive)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def peak_rss_mb() -> float:
    """Peak resident memory in MiB: the larger of this process and its
    waited-for children (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def chunks_needed(stats: dict) -> int:
    """Chunks an allocation's final θ values cover (whole chunks)."""
    chunk = stats.get("chunk_size") or 1
    return sum(math.ceil(theta / chunk) for theta in stats["theta_per_ad"])


def layer_metrics(summary: dict, stats_list: list[dict], cache_deltas=None) -> dict:
    """Per-allocation layer metrics from a tracer summary and the traced
    allocations' ``stats`` dicts.  ``cache_deltas`` holds each traced
    allocation's own ``(hits, misses)`` when a shard cache was used."""
    runs = max(len(stats_list), 1)
    totals = summary["totals"]
    counters = summary["counters"]

    def seconds(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[1] / runs

    def calls(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[0] / runs

    picks = sum(s["iterations"] for s in stats_list)
    hits = sum(h for h, _ in cache_deltas or ())
    misses = sum(m for _, m in cache_deltas or ())
    metrics = {
        "session.pilot_s": seconds("session.pilot"),
        "session.estimate_theta_s": seconds("session.estimate_theta"),
        "session.select_s": seconds("session.select"),
        "session.grow_s": seconds("session.grow"),
        "session.steps": sum(
            calls(f"session.{state}")
            for state in ("pilot", "estimate_theta", "select", "grow")
        ),
        "tirm.picks": picks / runs,
        "tirm.scanned_per_pick": counters.get("tirm.can_assign", 0) / max(picks, 1),
        "tim.greedy_cover_s": seconds("tim.greedy_cover"),
        "tim.greedy_cover_calls": calls("tim.greedy_cover"),
        "engine.ensure_s": seconds("engine.ensure"),
        "engine.ensure_calls": calls("engine.ensure"),
        "engine.wait_s": seconds("engine.ensure") - seconds("pool.append"),
        "engine.backend_invocations": sum(
            s["backend_invocations"] for s in stats_list
        ) / runs,
        "engine.prefetch_submitted": counters.get("engine.prefetch_submitted", 0) / runs,
        "engine.wasted_chunks": sum(
            max(0, s["backend_invocations"] - chunks_needed(s)) for s in stats_list
        ) / runs,
        "pool.append_s": seconds("pool.append"),
        "pool.append_calls": calls("pool.append"),
        "pool.remove_covered_s": seconds("pool.remove_covered"),
        "pool.remove_covered_calls": calls("pool.remove_covered"),
        "pool.sets": sum(s["total_rr_sets"] for s in stats_list) / runs,
        "pool.memory_mb": max(
            (s["rr_memory_bytes"] for s in stats_list), default=0
        ) / 2**20,
        "sampler.chunk_s": seconds("sampler.chunk"),
        "sampler.chunks": calls("sampler.chunk"),
        "cache.hits": hits / runs,
        "cache.misses": misses / runs,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
    return metrics


def scale_seconds(values: dict, factor: float) -> dict:
    """``values`` with every metric in seconds multiplied by ``factor``."""
    return {
        name: value * factor if UNITS[name] == "s" else value
        for name, value in values.items()
    }


def as_output(values: dict, names: dict) -> dict:
    """``{name: {"value": v, "unit": u}}`` for every name in ``names``."""
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in names.items()
    }
