"""Span and counter recorder, installed from outside the program.

The benchmark measures layers by wrapping the public entry points of
``repro`` modules at run time; nothing under ``src/`` knows it is being
traced.  :class:`Tracer` keeps spans (name, start, end, parent) in memory
and plain counters for hot calls, and writes Chrome trace-event JSON at
the end.

Wrapped entry points (span or counter name in brackets):

* ``AllocationSession.step``, keyed by the state before the call
  [``session.<state>``];
* ``Allocation.can_assign`` [counter ``tirm.can_assign``] -- about a
  million calls per run, so a counter, never a span;
* ``greedy_max_coverage`` as bound on ``repro.algorithms.tirm``
  [``tim.greedy_cover``];
* ``ShardedSamplingEngine.ensure`` / ``prefetch`` [``engine.ensure``,
  ``engine.prefetch``; counter ``engine.prefetch_submitted``];
* ``RRSetPool.add_flat`` / ``add_flat_from_buffer`` [``pool.append``]
  and ``RRSetPool.remove_covered`` [``pool.remove_covered``].  Calls made
  by the greedy cover on its private working pool belong to the TIM
  layer and are not recorded as pool spans;
* ``RRSetSampler.sample_chunk_block`` [``sampler.chunk``].  Under
  ``engine="process"`` this runs in forked workers, which add their busy
  time to a shared-memory accumulator instead of recording spans.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import threading
import time

_TIM_SPAN = "tim.greedy_cover"


class Tracer:
    """In-memory span/counter recorder over monkeypatched entry points.

    ``enabled`` switches recording on and off without uninstalling, so a
    run can time the same instance traced and untraced.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self._next_id = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._can_assign = [0]
        # Forked sampling workers inherit this mapping and add to it:
        # [busy seconds, chunks].
        self._worker_sampling = multiprocessing.RawArray("d", 2)
        self._worker_lock = multiprocessing.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, function, args, kwargs):
        stack = self._stack()
        self._next_id += 1
        span_id = self._next_id
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident())
            )

    def _inside_tim(self) -> bool:
        return any(name == _TIM_SPAN for _, name in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _spanned(self, name: str, *, skip_in_tim: bool = False):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if (
                    not tracer.enabled
                    or os.getpid() != tracer.pid
                    or (skip_in_tim and tracer._inside_tim())
                ):
                    return original(*args, **kwargs)
                return tracer._call(name, original, args, kwargs)
            return wrapper
        return make

    def install(self) -> None:
        """Patch every traced entry point (idempotent per tracer)."""
        if self._patches:
            return
        import repro.algorithms.tirm as tirm_module
        from repro.advertising.allocation import Allocation
        from repro.algorithms.session import AllocationSession
        from repro.rrset.pool import RRSetPool
        from repro.rrset.sampler import RRSetSampler
        from repro.rrset.sharded import ShardedSamplingEngine

        tracer = self

        def step(original):
            def wrapper(session):
                if not tracer.enabled or os.getpid() != tracer.pid:
                    return original(session)
                name = "session." + session.state.replace("-", "_")
                return tracer._call(name, original, (session,), {})
            return wrapper

        counter = self._can_assign

        def can_assign(original):
            def wrapper(*args):
                if tracer.enabled:
                    counter[0] += 1
                return original(*args)
            return wrapper

        def prefetch(original):
            def wrapper(*args, **kwargs):
                if not tracer.enabled or os.getpid() != tracer.pid:
                    return original(*args, **kwargs)
                submitted = tracer._call("engine.prefetch", original, args, kwargs)
                tracer.count("engine.prefetch_submitted", submitted)
                return submitted
            return wrapper

        def sample_chunk(original):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                if os.getpid() == tracer.pid:
                    return tracer._call("sampler.chunk", original, args, kwargs)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    busy = time.perf_counter() - start
                    with tracer._worker_lock:
                        tracer._worker_sampling[0] += busy
                        tracer._worker_sampling[1] += 1
            return wrapper

        self._patch(AllocationSession, "step", step)
        self._patch(Allocation, "can_assign", can_assign)
        self._patch(tirm_module, "greedy_max_coverage", self._spanned(_TIM_SPAN))
        self._patch(ShardedSamplingEngine, "ensure", self._spanned("engine.ensure"))
        self._patch(ShardedSamplingEngine, "prefetch", prefetch)
        for attr in ("add_flat", "add_flat_from_buffer"):
            self._patch(RRSetPool, attr, self._spanned("pool.append", skip_in_tim=True))
        self._patch(
            RRSetPool, "remove_covered",
            self._spanned("pool.remove_covered", skip_in_tim=True),
        )
        self._patch(RRSetSampler, "sample_chunk_block", sample_chunk)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-span-name ``[calls, total_s, self_s]`` plus counters.

        A span's self time is its duration minus the durations of its
        direct children; children nest inside parents because every
        span is recorded on its own thread's stack.
        """
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, list] = {}
        for span_id, _, name, start, end, _ in self.spans:
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += (end - start) - child_time.get(span_id, 0.0)
        worker_busy, worker_chunks = self._worker_sampling[:]
        if worker_chunks:
            row = totals.setdefault("sampler.chunk", [0, 0.0, 0.0])
            row[0] += int(worker_chunks)
            row[1] += worker_busy
            row[2] += worker_busy
        counters = dict(self.counters)
        counters["tirm.can_assign"] = self._can_assign[0]
        return {"totals": totals, "counters": counters}

    def chrome_events(self) -> list[dict]:
        """Complete ("X") trace events.  Timestamps are the monotonic
        clock in microseconds, which is shared by every process on the
        host, so client and server events line up."""
        return [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": self.pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, start, end, tid in self.spans
        ]


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum several :meth:`Tracer.summary` records (e.g. client and server)."""
    totals: dict[str, list] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, (calls, total, self_time) in summary["totals"].items():
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_time
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"totals": totals, "counters": counters}


def write_chrome_trace(path: str, events: list[dict], metadata: dict) -> None:
    """Write ``events`` as a Chrome trace-event JSON file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
            handle,
        )


def self_time_table(summary: dict, allocations: int) -> list[str]:
    """Human-readable per-layer self-time lines, largest first."""
    rows = sorted(
        summary["totals"].items(), key=lambda item: item[1][2], reverse=True
    )
    lines = [
        f"{'span':<24}{'calls':>10}{'total_s':>12}{'self_s':>12}"
        f"{'self_s/alloc':>14}"
    ]
    for name, (calls, total, self_time) in rows:
        lines.append(
            f"{name:<24}{calls:>10}{total:>12.4f}{self_time:>12.4f}"
            f"{self_time / max(allocations, 1):>14.4f}"
        )
    return lines
