"""The served-mix workload: ``repro serve`` driven by one closed-loop client.

One request is in flight at a time.  The client repeats a cycle of four
job kinds on the ``dblp`` dataset:

* *cold*: a new allocator seed, so the job samples and writes its blocks
  to the shard cache;
* *cached*: the same seed with ε = 0.25 and ``max_workers=1``.  The
  engine pool's key includes ``max_workers`` but not ε, so the job leases
  a new engine, and that engine reads the cold job's blocks from the
  shard cache (``max_workers`` is ignored by the serial engine and is no
  part of the cache key).  ε alone would re-lease the cold job's engine
  and never touch the cache;
* *warm*: the cold job again, served from the pooled engine's block memo
  with zero backend calls;
* *reallocate*: ``update_budgets`` on the warm job.

The service takes no dataset seed, so the workload seed picks the
allocator seeds only.

A run does a fixed number of jobs: ``--seconds`` times ``jobs_per_second``
(136 jobs for 30 s, about 30 s of work on a 2-core box), and at least
``min_jobs``, so that the 90th percentile has ten samples above it.  The count does not depend
on how fast the service runs, because idle pooled engines stay resident
for the server's lifetime: the server's memory grows with every cycle,
and a time-bounded loop would charge a faster service with more memory.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

from calibration import Calibration
from metrics import layer_metrics, median, p90, peak_rss_mb, scale_seconds
from tracing import Tracer, merge_summaries, self_time_table
from workloads import Ops, instance_seed

SERVED_MIX = {
    "dataset": "dblp",
    "dataset_kwargs": {"scale": 0.005, "num_ads": 4, "penalty": 1.0},
    "params": {"epsilon": 0.2, "max_rr_sets_per_ad": 4_000},
    "cached_params": {"epsilon": 0.25, "max_workers": 1},
    "budget_scale": 1.25,
    "min_jobs": 104,
    "jobs_per_second": 4.5,
    "server_starts": 5,
}

KINDS = ("cold", "cached", "warm", "reallocate")

#: Seconds a server may take to answer its first ping, or to exit after
#: a shutdown request, before the benchmark gives up on it.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

HERE = os.path.dirname(os.path.abspath(__file__))


class Server:
    """One ``repro serve`` subprocess with its own port file and cache.

    ``trace_out`` runs it under :mod:`traced_serve`, which installs the
    tracer in the server and writes its summary there on shutdown.
    """

    def __init__(self, workdir: str, src: str, *, trace_out: str | None = None) -> None:
        self.port_file = os.path.join(workdir, "port")
        os.makedirs(workdir)
        serve_args = [
            "serve", "--port-file", self.port_file,
            "--cache", os.path.join(workdir, "cache"),
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable, os.path.join(HERE, "traced_serve.py"),
                trace_out, *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(os.path.join(workdir, "server.log"), "wb")
        try:
            self.process = subprocess.Popen(
                command, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            )
        except BaseException:
            self._log.close()
            raise
        self.client = None

    def wait_ready(self) -> None:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        deadline = time.perf_counter() + START_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}; see "
                    f"{self._log.name}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not answer ping in time")
            if os.path.exists(self.port_file):
                client = ServiceClient(port_file=self.port_file)
                try:
                    client.ping()
                except ServiceError:
                    pass
                else:
                    self.client = client
                    return
            time.sleep(0.005)

    def stop(self) -> None:
        """Ask for shutdown, then wait; kill if it does not exit."""
        from repro.errors import ServiceError

        try:
            if self.client is not None and self.process.poll() is None:
                try:
                    self.client.shutdown()
                except ServiceError:
                    pass
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        finally:
            self._log.close()


def start_server(workdir: str, src: str, **kwargs) -> tuple[Server, float]:
    """Start a server and return it with its spawn-to-ping seconds."""
    start = time.perf_counter()
    server = Server(workdir, src, **kwargs)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _job_regret(payload: dict, problem, budgets) -> tuple[float, float]:
    from repro.advertising.regret import allocation_regret

    counts = [len(seeds) for seeds in payload["seeds_per_ad"]]
    breakdown = allocation_regret(
        payload["estimated_revenues"], budgets, counts, problem.penalty
    )
    return breakdown.total, float(sum(budgets))


def _respects_attention(payload: dict, kappa) -> bool:
    import numpy as np

    counts = np.zeros(kappa.shape[0], dtype=np.int64)
    for seeds in payload["seeds_per_ad"]:
        np.add.at(counts, np.asarray(seeds, dtype=np.int64), 1)
    return bool(np.all(counts <= kappa) and counts.sum() > 0)


def planned_cycles(spec: dict, seconds: float) -> int:
    jobs = max(spec["min_jobs"], seconds * spec["jobs_per_second"])
    return math.ceil(jobs / len(KINDS))


def drive(client, spec: dict, *, seed: int, cycles: int, ops: Ops, problem,
          calibration: Calibration, tracer: Tracer | None = None) -> dict:
    """The closed loop: ``cycles`` cycles of the four job kinds.  Job
    times are calibrated per cycle (:mod:`calibration`)."""
    from repro.errors import ServiceError

    budgets = problem.catalog.budgets()
    kappa = problem.attention.kappa
    realloc_budgets = {"0": float(budgets[0]) * spec["budget_scale"]}
    new_budgets = budgets.copy()
    new_budgets[0] = realloc_budgets["0"]

    def timed(name, function, *args, **kwargs):
        start = time.perf_counter()
        if tracer is not None:
            value = tracer._call(name, function, args, kwargs)
        else:
            value = function(*args, **kwargs)
        return value, time.perf_counter() - start

    jobs: list[dict] = []
    regret = budget = 0.0
    cache_before = {"hits": 0, "misses": 0}
    for cycle in range(cycles):
        params = dict(spec["params"], seed=instance_seed(seed, cycle))
        results = {}
        cycle_start = len(jobs)
        for kind in KINDS:
            try:
                if kind == "reallocate":
                    job_id, submit_s = timed(
                        "service.submit", client.reallocate,
                        results["warm"]["job_id"], update_budgets=realloc_budgets,
                    )
                else:
                    job_params = (
                        dict(params, **spec["cached_params"])
                        if kind == "cached" else params
                    )
                    job_id, submit_s = timed(
                        "service.submit", client.submit, spec["dataset"],
                        params=job_params, dataset_kwargs=spec["dataset_kwargs"],
                    )
                payload, wait_s = timed("service.wait", client.wait, job_id)
            except ServiceError as exc:
                # A refused job fails, and so does the rest of its cycle,
                # which builds on it.
                ops.record(False, f"{kind} job in cycle {cycle} refused: {exc}")
                break
            results[kind] = payload
            stats = payload.get("stats", {})
            cache = stats.get("cache", cache_before)
            job = {
                "kind": kind,
                "submit_s": submit_s,
                "wait_s": wait_s,
                "latency_s": submit_s + wait_s,
                "run_s": (payload.get("finished_at") or 0) - payload["created_at"],
                "warm": bool(payload.get("engine_warm")),
                "stats": stats,
                # The cache's counters accumulate over the server's life.
                "hits": cache["hits"] - cache_before["hits"],
                "misses": cache["misses"] - cache_before["misses"],
            }
            cache_before = cache
            jobs.append(job)
            ok = payload.get("state") == "done" and _respects_attention(payload, kappa)
            what = f"{kind} job {job_id}"
            if ok and kind in ("warm", "cached"):
                ok = stats["backend_invocations"] == 0
                what += "" if ok else ": backend invoked"
            if ok and kind == "warm":
                ok = payload["seeds_per_ad"] == results["cold"]["seeds_per_ad"]
                what += "" if ok else ": differs from its cold job"
            if ok and kind == "cached":
                ok = job["hits"] > 0
                what += "" if ok else ": no shard-cache hits"
            if not ops.record(ok, what):
                continue
            job_regret, job_budget = _job_regret(
                payload, problem, new_budgets if kind == "reallocate" else budgets
            )
            regret += job_regret
            budget += job_budget
        factor = calibration.after_operation()
        for job in jobs[cycle_start:]:
            job["factor"] = factor
            for name in ("submit_s", "wait_s", "latency_s", "run_s"):
                job[name] *= factor
    return {
        "jobs": jobs,
        "cycles": cycles,
        "regret": regret,
        "budget": budget,
    }


def service_metrics(jobs: list[dict]) -> dict:
    metrics = {
        "service.submit_rtt_s": median(j["submit_s"] for j in jobs),
        "service.wait_rtt_s": median(j["wait_s"] for j in jobs),
        "service.job_run_s": median(j["run_s"] for j in jobs),
        "service.overhead_s": median(j["latency_s"] - j["run_s"] for j in jobs),
        "service.warm_ratio": sum(j["warm"] for j in jobs) / len(jobs),
    }
    for kind in KINDS:
        same = [j["stats"].get("backend_invocations", 0) for j in jobs if j["kind"] == kind]
        metrics[f"service.backend_invocations.{kind}"] = sum(same) / max(len(same), 1)
    return metrics


def run_served(spec: dict, *, seed: int, seconds: float, trace: bool,
               workroot: str, src: str) -> dict:
    from repro.datasets.registry import load_dataset

    ops = Ops()
    problem = load_dataset(spec["dataset"], **spec["dataset_kwargs"])
    workdir = os.path.join(workroot, f"served-{os.getpid()}-{seed}-{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if not trace:
            return _run_untraced(spec, seed, seconds, ops, problem, workdir, src)
        return _run_traced(spec, seed, seconds, ops, problem, workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _job_samples(jobs: list[dict]) -> dict:
    """Per-job calibrated times, with each job's factor, for the report."""
    names = ("kind", "factor", "submit_s", "wait_s", "latency_s", "run_s")
    return {name: [job[name] for job in jobs] for name in names}


def _env(jobs: list[dict], cycles: int) -> dict:
    stats = next((j["stats"] for j in jobs if j["stats"]), {})
    return {
        "backend": stats.get("backend"),
        "transport": stats.get("transport"),
        "engine": stats.get("engine"),
        "start_method": stats.get("start_method"),
        "jobs": len(jobs),
        "cycles": cycles,
    }


def _run_untraced(spec, seed, seconds, ops, problem, workdir, src) -> dict:
    calibration = Calibration()
    setup = []
    # Set-up is timed several times: throwaway servers first, then the
    # one the loop drives.
    for attempt in range(spec["server_starts"]):
        server, took = start_server(os.path.join(workdir, f"server-{attempt}"), src)
        setup.append(took * calibration.after_operation())
        if attempt + 1 < spec["server_starts"]:
            server.stop()
    try:
        loop = drive(server.client, spec, seed=seed,
                     cycles=planned_cycles(spec, seconds), ops=ops, problem=problem,
                     calibration=calibration)
    finally:
        server.stop()
    jobs = loop["jobs"]
    latency = [j["latency_s"] for j in jobs]
    metrics = {
        "setup_s": median(setup),
        "allocate_s": median(j["run_s"] for j in jobs),
        "regret_rel": loop["regret"] / loop["budget"],
        "peak_rss_mb": peak_rss_mb(),
        "job_p50_s": median(latency),
        "job_p90_s": p90(latency),
        "jobs_per_s": len(jobs) / sum(latency),
        "ok_frac": 1.0 - ops.failed / ops.attempted,
    }
    return {
        "ops": ops,
        "env": _env(jobs, loop["cycles"]),
        "calibration": calibration.record(),
        "metrics": metrics,
        "extra_metrics": service_metrics(jobs),
        "samples": {"setup_s": setup, **_job_samples(jobs)},
    }


def _run_traced(spec, seed, seconds, ops, problem, workdir, src) -> dict:
    # Untraced server first, then a traced one over the same cycles, each
    # for half the planned cycles: the difference in median job run time
    # is the tracing overhead.
    cycles = max(planned_cycles(spec, seconds) // 2, 2)
    calibration = Calibration()
    plain, _ = start_server(os.path.join(workdir, "plain"), src)
    try:
        baseline = drive(plain.client, spec, seed=seed, cycles=cycles,
                         ops=ops, problem=problem, calibration=calibration)
    finally:
        plain.stop()
    trace_out = os.path.join(workdir, "server-trace.json")
    tracer = Tracer()
    tracer.enabled = True
    traced, _ = start_server(os.path.join(workdir, "traced"), src, trace_out=trace_out)
    try:
        loop = drive(traced.client, spec, seed=seed, cycles=cycles, ops=ops,
                     problem=problem, calibration=calibration, tracer=tracer)
    finally:
        traced.stop()
    with open(trace_out) as handle:
        server_trace = json.load(handle)
    jobs = loop["jobs"]
    summary = merge_summaries([tracer.summary(), server_trace["summary"]])
    layers = scale_seconds(
        layer_metrics(
            summary, [j["stats"] for j in jobs],
            [(j["hits"], j["misses"]) for j in jobs],
        ),
        calibration.run_factor(),
    )
    traced_run = median(j["run_s"] for j in jobs)
    layers["trace.allocate_s"] = traced_run
    layers["trace.overhead_s"] = traced_run - median(j["run_s"] for j in baseline["jobs"])
    return {
        "ops": ops,
        "env": _env(jobs, loop["cycles"]),
        "calibration": calibration.record(),
        "metrics": layers,
        "extra_metrics": service_metrics(jobs),
        "samples": {"traced": _job_samples(jobs),
                    "untraced": _job_samples(baseline["jobs"])},
        "table": self_time_table(summary, len(jobs)),
        "events": tracer.chrome_events() + server_trace["events"],
    }
