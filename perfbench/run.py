"""The repository benchmark: TIRM allocation and served jobs.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload select-heavy --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is the
separate traced run, which prints the per-layer self-time table and
metrics and writes a Chrome trace.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also writes a report (environment, metrics,
samples) under ``--out``; ``--compare A B`` compares two such report
directories.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("select-heavy", "sample-heavy", "served-mix")


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark may run in a checkout that is no repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, trace: bool, found: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        **found,
    }


def default_specs() -> dict:
    from served import SERVED_MIX
    from workloads import SAMPLE_HEAVY, SELECT_HEAVY

    return {
        "select-heavy": SELECT_HEAVY,
        "sample-heavy": SAMPLE_HEAVY,
        "served-mix": SERVED_MIX,
    }


def run_workload(workload: str, spec: dict, *, seed: int, seconds: float,
                 trace: bool) -> dict:
    if workload == "served-mix":
        from served import run_served

        return run_served(spec, seed=seed, seconds=seconds, trace=trace,
                          workroot=os.path.join(OUT, "work"), src=SRC)
    from workloads import run_allocations

    return run_allocations(spec, seed=seed, seconds=seconds, trace=trace)


def main(argv=None, specs: dict | None = None) -> int:
    """Run the benchmark CLI; ``specs`` replaces the workload sizes
    (the self-test runs the same code at a tiny size)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(OUT, "reports"),
                        help="directory the run's report is written under")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two report directories and exit")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare, benchmark=os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from metrics import END_TO_END, PER_LAYER, UNITS, as_output

    trace = bool(args.trace)
    spec = (specs or default_specs())[args.workload]
    run = run_workload(args.workload, spec, seed=args.seed, seconds=args.seconds,
                       trace=trace)
    # The process engine's shared-memory transport starts multiprocessing's
    # resource tracker; stop it and wait for it, so no process outlives the run.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    env = environment(args.workload, args.seed, trace,
                      {**run["env"], "calibration": run["calibration"]})
    ops = run["ops"]
    names = PER_LAYER if trace else END_TO_END
    metrics = as_output(run["metrics"], names)
    extra = run.get("extra_metrics", {})

    report_dir = os.path.join(args.out, args.workload)
    os.makedirs(report_dir, exist_ok=True)
    print("environment: " + json.dumps(env, sort_keys=True))
    if trace:
        print("per-layer self time (whole traced run):")
        for line in run["table"]:
            print("  " + line)
        trace_path = os.path.join(report_dir, f"seed{args.seed}.chrome-trace.json")
        from tracing import write_chrome_trace

        write_chrome_trace(trace_path, run["events"], env)
        print(f"trace: {trace_path}")
        print(
            "tracing overhead: "
            f"{run['metrics']['trace.overhead_s']:+.4f} s per allocation "
            f"(traced {run['metrics']['trace.allocate_s']:.4f} s)"
        )
    for name, value in {**run["metrics"], **extra}.items():
        print(f"  {name:<40}{value:>16.6g} {UNITS[name]}")
    for failure in ops.failures:
        print(f"FAILED: {failure}")

    report = {
        "environment": env,
        "metrics": {**metrics, **as_output(extra, {k: UNITS[k] for k in extra})},
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "samples": run["samples"],
    }
    report_path = os.path.join(report_dir, f"seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"report: {report_path}")

    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
