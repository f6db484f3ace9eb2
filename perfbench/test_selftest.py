"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

It runs every workload's code path (untraced and traced) on instances a
few hundred nodes large, and checks that each named metric is emitted
with its unit, that the traced session phases account for the traced
allocation time, that the compare mode flags what it should, and that
the command fails cleanly where there are no sources to benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402

TINY = {
    "select-heavy": {
        "dataset": {"scale": 0.002, "num_ads": 4, "budget_per_ad": 8.0, "penalty": 1.0},
        "allocator": {"epsilon": 0.3, "max_rr_sets_per_ad": 2_000, "engine": "serial"},
        "serial_equivalence": False,
    },
    "sample-heavy": {
        "dataset": {"scale": 0.002, "num_ads": 3, "budget_per_ad": 8.0, "penalty": 1.0},
        "allocator": {
            "epsilon": 0.3, "max_rr_sets_per_ad": 4_000,
            "engine": "process", "max_workers": 2,
        },
        "serial_equivalence": True,
    },
    "served-mix": dict(
        served.SERVED_MIX,
        dataset_kwargs={"scale": 0.002, "num_ads": 2, "penalty": 1.0},
        params={"epsilon": 0.3, "max_rr_sets_per_ad": 1_500},
        min_jobs=8,
        server_starts=2,
    ),
}

PHASES = ("pilot", "estimate_theta", "select", "grow")


def run_cli(capsys, tmp_path, workload: str, trace: int) -> tuple[dict, dict]:
    """One in-process CLI run at the tiny size: the final JSON line and
    the report it wrote."""
    out = tmp_path / "reports"
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--out", str(out)],
        specs=TINY,
    )
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    with open(out / workload / f"seed3-trace{trace}.json") as handle:
        report = json.load(handle)
    return json.loads(last), report


def test_benchmark_json_declares_what_the_code_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, tmp_path, workload):
    result, _ = run_cli(capsys, tmp_path, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_frac"]["value"] == 1.0

    result, report = run_cli(capsys, tmp_path, workload, trace=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics.PER_LAYER
    assert (tmp_path / "reports" / workload / "seed3.chrome-trace.json").exists()
    if workload == "served-mix":
        for name, unit in metrics.SERVICE_ONLY.items():
            assert report["metrics"][name]["unit"] == unit
        assert report["metrics"]["cache.hits"]["value"] > 0


@pytest.mark.parametrize("workload", ["select-heavy", "sample-heavy"])
def test_traced_phases_account_for_traced_allocate_time(capsys, tmp_path, workload):
    _, report = run_cli(capsys, tmp_path, workload, trace=1)
    layers = {k: v["value"] for k, v in report["metrics"].items()}
    calibration = report["environment"]["calibration"]
    run_factor = calibration["reference_s"] / calibration["kernel_median_s"]
    phases = sum(layers[f"session.{phase}_s"] for phase in PHASES) / run_factor
    traced = statistics.fmean(report["samples"]["traced_allocate_s"])
    # allocate() also builds and closes the engine outside the session;
    # under the process engine that includes starting and joining workers.
    assert phases <= traced
    assert phases >= (0.9 if workload == "select-heavy" else 0.5) * traced


def _write_report(directory, seed: int, values: dict) -> None:
    path = directory / "select-heavy" / f"seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "environment": {"workload": "select-heavy", "trace": 0},
        "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
    }))


def test_compare_flags_regressions_and_unresolved_spreads(capsys, tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for seed, jitter in enumerate((0.99, 1.0, 1.01, 1.0)):
        _write_report(before, seed, {"allocate_s": 2.0 * jitter,
                                     "job_p50_s": 1.0 * jitter,
                                     "setup_s": 1.0 * jitter})
        _write_report(after, seed, {"allocate_s": 3.0 * jitter,
                                    "job_p50_s": 1.0 * jitter * (1 + 0.6 * (seed % 2)),
                                    "setup_s": 1.01 * jitter})
    code = compare.compare(str(before), str(after),
                           benchmark=os.path.join(ROOT, "BENCHMARK.json"))
    rows = {line.split()[0]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith(("==", "metric"))}
    assert code == 1
    assert rows == {"allocate_s": "regression", "job_p50_s": "unresolved",
                    "setup_s": "ok"}


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select-heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
