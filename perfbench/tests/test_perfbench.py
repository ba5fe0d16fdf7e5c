"""Checks of the benchmark itself: exact counters, the correctness gate,
tracing that leaves the program's output unchanged, and the metric names
BENCHMARK.json promises.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import measure
import tracing
import workloads
from apdual.solver import RunRecord

ROOT = Path(__file__).resolve().parents[2]


def _small(base: dict, iterations: int, seed: int) -> dict:
    return dict(base, iterations=iterations, seeds=[seed])


def _traced(raw: dict, out: Path) -> measure.SeedRun:
    tracer = tracing.Tracer()
    tracer.begin_seed_run(0)
    sr = measure.run_seed_run(raw, out, tracer)
    sr.stats = tracer.seed_run_stats()
    assert not tracer.missing
    return sr


CALLS = (
    "cmdp.collect_batch",
    "envs.transition",
    "envs.reward_cost",
    "policy.act",
    "policy.log_prob",
    "policy.grad_log_prob",
    "lagrangian.ppol_grad",
    "schedules.rate",
)


@pytest.mark.parametrize(
    "base", [workloads.GRID, workloads.POINT_PPOL, workloads.POINT_CIRCLE],
    ids=["grid", "point-ppol", "point-circle"],
)
def test_counters_repeat_exactly(tmp_path, base):
    raw = _small(base, 3, 7)
    a = _traced(raw, tmp_path / "a")
    b = _traced(raw, tmp_path / "b")
    assert a.failure is None and b.failure is None
    assert a.bytes_written == b.bytes_written > 0
    assert a.stats["counts"] == b.stats["counts"]
    calls = {n: a.stats["spans"].get(n, {"calls": 0})["calls"] for n in CALLS}
    assert calls == {n: b.stats["spans"].get(n, {"calls": 0})["calls"] for n in CALLS}
    # run_experiment and verify_dir's re-run each sample every step once.
    steps = 2 * 3 * base["sampling"]["n_traj"] * base["sampling"]["horizon"]
    assert a.stats["counts"]["cmdp.env_steps"] == steps == calls["envs.transition"]
    assert 0 < a.stats["counts"]["cmdp.useful_steps"] <= steps
    if base["task"] != "gridworld":
        assert calls["envs.reward_cost"] == 2 * steps
        assert calls["policy.act"] == steps


@pytest.mark.parametrize(
    "raw",
    [
        _small(workloads.GRID, 5, 3),
        _small(workloads.POINT_PPOL, 2, 3),
        dict(workloads.TESTBED, iterations=500, seeds=[0], cost_limit=0.4,
             schedule={"variant": "invqua-exact"}),
    ],
    ids=["grid", "point-ppol", "testbed"],
)
def test_traced_run_writes_identical_csv(tmp_path, raw):
    plain = measure.run_seed_run(raw, tmp_path / "plain")
    traced = _traced(raw, tmp_path / "traced")
    assert plain.failure is None and traced.failure is None
    assert plain.csv_sha256 == traced.csv_sha256
    spans = traced.stats["spans"]
    assert spans["harness.run_experiment"]["calls"] == 1
    assert spans["solver.loop"]["calls"] == 2  # run and re-run


def test_raising_seed_run_is_a_failure(tmp_path):
    raw = dict(_small(workloads.GRID, 2, 1), task_params={"no_such_field": 1})
    sr = measure.run_seed_run(raw, tmp_path)
    assert sr.failure.startswith("run_experiment raised ConfigError:")


def _record(k: int = 6) -> RunRecord:
    return RunRecord(
        thetas=np.zeros((k + 1, 2)),
        lambdas=np.zeros((k + 1, 1)),
        etas=np.full(k, 0.1),
        returns=np.ones(k),
        costs=np.ones((k, 1)),
        meta={},
    )


def test_nan_record_is_flagged_with_its_iteration():
    rec = _record()
    assert gate.first_nonfinite_iteration(rec) is None
    rec.returns[3] = np.nan
    rec.thetas[4, 1] = np.inf
    assert gate.first_nonfinite_iteration(rec) == (3, ["returns"])
    failure, _ = gate.check_run(rec, {}, True, "gridworld", 1.0)
    assert failure == "non-finite returns from iteration 3"

    rec = _record()
    rec.thetas[-1, 0] = np.nan  # only the terminal row
    assert gate.first_nonfinite_iteration(rec) == (6, ["thetas"])


def test_nan_in_summary_is_flagged():
    summary = json.loads(json.dumps({"aggregate": {"return_mean": math.nan, "cost_mean": 0.0}}))
    failure, _ = gate.check_run(_record(), summary, True, "gridworld", 1.0)
    assert failure == "non-finite summary.json values at /aggregate/return_mean"


def test_testbed_gate_checks_certificate_and_kkt():
    rec = _record()
    rec.lambdas[-1, 0] = gate.testbed_lambda_star(0.5)
    assert gate.check_run(rec, {}, True, "testbed", 0.5)[0] is None
    assert gate.check_run(rec, {}, False, "testbed", 0.5)[0] == "certificate failed"
    rec.lambdas[-1, 0] += 2e-3
    failure, err = gate.check_run(rec, {}, True, "testbed", 0.5)
    assert failure.startswith("|lambda_K - lambda*|") and err > 1e-3


@pytest.mark.parametrize("seed, first_bad", [(0, 19), (2, 16)])
def test_point_circle_divergence_fails_the_seed_run(tmp_path, seed, first_bad):
    # The sampled return overflows one iteration before theta turns NaN.
    # verify_dir reproduces the NaN CSV; the gate still fails the seed-run.
    sr = measure.run_seed_run(_small(workloads.POINT_CIRCLE, 40, seed), tmp_path)
    assert sr.failure == f"non-finite returns from iteration {first_bad}"


def test_benchmark_json_names_are_produced(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    (tmp_path / "work").mkdir()
    e2e, report = measure.end_to_end("testbed-certify", 0, 0, tmp_path / "work")
    assert not report["failures"]
    for m in bench["end_to_end"]:
        assert e2e[m["name"]] > 0
    layer, report = measure.traced("testbed-certify", 0, 0, tmp_path / "work")
    assert not report["failures"]
    assert {m["name"] for m in bench["per_layer"]} <= set(layer)


def test_incomplete_checkout_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-reinforce",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
