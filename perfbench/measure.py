"""Measurement of one workload through the public harness.

A seed-run is one ``run_experiment`` on a generated single-seed config,
followed by the correctness gate and ``verify_dir`` on its output.  Seed-runs
are repeated until ``seconds`` have passed (and at least the workload's
minimum), and every timing is reported as the median over seed-runs with its
quartiles and sample count.

With tracing off this yields the end-to-end metrics.  With tracing on, every
seed-run is run twice, untraced and traced in alternating order: the traced
CSV bytes must equal the untraced ones, the difference in wall time is the
tracing overhead, and the traced pass gives the per-layer numbers.

Speed normalisation.  The host this was written on is a shared 2-core VM
whose speed drifts by up to 2x over tens of seconds, uniformly for all
interpreter-bound code.  So every timed call is bracketed by a short
reference loop of the same kind of work (benchmark code, never the
program's), and the end-to-end times are reported at reference speed:
raw seconds divided by the slowdown, the mean of the two bracketing
reference times over REFERENCE_S.  The raw times and the slowdowns are in
the report too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from apdual.harness import parse_config, run_experiment, verify_dir

import gate
import tracing
from workloads import WORKLOADS, input_size

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
REFERENCE_EPISODES = 36
REFERENCE_S = 0.011  # fixed scale: seconds are reported at the speed at which
# the reference loop takes 11 ms
# Spans that exist on every workload, whether or not it calls them.
SPANS = sorted(
    {s for _, _, s in tracing.TARGETS}
    | {"envs.transition", "envs.signals", "harness.run_experiment", "harness.verify_dir"}
)


@dataclass
class SeedRun:
    label: str
    iterations: int
    failure: str | None = None
    run_s: float = math.nan
    verify_s: float = math.nan
    wall_s: float = math.nan
    final_return: float = math.nan
    cost_excess: float = math.nan
    kkt_err: float | None = None
    run_slowdown: float = math.nan
    verify_slowdown: float = math.nan
    csv_sha256: str = ""
    bytes_written: int = 0
    stats: dict = field(default_factory=dict)
    unattributed_s: float = math.nan


def _label(raw: dict) -> str:
    if raw["task"] == "testbed":
        return f"limit {raw['cost_limit']!r} {raw['schedule']['variant']}"
    return f"seed {raw['seeds'][0]}"


def _boundary_error(what: str, exc: Exception) -> str:
    """Print the traceback of a program call that raised; return the
    one-line failure reason."""
    traceback.print_exc(file=sys.stderr)
    return f"{what} raised {type(exc).__name__}: {exc}"


def reference_seconds() -> float:
    """Time of a fixed mini-rollout, frozen in the benchmark: a softmax
    table and tabular sampling on a 5 x 3 grid with a Python step function,
    discounting, and a Gaussian score per step on a few states.  It is the
    same kind of work as the program's loops, and the program cannot change
    it."""
    rng = np.random.default_rng(0)
    logits = np.linspace(-1.0, 1.0, 60).reshape(15, 4)
    w = np.full((2, 4), 0.1)
    log_std = np.full(2, -0.7)
    hazard = np.zeros(15, dtype=bool)
    hazard[6:9] = True
    moves = np.array([
        [c + 5 if c < 10 else c, c + 1 if c % 5 < 4 else c,
         c - 5 if c >= 5 else c, c - 1 if c % 5 else c]
        for c in range(15)
    ])

    def step(state, action):
        nxt = int(moves[state, action])
        return nxt, -1.0 + (50.0 if nxt == 9 else 0.0), 4.0 if hazard[nxt] else 0.0

    t0 = time.perf_counter()
    for _ in range(REFERENCE_EPISODES):
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        cdf = np.cumsum(z / z.sum(axis=1, keepdims=True), axis=1)
        state, states, rewards, costs = 5, [5], [], []
        for _ in range(24):
            action = min(int(np.searchsorted(cdf[state], rng.random(), side="right")), 3)
            state, r, c = step(state, action)
            states.append(state)
            rewards.append(r)
            costs.append(c)
        np.linalg.norm(np.asarray(costs)[:, None], axis=1).max()
        value = (0.99 ** np.arange(24)) @ np.asarray(rewards)
        grad = np.zeros(8)
        for s in states[:8]:
            x = np.array([s / 15.0, 1.0 - s / 15.0, value * 1e-3, 1.0])
            zz = np.exp(log_std) * rng.standard_normal(2) / np.exp(log_std)
            grad += np.outer(zz, x).ravel() * float(-0.5 * zz @ zz + (w @ x).sum())
        np.bincount(np.asarray(states), minlength=15)
    return time.perf_counter() - t0


class SpeedGauge:
    """Machine slowdown against REFERENCE_S over a timed call, from the
    reference loops run right before and right after it."""

    def __init__(self) -> None:
        self._last = reference_seconds()

    def slowdown(self) -> float:
        before, self._last = self._last, reference_seconds()
        return (before + self._last) / (2.0 * REFERENCE_S)


def run_seed_run(
    raw: dict,
    out_dir: Path,
    tracer: tracing.Tracer | None = None,
    gauge: SpeedGauge | None = None,
) -> SeedRun:
    """Run, gate and verify one seed-run; outputs go to out_dir."""
    cfg = parse_config(dict(raw, output_dir=str(out_dir)))
    sr = SeedRun(_label(raw), cfg.iterations)

    def scope(name):
        return tracer.active(name) if tracer else contextlib.nullcontext()

    start = time.perf_counter()
    try:
        with scope("harness.run_experiment"):
            result = run_experiment(cfg)
    except Exception as exc:
        sr.failure = _boundary_error("run_experiment", exc)
    sr.run_s = time.perf_counter() - start
    if gauge:
        sr.run_slowdown = gauge.slowdown()
    if sr.failure:
        return sr

    summary = json.loads(result.summary_path.read_text())
    sr.failure, sr.kkt_err = gate.check_run(
        result.records[0], summary, result.certificates_passed, cfg.task, cfg.cost_limit
    )
    window = summary["aggregate"]
    sr.final_return = window["return_mean"]
    sr.cost_excess = max(0.0, window["cost_mean"] - cfg.cost_limit)
    sr.csv_sha256 = hashlib.sha256(b"".join(p.read_bytes() for p in result.csv_paths)).hexdigest()
    # summary.json holds wall-clock times, so it is left out of the count.
    sr.bytes_written = sum(
        p.stat().st_size for p in [*result.csv_paths, *result.certificate_paths]
    )

    t0 = time.perf_counter()
    try:
        with scope("harness.verify_dir"):
            verify_dir(out_dir)
    except Exception as exc:
        sr.failure = sr.failure or _boundary_error("verify_dir", exc)
    end = time.perf_counter()
    sr.verify_s = end - t0
    sr.wall_s = end - start
    if gauge:
        sr.verify_slowdown = gauge.slowdown()
    return sr


def _seed_runs(workload, seed: int, seconds: float):
    """(index, config) pairs until `seconds` have passed and the minimum is met."""
    deadline = time.perf_counter() + seconds
    for i, raw in enumerate(workload.stream(seed)):
        if i >= workload.min_seed_runs and time.perf_counter() >= deadline:
            return
        yield i, raw


def _quartiles(values: list[float]) -> dict:
    vals = [v for v in values if math.isfinite(v)]
    if not vals:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def finite_or_none(x):
    """x, or None where JSON could not hold it."""
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def setup_seconds(raw: dict, work: Path, gauge: SpeedGauge) -> tuple[list, list]:
    """(wall times, slowdowns) of fresh processes that import, parse and
    build, up to the first timed call; one unmeasured probe first fills the
    bytecode cache."""
    path = work / "setup_config.json"
    path.write_text(json.dumps(dict(raw, output_dir=str(work / "setup"))))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(path)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    gauge.slowdown()
    times, slowdowns = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        slowdowns.append(gauge.slowdown())
    return times, slowdowns


def machine(thread_vars) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "platform": platform.platform(),
    }


def _log_failure(workload: str, sr: SeedRun) -> None:
    print(f"perfbench: FAILED {workload} {sr.label}: {sr.failure}", file=sys.stderr)


def end_to_end(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """(metrics by name, report) with tracing off."""
    workload = WORKLOADS[name]
    first = next(workload.stream(seed))
    gauge = SpeedGauge()
    setup, setup_slowdowns = setup_seconds(first, work, gauge)
    runs = []
    for i, raw in _seed_runs(workload, seed, seconds):
        sr = run_seed_run(raw, work / f"sr{i}", gauge=gauge)
        shutil.rmtree(work / f"sr{i}", ignore_errors=True)
        if sr.failure:
            _log_failure(name, sr)
        runs.append(sr)

    failed = [sr for sr in runs if sr.failure]
    rates = [0.0 if sr.failure else sr.iterations / sr.run_s for sr in runs]
    verify = [sr.verify_s for sr in runs]
    kkt = [sr.kkt_err for sr in runs if sr.kkt_err is not None]
    stats = {
        "setup_s": dict(
            _quartiles([t / k for t, k in zip(setup, setup_slowdowns)]),
            unit="s", raw=_quartiles(setup),
        ),
        "iters_per_s": dict(
            _quartiles([r * sr.run_slowdown for r, sr in zip(rates, runs)]),
            unit="1/s", input_size=input_size(first), raw=_quartiles(rates),
        ),
        "verify_s": dict(
            _quartiles([t / sr.verify_slowdown for t, sr in zip(verify, runs)]),
            unit="s", raw=_quartiles(verify),
        ),
        "failed_frac": {"value": len(failed) / len(runs), "unit": "frac", "n": len(runs)},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
            "n": 1,
        },
        "final_return": {
            "value": finite_or_none(statistics.fmean(sr.final_return for sr in runs)),
            "unit": "return",
            "n": len(runs),
            "note": "mean over seed-runs of the final-window return in summary.json",
        },
        "final_cost_excess": {
            "value": finite_or_none(max(sr.cost_excess for sr in runs)),
            "unit": "cost",
            "n": len(runs),
            "note": "max over seed-runs of max(0, final-window cost - d)",
        },
        "kkt_lambda_err": {
            "value": max(kkt) if kkt else None,
            "unit": "lambda",
            "n": len(kkt),
            "note": "max |lambda_K - lambda*| against quad_kkt_solve (testbed only)",
        },
    }
    metrics = {
        k: v["median"] if "median" in v else v["value"] for k, v in stats.items()
    }
    slowdowns = setup_slowdowns + [k for sr in runs for k in (sr.run_slowdown, sr.verify_slowdown)]
    report = {
        "end_to_end": stats,
        "slowdown": _quartiles(slowdowns),
        "seed_runs": len(runs),
        "failures": [f"{name} {sr.label}: {sr.failure}" for sr in failed],
    }
    return metrics, report


def traced(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """(metrics by name, report) of the traced run."""
    workload = WORKLOADS[name]
    tracer = tracing.Tracer()
    pairs = []
    for i, raw in _seed_runs(workload, seed, seconds):
        passes = {}
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            out = work / f"sr{i}-{'traced' if on else 'plain'}"
            if on:
                tracer.begin_seed_run(i)
            sr = run_seed_run(raw, out, tracer if on else None)
            if on:
                sr.stats = tracer.seed_run_stats()
                sr.unattributed_s = sr.wall_s - tracer.top_level_seconds()
            shutil.rmtree(out, ignore_errors=True)
            passes[on] = sr
        plain, trace = passes[False], passes[True]
        trace.failure = trace.failure or plain.failure
        if not trace.failure and trace.csv_sha256 != plain.csv_sha256:
            trace.failure = "traced CSV bytes differ from the untraced run"
        if trace.failure:
            _log_failure(name, trace)
        pairs.append((plain, trace))
    tracing.warn_missing(tracer)

    traces = [t for _, t in pairs if t.stats]
    first = traces[0] if traces else SeedRun("none", 0)
    first_spans = first.stats.get("spans", {})
    counts = first.stats.get("counts", {})
    metrics = {}
    for span in SPANS:
        self_s = [t.stats["spans"].get(span, {"self_s": 0.0})["self_s"] for t in traces]
        metrics[f"{span}.s"] = statistics.median(self_s) if self_s else 0.0
        metrics[f"{span}.calls"] = first_spans.get(span, {"calls": 0})["calls"]
    steps = counts.get("cmdp.env_steps", 0)
    metrics["cmdp.env_steps"] = steps
    metrics["cmdp.useful_step_frac"] = counts.get("cmdp.useful_steps", 0) / steps if steps else 0.0
    metrics["harness.bytes_written"] = first.bytes_written
    metrics["unattributed.s"] = _quartiles([t.unattributed_s for t in traces])["median"]
    metrics["trace.overhead_s"] = _quartiles([t.wall_s - p.wall_s for p, t in pairs])["median"]

    layers: dict[str, float] = {}
    for span in SPANS:
        layer = span.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + metrics[f"{span}.s"]
    total = sum(layers.values())
    report = {
        "per_layer_shares": {k: v / total for k, v in layers.items()} if total else {},
        "seed_runs": len(pairs),
        "failures": [f"{name} {t.label}: {t.failure}" for _, t in pairs if t.failure],
        "untraced_wall_s": _quartiles([p.wall_s for p, _ in pairs]),
        "traced_wall_s": _quartiles([t.wall_s for _, t in pairs]),
    }
    trace_file = work.parent / f"trace-{name}-{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "spans": tracer.spans,
        "seed_runs": [{"label": t.label, **t.stats} for t in traces],
    }))
    return metrics, report
