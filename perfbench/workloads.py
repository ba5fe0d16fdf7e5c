"""Benchmark workloads as seed-determined streams of harness configs.

A workload is an endless sequence of *seed-runs*.  A seed-run is one
experiment config holding a single seed, so that a failure can be pinned on
one seed.  The benchmark seed picks the experiment seeds of the sampled
workloads and the cost limits of the testbed; the program only ever sees the
generated configs.  The config shapes mirror the shipped files under
``configs/`` but are copied here, so that editing a shipped config does not
change what the benchmark measures.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# Run lengths.  grid-reinforce is a shortened criterion-8 study: the share
# of sampled steps taken before the absorbing goal falls as the policy
# learns (0.875 at iteration 0, about 0.3 by iteration 1000), so the run
# length fixes the layer mix that a batched sampler would see; 100
# iterations keep it near 0.83.  Every seed-run stays well under a second
# so that one run holds dozens of them.
GRID_ITERATIONS = 100
POINT_PPOL_ITERATIONS = 5
TESTBED_ITERATIONS = 10_000
TESTBED_LIMITS = (0.2, 0.9)

_PID = {"variant": "pid", "kp": 0.05, "ki": 0.0005, "kd": 0.1}

GRID = {
    "schema_version": 1,
    "task": "gridworld",
    "algorithm": "papd-reinforce",
    "iterations": GRID_ITERATIONS,
    "cost_limit": 10.0,
    "gamma": 0.99,
    "schedule": {"variant": "invlin-practical", "h1": 0.003, "h2": 3},
    "dual": _PID,
    "sampling": {"n_traj": 16, "horizon": 24},
    "task_params": {},
    "workers": 1,
    "window": 0.2,
}

POINT_PPOL = {
    "schema_version": 1,
    "task": "point-run",
    "algorithm": "papd-ppol",
    "iterations": POINT_PPOL_ITERATIONS,
    "cost_limit": 2.0,
    "gamma": 0.99,
    "schedule": {"variant": "invlin-practical", "h1": 0.001, "h2": 3},
    "dual": _PID,
    "sampling": {"n_traj": 8, "horizon": 64},
    "ppol": {"clip_ratio": 0.2, "gae_lambda": 0.95, "minibatch_size": 256, "epochs": 4},
    "task_params": {"noise_std": 0.05},
    "workers": 1,
    "window": 0.2,
}

# configs/point_circle_reinforce.json as shipped (it goes non-finite).
POINT_CIRCLE = {
    "schema_version": 1,
    "task": "point-circle",
    "algorithm": "papd-reinforce",
    "iterations": 300,
    "cost_limit": 5.0,
    "gamma": 0.99,
    "schedule": {"variant": "invqua-practical", "h1": 0.015, "h2": 6},
    "dual": _PID,
    "sampling": {"n_traj": 8, "horizon": 64},
    "task_params": {"noise_std": 0.05},
    "workers": 1,
    "window": 0.2,
}
POINT_CIRCLE_SEEDS = (0, 1, 2)

TESTBED = {
    "schema_version": 1,
    "task": "testbed",
    "algorithm": "apd",
    "iterations": TESTBED_ITERATIONS,
    "gamma": 0.99,
    "dual": {"variant": "ascent", "zeta": 0.05},
    "task_params": {},
    "workers": 1,
    "window": 0.2,
}
TESTBED_SCHEDULES = ("invlin-exact", "invqua-exact")


@dataclass(frozen=True)
class Workload:
    name: str
    min_seed_runs: int
    stream: Callable[[int], Iterator[dict]]  # benchmark seed -> configs


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _seeded(name: str, base: dict) -> Callable[[int], Iterator[dict]]:
    def stream(seed: int) -> Iterator[dict]:
        rng = _rng(name, seed)
        while True:
            yield dict(base, seeds=[rng.randrange(2**31)])

    return stream


def _testbed(seed: int) -> Iterator[dict]:
    rng = _rng("testbed-certify", seed)
    while True:
        limit = rng.uniform(*TESTBED_LIMITS)
        for variant in TESTBED_SCHEDULES:
            yield dict(
                TESTBED, seeds=[0], cost_limit=limit, schedule={"variant": variant}
            )


def _point_circle(seed: int) -> Iterator[dict]:
    # As shipped: the benchmark seed does not enter.
    for s in itertools.cycle(POINT_CIRCLE_SEEDS):
        yield dict(POINT_CIRCLE, seeds=[s])


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-reinforce", 1, _seeded("grid-reinforce", GRID)),
        Workload("point-ppol", 1, _seeded("point-ppol", POINT_PPOL)),
        Workload("testbed-certify", len(TESTBED_SCHEDULES), _testbed),
        Workload("point-circle", len(POINT_CIRCLE_SEEDS), _point_circle),
    )
}


def input_size(raw: dict) -> str:
    """The input size stated next to iters_per_s."""
    if raw["task"] == "testbed":
        size = "program dimension 2"
    else:
        size = f"n_traj x horizon = {raw['sampling']['n_traj']} x {raw['sampling']['horizon']}"
        if "ppol" in raw:
            p = raw["ppol"]
            size += f", {p['epochs']} epochs, minibatch {p['minibatch_size']}"
    return f"{size}, {raw['iterations']} iterations per seed-run"
