"""Set-up probe, run by run.py as a fresh process per sample.

Imports numpy and apdual, parses a workload config and builds its
environment or program the way the harness does before its first timed
call, then exits.  run.py times the whole process from the outside.

    python3 perfbench/setup_probe.py <config.json>
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from apdual.envs import PointEnvConfig, make_gridworld, make_point_env  # noqa: E402
from apdual.harness import (  # noqa: E402
    build_dual,
    build_gridworld_spec,
    build_schedule,
    parse_config,
)
from apdual.policy import LinearGaussian, TabularSoftmax, init_params  # noqa: E402
from apdual.quadprog import quad_make  # noqa: E402


def build(cfg) -> None:
    build_schedule(cfg.schedule)
    build_dual(cfg.dual)
    if cfg.task == "testbed":
        eye = np.eye(2)
        quad_make(eye, np.ones(2), eye, np.zeros(2), cfg.cost_limit).smoothness()
    elif cfg.task == "gridworld":
        grid = build_gridworld_spec(cfg.task_params)
        make_gridworld(grid, gamma=cfg.gamma)
        init_params(TabularSoftmax(grid.n_cells, 4))
    else:
        task = "run" if cfg.task == "point-run" else "circle"
        make_point_env(task, PointEnvConfig(**cfg.task_params), gamma=cfg.gamma)
        init_params(LinearGaussian(feature_dim=4, action_dim=2))


if __name__ == "__main__":
    build(parse_config(json.loads(Path(sys.argv[1]).read_text())))
