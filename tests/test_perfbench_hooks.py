"""The package API that the benchmark (perfbench/) calls.

The tracer (perfbench/tracing.py) replaces module attributes and class
methods by name and skips, as "missing", any name that no longer resolves,
so a refactor of ``src`` could silently drop a span from ``--trace`` runs.
These tests read the tracer's tables and check every name against the
package.  The set-up probe (perfbench/setup_probe.py) builds each config's
schedule, dual and gridworld spec from the parsed config's JSON sections,
and the benchmark's self-checks expect a bad task_params to pass
parse_config and fail run_experiment; the tests below hold the harness to
both.  They change nothing under perfbench/.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from apdual import harness
from apdual.envs import GridworldSpec, PointEnvConfig, default_hazard_gridworld

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()

# How to build the Cmdp of each environment factory the tracer wraps.
BUILD = {
    "make_gridworld": lambda make: make(default_hazard_gridworld()),
    "make_point_env": lambda make: make("run", PointEnvConfig()),
}


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in tracing.TARGETS]
)
def test_every_target_resolves(owner, attr):
    # the tracer's own lookup: the attribute of the module or class itself
    assert attr in vars(tracing._owner(owner)), f"{owner}.{attr}"


@pytest.mark.parametrize("factory", [name for name, _ in tracing.ENV_FACTORIES])
def test_env_factory_cmdp_takes_the_traced_callbacks(factory):
    cmdp = BUILD[factory](getattr(harness, factory))
    traced = dataclasses.replace(cmdp, transition=len, reward=len, costs=len)
    assert (traced.transition, traced.reward, traced.costs) == (len, len, len)
    assert traced.vector_step is cmdp.vector_step


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_setup_probe_builders_take_the_parsed_sections(path):
    cfg = harness.load_config(path)
    assert isinstance(cfg.iterations, int)
    harness.build_schedule(cfg.schedule)
    harness.build_dual(cfg.dual)
    if cfg.task == "gridworld":
        assert isinstance(harness.build_gridworld_spec(cfg.task_params), GridworldSpec)


def test_bad_task_params_fail_the_run_not_the_parse(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ROOT_ENV, str(tmp_path))
    raw = json.loads((ROOT / "configs" / "gridworld_papd.json").read_text())
    raw.update(task_params={"no_such_field": 1}, iterations=2, seeds=[0])
    cfg = harness.parse_config(raw)
    with pytest.raises(harness.ConfigError, match="^task_params: .*no_such_field"):
        harness.run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []
