"""The names that the benchmark's tracer (perfbench/tracing.py) wraps.

The tracer replaces module attributes and class methods by name and skips,
as "missing", any name that no longer resolves, so a refactor of ``src``
could silently drop a span from ``--trace`` runs.  These tests read the
tracer's tables and check every name against the package; they change
nothing under perfbench/.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from apdual import harness
from apdual.envs import PointEnvConfig, default_hazard_gridworld

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
