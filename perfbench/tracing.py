"""Layer spans recorded from outside the program.

The tracer replaces, for the duration of a harness call, the module-level
names and class methods that the loops look up at call time, and the Cmdp
callbacks of the environments the harness builds.  Each replacement times
its call and charges the time to a span name; a span's self time is its
duration minus the time of the spans it called.  Nothing under ``src/``
changes, and the wrappers are removed again after every call.

Hot spans are aggregated in memory per seed-run (calls and self seconds)
rather than logged one by one; the top-level harness spans are kept as
records (span id, seed-run id, name, start, end).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter

# (owner, attribute, span).  An owner is a module, or module:Class for methods.
TARGETS = (
    ("apdual.harness", "_run_single", "harness.run_single"),
    ("apdual.harness", "record_to_csv", "harness.record_to_csv"),
    ("apdual.harness", "apd_run", "solver.loop"),
    ("apdual.harness", "papd_run", "solver.loop"),
    ("apdual.harness", "verify_bounds", "solver.verify_bounds"),
    ("apdual.solver", "_lstsq_values", "solver.value_fit"),
    ("apdual.solver", "collect_batch", "cmdp.collect_batch"),
    ("apdual.solver", "discounted_value", "cmdp.discounted_value"),
    ("apdual.lagrangian", "discounted_value", "cmdp.discounted_value"),
    ("apdual.solver", "reinforce_grad_from_batch", "lagrangian.reinforce_grad"),
    ("apdual.solver", "advantage_batch", "lagrangian.advantage_batch"),
    ("apdual.solver", "ppol_surrogate_grad", "lagrangian.ppol_grad"),
    ("apdual.policy", "policy_act", "policy.act"),
    ("apdual.lagrangian", "policy_log_prob", "policy.log_prob"),
    ("apdual.lagrangian", "policy_grad_log_prob", "policy.grad_log_prob"),
    ("apdual.cmdp", "softmax_table", "policy.softmax_table"),
    ("apdual.lagrangian", "softmax_table", "policy.softmax_table"),
    ("apdual.envs", "run_reward_cost", "envs.reward_cost"),
    ("apdual.envs", "circle_reward_cost", "envs.reward_cost"),
    ("apdual.solver", "pid_dual_step", "duals.pid_step"),
    ("apdual.solver", "project_nonneg", "duals.project"),
    ("apdual.duals", "project_nonneg", "duals.project"),
    ("apdual.schedules:LrSchedule", "rate", "schedules.rate"),
    ("apdual.quadprog:QuadProgram", "grad_lagrangian", "quadprog.grad_lagrangian"),
    ("apdual.quadprog:QuadProgram", "j_r", "quadprog.objectives"),
    ("apdual.quadprog:QuadProgram", "j_c", "quadprog.objectives"),
    ("apdual.solver", "dual_values_batch", "quadprog.dual_values_batch"),
    ("apdual.solver", "quad_kkt_solve", "quadprog.kkt_solve"),
)
# Environment factories whose Cmdp callbacks are wrapped: (attribute, has goal).
ENV_FACTORIES = (("make_gridworld", True), ("make_point_env", False))


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self._stack = [0.0]  # child seconds of each open span; [0] is a root
        self._cells: dict[str, list] = {}  # span -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self._patched: list[tuple] = []
        self._seed_run = None
        self._next_id = 0

    def _cell(self, name: str) -> list:
        return self._cells.setdefault(name, [0, 0.0])

    def wrap(self, name: str, fn):
        cell = self._cell(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                cell[0] += 1
                cell[1] += dt - child

        return traced

    def _traced_env(self, make, has_goal: bool):
        counts = self.counts

        @functools.wraps(make)
        def build(*args, **kwargs):
            cmdp = make(*args, **kwargs)
            step = self.wrap("envs.transition", cmdp.transition)
            if has_goal:
                goal = (kwargs.get("spec") or args[0]).goal_cell

                def transition(state, action, rng):
                    counts["cmdp.env_steps"] += 1
                    counts["cmdp.useful_steps"] += state != goal
                    return step(state, action, rng)

            else:

                def transition(state, action, rng):
                    counts["cmdp.env_steps"] += 1
                    counts["cmdp.useful_steps"] += 1
                    return step(state, action, rng)

            return dataclasses.replace(
                cmdp,
                transition=transition,
                reward=self.wrap("envs.signals", cmdp.reward),
                costs=self.wrap("envs.signals", cmdp.costs),
            )

        return build

    def _install(self) -> None:
        targets = [(o, a, functools.partial(self.wrap, s)) for o, a, s in TARGETS]
        targets += [
            ("apdual.harness", a, functools.partial(self._traced_env, has_goal=g))
            for a, g in ENV_FACTORIES
        ]
        try:
            for owner_path, attr, make_wrapper in targets:
                owner = _owner(owner_path)
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.add(f"{owner_path}.{attr}")
                    continue
                self._patched.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original))
        except BaseException:
            self._uninstall()
            raise

    def _uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, name: str):
        """Install the wrappers and open the top-level span `name`."""
        self._install()
        cell = self._cell(name)
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            child = self._stack.pop()
            cell[0] += 1
            cell[1] += end - start - child
            self._uninstall()
            self._next_id += 1
            self.spans.append({
                "id": self._next_id, "seed_run": self._seed_run, "name": name,
                "start": start, "end": end,
            })

    def begin_seed_run(self, seed_run) -> None:
        self._seed_run = seed_run
        for cell in self._cells.values():
            cell[0], cell[1] = 0, 0.0
        self.counts.clear()

    def seed_run_stats(self) -> dict:
        """Per-span {calls, self_s} and the counters of the current seed-run."""
        stats = {name: {"calls": c, "self_s": s} for name, (c, s) in self._cells.items()}
        return {"spans": stats, "counts": dict(self.counts)}

    def top_level_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["seed_run"] == self._seed_run)


def warn_missing(tracer: Tracer) -> None:
    if tracer.missing:
        names = ", ".join(sorted(tracer.missing))
        print(f"perfbench: trace targets not found, reported as 0: {names}", file=sys.stderr)
