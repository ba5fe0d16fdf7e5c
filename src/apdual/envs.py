"""Desk-scale constrained environments.

Point-mass Run and Circle tasks on double-integrator dynamics

    v' = v + a * action_scale * dt + noise,      p' = p + v' * dt

with the tasks' reward/cost formulas, and a slippery hazard gridworld whose
tabular structure admits exact dynamic-programming evaluation (the oracle
used by the Monte-Carlo tests and by value baselines).

Gridworld conventions: cell index = y * width + x; actions 0..3 move
(y+1), (x+1), (y-1), (x-1); a move off the grid stays in place.  With
probability slip_prob the commanded direction is replaced by a uniformly
random other direction.  Entering a hazard cell incurs hazard_cost; the
goal is absorbing (reward granted on entry, zero reward/cost afterwards).
Each environment is a fixed start state and one VectorStep; the gridworld's
step reads a next-cell table, and a slippery one draws two uniforms per
step, the slip test and the direction.  A slip-free grid draws nothing, so
its Cmdp tabulates the step once, as (cell, action) next cells, rewards and
costs (see make_gridworld).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .cmdp import Cmdp, VectorStep


@dataclass(frozen=True)
class PointEnvConfig:
    """Limits and dynamics constants shared by the Run and Circle tasks.

    Defaults put the unconstrained optimum outside the safe region: driving
    straight at the Run goal exceeds v_lim, and riding the Circle radius
    exceeds x_lim.
    """

    goal: tuple[float, float] = (10.0, 0.0)
    y_lim: float = 1.0
    v_lim: float = 1.0
    circle_radius: float = 2.0
    x_lim: float = 1.5
    dt: float = 0.1
    action_scale: float = 1.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        for name in ("y_lim", "v_lim", "circle_radius", "x_lim", "action_scale"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.dt <= 1.0:
            raise ValueError("dt must lie in (0, 1]")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")
        object.__setattr__(self, "goal", tuple(self.goal))  # task_params give a list


def _norm(x: np.ndarray) -> np.ndarray:
    # sqrt(x0 * x0 + x1 * x1) from separate elementwise products and one
    # add: vecdot may fuse them into a multiply-add, depending on numpy's
    # SIMD dispatch, and np.linalg.norm takes another order.
    sq = x * x
    return np.sqrt(sq[..., 0] + sq[..., 1])


def run_reward_cost(p_prev, p, v, cfg: PointEnvConfig):
    """Run task: progress toward the goal, cost for leaving the band or
    speeding.

        r = ||p_prev - g|| - ||p - g||
        c = 1(|p_y| > y_lim) + 1(||v|| > v_lim)

    Positions and velocities are (..., 2) arrays; rewards and costs have
    the leading shape (a scalar for single 2-vectors).
    """
    g = np.asarray(cfg.goal, dtype=float)
    p_prev = np.asarray(p_prev, dtype=float)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    reward = _norm(p_prev - g) - _norm(p - g)
    cost = (np.abs(p[..., 1]) > cfg.y_lim).astype(float) + (
        _norm(v) > cfg.v_lim
    ).astype(float)
    return reward, cost


def circle_reward_cost(p, v, cfg: PointEnvConfig):
    """Circle task: angular momentum rewarded near the target radius, cost
    for leaving the |p_x| band.

        r = (-p_y v_x + p_x v_y) / (1 + | ||p|| - o |)
        c = 1(|p_x| > x_lim)

    Shapes as in run_reward_cost.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    numer = -p[..., 1] * v[..., 0] + p[..., 0] * v[..., 1]
    denom = 1.0 + np.abs(_norm(p) - cfg.circle_radius)
    return numer / denom, (np.abs(p[..., 0]) > cfg.x_lim).astype(float)


def make_point_env(task: str, cfg: PointEnvConfig, gamma: float = 0.99) -> Cmdp:
    """Cmdp over states (p, v) in R^4 with actions in R^2 and one cost.

    The Run task starts at the origin at rest; the Circle task starts on the
    circle at (o, 0) at rest.  The ``stepper`` keeps a batch's p and v in
    contiguous (n, 2) arrays, scales its noise once and per step adds
    a * action_scale * dt, then the noise, to v and v * dt to p; ``fn`` is
    one step of it.  ``signals`` covers a whole (n, H) batch in one call.
    """
    if task not in ("run", "circle"):
        raise ValueError(f"unknown point task {task!r}")
    scale_dt, dt = cfg.action_scale * cfg.dt, cfg.dt
    noise = cfg.noise_std
    noise_dim = 2 if noise > 0.0 else 0

    def stepper(states, normals):
        p, v = states[0, ..., :2].copy(), states[0, ..., 2:].copy()
        kicks = list(noise * normals) if noise > 0.0 else None
        rows, tmp = list(states[1:]), np.empty_like(v)
        # array operands: numpy takes a Python float a few hundred ns slower
        by_scale_dt, by_dt = np.full_like(v, scale_dt), np.full_like(v, dt)

        def step(t, actions):
            np.add(v, np.multiply(actions, by_scale_dt, tmp), v)
            if kicks is not None:
                np.add(v, kicks[t], v)
            np.add(p, np.multiply(v, by_dt, tmp), p)
            np.concatenate((p, v), axis=-1, out=rows[t])
        return step

    def move(states, actions, normals):
        out = np.array([states, states], dtype=float)
        stepper(out, np.asarray(normals)[None])(0, actions)
        return out[1]

    if task == "run":
        start = np.zeros(4)
        bound = 2.0  # both indicators can fire

        def signals(s, a, s2):
            return run_reward_cost(s[..., :2], s2[..., :2], s2[..., 2:], cfg)

    else:
        start = np.array([cfg.circle_radius, 0.0, 0.0, 0.0])
        bound = 1.0

        def signals(s, a, s2):
            return circle_reward_cost(s2[..., :2], s2[..., 2:], cfg)

    return Cmdp(
        gamma=gamma,
        cost_bound=bound,
        initial_state=start,
        vector_step=VectorStep(noise_dim, move, signals, stepper),
    )


N_ACTIONS = 4
# displacement per action index: (dy, dx) for north, east, south, west
_MOVES = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _finite(*values) -> bool:
    """Whether every value is a finite float (an int too large for a float
    is not)."""
    try:
        return all(math.isfinite(v) for v in values)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GridworldSpec:
    width: int
    height: int
    goal_cell: int
    hazard_cells: tuple[int, ...] = ()
    step_reward: float = -1.0
    goal_reward: float = 50.0
    hazard_cost: float = 4.0
    slip_prob: float = 0.0
    start_cell: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.hazard_cells, (tuple, list)):
            raise ValueError("hazard_cells must be a list of cells")
        cells = (self.goal_cell, self.start_cell, *self.hazard_cells)
        if not all(isinstance(v, Integral) for v in (self.width, self.height, *cells)):
            raise ValueError("width, height and cells must be integers")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if any(not 0 <= c < self.n_cells for c in cells):
            raise ValueError("cell index outside the grid")
        if self.goal_cell in self.hazard_cells:
            raise ValueError("goal cell cannot be a hazard")
        if not 0.0 <= self.slip_prob < 1.0:
            raise ValueError("slip_prob must lie in [0, 1)")
        if not (_finite(self.hazard_cost) and self.hazard_cost >= 0.0):
            raise ValueError(
                f"hazard_cost must be finite and >= 0, got {self.hazard_cost!r}"
            )
        # Entering the goal pays step_reward + goal_reward, which must not
        # overflow either.
        rewards = (self.step_reward, self.goal_reward)
        if not (_finite(*rewards) and _finite(float(rewards[0]) + float(rewards[1]))):
            raise ValueError(
                f"step_reward {self.step_reward!r}, goal_reward "
                f"{self.goal_reward!r} and their sum must be finite"
            )
        object.__setattr__(self, "hazard_cells", tuple(sorted(set(self.hazard_cells))))

    @property
    def n_cells(self) -> int:
        return self.width * self.height


def grid_move_table(spec: GridworldSpec) -> np.ndarray:
    """(n_cells, 4) destination per cell and effective direction (no slip)."""
    table = np.empty((spec.n_cells, N_ACTIONS), dtype=np.int64)
    for cell in range(spec.n_cells):
        y, x = divmod(cell, spec.width)
        for a, (dy, dx) in enumerate(_MOVES):
            ny, nx = y + dy, x + dx
            if 0 <= ny < spec.height and 0 <= nx < spec.width:
                table[cell, a] = ny * spec.width + nx
            else:
                table[cell, a] = cell
    return table


def make_gridworld(spec: GridworldSpec, gamma: float = 0.99) -> Cmdp:
    """Tabular Cmdp realizing the slip/hazard/absorbing-goal semantics.

    The step function of the VectorStep looks the n next cells up in an
    (S * A) next-cell table built here once, whose goal rows lead back to
    the goal.  Without slip a step draws nothing.  With slip_prob > 0 every
    step, from the goal too, draws two uniforms (u, v): the move slips when
    u < slip_prob, and then turns by 1 + floor(3 v) quarter turns, a
    uniformly random other direction.  The reward and cost of a step depend
    only on its cells s and s2, elementwise: a step from the goal has zero
    reward and cost, any other step the reward and cost of entering s2,
    which per-cell tables built here once hold.  So one ``signals`` call
    serves a whole (n, H) batch with two gathers.  Without slip every step
    is a fixed function of (s, a), so ``Cmdp`` tabulates it once and a
    tabular batch reads its steps from that table instead of calling
    ``fn`` and ``signals``.
    """
    moves = grid_move_table(spec)
    goal = spec.goal_cell
    hazard = np.zeros(spec.n_cells, dtype=bool)
    hazard[list(spec.hazard_cells)] = True
    slip = spec.slip_prob
    noise_dim = 2 if slip > 0.0 else 0
    is_goal = np.arange(spec.n_cells) == goal
    entry_reward = spec.step_reward + np.where(is_goal, spec.goal_reward, 0.0)
    entry_cost = np.where(hazard, spec.hazard_cost, 0.0)

    def signals(s, a, s2):
        live = np.asarray(s) != goal
        reward = np.where(live, entry_reward[s2], 0.0)
        return reward, np.where(live, entry_cost[s2], 0.0)

    # Row s * A + a is the step from cell s in direction a.
    cells = np.repeat(np.arange(spec.n_cells), N_ACTIONS)
    next_cell = np.where(cells == goal, goal, moves.reshape(-1))

    def step(states, actions, uniforms):
        if slip > 0.0:
            turn = 1 + np.floor(3.0 * uniforms[:, 1]).astype(np.int64)
            actions = np.where(
                uniforms[:, 0] < slip, (actions + turn) % N_ACTIONS, actions
            )
        return next_cell[states * N_ACTIONS + actions]

    bound = spec.hazard_cost if spec.hazard_cost > 0.0 else 1.0
    return Cmdp(
        gamma=gamma,
        cost_bound=bound,
        initial_state=spec.start_cell,
        vector_step=VectorStep(noise_dim, step, signals),
        n_states=spec.n_cells,
        n_actions=N_ACTIONS,
    )


@functools.lru_cache(maxsize=16)
def gridworld_kernel(spec: GridworldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact model (P, R, C): P is (S, A, S), R and C are expected per (s, a).

    Mirrors make_gridworld exactly, including slip mixing and the absorbing
    goal; this is the dynamic-programming side of the dual-route checks.
    Built once per (frozen, hashable) spec; the arrays are read-only because
    every caller shares them.
    """
    s_n = spec.n_cells
    moves = grid_move_table(spec)
    hazard = np.zeros(s_n, dtype=bool)
    hazard[list(spec.hazard_cells)] = True

    p = np.zeros((s_n, N_ACTIONS, s_n))
    r = np.zeros((s_n, N_ACTIONS))
    c = np.zeros((s_n, N_ACTIONS))
    for s in range(s_n):
        if s == spec.goal_cell:
            p[s, :, s] = 1.0
            continue
        for a in range(N_ACTIONS):
            for eff in range(N_ACTIONS):
                if eff == a:
                    w = 1.0 - spec.slip_prob
                else:
                    w = spec.slip_prob / 3.0
                if w == 0.0:
                    continue
                s2 = moves[s, eff]
                p[s, a, s2] += w
                r[s, a] += w * (
                    spec.step_reward
                    + (spec.goal_reward if s2 == spec.goal_cell else 0.0)
                )
                c[s, a] += w * (spec.hazard_cost if hazard[s2] else 0.0)
    for arr in (p, r, c):
        arr.setflags(write=False)
    return p, r, c


def policy_state_values(
    spec: GridworldSpec, probs: np.ndarray, gamma: float, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-state truncated values (v_R, v_C) under the given policy table by
    backward induction; used as exact baselines for advantage estimation."""
    p, r, c = gridworld_kernel(spec)
    p_pi = np.einsum("sa,sat->st", probs, p)
    r_pi = (probs * r).sum(axis=1)
    c_pi = (probs * c).sum(axis=1)
    v_r = np.zeros(spec.n_cells)
    v_c = np.zeros(spec.n_cells)
    for _ in range(horizon):
        v_r = r_pi + gamma * (p_pi @ v_r)
        v_c = c_pi + gamma * (p_pi @ v_c)
    return v_r, v_c


def exact_policy_eval(
    spec: GridworldSpec, probs: np.ndarray, gamma: float, horizon: int
) -> tuple[float, float]:
    """Horizon-truncated (J_R, J_C) of an action-probability table from the
    start cell, matching the Monte-Carlo estimand exactly."""
    v_r, v_c = policy_state_values(spec, probs, gamma, horizon)
    return float(v_r[spec.start_cell]), float(v_c[spec.start_cell])


def default_hazard_gridworld() -> GridworldSpec:
    """The shipped 5x3 hazard corridor.

    Start mid-left, goal mid-right; the direct row passes three hazard
    cells, the detour rows are safe but two steps longer.  At gamma = 0.99
    the direct path's discounted cost is about 11.8, so with cost limit 10
    the unconstrained optimum is infeasible and the constrained optimum
    mixes the two routes.
    """
    width, height = 5, 3
    row = 1
    return GridworldSpec(
        width=width,
        height=height,
        start_cell=row * width + 0,
        goal_cell=row * width + 4,
        hazard_cells=tuple(row * width + x for x in (1, 2, 3)),
        step_reward=-1.0,
        goal_reward=50.0,
        hazard_cost=4.0,
        slip_prob=0.0,
    )
