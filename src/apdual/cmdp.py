"""Discounted CMDP primitives and Monte-Carlo objective estimators.

A constrained MDP is a plain immutable value: callables for the initial
distribution, transition kernel, reward, and per-step cost vector, together
with the discount factor and a bound B on the per-step cost norm.  The two
objectives are the expected discounted return and the expected discounted
cost vector,

    J_R = E[sum_t gamma^t r_t],      J_C = E[sum_t gamma^t c_t],

estimated here by sample means over independently seeded trajectories.
Infinite-horizon sums are truncated at a finite horizon H; the truncation
changes a bounded-reward objective by at most gamma^H * R_max / (1 - gamma),
and ``default_horizon`` picks H so the relative tail gamma^H is below a
target.

Seeding scheme: a trajectory stream is ``np.random.default_rng(seed)`` where
seed may be an int or a tuple of ints.  Batch estimators give trajectory i
of a batch rooted at ``seed`` the derived seed ``(*seed, i)`` (counter
scheme), so any single trajectory of any batch can be regenerated in
isolation and batches may be sampled concurrently.

Lockstep batches.  A CMDP may also carry a ``VectorStep``: one transition,
reward and cost computation for all n trajectories of a batch at once.
``collect_batch`` then advances the n trajectories together over the arrays

    states  (n, H+1[, F])   actions (n, H[, A])
    rewards (n, H)          costs   (n, H, m)

and returns row i as a ``Trajectory`` of views into them.  The point tasks
(vector states, Gaussian policies) and the slip-free gridworld (integer
states, tabular policies) have one; a slippery gridworld and the small test
CMDPs do not, and are sampled one trajectory and one step at a time.

Each trajectory of a lockstep batch keeps its own derived-seed Generator
and, after ``initial_dist``, draws all its randomness up front in the order
in which ``sample_trajectory`` draws it one step at a time:

  * Gaussian policy: an (H, A + k) block of standard normals, where row t
    holds the A action normals of step t followed by the
    k = ``VectorStep.noise_dim`` transition normals of step t;
  * tabular policy: ``rng.random(H)``, one action uniform per step (a
    tabular VectorStep draws no transition noise, k = 0).  The action of
    step t is the number of entries of the state's action cdf that are
    <= u_t, ``searchsorted(cdf[s], u_t, side="right")`` bit for bit.

So row i of a lockstep batch equals ``sample_trajectory(cmdp, params, H,
derived_seed(seed, i))`` bit for bit.  The step loop runs with numpy's
overflow and invalid-value warnings silenced; a diverging batch is caught
by the finiteness checks after the loop.

Samplers raise ``NonFiniteError`` on a non-finite reward, cost or vector
state, and ``ValueError`` on a step cost whose norm exceeds B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .policy import (
    PolicyParams,
    TabularSoftmax,
    action_cdf,
    policy_act_batch,
    softmax_table,
)

Seed = int | Sequence[int]


class NonFiniteError(ValueError):
    """A sampled signal, a state, an estimate or an iterate is NaN or
    infinite."""


def require_finite(name: str, values) -> None:
    """Raise NonFiniteError naming the first non-finite entry of values."""
    arr = np.asarray(values, dtype=float)
    flat = arr.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        screen = flat @ flat  # finite only if every entry is finite
    if math.isfinite(screen):
        return
    bad = ~np.isfinite(arr)
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteError(f"non-finite {name} at index {where}")


@dataclass(frozen=True)
class VectorStep:
    """One lockstep transition of n stacked states.

    ``fn(states, actions, normals)`` takes (n[, F]) states, (n[, A])
    actions and (n, noise_dim) standard normals and returns the (n[, F])
    next states with the (n,) rewards and the (n,) or (n, m) costs of the n
    steps, computed in one pass.  It must agree with the CMDP's per-step
    ``transition``, ``reward`` and ``costs`` callbacks, where ``transition``
    draws ``noise_dim`` standard normals per step from its Generator.
    Tabular CMDPs draw no transition noise (noise_dim 0).
    """

    noise_dim: int
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]


@dataclass(frozen=True)
class Cmdp:
    """Immutable CMDP specification.

    States are integer indices for tabular models (``n_states``/``n_actions``
    set) and real vectors otherwise.  ``costs`` may return a scalar when
    ``n_costs == 1``; samplers normalize to an m-vector.  ``vector_step``,
    when set, lets ``collect_batch`` sample a batch in lockstep.
    """

    gamma: float
    n_costs: int
    cost_bound: float
    initial_dist: Callable[[np.random.Generator], Any]
    transition: Callable[[Any, Any, np.random.Generator], Any]
    reward: Callable[[Any, Any, Any], float]
    costs: Callable[[Any, Any, Any], Any]
    n_states: int | None = None
    n_actions: int | None = None
    vector_step: VectorStep | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.n_costs < 1:
            raise ValueError("n_costs must be >= 1")
        if self.cost_bound <= 0.0:
            raise ValueError("cost_bound B must be positive")

    @property
    def is_tabular(self) -> bool:
        return self.n_states is not None and self.n_actions is not None


@dataclass(frozen=True)
class SamplingConfig:
    """Batch size and truncation horizon for Monte-Carlo estimation."""

    n_traj: int
    horizon: int

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class Trajectory:
    """A fixed-horizon rollout stored as parallel sequences.

    ``states`` has length T+1 (the final entry is the state reached by the
    last transition); ``actions`` has length T; ``rewards`` is (T,) and
    ``costs`` is (T, m).  States and actions are lists from the per-step
    sampler and (T+1[, F]) / (T[, A]) array views from a lockstep batch.
    """

    states: Sequence
    actions: Sequence
    rewards: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        t = len(self.actions)
        if len(self.states) != t + 1 or len(self.rewards) != t or len(self.costs) != t:
            raise ValueError("inconsistent trajectory field lengths")

    def __len__(self) -> int:
        return len(self.actions)


def default_horizon(gamma: float, rel_tail: float = 1e-3) -> int:
    """Smallest H with gamma^H <= rel_tail, i.e. truncation error below
    rel_tail * R_max/(1-gamma) for rewards bounded by R_max."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return max(1, math.ceil(math.log(rel_tail) / math.log(gamma)))


def derived_seed(seed: Seed, index: int) -> tuple:
    """Seed for trajectory `index` of a batch rooted at `seed`."""
    if isinstance(seed, (tuple, list)):
        return (*seed, index)
    return (seed, index)


def sample_trajectory(
    cmdp: Cmdp, params: PolicyParams, horizon: int, seed: Seed
) -> Trajectory:
    """Roll out exactly `horizon` steps of pi_theta in the CMDP, one step at
    a time.

    Deterministic in (cmdp, params, horizon, seed).  Raises NonFiniteError on
    a non-finite reward, cost or vector state, and ValueError if a sampled
    step cost exceeds the declared bound B.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    state = cmdp.initial_dist(rng)

    states = [state]
    actions: list = []
    rewards: list = []
    costs: list = []

    if isinstance(params.kind, TabularSoftmax):
        # Tabular fast path: the per-state action cdf is fixed within a
        # rollout, so build it once.  policy_act consumes the identical
        # single uniform draw per step, keeping the two paths bit-equal.
        cdf = action_cdf(softmax_table(params))
        for _ in range(horizon):
            action = int(np.searchsorted(cdf[state], rng.random(), side="right"))
            nxt = cmdp.transition(state, action, rng)
            actions.append(action)
            rewards.append(cmdp.reward(state, action, nxt))
            costs.append(cmdp.costs(state, action, nxt))
            states.append(nxt)
            state = nxt
    else:
        from .policy import policy_act

        for _ in range(horizon):
            action = policy_act(params, state, rng)
            nxt = cmdp.transition(state, action, rng)
            actions.append(action)
            rewards.append(cmdp.reward(state, action, nxt))
            costs.append(cmdp.costs(state, action, nxt))
            states.append(nxt)
            state = nxt
        require_finite("states", states)

    reward_arr = np.asarray(rewards, dtype=float)
    cost_arr = _checked_signals(cmdp, reward_arr, costs)
    return Trajectory(states, actions, reward_arr, cost_arr)


def _checked_signals(cmdp: Cmdp, rewards: np.ndarray, costs) -> np.ndarray:
    """Costs with a trailing m axis, once rewards and costs are finite and
    every step cost norm is within B."""
    cost_arr = np.asarray(costs, dtype=float)
    if cost_arr.ndim == rewards.ndim:
        cost_arr = cost_arr[..., None]
    if cost_arr.shape[-1] != cmdp.n_costs:
        raise ValueError("cost dimension does not match cmdp.n_costs")
    require_finite("rewards", rewards)
    # Assumption: per-step cost norm <= B.  Vectorized over the rollout.  A
    # NaN or infinite cost has a NaN or infinite norm, so this one
    # comparison also screens the costs for finiteness.
    worst = float(np.linalg.norm(cost_arr, axis=-1).max())
    if not worst <= cmdp.cost_bound * (1.0 + 1e-12):
        require_finite("costs", cost_arr)
        raise ValueError(
            f"sampled step cost norm {worst:g} exceeds declared bound "
            f"{cmdp.cost_bound:g}"
        )
    return cost_arr


def discounted_value(traj: Trajectory, gamma: float) -> tuple[float, np.ndarray]:
    """(sum_t gamma^t r_t, sum_t gamma^t c_t) over the trajectory's steps."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    t = len(traj)
    if t == 0:
        return 0.0, np.zeros(traj.costs.shape[1] if traj.costs.ndim == 2 else 0)
    w = gamma ** np.arange(t)
    return float(w @ traj.rewards), w @ traj.costs


def batch_values(trajs, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Discounted returns (n,) and costs (n, m) of equal-length trajectories.

    Row i equals ``discounted_value(trajs[i], gamma)`` bit for bit: stacked
    (1, T) @ (T, k) products sum each row as the per-trajectory ``w @ x``
    does, where ``R @ w`` and ``einsum`` do not.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if len({len(traj) for traj in trajs}) != 1:
        raise ValueError("a batch needs one or more trajectories of one length")
    rewards = np.asarray([traj.rewards for traj in trajs], dtype=float)
    costs = np.asarray([traj.costs for traj in trajs], dtype=float)
    w = (gamma ** np.arange(rewards.shape[1]))[None, None, :]
    return (w @ rewards[:, :, None])[:, 0, 0], (w @ costs)[:, 0, :]


def collect_batch(
    cmdp: Cmdp, params: PolicyParams, sampling: SamplingConfig, seed: Seed
) -> list[Trajectory]:
    """n_traj independent rollouts with the documented derived seeds;
    sampled in lockstep when the CMDP has a VectorStep."""
    if cmdp.vector_step is not None:
        return _collect_lockstep(cmdp, params, sampling, seed)
    return [
        sample_trajectory(cmdp, params, sampling.horizon, derived_seed(seed, i))
        for i in range(sampling.n_traj)
    ]


def _collect_lockstep(
    cmdp: Cmdp, params: PolicyParams, sampling: SamplingConfig, seed: Seed
) -> list[Trajectory]:
    """The batch of collect_batch, all trajectories advanced together (see
    the module docstring for the array shapes and the stream layout)."""
    n, horizon = sampling.n_traj, sampling.horizon
    step = cmdp.vector_step
    rngs = [np.random.default_rng(derived_seed(seed, i)) for i in range(n)]
    initial = [cmdp.initial_dist(rng) for rng in rngs]
    # draws[t] holds, per trajectory, the a_dim action draws of step t
    # followed by its noise_dim transition normals.
    if isinstance(params.kind, TabularSoftmax):
        if step.noise_dim:
            raise ValueError("a tabular VectorStep draws no transition noise")
        state = np.array(initial, dtype=np.int64)
        cdf = action_cdf(softmax_table(params))
        a_dim = 1
        draws = np.stack([rng.random(horizon) for rng in rngs], axis=1)[:, :, None]

        def act(cells, u):
            return (cdf[cells] <= u).sum(axis=1)

    else:
        state = np.array(initial, dtype=float)
        a_dim = params.kind.action_dim
        draws = np.stack(
            [rng.standard_normal((horizon, a_dim + step.noise_dim)) for rng in rngs],
            axis=1,
        )

        def act(x, z):
            return policy_act_batch(params, x, z)

    states, actions, rewards, costs = [state], [], [], []
    # A diverging batch overflows here; the checks after the loop raise.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            action = act(state, draws[t, :, :a_dim])
            state, reward, cost = step.fn(state, action, draws[t, :, a_dim:])
            states.append(state)
            actions.append(action)
            rewards.append(reward)
            costs.append(cost)
    states = np.stack(states, axis=1)
    actions = np.stack(actions, axis=1)
    reward_arr = np.stack(rewards, axis=1)
    cost_arr = _checked_signals(cmdp, reward_arr, np.stack(costs, axis=1))
    require_finite("states", states)
    return [
        Trajectory(states[i], actions[i], reward_arr[i], cost_arr[i])
        for i in range(n)
    ]


def stack_batch(trajs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Equal-length trajectories as (states, actions, rewards, costs) arrays
    of shapes (n, T+1[, F]), (n, T[, A]), (n, T) and (n, T, m)."""
    if len({len(traj) for traj in trajs}) != 1:
        raise ValueError("a batch needs one or more trajectories of one length")
    return (
        np.asarray([traj.states for traj in trajs]),
        np.asarray([traj.actions for traj in trajs]),
        np.asarray([traj.rewards for traj in trajs], dtype=float),
        np.asarray([traj.costs for traj in trajs], dtype=float),
    )


def estimate_objectives(
    cmdp: Cmdp, params: PolicyParams, sampling: SamplingConfig, seed: Seed
) -> tuple[float, np.ndarray]:
    """Sample means (J_R_hat, J_C_hat) over a derived-seed batch."""
    returns, cost_vals = batch_values(
        collect_batch(cmdp, params, sampling, seed), cmdp.gamma
    )
    return float(returns.mean()), cost_vals.mean(axis=0)
