"""Discounted CMDP primitives and Monte-Carlo objective estimators.

A constrained MDP is a plain immutable value: a fixed start state, a
lockstep step function with its batch signals (``VectorStep``), the
discount factor and a bound B on the per-step cost norm.  The two
objectives are the expected discounted return and the expected discounted
cost vector,

    J_R = E[sum_t gamma^t r_t],      J_C = E[sum_t gamma^t c_t],

estimated here by sample means over independently seeded trajectories.
Infinite-horizon sums are truncated at a finite horizon H; the truncation
changes a bounded-reward objective by at most gamma^H * R_max / (1 - gamma).

Seeding scheme: a trajectory stream is ``np.random.default_rng(seed)`` where
seed may be an int or a tuple of ints.  Batch estimators give trajectory i
of a batch rooted at ``seed`` the derived seed ``(*seed, i)`` (counter
scheme), so any single trajectory of any batch can be regenerated in
isolation and batches may be sampled concurrently.

Rollout batches.  ``collect_batch`` advances the n trajectories of a batch
together through the CMDP's ``VectorStep``.  A Gaussian batch steps in a
loop that does only the work that depends on the previous step: the
actions (the mean W s_t plus action normals scaled once per batch,
``gaussian_actor``) and the dynamics ``fn``, written into preallocated
time-major (H+1, n, F) and (H, n, A) buffers, so every step reads and
writes contiguous rows.  A tabular batch first builds a successor table:
the action that each step's uniform picks in every one of the S cells,
and, from one ``fn`` call over all S * H * n (cell, step, trajectory)
rows, the next cell, with the offset of the next step folded in.  A step
of all n trajectories is then one gather ``cur = link[cur]``, and the
visited entries give the states and actions.  The table costs
O(n * H * S * A) per batch, where a step-by-step loop pays O(n * A) per
step plus a fixed numpy overhead per call, so it wins on small grids and
loses on large ones.  Measured for a whole ``collect_batch`` at n = 16,
H = 24 on a 2-core x86-64 machine (best of 12 alternating runs, table
against a lockstep loop over the same uniforms): 111 against 216 us per
batch on the shipped 15-cell grid, 171 against 215 at S = 36, 223 against
218 at S = 49, 272 against 206 at S = 64 and 1.9 ms against 0.25 ms at
S = 400, so the crossover lies near 45 cells.  The table is built a span
of steps at a time, at most ``_TABLE`` entries per pass.  The rewards and
costs of the whole batch then come from one ``signals`` call over the
stacked arrays.  The result is one ``RolloutBatch`` of arrays

    states  (n, H+1[, F])   actions (n, H[, A])
    rewards (n, H)          costs   (n, H, m)

Each trajectory of a batch draws a fixed number of variates per step,
where k = ``VectorStep.noise_dim``:

  * Gaussian policy: ``rng.standard_normal((H, A + k))``; row t holds the A
    action normals of step t followed by its k transition normals;
  * tabular policy: H * (1 + k) uniforms; row t holds the action uniform
    u_t of step t followed by its k transition uniforms.  The action of
    step t is the number of entries of the state's action cdf that are
    <= u_t, ``searchsorted(cdf[s], u_t, side="right")`` bit for bit.

A batch's variates are one (n, H, w) array, w = A + k or 1 + k
(``variate_shape``).  ``sample_trajectory`` is the per-step reference:
one-row ``fn`` calls that draw the same variates in the same order
(``policy_act``, then ``random((1, k))`` or ``standard_normal((1, k))``),
then one ``signals`` call.  So row i of a batch equals
``sample_trajectory(cmdp, params, H, derived_seed(seed, i))`` bit for bit.
The scaled normals, the step loop and the signals of a batch run with
numpy's overflow and invalid-value warnings silenced; a diverging batch is
caught by the finiteness checks after them.

Counter-based streams.  A seeded ``default_rng`` is only a PCG64 state:
the ``SeedSequence`` hash of the seed words, PCG64 seeding and the 128-bit
LCG (O'Neill 2014, PCG), used here in the counter-based manner of Salmon
et al. 2011.  This module computes the seeded states of many streams at
once in numpy.  ``counter_uniforms`` jumps each LCG ahead to every draw
and applies the XSL-RR output and ``(x >> 11) * 2**-53``, so the uniforms
of whole batches, equal to ``default_rng(derived_seed(root, i)).random(H
* (1 + k))`` bit for bit, need no Generator at all.  Normals come from
numpy's ziggurat, which takes a data-dependent number of raw draws, so
``counter_streams`` sets one Generator to each stream's seeded state in
turn; it draws a Gaussian batch's normals (``stream_normals``) and the PPO
shuffle permutations, equal to those of ``default_rng`` bit for bit.
``papd_run`` hashes the seeds of ``UNIFORM_BLOCK`` iterations at a time
and hands each batch its (n, H, w) variates (``collect_batch(...,
variates=)``); a batch without them computes its own the same way.
Derived seeds must have at most four entries in [0, 2**32), one
SeedSequence word each (``counter_form_fits``).  On first use a
self-check compares a few uniform streams, one Gaussian stream and one
shuffle permutation with ``default_rng`` (numpy keeps the streams fixed,
NEP 19) and raises RuntimeError naming the numpy version if they differ.

Samplers raise ``NonFiniteError`` on a non-finite reward, cost or vector
state, and ``ValueError`` on a step cost whose norm exceeds B or on a
tabular successor cell outside [0, S).  ``Cmdp`` checks its start state
when it is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .policy import (
    PolicyParams,
    TabularSoftmax,
    action_cdf,
    gaussian_actor,
    policy_act,
    softmax_table,
)

Seed = int | Sequence[int]


class NonFiniteError(ValueError):
    """A sampled signal, a state, an estimate or an iterate is NaN or
    infinite."""


def require_finite(name: str, values) -> None:
    """Raise NonFiniteError naming the first non-finite entry of values.

    The screen is one ``np.isfinite`` pass, which does no arithmetic on the
    entries, so it neither warns nor raises under any ``np.errstate`` or
    warnings filter, however large the finite entries are."""
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if finite.all():
        return
    where = tuple(int(i) for i in np.argwhere(~finite)[0])
    raise NonFiniteError(f"non-finite {name} at index {where}")


@dataclass(frozen=True)
class VectorStep:
    """The lockstep dynamics and the batch signals of a CMDP.

    ``fn(states, actions, noise)`` advances n stacked states by one step.
    It takes (n[, F]) states, (n[, A]) actions and (n, noise_dim)
    transition draws, standard normals for vector states and uniforms in
    [0, 1) for tabular ones, and returns the (n[, F]) next states.  The n
    rows are any flat batch, not only the trajectories of one step: a
    tabular batch calls ``fn`` once on every (cell, step, trajectory) row
    of its successor table, and ``sample_trajectory`` on one row.  So row j
    of the output may depend only on row j of the inputs.

    ``signals(s, a, s2)`` takes the (n, H[, F]) states, (n, H[, A]) actions
    and (n, H[, F]) next states of a whole batch and returns the (n, H)
    rewards and the (n, H) or (n, H, m) costs of all its steps, entry
    (i, t) a function of step (i, t) alone.
    """

    noise_dim: int
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    signals: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]


@dataclass(frozen=True, eq=False)  # identity: initial_state may be an array
class Cmdp:
    """Immutable CMDP specification: a start state and a ``VectorStep``.

    States are integer cells for tabular models (``n_states``/``n_actions``
    set), whose ``initial_state`` must be an int in [0, n_states), and real
    vectors otherwise, whose (F,) ``initial_state`` must be finite.
    ``signals`` may return (n, H) costs when ``n_costs == 1``; samplers
    normalize to an m axis.
    """

    gamma: float
    n_costs: int
    cost_bound: float
    initial_state: Any
    vector_step: VectorStep
    n_states: int | None = None
    n_actions: int | None = None
    # Never read here: perfbench/tracing.py passes these three to
    # dataclasses.replace.  They go once its tracer wraps vector_step.
    transition: Any = None
    reward: Any = None
    costs: Any = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.n_costs < 1:
            raise ValueError("n_costs must be >= 1")
        if self.cost_bound <= 0.0:
            raise ValueError("cost_bound B must be positive")
        cell = self.initial_state
        if not self.is_tabular:
            require_finite("initial state", cell)
        elif isinstance(cell, bool) or not isinstance(cell, (int, np.integer)):
            raise ValueError(f"initial cell {cell!r} must be an integer cell index")
        elif not 0 <= cell < self.n_states:
            raise ValueError(f"initial cell {cell} outside [0, {self.n_states})")

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


@dataclass(frozen=True)
class RolloutBatch:
    """n fixed-horizon rollouts as arrays: states (n, H+1[, F]), whose last
    column is the state reached by the last transition, actions
    (n, H[, A]), rewards (n, H) and costs (n, H, m).

    Each array is stored C-contiguous (a copy only for another layout), so
    the values computed from a batch do not depend on the memory layout it
    was built from: a stacked matmul such as ``batch_values``' may sum a
    strided operand in another order."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        for name in ("states", "actions", "rewards", "costs"):
            arr = getattr(self, name)
            if not arr.flags.c_contiguous:
                object.__setattr__(self, name, np.ascontiguousarray(arr))
        shape = self.rewards.shape
        if not (
            len(shape) == 2
            and self.states.shape[:2] == (shape[0], shape[1] + 1)
            and self.actions.shape[:2] == shape
            and self.costs.shape[:2] == shape
            and self.costs.ndim == 3
        ):
            raise ValueError("inconsistent batch field shapes")

    def __len__(self) -> int:
        return self.rewards.shape[0]


def derived_seed(seed: Seed, index: int) -> tuple:
    """Seed for trajectory `index` of a batch rooted at `seed`."""
    if isinstance(seed, (tuple, list)):
        return (*seed, index)
    return (seed, index)


def sample_trajectory(
    cmdp: Cmdp, params: PolicyParams, horizon: int, seed: Seed
) -> RolloutBatch:
    """Roll out exactly `horizon` steps of pi_theta in the CMDP, one step at
    a time through one-row calls of ``vector_step.fn``, as a one-row batch.

    Deterministic in (cmdp, params, horizon, seed).  Raises NonFiniteError on
    a non-finite reward, cost or state, and ValueError if a sampled step
    cost exceeds the declared bound B.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    step = cmdp.vector_step
    tabular = isinstance(params.kind, TabularSoftmax)
    draw = rng.random if tabular else rng.standard_normal
    state = np.asarray(cmdp.initial_state)[None]
    states, actions = [state], []
    for _ in range(horizon):
        action = np.asarray(policy_act(params, state[0], rng))[None]
        state = step.fn(state, action, draw((1, step.noise_dim)))
        states.append(state)
        actions.append(action)
    return _finish(cmdp, np.stack(states, axis=1), np.stack(actions, axis=1), tabular)


def _finish(
    cmdp: Cmdp, states: np.ndarray, actions: np.ndarray, tabular: bool
) -> RolloutBatch:
    """The batch of the sampled states and actions, with the rewards and
    costs of one ``signals`` call, once every sampled number is checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        rewards, costs = cmdp.vector_step.signals(
            states[:, :-1], actions, states[:, 1:]
        )
    cost_arr = _checked_signals(cmdp, rewards, costs)
    if not tabular:
        require_finite("states", states)
    return RolloutBatch(states, actions, rewards, cost_arr)


def _checked_signals(cmdp: Cmdp, rewards: np.ndarray, costs) -> np.ndarray:
    """Costs with a trailing m axis, once rewards and costs are finite and
    every step cost norm is within B.

    The largest step cost norm is the root of the largest sum of squares
    over the m axis, the value ``np.linalg.norm(costs, axis=-1).max()``
    gives (sqrt is monotone), from fewer numpy calls.  A NaN or infinite
    cost makes it NaN or infinite, so the one bound comparison also screens
    the costs; only then are they searched for the entry to name."""
    cost_arr = np.asarray(costs, dtype=float)
    if cost_arr.ndim == rewards.ndim:
        cost_arr = cost_arr[..., None]
    if cost_arr.shape[-1] != cmdp.n_costs:
        raise ValueError("cost dimension does not match cmdp.n_costs")
    require_finite("rewards", rewards)
    # Assumption: per-step cost norm <= B.
    worst = math.sqrt((cost_arr * cost_arr).sum(axis=-1).max())
    if not worst <= cmdp.cost_bound * (1.0 + 1e-12):
        require_finite("costs", cost_arr)
        raise ValueError(
            f"sampled step cost norm {worst:g} exceeds declared bound "
            f"{cmdp.cost_bound:g}"
        )
    return cost_arr


def discounted_value(
    rewards: np.ndarray, costs: np.ndarray, gamma: float
) -> tuple[float, np.ndarray]:
    """(sum_t gamma^t r_t, sum_t gamma^t c_t) of one rollout's (T,) rewards
    and (T, m) costs."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    w = gamma ** np.arange(len(rewards))
    return float(w @ rewards), w @ costs


def batch_values(batch: RolloutBatch, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Discounted returns (n,) and costs (n, m) of the rollouts of a batch.

    Row i equals ``discounted_value(batch.rewards[i], batch.costs[i],
    gamma)`` bit for bit: stacked (1, T) @ (T, k) products sum each row as
    the per-row ``w @ x`` does, where ``R @ w`` and ``einsum`` do not.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    w = (gamma ** np.arange(batch.rewards.shape[1]))[None, None, :]
    return (w @ batch.rewards[:, :, None])[:, 0, 0], (w @ batch.costs)[:, 0, :]


def variate_shape(cmdp: Cmdp, params: PolicyParams, sampling: SamplingConfig):
    """(n, H, w): a batch's variates, w = 1 + k uniforms per step for a
    tabular policy and A + k normals for a Gaussian one."""
    kind = params.kind
    per_step = 1 if isinstance(kind, TabularSoftmax) else kind.action_dim
    return sampling.n_traj, sampling.horizon, per_step + cmdp.vector_step.noise_dim


def collect_batch(
    cmdp: Cmdp,
    params: PolicyParams,
    sampling: SamplingConfig,
    seed: Seed,
    variates: np.ndarray | None = None,
    probs: np.ndarray | None = None,
) -> RolloutBatch:
    """n_traj independent rollouts with the documented derived seeds, all
    advanced together (see the module docstring for the array shapes and
    the stream layout).

    ``variates`` is the batch's ``variate_shape`` array drawn from the
    streams of root ``seed``: the slice of ``counter_uniforms`` for a
    tabular batch, the ``stream_normals`` of ``counter_streams`` for a
    Gaussian one.  For a tabular batch only, ``probs`` is the (S, A)
    ``softmax_table(params)``.  A batch called without them computes them
    itself, through the same functions."""
    shape = variate_shape(cmdp, params, sampling)
    n, horizon, width = shape
    step = cmdp.vector_step
    tabular = isinstance(params.kind, TabularSoftmax)
    if variates is None:
        if tabular:
            variates = counter_uniforms([seed], n, horizon * width).reshape(shape)
        else:
            variates = stream_normals(counter_streams([seed], range(n)), shape)
    elif np.shape(variates) != shape:
        raise ValueError(f"variates need shape (n, H, w) = {shape}")
    if probs is not None and (
        not tabular or np.shape(probs) != (params.kind.n_states, params.kind.n_actions)
    ):
        raise ValueError("probs need a tabular batch and shape (S, A)")
    if tabular:
        cdf = action_cdf(softmax_table(params) if probs is None else probs)
        states, actions = _tabular_paths(step, cdf, cmdp.initial_state, variates)
        return _finish(cmdp, states, actions, tabular)
    a_dim = params.kind.action_dim
    # draws[t] holds, per trajectory, the a_dim action normals of step t
    # followed by its noise_dim transition normals.
    draws = np.ascontiguousarray(np.swapaxes(variates, 0, 1))
    noise = draws[:, :, a_dim:]
    states = np.empty((horizon + 1, n, *np.shape(cmdp.initial_state)))
    states[0] = cmdp.initial_state
    actions = np.empty((horizon, n, a_dim))
    state_rows, action_rows = list(states), list(actions)  # views made once
    # A diverging batch overflows here; the checks in _finish raise.
    with np.errstate(over="ignore", invalid="ignore"):
        act = gaussian_actor(params, draws[:, :, :a_dim])
        rows = zip(state_rows, action_rows, noise)
        for t, (state, action, step_noise) in enumerate(rows):
            act(state, t, action)
            state_rows[t + 1][...] = step.fn(state, action, step_noise)
    return _finish(
        cmdp,
        np.ascontiguousarray(np.swapaxes(states, 0, 1)),
        np.ascontiguousarray(np.swapaxes(actions, 0, 1)),
        tabular,
    )


_TABLE = 1 << 14  # successor-table entries (cells x steps x trajectories) per pass


def _tabular_paths(
    step: VectorStep, cdf: np.ndarray, start: int, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, H+1) states and (n, H) actions of a tabular batch from its
    start cell, its (S, A) action cdf and its (n, H, 1 + k) uniforms.

    A pass over a span of T steps tabulates, for every (cell c, step t,
    trajectory i), the action that u[i, t] picks in cell c and, from one
    ``step.fn`` call over all S * T * n rows, the successor cell.  Entry
    (c, t, i) has the flat index (c * T + t) * n + i and link holds the
    index of (successor, t + 1, i), so a step of all n trajectories is one
    gather ``cur = link[cur]``; the visited entries give the actions and
    the next cells.  Raises ValueError naming the trajectory, the step and
    the cell of the first successor cell outside [0, S)."""
    n_states = cdf.shape[0]
    n, horizon, width = uniforms.shape
    traj = np.arange(n)
    states = np.empty((n, horizon + 1), dtype=np.int64)
    actions = np.empty((n, horizon), dtype=np.int64)
    states[:, 0] = start
    # The last cdf entry is 1 and u < 1, so only the first A - 1 can count.
    bounds = cdf[:, :-1].T[:, :, None]
    span = max(1, _TABLE // (n_states * n))
    for t0 in range(0, horizon, span):
        draws = uniforms[:, t0 : t0 + span].transpose(1, 0, 2)  # (T, n, 1 + k)
        steps = draws.shape[0]
        block = steps * n
        rows = n_states * block
        # act[c, t * n + i] counts the cdf entries of cell c that are <= u[i, t].
        act = (bounds <= draws[:, :, 0].reshape(1, 1, block)).sum(axis=0)
        if width > 1:
            noise = np.tile(draws[:, :, 1:].reshape(block, width - 1), (n_states, 1))
        else:
            noise = np.empty((rows, 0))
        succ = np.asarray(
            step.fn(np.repeat(np.arange(n_states), block), act.reshape(rows), noise)
        ).reshape(rows)
        if succ.min() < 0 or succ.max() >= n_states:
            table = succ.reshape(n_states, steps, n)
            bad = (table < 0) | (table >= n_states)
            t, i, c = np.argwhere(bad.transpose(1, 2, 0))[0]  # earliest step
            raise ValueError(
                f"trajectory {i}, step {t0 + t}: cell {c} steps to cell "
                f"{table[c, t, i]}, outside [0, {n_states})"
            )
        # Entries of the last step link past their block; no gather reads them.
        link = succ.reshape(n_states, block) * block + np.arange(n, block + n)
        link = link.reshape(rows)
        cur = states[:, t0] * block + traj
        visited = [cur]
        for _ in range(1, steps):
            cur = link[cur]
            visited.append(cur)
        path = np.concatenate(visited).reshape(steps, n)
        states[:, t0 + 1 : t0 + 1 + steps] = succ[path].T
        actions[:, t0 : t0 + steps] = act.reshape(rows)[path].T
    return states, actions


# Counter-based streams (see the module docstring).  Constants of numpy's
# SeedSequence (pool of 4 uint32 words) and of its PCG64 (128-bit LCG
# multiplier), as in numpy/random/bit_generator.pyx and pcg64.h.
_POOL_WORDS = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 4096  # streams x steps per jump-ahead pass, so temporaries stay small
SHUFFLE_STREAM = 999979  # stream index of an iteration's PPO shuffles
_counter_checked = False


def counter_form_fits(seed: Seed) -> bool:
    """Whether every ``derived_seed(seed, i)`` hashes as at most four
    one-word SeedSequence entries, the case the counter form covers."""
    root = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return len(root) < _POOL_WORDS and all(
        isinstance(e, (int, np.integer)) and 0 <= e <= _M32 for e in root
    )


def _require_counter_form(roots) -> None:
    if not all(counter_form_fits(root) for root in roots):
        raise ValueError("a root does not fit the counter form")


def _self_check() -> None:
    """On first use, compare a few counter-based streams with their
    ``default_rng`` Generators; raise RuntimeError if numpy's differ."""
    global _counter_checked
    if _counter_checked:
        return
    rng = np.random.default_rng
    # Uniforms: edge words and a four-word stream.
    probe = [(0, 0), (_M32, 0, 999983), (12345, _M32)]
    want = [[rng(derived_seed(root, i)).random(5) for i in (0, 2)] for root in probe]
    same = np.array_equal(_counter_block(probe, 3, 5)[:, ::2], want)
    # One Gaussian stream's normals and one shuffle stream's permutation.
    root = (_M32, 7)
    streams = _streams([root], [2, SHUFFLE_STREAM], 1)
    normals = next(streams).standard_normal(9)
    order = next(streams).permutation(50)
    shuffle = rng(derived_seed(root, SHUFFLE_STREAM))
    same = (
        same
        and np.array_equal(normals, rng(derived_seed(root, 2)).standard_normal(9))
        and np.array_equal(order, shuffle.permutation(50))
    )
    if not same:
        raise RuntimeError(
            "counter-based streams differ from default_rng streams under "
            f"numpy {np.__version__}"
        )
    _counter_checked = True


def counter_uniforms(roots: Sequence[Seed], n: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of every stream of whole batches, shape
    (len(roots), n, count): entry [r, i] equals
    ``np.random.default_rng(derived_seed(roots[r], i)).random(count)`` bit
    for bit.

    Every root must satisfy ``counter_form_fits``.  The first use of the
    counter form runs the self-check (see the module docstring)."""
    _require_counter_form(roots)
    _self_check()
    return _counter_block(roots, n, count)


def counter_streams(roots: Iterable[Seed], indices: Sequence[int], block: int = 1):
    """Yield one Generator len(indices) times per root, each time in the
    seeded state of ``np.random.default_rng(derived_seed(root, i))`` for the
    next (root, i), roots outer; draw from it before advancing.

    ``roots`` may be lazy: their states are computed ``block`` roots at a
    time.  Every root must satisfy ``counter_form_fits`` and every index lie
    in [0, 2**32).  The first use of the counter form runs the self-check
    (see the module docstring)."""
    if not all(0 <= i <= _M32 for i in indices):
        raise ValueError("stream indices must lie in [0, 2**32)")
    _self_check()
    yield from _streams(roots, indices, block)


def _streams(roots, indices, block: int):
    """counter_streams without the checks on the indices and numpy."""
    # Made here, not at import: numpy.random loads on first use.
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    roots = iter(roots)
    while chunk := list(itertools.islice(roots, block)):
        _require_counter_form(chunk)
        for state, inc in _seeded_states(chunk, indices):
            bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield gen


def stream_normals(streams, shape: tuple) -> np.ndarray:
    """An array of standard normals whose row i, of shape ``shape[1:]``, is
    drawn in C order by the next Generator of ``streams``."""
    out = np.empty(shape)
    for row, gen in zip(out, streams):  # out first: no stream left unused
        gen.standard_normal(out=row)
    return out


def _pcg_seeding(roots, indices) -> list[np.ndarray]:
    """PCG64's seeding input for every ``derived_seed(root, i)``, roots
    outer: the (N,) uint64 halves init_hi, init_lo, inc_hi and inc_lo of
    initstate and of the increment inc."""
    u64 = np.uint64
    roots = [tuple(r) if isinstance(r, (tuple, list)) else (r,) for r in roots]
    # Word j of root r is roots[r][j], then the index, then zeros.
    words = np.zeros((_POOL_WORDS, len(roots), len(indices)), dtype=np.uint32)
    padded = [root + (0,) * (_POOL_WORDS - 1 - len(root)) for root in roots]
    words[:-1] = np.array(padded, dtype=np.uint32).T[:, :, None]
    sizes = [len(root) for root in roots]
    words[sizes, range(len(roots))] = np.asarray(indices, dtype=np.uint32)
    # Zero words past the entropy hash as SeedSequence's padding does.
    w = _seed_state(words.reshape(_POOL_WORDS, -1)).astype(u64)
    # PCG64 seeding: initstate = (v0 << 64) | v1, initseq = (v2 << 64) | v3
    # with v = generate_state(4, uint64), v_j = w_2j | w_(2j+1) << 32;
    # inc = (initseq << 1) | 1.
    init_hi, init_lo, seq_hi, seq_lo = w[0::2] | (w[1::2] << u64(32))
    inc_hi = (seq_hi << u64(1)) | (seq_lo >> u64(63))
    inc_lo = (seq_lo << u64(1)) | u64(1)
    return [init_hi, init_lo, inc_hi, inc_lo]


def _lcg_states(seeding, powers: np.ndarray, totals: np.ndarray):
    """(hi, lo) halves, shape (T, N), of M^p initstate + c inc mod 2^128
    for the (4, T, 1) limbs of T pairs (M^p, c).

    Seeding steps state 0 -> inc, adds initstate and steps again; draw t
    (1-based) steps once more and outputs, so with the LCG s -> M s + inc,
    s_t = M^(t+1) initstate + (M^0 + ... + M^(t+1)) inc, and s_0 is the
    seeded state."""
    init_hi, init_lo, inc_hi, inc_lo = seeding
    hi, lo = _mul128(init_hi, init_lo, powers)
    inc_part_hi, inc_part_lo = _mul128(inc_hi, inc_lo, totals)
    lo += inc_part_lo
    hi += inc_part_hi + (lo < inc_part_lo)
    return hi, lo


def _seeded_states(roots, indices) -> list[tuple[int, int]]:
    """The seeded PCG64 (state, inc) of every ``derived_seed(root, i)``,
    roots outer, as 128-bit ints."""
    seeding = _pcg_seeding(roots, indices)
    hi, lo = _lcg_states(seeding, _quarters([_PCG_MULT]), _quarters([1 + _PCG_MULT]))
    return [
        (s_hi << 64 | s_lo, i_hi << 64 | i_lo)
        for s_hi, s_lo, i_hi, i_lo in zip(
            hi[0].tolist(), lo[0].tolist(), seeding[2].tolist(), seeding[3].tolist()
        )
    ]


def _counter_block(roots, n: int, count: int) -> np.ndarray:
    """counter_uniforms without the checks."""
    u64 = np.uint64
    seeding = _pcg_seeding(roots, range(n))
    mask = (1 << 128) - 1
    power, total = _PCG_MULT, 1 + _PCG_MULT
    a_t, c_t = [], []
    for _ in range(count):
        power = power * _PCG_MULT & mask
        total = (total + power) & mask
        a_t.append(power)
        c_t.append(total)
    a_t, c_t = _quarters(a_t), _quarters(c_t)
    width = seeding[0].size
    out = np.empty((count, width))
    rows = max(1, _CHUNK // width)
    for t0 in range(0, count, rows):
        part = slice(t0, t0 + rows)
        hi, lo = _lcg_states(seeding, a_t[:, part], c_t[:, part])
        # XSL-RR: rotate hi ^ lo right by the top six bits of the state.
        x, rot = hi ^ lo, hi >> u64(58)
        x = (x >> rot) | (x << ((u64(64) - rot) & u64(63)))
        out[part] = (x >> u64(11)) * (1.0 / 9007199254740992.0)
    return out.T.reshape(len(roots), n, count)


def _seed_state(words: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(8, uint32) for each column of
    the (4, N) uint32 entropy words, as an (8, N) uint32 array.

    The hash constants of numpy's loop do not depend on the data, so the
    hashes it computes one pool word after another, with consecutive
    constants, run here as one operation over the rows: the four entropy
    words, the three mixes each source word makes into the other three,
    and the eight output words."""
    u32 = np.uint32

    def hashes(values, init: int, mult: int, start: int, count: int):
        # Call j xors the constant c_j and multiplies by c_(j+1) = c_j * mult.
        consts = [init]
        for _ in range(start + count):
            consts.append(consts[-1] * mult & _M32)
        c = np.array(consts[start:], dtype=u32)[:, None]
        values = (values ^ c[:-1]) * c[1:]
        return values ^ (values >> u32(16))

    pool = hashes(words, _INIT_A, _MULT_A, 0, _POOL_WORDS)
    start = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [d for d in range(_POOL_WORDS) if d != src]
        mixed = u32(_MIX_L) * pool[dst] - u32(_MIX_R) * hashes(
            pool[src], _INIT_A, _MULT_A, start, len(dst)
        )
        pool[dst] = mixed ^ (mixed >> u32(16))
        start += len(dst)
    return hashes(pool[np.arange(8) % _POOL_WORDS], _INIT_B, _MULT_B, 0, 8)


def _quarters(values: list[int]) -> np.ndarray:
    """128-bit ints as a (4, T, 1) uint64 array of 32-bit limbs, most
    significant first."""
    limbs = [[v >> s & _M32 for v in values] for s in (96, 64, 32, 0)]
    return np.array(limbs, dtype=np.uint64)[:, :, None]


def _mul128(hi: np.ndarray, lo: np.ndarray, const: np.ndarray):
    """(hi, lo) * const mod 2^128 as (hi, lo) 64-bit halves, for (N,) state
    halves and (4, T, 1) constant limbs; the result is (T, N).  The high
    half of lo * const_lo is summed from 32-bit partial products."""
    u64, m32 = np.uint64, np.uint64(_M32)
    c3, c2, c1, c0 = const
    lo_l, lo_h = lo & m32, lo >> u64(32)
    ll, lh, hl = lo_l * c0, lo_l * c1, lo_h * c0
    mid = (ll >> u64(32)) + (lh & m32) + (hl & m32)
    out_hi = lo_h * c1 + (lh >> u64(32)) + (hl >> u64(32)) + (mid >> u64(32))
    const_lo = (c1 << u64(32)) | c0
    out_hi += hi * const_lo
    out_hi += lo * ((c3 << u64(32)) | c2)
    return out_hi, lo * const_lo
