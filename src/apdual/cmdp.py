"""Discounted CMDP primitives and Monte-Carlo objective estimators.

A constrained MDP is a plain immutable value: a fixed start state, a
lockstep step function with its batch signals (``VectorStep``), the
discount factor and a bound B on the per-step cost.  A tabular CMDP whose
step draws no noise is its (S, A) table of next cells, rewards and costs
(Altman 1999, "Constrained Markov Decision Processes"), which ``Cmdp``
computes from the step once.  A CMDP has one cost signal, the one
constraint of the paper's adaptive step sizes.  The two objectives are the
expected discounted return and the expected discounted cost,

    J_R = E[sum_t gamma^t r_t],      J_C = E[sum_t gamma^t c_t],

estimated here by sample means over independently seeded trajectories.
Infinite-horizon sums are truncated at a finite horizon H; the truncation
changes a bounded-reward objective by at most gamma^H * R_max / (1 - gamma).

Sampling addresses.  Every variate comes from numpy's counter-based
``Philox`` bit generator (Salmon et al. 2011, "Parallel random numbers: as
easy as 1, 2, 3"), addressed by a key and a counter with no hash: the key
is the batch's seed, (seed, k) for iteration k of a run, and the counter
picks a stream under it (``philox``).  So any single trajectory of any
batch can be regenerated in isolation, and batches may be sampled
concurrently.

Rollout batches.  ``collect_batch`` advances the n trajectories of a batch
together through the CMDP's ``VectorStep``.  A Gaussian batch steps in a
loop that does only the work that depends on the previous step: the
actions (the mean W s_t plus action normals scaled once per batch,
``gaussian_actor``) and a step of the ``VectorStep.stepper``, written into
time-major (H+1, n, F) and (H, n, A) buffers, so every step reads and
writes contiguous rows; the point tasks' stepper carries p and v in (n, 2)
arrays, 0.54 against 0.74 ms per n = 8, H = 64 batch for one ``fn`` call a
step (2-core x86-64).  A tabular batch first builds a successor table: the
action that each step's uniform picks in every one of the S cells, and the
next cell of all S * H * n (cell, step, trajectory) rows, with the offset
of the next step folded in.  The next cells come from one gather from the
CMDP's step table when it has one, else from one ``fn`` call.  A step of
all n trajectories is then one gather ``cur = link[cur]``, and the visited
entries give the states and actions (and the table rows of the steps).
The table costs O(n * H * S * A) per batch, where a step-by-step loop pays
O(n * A) per step plus a fixed numpy overhead per call, so it wins on
small grids and loses on large ones.  Measured for a whole
``collect_batch`` at n = 16, H = 24 on a 2-core x86-64 machine (best of 12
alternating runs, table against a lockstep loop over the same uniforms):
111 against 216 us per batch on the shipped 15-cell grid, 171 against 215
at S = 36, 223 against 218 at S = 49, 272 against 206 at S = 64 and 1.9 ms
against 0.25 ms at S = 400, so the crossover lies near 45 cells.  The
table is built a span of steps at a time, at most ``_TABLE`` entries per
pass.  The rewards and costs of the whole batch then come from two
``take`` gathers of the step table's visited rows, or without one from one
``signals`` call over the stacked arrays.  On the shipped grid the step
table takes a whole batch (n = 16, H = 24) from 90-98 to 71-76 us against
``fn`` and ``signals`` (best of 5 x 500 calls, three alternating runs,
2-core x86-64).  The result is one ``RolloutBatch`` of arrays

    states  (n, H+1[, F])   actions (n, H[, A])
    rewards (n, H)          costs   (n, H)

Each trajectory of a batch draws a fixed number of variates per step,
where k = ``VectorStep.noise_dim``, from its address under the batch's key:

  * tabular policy: H * w uniforms, w = 1 + k; row t holds the action
    uniform u_t of step t followed by its k transition uniforms.  The batch
    draws all of them as one ``random((n, H * w))`` from counter 0, so row
    i starts at output i * H * w of that stream.  The action of step t is
    the number of entries of the state's action cdf that are <= u_t,
    ``searchsorted(cdf[s], u_t, side="right")`` bit for bit;
  * Gaussian policy: ``standard_normal((H, w))``, w = A + k, from the
    stream whose second counter word is i (counter (0, i, 0, 0)); row t
    holds the A action normals of step t followed by its k transition
    normals.  The streams of two rows are disjoint 2^64-block runs of
    Philox outputs.

A PPO iteration draws its shuffle orders from the stream at
``SHUFFLE_COUNTER``, whose third counter word no batch stream reaches.
``sample_trajectory`` is the per-step reference: one-row ``fn`` calls that
draw the same variates in the same order (``policy_act``, then ``random((1,
k))`` or ``standard_normal((1, k))``), then one ``signals`` call.  For
tabular row i it reaches output i * H * w with ``advance(i * H * w //
4)``, Philox's four outputs per counter, and (i * H * w) % 4 discarded
draws.  So row i of a batch equals ``sample_trajectory(cmdp, params, H,
seed, i)`` bit for bit.  The scaled normals, the step loop and the signals
of a batch run with numpy's overflow and invalid-value warnings silenced;
a diverging batch is caught by the finiteness checks after them.

Samplers raise ``NonFiniteError`` on a non-finite reward, cost or vector
state, and ``ValueError`` on a step cost whose magnitude exceeds B, on a
tabular successor cell outside [0, S) and on a tabular policy whose (S, A)
is not the CMDP's.  ``Cmdp`` checks its start state when it is built, and
keeps a step table only when every entry passes these checks, so a batch
read from it skips them.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

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
    of the output may depend only on row j of the inputs.  Both ``fn`` and
    ``signals`` must be pure per-row functions, with no state carried from
    one call to the next: ``Cmdp`` calls them once when it is built, on
    every (cell, action) row of a tabular model without noise.

    ``signals(s, a, s2)`` takes the (n, H[, F]) states, (n, H[, A]) actions
    and (n, H[, F]) next states of a whole batch and returns the (n, H)
    rewards and the (n, H) costs of all its steps, entry (i, t) a function
    of step (i, t) alone.  ``stepper(states, noise)``, given a Gaussian
    batch's (H+1, n, F) states, row 0 set, and (H, n, noise_dim) normals,
    returns ``step(t, a)``; called once for each t = 0, ..., H-1 in turn,
    it writes row t + 1 as ``fn`` would and may ignore other writes to states.
    """

    noise_dim: int
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    signals: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    stepper: Callable[[np.ndarray, np.ndarray], Callable] | None = None

    def steps(self, states: np.ndarray, noise: np.ndarray) -> Callable:
        """The stepper of these state rows and normals, or one built on fn."""
        if self.stepper is not None:
            return self.stepper(states, noise)
        rows, fn = list(states), self.fn  # views made once
        return lambda t, a: np.copyto(rows[t + 1], fn(rows[t], a, noise[t]))


@dataclass(frozen=True, eq=False)  # identity: initial_state may be an array
class Cmdp:
    """Immutable CMDP specification: a start state and a ``VectorStep``.

    States are integer cells for tabular models (``n_states``/``n_actions``
    set), whose ``initial_state`` must be an int in [0, n_states), and real
    vectors otherwise, whose (F,) ``initial_state`` must be finite.

    A tabular model whose step draws no noise (``noise_dim`` 0) gets its
    step table here, once: one ``fn`` and one ``signals`` call on all S * A
    (cell, action) rows give the (S * A,) next cells, rewards and costs,
    row s * A + a the step from cell s under action a.  The table is kept,
    read-only, only when every entry passes the checks the samplers apply
    to a sampled step (an integer successor in [0, S), a finite reward,
    |cost| <= B), so a batch read from it needs no check of its own.  Else
    batches call ``fn`` and ``signals`` and check what they sample.
    """

    gamma: float
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
    _table: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.cost_bound <= 0.0:
            raise ValueError("cost_bound B must be positive")
        cell = self.initial_state
        if not self.is_tabular:
            require_finite("initial state", cell)
        elif isinstance(cell, bool) or not isinstance(cell, (int, np.integer)):
            raise ValueError(f"initial cell {cell!r} must be an integer cell index")
        elif not 0 <= cell < self.n_states:
            raise ValueError(f"initial cell {cell} outside [0, {self.n_states})")
        if self.is_tabular and self.vector_step.noise_dim == 0:
            object.__setattr__(self, "_table", self._tabulate())

    def _tabulate(self) -> tuple | None:
        """The step table (next cells, rewards, costs), or None unless every
        entry passes the sampled-step checks."""
        step, size = self.vector_step, self.n_states * self.n_actions
        cells = np.repeat(np.arange(self.n_states), self.n_actions)
        actions = np.tile(np.arange(self.n_actions), self.n_states)
        nxt = np.asarray(step.fn(cells, actions, np.empty((size, 0))))
        if nxt.dtype.kind not in "iu" or nxt.min() < 0 or nxt.max() >= self.n_states:
            return None
        nxt = nxt.astype(np.int64).reshape(size, 1)  # a copy, as batch states
        with np.errstate(over="ignore", invalid="ignore"):
            rewards, costs = step.signals(cells[:, None], actions[:, None], nxt)
        rewards, costs = np.array(rewards), np.array(costs, dtype=float)  # copies
        if not (
            np.isfinite(rewards).all()
            and np.abs(costs).max() <= self.cost_bound * (1.0 + 1e-12)
        ):
            return None
        table = tuple(arr.reshape(size) for arr in (nxt, rewards, costs))
        for arr in table:
            arr.setflags(write=False)
        return table

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
    (n, H[, A]), rewards (n, H) and costs (n, H).

    Each array is stored C-contiguous (a copy only for another layout), so
    the values computed from a batch do not depend on the memory layout it
    was built from: numpy may sum a strided operand, such as the products
    of ``batch_values``, in another order."""

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
            and self.costs.shape == shape
        ):
            raise ValueError("inconsistent batch field shapes")

    def __len__(self) -> int:
        return self.rewards.shape[0]


SHUFFLE_COUNTER = (0, 0, 1, 0)  # Philox counter of an iteration's PPO shuffles
_local = threading.local()  # one Generator per thread, set to each address


def philox(seed: Seed, counter: Sequence[int] = (0, 0, 0, 0)) -> np.random.Generator:
    """A Generator at Philox key ``seed`` and ``counter``: it draws what
    ``Generator(Philox(key=key, counter=counter))`` draws, where an int seed
    s is the key (s, 0) and a pair (s, k) the key s + k * 2**64.

    Every call returns the calling thread's one Generator, with its state
    set to the address, so draw from it before the next call.  Raises
    ValueError unless the seed is one or two integers in [0, 2**64)."""
    words = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    if not (
        len(words) <= 2
        and all(isinstance(w, (int, np.integer)) and 0 <= w < 2**64 for w in words)
    ):
        raise ValueError(f"seed {seed!r} is not one or two integers in [0, 2^64)")
    gen = getattr(_local, "generator", None)
    if gen is None:  # made on first use: numpy.random loads on demand
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": (*words, 0, 0)[:2]},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def sample_trajectory(
    cmdp: Cmdp, params: PolicyParams, horizon: int, seed: Seed, row: int = 0
) -> RolloutBatch:
    """Roll out exactly `horizon` steps of pi_theta in the CMDP, one step at
    a time through one-row calls of ``vector_step.fn``, as a one-row batch:
    row ``row`` of ``collect_batch``'s batch of key ``seed``, drawn from the
    same address (see the module docstring).

    Deterministic in (cmdp, params, horizon, seed, row).  Raises
    NonFiniteError on a non-finite reward, cost or state, and ValueError if
    a sampled step cost exceeds the declared bound B or a tabular policy's
    (S, A) is not the CMDP's.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    step = cmdp.vector_step
    tabular = _is_tabular(cmdp, params)
    if tabular:
        rng = philox(seed)
        skip = row * horizon * (1 + step.noise_dim)
        rng.bit_generator.advance(skip // 4)  # four outputs per counter
        rng.random(skip % 4)
    else:
        rng = philox(seed, (0, row, 0, 0))
    draw = rng.random if tabular else rng.standard_normal
    state = np.asarray(cmdp.initial_state)[None]
    states, actions = [state], []
    for _ in range(horizon):
        action = np.asarray(policy_act(params, state[0], rng))[None]
        state = step.fn(state, action, draw((1, step.noise_dim)))
        states.append(state)
        actions.append(action)
    return _finish(cmdp, np.stack(states, axis=1), np.stack(actions, axis=1), tabular)


def _is_tabular(cmdp: Cmdp, params: PolicyParams) -> bool:
    """Whether the policy is tabular; raises ValueError, naming both shapes,
    when a tabular policy's (S, A) is not the CMDP's."""
    kind = params.kind
    if not isinstance(kind, TabularSoftmax):
        return False
    if (kind.n_states, kind.n_actions) != (cmdp.n_states, cmdp.n_actions):
        raise ValueError(
            f"a tabular policy over (S, A) = ({kind.n_states}, {kind.n_actions}) "
            f"on a CMDP with (S, A) = ({cmdp.n_states}, {cmdp.n_actions})"
        )
    return True


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
    """The costs as a float array, once rewards and costs are finite and
    every step cost is within B in magnitude.

    A NaN or infinite cost makes the largest magnitude NaN or infinite, so
    the one bound comparison also screens the costs; only then are they
    searched for the entry to name."""
    cost_arr = np.asarray(costs, dtype=float)
    require_finite("rewards", rewards)
    # Assumption: per-step |cost| <= B.
    worst = np.abs(cost_arr).max()
    if not worst <= cmdp.cost_bound * (1.0 + 1e-12):
        require_finite("costs", cost_arr)
        raise ValueError(
            f"sampled step cost {worst:g} exceeds declared bound "
            f"{cmdp.cost_bound:g}"
        )
    return cost_arr


@functools.lru_cache(maxsize=32)
def discount_weights(gamma: float, steps: int) -> np.ndarray:
    """The (steps,) weights 1, gamma, gamma^2, ..., each the one before it
    times gamma (one ``cumprod``): an order of IEEE products that no SIMD
    dispatch of ``power`` changes.  Computed once per (gamma, steps) and
    returned as one shared read-only array."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    w = np.full(steps, gamma)
    w[:1] = 1.0
    w = w.cumprod()
    w.setflags(write=False)
    return w


def discounted_value(
    rewards: np.ndarray, costs: np.ndarray, gamma: float
) -> tuple[float, float]:
    """(sum_t gamma^t r_t, sum_t gamma^t c_t) of one rollout's (T,) rewards
    and (T,) costs."""
    w = discount_weights(gamma, len(rewards))
    return float((rewards * w).sum()), float((costs * w).sum())


def batch_values(batch: RolloutBatch, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Discounted returns (n,) and costs (n,) of the rollouts of a batch.

    Elementwise products summed along the step axis, not a matmul, whose
    order of summation would be the BLAS kernel's.  Row i equals
    ``discounted_value(batch.rewards[i], batch.costs[i], gamma)`` bit for
    bit: numpy sums each row's products in the order it sums one row's.
    """
    w = discount_weights(gamma, batch.rewards.shape[1])
    return (batch.rewards * w).sum(axis=1), (batch.costs * w).sum(axis=1)


def collect_batch(
    cmdp: Cmdp,
    params: PolicyParams,
    sampling: SamplingConfig,
    seed: Seed,
    probs: np.ndarray | None = None,
) -> RolloutBatch:
    """n_traj independent rollouts, all advanced together, with the variates
    of their Philox addresses under key ``seed`` (see the module docstring
    for the array shapes and the stream layout).

    For a tabular batch only, ``probs`` is the (S, A) ``softmax_table(params)``;
    a batch called without it computes it itself."""
    n, horizon = sampling.n_traj, sampling.horizon
    step = cmdp.vector_step
    tabular = _is_tabular(cmdp, params)
    if probs is not None and (
        not tabular or np.shape(probs) != (params.kind.n_states, params.kind.n_actions)
    ):
        raise ValueError("probs need a tabular batch and shape (S, A)")
    if tabular:
        width = 1 + step.noise_dim
        uniforms = philox(seed).random((n, horizon * width)).reshape(n, horizon, width)
        cdf = action_cdf(softmax_table(params) if probs is None else probs)
        states, actions, rows = _tabular_paths(cmdp, cdf, uniforms)
        if rows is None:
            return _finish(cmdp, states, actions, tabular)
        _, rewards, costs = cmdp._table
        return RolloutBatch(states, actions, rewards.take(rows), costs.take(rows))
    a_dim = params.kind.action_dim
    variates = np.empty((n, horizon, a_dim + step.noise_dim))
    for i, row in enumerate(variates):
        philox(seed, (0, i, 0, 0)).standard_normal(out=row)
    # draws[t] holds, per trajectory, the a_dim action normals of step t
    # followed by its noise_dim transition normals.
    draws = np.ascontiguousarray(np.swapaxes(variates, 0, 1))
    states = np.empty((horizon + 1, n, *np.shape(cmdp.initial_state)))
    states[0] = cmdp.initial_state
    actions = np.empty((horizon, n, a_dim))
    # A diverging batch overflows here; the checks in _finish raise.
    with np.errstate(over="ignore", invalid="ignore"):
        act = gaussian_actor(params, draws[:, :, :a_dim])
        advance = step.steps(states, draws[:, :, a_dim:])
        for t, (state, action) in enumerate(zip(states, actions)):
            act(state, t, action)
            advance(t, action)
    return _finish(
        cmdp,
        np.ascontiguousarray(np.swapaxes(states, 0, 1)),
        np.ascontiguousarray(np.swapaxes(actions, 0, 1)),
        tabular,
    )


_TABLE = 1 << 14  # successor-table entries (cells x steps x trajectories) per pass


def _tabular_paths(
    cmdp: Cmdp, cdf: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The (n, H+1) states and (n, H) actions of a tabular batch from its
    (S, A) action cdf and its (n, H, 1 + k) uniforms, and, when the CMDP
    has a step table, the (n, H) table rows s * A + a of its steps (else
    None).

    A pass over a span of T steps tabulates, for every (cell c, step t,
    trajectory i), the action that u[i, t] picks in cell c and the
    successor cell: one gather from the step table, or one ``fn`` call over
    all S * T * n rows.  Entry (c, t, i) has the flat index (c * T + t) *
    n + i and link holds the index of (successor, t + 1, i), so a step of
    all n trajectories is one gather ``cur = link[cur]``; the visited
    entries give the actions, the next cells and the table rows.  Without
    a table, raises ValueError naming the trajectory, the step and the cell
    of the first successor cell outside [0, S)."""
    step, table = cmdp.vector_step, cmdp._table
    n_states, n_actions = cdf.shape
    n, horizon, width = uniforms.shape
    traj = np.arange(n)
    states = np.empty((n, horizon + 1), dtype=np.int64)
    actions = np.empty((n, horizon), dtype=np.int64)
    states[:, 0] = cmdp.initial_state
    rows_of = None if table is None else np.empty((n, horizon), dtype=np.int64)
    base = np.arange(0, n_states * n_actions, n_actions)[:, None]  # s * A
    # The last cdf entry is 1 and u < 1, so only the first A - 1 can count.
    bounds = cdf[:, :-1].T[:, :, None]
    # The narrowest integer that holds A - 1; counting into it is several
    # times faster than into int64.
    count = np.min_scalar_type(n_actions - 1)
    span = max(1, _TABLE // (n_states * n))
    for t0 in range(0, horizon, span):
        draws = uniforms[:, t0 : t0 + span].transpose(1, 0, 2)  # (T, n, 1 + k)
        steps = draws.shape[0]
        block = steps * n
        rows = n_states * block
        # act[c, t * n + i] counts the cdf entries of cell c that are <= u[i, t].
        act = (bounds <= draws[:, :, 0].reshape(1, 1, block)).sum(axis=0, dtype=count)
        if table is not None:
            key = (act + base).reshape(rows)
            succ = table[0].take(key)
        else:
            if width > 1:
                noise = np.tile(draws[:, :, 1:].reshape(block, width - 1), (n_states, 1))
            else:
                noise = np.empty((rows, 0))
            succ = np.asarray(
                step.fn(
                    np.repeat(np.arange(n_states), block),
                    act.reshape(rows).astype(np.int64),
                    noise,
                )
            ).reshape(rows)
            if succ.min() < 0 or succ.max() >= n_states:
                cells = succ.reshape(n_states, steps, n)
                bad = (cells < 0) | (cells >= n_states)
                t, i, c = np.argwhere(bad.transpose(1, 2, 0))[0]  # earliest step
                raise ValueError(
                    f"trajectory {i}, step {t0 + t}: cell {c} steps to cell "
                    f"{cells[c, t, i]}, outside [0, {n_states})"
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
        if table is not None:
            rows_of[:, t0 : t0 + steps] = key[path].T
    return states, actions, rows_of
