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
``gaussian_actor``) and the dynamics ``fn``.  A tabular batch first builds
a successor table: the action that each step's uniform picks in every one
of the S cells, and, from one ``fn`` call over all S * H * n (cell, step,
trajectory) rows, the next cell, with the offset of the next step folded
in.  A step of all n trajectories is then one gather ``cur = link[cur]``,
and the visited entries give the states and actions.  The table costs
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

``sample_trajectory`` is the per-step reference: one-row ``fn`` calls
that draw the same variates in the same order (``policy_act``, then
``random((1, k))`` or ``standard_normal((1, k))``), then one ``signals``
call.  So row i of a batch equals ``sample_trajectory(cmdp, params, H,
derived_seed(seed, i))`` bit for bit.  The scaled normals, the step loop
and the signals of a batch run with numpy's overflow and invalid-value
warnings silenced; a diverging batch is caught by the finiteness checks
after them.

Counter-based uniforms.  A tabular stream depends only on its derived seed,
so ``counter_uniforms`` computes the uniforms of many batches at once in
numpy, equal to ``default_rng(derived_seed(root, i)).random(H * (1 + k))``
bit for bit: the ``SeedSequence`` hash of the seed words, PCG64 seeding,
the 128-bit LCG jumped ahead to every draw (O'Neill 2014, PCG), the XSL-RR
output and ``(x >> 11) * 2**-53``.  They are the only uniforms of tabular
batches: ``papd_run`` hands each batch its (n, H, 1 + k) slice of a block
of iterations (``collect_batch(..., uniforms=)``), and a batch without one
computes its own.  Derived seeds must have at most four entries in
[0, 2**32), one SeedSequence word each (``counter_form_fits``).  On first
use a self-check compares a few streams with ``default_rng`` (numpy keeps
them fixed, NEP 19) and raises RuntimeError naming the numpy version if
they differ.  Gaussian batches keep one Generator per trajectory: ziggurat
normals take a data-dependent number of draws.

Samplers raise ``NonFiniteError`` on a non-finite reward, cost or vector
state, and ``ValueError`` on a step cost whose norm exceeds B or on a
tabular successor cell outside [0, S).  ``Cmdp`` checks its start state
when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    (n, H[, A]), rewards (n, H) and costs (n, H, m)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
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


def collect_batch(
    cmdp: Cmdp,
    params: PolicyParams,
    sampling: SamplingConfig,
    seed: Seed,
    uniforms: np.ndarray | None = None,
    probs: np.ndarray | None = None,
) -> RolloutBatch:
    """n_traj independent rollouts with the documented derived seeds, all
    advanced together (see the module docstring for the array shapes and
    the stream layout).

    For a tabular batch only: ``uniforms`` is the (n_traj, horizon,
    1 + noise_dim) slice of ``counter_uniforms`` for root ``seed``, and
    ``probs`` the (S, A) ``softmax_table(params)``; a batch called without
    them computes them itself."""
    n, horizon = sampling.n_traj, sampling.horizon
    step = cmdp.vector_step
    shape = (n, horizon, 1 + step.noise_dim)
    tabular = isinstance(params.kind, TabularSoftmax)
    if tabular and uniforms is None:
        uniforms = counter_uniforms([seed], n, horizon * shape[2]).reshape(shape)
    elif uniforms is not None and (not tabular or np.shape(uniforms) != shape):
        raise ValueError("uniforms need a tabular batch and shape (n, H, 1 + k)")
    if probs is not None and (
        not tabular or np.shape(probs) != (params.kind.n_states, params.kind.n_actions)
    ):
        raise ValueError("probs need a tabular batch and shape (S, A)")
    if tabular:
        cdf = action_cdf(softmax_table(params) if probs is None else probs)
        states, actions = _tabular_paths(step, cdf, cmdp.initial_state, uniforms)
        return _finish(cmdp, states, actions, tabular)
    rngs = [np.random.default_rng(derived_seed(seed, i)) for i in range(n)]
    state = np.full((n, *np.shape(cmdp.initial_state)), cmdp.initial_state, float)
    a_dim = params.kind.action_dim
    # draws[t] holds, per trajectory, the a_dim action normals of step t
    # followed by its noise_dim transition normals.
    draws = np.stack(
        [rng.standard_normal((horizon, a_dim + step.noise_dim)) for rng in rngs],
        axis=1,
    )
    noise = draws[:, :, a_dim:]
    states, actions = [state], []
    # A diverging batch overflows here; the checks in _finish raise.
    with np.errstate(over="ignore", invalid="ignore"):
        act = gaussian_actor(params, draws[:, :, :a_dim])
        for t in range(horizon):
            action = act(state, t)
            state = step.fn(state, action, noise[t])
            states.append(state)
            actions.append(action)
    return _finish(cmdp, np.stack(states, axis=1), np.stack(actions, axis=1), tabular)


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


# Counter-based uniforms (see the module docstring).  Constants of numpy's
# SeedSequence (pool of 4 uint32 words) and of its PCG64 (128-bit LCG
# multiplier), as in numpy/random/bit_generator.pyx and pcg64.h.
_POOL_WORDS = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 4096  # streams x steps per jump-ahead pass, so temporaries stay small
_counter_checked = False


def counter_form_fits(seed: Seed) -> bool:
    """Whether every ``derived_seed(seed, i)`` hashes as at most four
    one-word SeedSequence entries, the case ``counter_uniforms`` covers."""
    root = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return len(root) < _POOL_WORDS and all(
        isinstance(e, (int, np.integer)) and 0 <= e <= _M32 for e in root
    )


def counter_uniforms(roots: Sequence[Seed], n: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of every stream of whole batches, shape
    (len(roots), n, count): entry [r, i] equals
    ``np.random.default_rng(derived_seed(roots[r], i)).random(count)`` bit
    for bit.

    Every root must satisfy ``counter_form_fits``.  The first call checks a
    few streams against ``default_rng`` and raises RuntimeError if numpy's
    streams changed."""
    global _counter_checked
    if not all(counter_form_fits(root) for root in roots):
        raise ValueError("a root does not fit the counter form")
    if not _counter_checked:
        # Edge words and a four-word stream, against their Generators.
        probe = [(0, 0), (_M32, 0, 999983), (12345, _M32)]
        want = [
            [np.random.default_rng(derived_seed(root, i)).random(5) for i in (0, 2)]
            for root in probe
        ]
        if not np.array_equal(_counter_block(probe, 3, 5)[:, ::2], want):
            raise RuntimeError(
                "counter-based uniforms differ from default_rng streams under "
                f"numpy {np.__version__}"
            )
        _counter_checked = True
    return _counter_block(roots, n, count)


def _counter_block(roots, n: int, count: int) -> np.ndarray:
    """counter_uniforms without the checks."""
    u64 = np.uint64
    words = np.zeros((_POOL_WORDS, len(roots), n), dtype=np.uint32)
    for j, root in enumerate(roots):
        root = tuple(root) if isinstance(root, (tuple, list)) else (root,)
        words[: len(root), j] = np.array(root, dtype=np.uint32)[:, None]
        words[len(root), j] = np.arange(n, dtype=np.uint32)
    # Zero words past the entropy hash as SeedSequence's padding does.
    w = [x.astype(u64) for x in _seed_state(words.reshape(_POOL_WORDS, -1))]
    # PCG64 seeding: initstate = (v0 << 64) | v1, initseq = (v2 << 64) | v3
    # with v = generate_state(4, uint64); inc = (initseq << 1) | 1.
    init_hi, init_lo = w[0] | (w[1] << u64(32)), w[2] | (w[3] << u64(32))
    seq_hi, seq_lo = w[4] | (w[5] << u64(32)), w[6] | (w[7] << u64(32))
    inc_hi = (seq_hi << u64(1)) | (seq_lo >> u64(63))
    inc_lo = (seq_lo << u64(1)) | u64(1)
    # Seeding steps state 0 -> inc, adds initstate and steps again; draw t
    # (1-based) steps once more and outputs, so with the LCG s -> M s + inc,
    # s_t = M^(t+1) initstate + (M^0 + ... + M^(t+1)) inc  (mod 2^128).
    mask = (1 << 128) - 1
    power, total = _PCG_MULT, 1 + _PCG_MULT
    a_t, c_t = [], []
    for _ in range(count):
        power = power * _PCG_MULT & mask
        total = (total + power) & mask
        a_t.append(power)
        c_t.append(total)
    a_t, c_t = _quarters(a_t), _quarters(c_t)
    out = np.empty((count, init_hi.size))
    rows = max(1, _CHUNK // init_hi.size)
    for t0 in range(0, count, rows):
        part = slice(t0, t0 + rows)
        hi, lo = _mul128(init_hi, init_lo, a_t[:, part])
        inc_part_hi, inc_part_lo = _mul128(inc_hi, inc_lo, c_t[:, part])
        lo += inc_part_lo
        hi += inc_part_hi + (lo < inc_part_lo)
        # XSL-RR: rotate hi ^ lo right by the top six bits of the state.
        x, rot = hi ^ lo, hi >> u64(58)
        x = (x >> rot) | (x << ((u64(64) - rot) & u64(63)))
        out[part] = (x >> u64(11)) * (1.0 / 9007199254740992.0)
    return out.T.reshape(len(roots), n, count)


def _seed_state(words: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(8, uint32) for each column of
    the (4, N) uint32 entropy words, one uint32 array per output word."""
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    pool = [hashmix(word) for word in words]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                mixed = u32(_MIX_L) * pool[dst] - u32(_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> u32(16))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value = value * u32(hash_const)
        state.append(value ^ (value >> u32(16)))
    return state


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
