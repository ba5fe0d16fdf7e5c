"""Lagrangian machinery: score-function gradient, GAE advantages and the
gradient of the clipped PPO-Lagrangian surrogate, over rollout batches.

A PPO iteration assembles one AdvantageBatch; each minibatch is an index
array into it.  ppol_surrogate_grad gathers those rows once and gets their
log-probs and score sum from one kernel call: gaussian_block_terms on
feature-major copies of the rows for a Gaussian policy, policy_sample_terms
for a tabular one.  backward_sums,
the discounted backward pass behind GAE and the value fit's returns-to-go,
runs in place on a time-major copy with the same floating-point operations
as a plain per-step loop.

Sign convention throughout: the primal problem is the minimization of

    L(theta, lambda) = -J_R + lambda (J_C - d),

with one cost J_C, its limit d and one float multiplier lambda, so
gradient descent on L maximizes return while penalizing violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# discounted_value, the per-sample policy_log_prob / policy_grad_log_prob
# and softmax_table are no longer called here but stay importable from this
# module: perfbench/tracing.py times their calls under these names.
from .cmdp import (  # noqa: F401
    NonFiniteError,
    RolloutBatch,
    batch_values,
    discounted_value,
)
from .policy import (  # noqa: F401
    LinearGaussian,
    PolicyParams,
    gaussian_block_terms,
    policy_grad_log_prob,
    policy_log_prob,
    policy_log_probs,
    policy_sample_terms,
    policy_trajectory_scores,
    softmax_table,
)


@dataclass(frozen=True)
class PpolConfig:
    clip_ratio: float = 0.2
    gae_lambda: float = 0.95
    minibatch_size: int = 256
    epochs: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError("clip_ratio must lie in (0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must lie in [0, 1]")
        if self.minibatch_size < 1 or self.epochs < 1:
            raise ValueError("minibatch_size and epochs must be positive")


@dataclass
class AdvantageBatch:
    """Flattened per-step samples for the surrogate update, as arrays with
    one row per sample: states (N,) ints or (N, F), actions (N,) ints or
    (N, A), log_prob_old, adv_r and adv_c (N,).

    adv_r is centered by its batch mean at assembly (see advantage_batch);
    adv_c is left uncentered since its sign drives the penalty.  A
    minibatch is an index array into these rows (see ppol_surrogate_grad).
    """

    states: np.ndarray
    actions: np.ndarray
    log_prob_old: np.ndarray
    adv_r: np.ndarray
    adv_c: np.ndarray

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states)
        self.actions = np.asarray(self.actions)
        n = len(self.states)
        self.log_prob_old = np.asarray(self.log_prob_old, dtype=float)
        self.adv_r = np.asarray(self.adv_r, dtype=float)
        self.adv_c = np.asarray(self.adv_c, dtype=float)
        if (
            len(self.actions) != n
            or self.log_prob_old.shape != (n,)
            or self.adv_r.shape != (n,)
            or self.adv_c.shape != (n,)
        ):
            raise ValueError("inconsistent batch field lengths")
        if not (
            np.isfinite(self.adv_r).all()
            and np.isfinite(self.adv_c).all()
            and np.isfinite(self.log_prob_old).all()
        ):
            raise NonFiniteError("batch contains non-finite values")

    def __len__(self) -> int:
        return len(self.states)


def lagrangian_values(
    returns: np.ndarray, costs: np.ndarray, lam: float, limit: float
) -> np.ndarray:
    """-J_R + lambda (J_C - d) of each trajectory, from its discounted return
    and cost.  The + 0.0 turns a -0.0 penalty (lambda = 0 and J_C < d) into
    +0.0, the value of the one-term dot product lambda . (J_C - d)."""
    return -returns + ((costs - limit) * lam + 0.0)


def reinforce_grad_from_batch(
    batch: RolloutBatch,
    gamma: float,
    params: PolicyParams,
    lam: float,
    limit: float,
    values: tuple[np.ndarray, np.ndarray] | None = None,
    probs: np.ndarray | None = None,
) -> np.ndarray:
    """Score-function estimate of grad_theta L(theta, lambda) over a
    sampled batch.

    Each trajectory contributes (full-rollout score) x (its Lagrangian value
    minus a leave-one-out batch mean baseline); the leave-one-out form keeps
    the estimator exactly unbiased at finite batch size.  ``values`` is
    ``batch_values(batch, gamma)`` and ``probs`` a tabular policy's
    ``softmax_table(params)`` when the caller has them.  The n score rows
    are weighted and added in batch order from zero, so the result equals
    the per-trajectory ``grad += c_i * score_i`` bit for bit.
    """
    returns, cost_vals = batch_values(batch, gamma) if values is None else values
    weights = lagrangian_values(returns, cost_vals, lam, limit)
    n = len(batch)
    if n > 1:
        baselines = (weights.sum() - weights) / (n - 1)
    else:
        baselines = np.zeros(1)
    scores = policy_trajectory_scores(
        params, batch.states[:, :-1], batch.actions, probs
    )
    return ((weights - baselines)[:, None] * scores).sum(axis=0, initial=0.0) / n


def backward_sums(x: np.ndarray, decay: float) -> np.ndarray:
    """y[:, t] = x[:, t] + decay * y[:, t+1] with y[:, T] = 0: one backward
    pass over all n rows of an (n, T, ...) array.

    The pass runs in place on a time-major contiguous float copy, so step t
    reads and writes whole contiguous rows.  Every entry takes the same two
    IEEE operations as the plain loop, decay * y[t+1] and then x[t] plus that
    (so a -0.0 at t = T - 1 becomes +0.0 there too); the result equals it bit
    for bit.  Returns an (n, T, ...) view of that copy.
    """
    t_len = x.shape[1]
    y = np.zeros((t_len + 1, x.shape[0], *x.shape[2:]))
    y[:t_len] = x.swapaxes(0, 1)
    step = np.empty_like(y[0])
    # an array operand: numpy takes a Python float a few hundred ns slower
    decay = np.full_like(step, decay)
    rows = list(y)  # row views made once, not per step
    later = rows[t_len]
    multiply, add = np.multiply, np.add
    for row in reversed(rows[:t_len]):
        multiply(later, decay, step)
        add(row, step, row)
        later = row
    return y[:t_len].swapaxes(0, 1)


def advantage_batch(
    batch: RolloutBatch,
    params_old: PolicyParams,
    gamma: float,
    cfg: PpolConfig,
    values: np.ndarray,
) -> AdvantageBatch:
    """Flatten a rollout batch into an AdvantageBatch.

    ``values`` is the (n, H+1, 2) array of value estimates at every state
    of the batch, the reward value and then the cost value; column H is the
    bootstrap.
    Reward and cost advantages come from one GAE pass over the whole batch,

        A_t = sum_l (gamma * gae_lambda)^l delta_{t+l},
        delta_t = r_t + gamma V_{t+1} - V_t.

    Reward advantages are centered by their batch mean, so the assembled
    batch (and hence the surrogate gradient) is invariant to a constant
    shift of the raw reward advantages.
    """
    n, t = batch.costs.shape
    if np.shape(values) != (n, t + 1, 2):
        raise ValueError(f"values must have shape {(n, t + 1, 2)}")
    signals = np.stack([batch.rewards, batch.costs], axis=2)
    deltas = signals + gamma * values[:, 1:] - values[:, :-1]
    adv = backward_sums(deltas, gamma * cfg.gae_lambda).reshape(n * t, 2)
    adv_r = adv[:, 0].copy()
    adv_r = adv_r - adv_r.mean()
    flat_states = batch.states[:, :t].reshape(n * t, *batch.states.shape[2:])
    flat_actions = batch.actions.reshape(n * t, *batch.actions.shape[2:])
    return AdvantageBatch(
        flat_states,
        flat_actions,
        policy_log_probs(params_old, flat_states, flat_actions),
        adv_r,
        adv[:, 1],
    )


def ppol_surrogate_grad(
    batch: AdvantageBatch,
    rows: np.ndarray,
    params: PolicyParams,
    lam: float,
    cfg: PpolConfig,
) -> np.ndarray:
    """Ascent direction for the surrogate over the minibatch ``rows`` (an
    index array into ``batch``), the minibatch mean of

        (1/(1+lambda)) (min(rho A_R, clip(rho) A_R) - lambda A_C)

    with rho = pi_theta(a|s) / pi_old(a|s); the primal step maximizes it.
    The reward term differentiates the min/clip exactly (zero where the
    clipped branch is active).  The penalty term is the score-function form
    -lambda A_C rho d log pi: the surrogate's written penalty is constant in
    theta, so we keep its importance-weighted realization, which at
    theta = theta_old has expectation -lambda grad J_C.

    The log-probs and the score sum over the rows of nonzero coefficient come
    from one kernel call, so the minibatch is gathered, validated and its
    Gaussian means computed once; a Gaussian minibatch goes to
    gaussian_block_terms as (F, M) and (A, M) copies of the gathered rows.
    When no coefficient is zero, the score sum reads the rows without a
    second gather; otherwise the zero-coefficient rows are left out, so a
    row whose score overflows but whose ratio is 0 adds nothing.
    """
    # take gathers the rows as indexing does, several times faster on 2-d
    # arrays; take and then a transposed copy is the fastest (F, M) gather
    states = batch.states.take(rows, axis=0)
    actions = batch.actions.take(rows, axis=0)
    if isinstance(params.kind, LinearGaussian):
        lp, score_sum = gaussian_block_terms(
            params, np.ascontiguousarray(states.T), np.ascontiguousarray(actions.T)
        )
    else:
        lp, score_sum = policy_sample_terms(params, states, actions)
    adv_r = batch.adv_r.take(rows)
    rho = np.exp(lp - batch.log_prob_old.take(rows))
    # np.clip's value, bit for bit, from two plain ufunc calls
    clipped = np.minimum(np.maximum(rho, 1.0 - cfg.clip_ratio), 1.0 + cfg.clip_ratio)
    active = rho * adv_r <= clipped * adv_r  # unclipped branch is the min
    adv_c = batch.adv_c.take(rows)
    coeff = (active * rho * adv_r - lam * rho * adv_c) / (1.0 + lam)
    nz = np.flatnonzero(coeff)
    if nz.size == coeff.size:  # the usual case: no row to drop
        return score_sum(None, coeff) / len(rows)
    return score_sum(nz, coeff[nz]) / len(rows)
