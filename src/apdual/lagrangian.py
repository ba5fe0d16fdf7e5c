"""Lagrangian machinery: value, score-function gradient, GAE advantages,
and the clipped PPO-Lagrangian surrogate, over rollout batches.

Sign convention throughout: the primal problem is the minimization of

    L(theta, lambda) = -J_R + lambda . (J_C - d),

so gradient descent on L maximizes return while penalizing violation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

# discounted_value, the per-sample policy_log_prob / policy_grad_log_prob
# and softmax_table are no longer called here but stay importable from this
# module: perfbench/tracing.py times their calls under these names.
from .cmdp import (  # noqa: F401
    Cmdp,
    NonFiniteError,
    RolloutBatch,
    SamplingConfig,
    Seed,
    batch_values,
    collect_batch,
    discounted_value,
)
from .policy import (  # noqa: F401
    PolicyParams,
    policy_grad_log_prob,
    policy_log_prob,
    policy_log_probs,
    policy_score_sum,
    policy_trajectory_scores,
    softmax_table,
)


@dataclass(frozen=True)
class ConstraintSpec:
    """Thresholds d (one per cost signal)."""

    limits: np.ndarray

    def __post_init__(self) -> None:
        limits = np.atleast_1d(np.asarray(self.limits, dtype=float))
        object.__setattr__(self, "limits", limits)

    @property
    def m(self) -> int:
        return self.limits.size


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
    (N, A), log_prob_old and adv_r (N,), adv_c (N, m).

    adv_r is centered by its batch mean at assembly (see advantage_batch);
    adv_c is left uncentered since its sign drives the penalty.  Indexing
    with an index array gives the minibatch of those rows.
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
        self.adv_c = np.atleast_2d(np.asarray(self.adv_c, dtype=float))
        if self.adv_c.shape[0] != n and self.adv_c.shape == (1, n):
            self.adv_c = self.adv_c.T
        if (
            len(self.actions) != n
            or self.log_prob_old.shape != (n,)
            or self.adv_r.shape != (n,)
            or self.adv_c.shape[0] != n
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

    def __getitem__(self, idx: np.ndarray) -> "AdvantageBatch":
        # Rows of a checked batch need no second check: copy.copy skips
        # __post_init__.
        sub = copy.copy(self)
        sub.states = self.states[idx]
        sub.actions = self.actions[idx]
        sub.log_prob_old = self.log_prob_old[idx]
        sub.adv_r = self.adv_r[idx]
        sub.adv_c = self.adv_c[idx]
        return sub


def lagrangian_value(
    j_r: float, j_c: np.ndarray, lam: np.ndarray, spec: ConstraintSpec
) -> float:
    """-J_R + lambda . (J_C - d), for the (m,) multiplier array lambda."""
    j_c = np.atleast_1d(np.asarray(j_c, dtype=float))
    if j_c.shape != lam.shape or lam.shape != spec.limits.shape:
        raise ValueError("J_C, multiplier, and constraint dimensions disagree")
    return float(-j_r + lam @ (j_c - spec.limits))


def reinforce_grad(
    cmdp: Cmdp,
    params: PolicyParams,
    lam: np.ndarray,
    spec: ConstraintSpec,
    sampling: SamplingConfig,
    seed: Seed,
) -> np.ndarray:
    """Score-function estimate of grad_theta L(theta, lambda).

    Each trajectory contributes (full-rollout score) x (its Lagrangian value
    minus a leave-one-out batch mean baseline); the leave-one-out form keeps
    the estimator exactly unbiased at finite batch size.
    """
    batch = collect_batch(cmdp, params, sampling, seed)
    return reinforce_grad_from_batch(batch, cmdp.gamma, params, lam, spec)


def reinforce_grad_from_batch(
    batch: RolloutBatch,
    gamma: float,
    params: PolicyParams,
    lam: np.ndarray,
    spec: ConstraintSpec,
    values: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The reinforce_grad estimate over a sampled batch.

    ``values`` is ``batch_values(batch, gamma)`` when the caller has it.
    The n score rows are weighted and added in batch order from zero, so
    the result equals the per-trajectory ``grad += c_i * score_i`` bit for
    bit.
    """
    returns, cost_vals = batch_values(batch, gamma) if values is None else values
    if cost_vals.shape[1:] != lam.shape or lam.shape != spec.limits.shape:
        raise ValueError("J_C, multiplier, and constraint dimensions disagree")
    # Row i is lagrangian_value(returns[i], cost_vals[i], lam, spec).
    weights = -returns + np.vecdot(cost_vals - spec.limits, lam)
    n = len(batch)
    if n > 1:
        baselines = (weights.sum() - weights) / (n - 1)
    else:
        baselines = np.zeros(1)
    scores = policy_trajectory_scores(params, batch.states[:, :-1], batch.actions)
    return ((weights - baselines)[:, None] * scores).sum(axis=0, initial=0.0) / n


def backward_sums(x: np.ndarray, decay: float) -> np.ndarray:
    """y[:, t] = x[:, t] + decay * y[:, t+1] with y[:, T] = 0: one backward
    pass over all n rows of an (n, T, ...) array."""
    out = np.empty_like(x)
    acc = np.zeros_like(x[:, 0])
    for t in range(x.shape[1] - 1, -1, -1):
        acc = x[:, t] + decay * acc
        out[:, t] = acc
    return out


def advantage_batch(
    batch: RolloutBatch,
    params_old: PolicyParams,
    gamma: float,
    cfg: PpolConfig,
    values: np.ndarray,
) -> AdvantageBatch:
    """Flatten a rollout batch into an AdvantageBatch.

    ``values`` is the (n, H+1, 1+m) array of value estimates at every
    state of the batch, the reward value and then one per cost; column H
    is the bootstrap.
    Reward and cost advantages come from one GAE pass over the whole batch,

        A_t = sum_l (gamma * gae_lambda)^l delta_{t+l},
        delta_t = r_t + gamma V_{t+1} - V_t.

    Reward advantages are centered by their batch mean, so the assembled
    batch (and hence the surrogate gradient) is invariant to a constant
    shift of the raw reward advantages.
    """
    n, t, m = batch.costs.shape
    if np.shape(values) != (n, t + 1, 1 + m):
        raise ValueError(f"values must have shape {(n, t + 1, 1 + m)}")
    signals = np.concatenate([batch.rewards[:, :, None], batch.costs], axis=2)
    deltas = signals + gamma * values[:, 1:] - values[:, :-1]
    adv = backward_sums(deltas, gamma * cfg.gae_lambda).reshape(n * t, 1 + m)
    adv_r = adv[:, 0].copy()
    adv_r = adv_r - adv_r.mean()
    flat_states = batch.states[:, :t].reshape(n * t, *batch.states.shape[2:])
    flat_actions = batch.actions.reshape(n * t, *batch.actions.shape[2:])
    return AdvantageBatch(
        flat_states,
        flat_actions,
        policy_log_probs(params_old, flat_states, flat_actions),
        adv_r,
        adv[:, 1:],
    )


def _ratios(batch: AdvantageBatch, params: PolicyParams) -> np.ndarray:
    lp = policy_log_probs(params, batch.states, batch.actions)
    return np.exp(lp - batch.log_prob_old)


def ppol_surrogate(
    batch: AdvantageBatch, params: PolicyParams, lam: np.ndarray, cfg: PpolConfig
) -> float:
    """Batch mean of (1/(1+lambda)) (min(rho A_R, clip(rho) A_R) - lambda A_C).

    Scalar-multiplier form; maximized by the practical solver's primal step.
    """
    if lam.shape != (1,) or batch.adv_c.shape[1] != 1:
        raise ValueError("the surrogate is defined for a single constraint")
    lam = float(lam[0])
    rho = _ratios(batch, params)
    clipped = np.clip(rho, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
    obj = np.minimum(rho * batch.adv_r, clipped * batch.adv_r)
    return float((obj - lam * batch.adv_c[:, 0]).mean() / (1.0 + lam))


def ppol_surrogate_grad(
    batch: AdvantageBatch, params: PolicyParams, lam: np.ndarray, cfg: PpolConfig
) -> np.ndarray:
    """Ascent direction for the surrogate.

    The reward term differentiates the min/clip exactly (zero where the
    clipped branch is active).  The penalty term is the score-function form
    -lambda A_C rho d log pi: the surrogate's written penalty is constant in
    theta, so we keep its importance-weighted realization, which at
    theta = theta_old has expectation -lambda grad J_C.
    """
    if lam.shape != (1,) or batch.adv_c.shape[1] != 1:
        raise ValueError("the surrogate is defined for a single constraint")
    lam = float(lam[0])
    rho = _ratios(batch, params)
    upper = 1.0 + cfg.clip_ratio
    lower = 1.0 - cfg.clip_ratio
    clipped = np.clip(rho, lower, upper)
    active = rho * batch.adv_r <= clipped * batch.adv_r  # unclipped branch is the min
    coeff = (active * rho * batch.adv_r - lam * rho * batch.adv_c[:, 0]) / (1.0 + lam)
    nz = np.flatnonzero(coeff)
    grad = policy_score_sum(params, batch.states[nz], batch.actions[nz], coeff[nz])
    return grad / len(batch)
