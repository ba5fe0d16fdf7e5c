"""Parametric stochastic policies with exact score functions.

Two families, both with theta a flat real vector:

  tabular softmax    pi(a|s) = softmax(theta[s*A : (s+1)*A])[a]
  linear Gaussian    a ~ N(W x, diag(exp(log_std))^2),  W = theta[:A*F] as (A, F)

The Gaussian log standard deviations are learned entries appended to theta
(initialized to log 0.5), so score functions cover them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_STD_INIT = math.log(0.5)


@dataclass(frozen=True)
class TabularSoftmax:
    n_states: int
    n_actions: int

    def __post_init__(self) -> None:
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("tabular descriptor needs positive state/action counts")

    @property
    def param_count(self) -> int:
        return self.n_states * self.n_actions


@dataclass(frozen=True)
class LinearGaussian:
    feature_dim: int
    action_dim: int

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.action_dim < 1:
            raise ValueError("gaussian descriptor needs positive dimensions")

    @property
    def param_count(self) -> int:
        # weight matrix plus one learned log_std per action dimension
        return self.action_dim * self.feature_dim + self.action_dim


Descriptor = TabularSoftmax | LinearGaussian


@dataclass(frozen=True)
class PolicyParams:
    kind: Descriptor
    theta: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 1 or theta.size != self.kind.param_count:
            raise ValueError(
                f"theta has size {theta.size}, descriptor expects "
                f"{self.kind.param_count}"
            )

    def replace_theta(self, theta: np.ndarray) -> "PolicyParams":
        return PolicyParams(self.kind, theta)


def init_params(kind: Descriptor) -> PolicyParams:
    """Zero weights; Gaussian log_std entries start at log 0.5."""
    theta = np.zeros(kind.param_count)
    if isinstance(kind, LinearGaussian):
        theta[kind.action_dim * kind.feature_dim :] = LOG_STD_INIT
    return PolicyParams(kind, theta)


def softmax_table(params: PolicyParams) -> np.ndarray:
    """(n_states, n_actions) action probabilities of a tabular policy."""
    kind = params.kind
    if not isinstance(kind, TabularSoftmax):
        raise TypeError("softmax_table requires a tabular descriptor")
    logits = params.theta.reshape(kind.n_states, kind.n_actions)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def action_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative action probabilities along the last axis of a (..., A)
    probability table, with the last entry set to exactly 1.

    A uniform u in [0, 1) then always names a valid action, the number of
    entries <= u (``searchsorted(cdf, u, side="right")``).  A plain cumsum
    often ends just below 1, where u in [cdf[-1], 1) would give action A;
    setting the end to 1 changes no other draw.
    """
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _gaussian_parts(params: PolicyParams):
    kind = params.kind
    n = kind.action_dim * kind.feature_dim
    w = params.theta[:n].reshape(kind.action_dim, kind.feature_dim)
    log_std = params.theta[n:]
    return w, log_std


def _gaussian_means(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Stacked (1, A, F) @ (N, F, 1) products give every row bit-for-bit the
    # value of w @ x_i; x @ w.T does not.
    return (w[None] @ x[:, :, None])[..., 0]


def _samples(params: PolicyParams, states, actions):
    """Stacked samples as arrays: (N,) int indices for tabular policies,
    (N, F) states and (N, A) actions for Gaussian ones."""
    kind = params.kind
    if isinstance(kind, TabularSoftmax):
        s = np.asarray(states, dtype=np.int64)
        a = np.asarray(actions, dtype=np.int64)
        if s.ndim != 1 or a.shape != s.shape:
            raise ValueError("tabular samples need equal-length 1-d states and actions")
        if s.size and (s.min() < 0 or s.max() >= kind.n_states):
            raise ValueError("state outside tabular range")
        if a.size and (a.min() < 0 or a.max() >= kind.n_actions):
            raise ValueError("action outside tabular range")
        return s, a
    x = np.asarray(states, dtype=float)
    a = np.asarray(actions, dtype=float)
    if x.ndim != 2 or x.shape[1] != kind.feature_dim:
        raise ValueError("state dimension incompatible with descriptor")
    if a.shape != (x.shape[0], kind.action_dim):
        raise ValueError("action dimension incompatible with descriptor")
    return x, a


def policy_act_batch(params: PolicyParams, states, normals) -> np.ndarray:
    """Gaussian actions W s_i + exp(log_std) * normals_i for stacked (N, F)
    states and (N, A) standard normals."""
    kind = params.kind
    if not isinstance(kind, LinearGaussian):
        raise TypeError("policy_act_batch requires a Gaussian descriptor")
    w, log_std = _gaussian_parts(params)
    x, z = _samples(params, states, normals)
    return _gaussian_means(w, x) + np.exp(log_std) * z


def policy_act(params: PolicyParams, state, rng: np.random.Generator):
    """Sample an action from pi_theta(.|state)."""
    kind = params.kind
    if isinstance(kind, TabularSoftmax):
        if not 0 <= int(state) < kind.n_states:
            raise ValueError(f"state {state} outside tabular range")
        cdf = action_cdf(softmax_table(params)[int(state)])
        return int(np.searchsorted(cdf, rng.random(), side="right"))
    x = np.asarray(state, dtype=float)
    if x.shape != (kind.feature_dim,):
        raise ValueError("state dimension incompatible with descriptor")
    z = rng.standard_normal(kind.action_dim)
    return policy_act_batch(params, x[None], z[None])[0]


def policy_log_probs(params: PolicyParams, states, actions) -> np.ndarray:
    """log pi_theta(a_i|s_i) for N stacked samples, shape (N,)."""
    kind = params.kind
    s, a = _samples(params, states, actions)
    if isinstance(kind, TabularSoftmax):
        p = softmax_table(params)[s, a]
        if (p <= 0.0).any():
            raise ValueError("zero-probability action")
        return np.log(p)
    w, log_std = _gaussian_parts(params)
    z = (a - _gaussian_means(w, s)) / np.exp(log_std)
    return (
        np.vecdot(-0.5 * z, z)
        - log_std.sum()
        - 0.5 * kind.action_dim * math.log(2.0 * math.pi)
    )


def _score_rows(params: PolicyParams, states, actions) -> np.ndarray:
    """(N, param_count) exact scores d/dtheta log pi_theta(a_i|s_i)."""
    kind = params.kind
    s, a = _samples(params, states, actions)
    n_samples = s.shape[0]
    if isinstance(kind, TabularSoftmax):
        rows = np.zeros((n_samples, kind.n_states, kind.n_actions))
        idx = np.arange(n_samples)
        rows[idx, s] -= softmax_table(params)[s]
        rows[idx, s, a] += 1.0
        return rows.reshape(n_samples, kind.param_count)
    w, log_std = _gaussian_parts(params)
    diff = a - _gaussian_means(w, s)
    resid = diff * np.exp(-2.0 * log_std)  # (a - m) / sigma^2
    n = kind.action_dim * kind.feature_dim
    rows = np.empty((n_samples, kind.param_count))
    rows[:, :n] = (resid[:, :, None] * s[:, None, :]).reshape(n_samples, n)
    rows[:, n:] = diff * resid - 1.0  # ((a - m)/sigma)^2 - 1
    return rows


def policy_score_sum(params: PolicyParams, states, actions, weights) -> np.ndarray:
    """sum_i weights[i] * d/dtheta log pi_theta(a_i|s_i), shaped like theta.

    Rows are added in sample order starting from zero, so the result equals
    the sequential ``grad += weights[i] * score_i`` bit for bit.
    """
    weights = np.asarray(weights, dtype=float)
    rows = _score_rows(params, states, actions)
    if weights.shape != (rows.shape[0],):
        raise ValueError("one weight per sample expected")
    return (weights[:, None] * rows).sum(axis=0, initial=0.0)


def policy_trajectory_scores(params: PolicyParams, states, actions) -> np.ndarray:
    """Per-trajectory score sums sum_t d/dtheta log pi_theta(a_it|s_it) of
    n stacked T-step trajectories: states (n, T[, F]) without the final
    state, actions (n, T[, A]); shape (n, param_count).

    Row i equals ``policy_score_sum(params, states[i], actions[i], ones)``
    bit for bit.  Tabular rows are visit counts minus visit-weighted action
    probabilities, from one bincount over all trajectories.
    """
    kind = params.kind
    states = np.asarray(states)
    actions = np.asarray(actions)
    n, t = actions.shape[:2]
    flat_states = states.reshape(n * t, *states.shape[2:])
    flat_actions = actions.reshape(n * t, *actions.shape[2:])
    if isinstance(kind, TabularSoftmax):
        s, a = _samples(params, flat_states, flat_actions)
        traj = np.repeat(np.arange(n), t)
        counts = np.bincount(
            traj * kind.param_count + s * kind.n_actions + a,
            minlength=n * kind.param_count,
        ).astype(float)
        visits = np.bincount(
            traj * kind.n_states + s, minlength=n * kind.n_states
        ).astype(float)
        expected = visits.reshape(n, kind.n_states, 1) * softmax_table(params)
        return counts.reshape(n, kind.param_count) - expected.reshape(n, -1)
    rows = _score_rows(params, flat_states, flat_actions)
    return rows.reshape(n, t, kind.param_count).sum(axis=1, initial=0.0)


def policy_log_prob(params: PolicyParams, state, action) -> float:
    """log pi_theta(action|state)."""
    return float(policy_log_probs(params, [state], [action])[0])


def policy_grad_log_prob(params: PolicyParams, state, action) -> np.ndarray:
    """Exact score d/dtheta log pi_theta(action|state), shaped like theta."""
    return policy_score_sum(params, [state], [action], [1.0])
