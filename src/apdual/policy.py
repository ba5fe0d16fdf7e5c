"""Parametric stochastic policies with exact score functions.

Two families, both with theta a flat real vector:

  tabular softmax    pi(a|s) = softmax(theta[s*A : (s+1)*A])[a]
  linear Gaussian    a ~ N(W x, diag(exp(log_std))^2),  W = theta[:A*F] as (A, F)

The Gaussian log standard deviations are learned entries appended to theta
(initialized to log 0.5), so score functions cover them too.

policy_sample_terms is the one place that turns stacked samples into
log-probs and weighted score sums: it validates the samples once and
computes one residual a - W s (Gaussian) or one softmax table (tabular),
from which both follow.  policy_log_probs and the per-sample
policy_grad_log_prob are calls of it, and policy_log_prob an N = 1 call of
policy_log_probs.
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


def libm_exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x) of a float array, each entry from math.exp.

    Under AVX-512 dispatch numpy's float64 exp is its own algorithm, whose
    roundings differ from libm's in a few percent of entries; math.exp is
    libm's under every dispatch.  Where math.exp overflows, the result is
    np.exp(x): numpy's overflow warning or error, and inf."""
    try:
        out = np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size)
    except OverflowError:
        return np.exp(x)
    return out.reshape(x.shape)


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
    """W as a (1, A, F) stack for ``_gaussian_means``, and log_std."""
    kind = params.kind
    n = kind.action_dim * kind.feature_dim
    w = params.theta[:n].reshape(1, kind.action_dim, kind.feature_dim)
    log_std = params.theta[n:]
    return w, log_std


def _gaussian_means(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (N, A) means W x_i of stacked (N, F) states, for W as a (1, A, F)
    stack.

    The stacked (1, A, F) @ (N, F, 1) products give every row bit for bit
    the value of w @ x_i, whatever the other rows; x @ w.T does not.  For
    F = 4, A = 2, every entry is (x0 w0 + x2 w2) + (x1 w1 + x3 w3): over
    10^5 random rows that order, and one digest, held under the default
    OpenBLAS kernel with AVX-512 numpy, under the Haswell kernel, under
    Prescott with baseline numpy and under AVX2 numpy
    (tests/test_harness.py pins it).  ``np.einsum("af,nf->na", w, x)`` is
    2-2.5x faster at 256-512 rows and agrees for A = 2, F = 4 on contiguous
    rows, but not for A = 1, for F = 2 or 3, or for strided x."""
    return (w @ x[:, :, None])[..., 0]


def _gaussian_residual(params: PolicyParams, x: np.ndarray, a: np.ndarray):
    """The residuals a_i - W x_i of stacked samples, and log_std."""
    w, log_std = _gaussian_parts(params)
    return a - _gaussian_means(w, x), log_std


def _gaussian_score_rows(x: np.ndarray, diff: np.ndarray, log_std: np.ndarray):
    """(N, param_count) Gaussian scores from states x and residuals diff."""
    n_samples, f = x.shape
    n = diff.shape[1] * f
    resid = diff * libm_exp(-2.0 * log_std)  # (a - m) / sigma^2
    rows = np.empty((n_samples, n + diff.shape[1]))
    rows[:, :n] = (resid[:, :, None] * x[:, None, :]).reshape(n_samples, n)
    rows[:, n:] = diff * resid - 1.0  # ((a - m)/sigma)^2 - 1
    return rows


def _tabular_score_rows(kind: TabularSoftmax, probs: np.ndarray, s, a) -> np.ndarray:
    """(N, param_count) softmax scores, one-hot(s, a) minus probs[s] in row s."""
    n_samples = s.shape[0]
    rows = np.zeros((n_samples, kind.n_states, kind.n_actions))
    idx = np.arange(n_samples)
    rows[idx, s] -= probs[s]
    rows[idx, s, a] += 1.0
    return rows.reshape(n_samples, kind.param_count)


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


def gaussian_actor(params: PolicyParams, normals):
    """The action rule of a linear Gaussian policy for pre-drawn (..., N, A)
    standard normals: ``act(states, k, out=None)`` returns W s_i +
    exp(log_std) * normals[k][i] for stacked (N, F) states, written into
    ``out`` when given.

    W and the scaled normals are computed once here, so a lockstep loop
    pays only the mean W s per step.
    """
    kind = params.kind
    if not isinstance(kind, LinearGaussian):
        raise TypeError("gaussian_actor requires a Gaussian descriptor")
    normals = np.asarray(normals, dtype=float)
    if normals.shape[-1:] != (kind.action_dim,):
        raise ValueError("action dimension incompatible with descriptor")
    w, log_std = _gaussian_parts(params)
    scaled = libm_exp(log_std) * normals

    def act(states, k, out=None):
        return np.add(_gaussian_means(w, states), scaled[k], out=out)

    return act


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
    return gaussian_actor(params, z[None, None])(x[None], 0)[0]


def policy_sample_terms(params: PolicyParams, states, actions):
    """Log-probs and score sums of N stacked samples from one pass over them:
    returns ``(log_probs, score_sum)``.

    log_probs is the (N,) array log pi_theta(a_i|s_i).  ``score_sum(rows,
    weights)`` is sum_j weights[j] * d/dtheta log pi_theta(a_i|s_i) over
    i = rows[j] for an index array ``rows``, or over i = j for ``rows``
    None, shaped like theta; the rows are added in order starting from
    zero, so the result equals the sequential ``grad += weights[j] *
    score_i`` bit for bit.  Both come from one
    validation of the samples and one residual a - W s (Gaussian) or one
    softmax table (tabular).  An action of probability zero raises
    ValueError.
    """
    kind = params.kind
    s, a = _samples(params, states, actions)
    if isinstance(kind, TabularSoftmax):
        probs = softmax_table(params)
        p = probs[s, a]
        if (p <= 0.0).any():
            raise ValueError("zero-probability action")
        log_probs = np.log(p)

        def score_rows(rows):
            if rows is None:
                return _tabular_score_rows(kind, probs, s, a)
            return _tabular_score_rows(kind, probs, s.take(rows), a.take(rows))

    else:
        diff, log_std = _gaussian_residual(params, s, a)
        z = diff / libm_exp(log_std)
        log_probs = (
            np.vecdot(-0.5 * z, z)
            - log_std.sum()
            - 0.5 * kind.action_dim * math.log(2.0 * math.pi)
        )

        def score_rows(rows):
            if rows is None:
                return _gaussian_score_rows(s, diff, log_std)
            x, d = s.take(rows, axis=0), diff.take(rows, axis=0)
            return _gaussian_score_rows(x, d, log_std)

    def score_sum(rows, weights) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        scores = score_rows(rows)
        if weights.shape != (scores.shape[0],):
            raise ValueError("one weight per sample expected")
        return (weights[:, None] * scores).sum(axis=0, initial=0.0)

    return log_probs, score_sum


def policy_log_probs(params: PolicyParams, states, actions) -> np.ndarray:
    """log pi_theta(a_i|s_i) for N stacked samples, shape (N,)."""
    return policy_sample_terms(params, states, actions)[0]


def policy_trajectory_scores(
    params: PolicyParams, states, actions, probs: np.ndarray | None = None
) -> np.ndarray:
    """Per-trajectory score sums sum_t d/dtheta log pi_theta(a_it|s_it) of
    n stacked T-step trajectories: states (n, T[, F]) without the final
    state, actions (n, T[, A]); shape (n, param_count).

    Row i equals the score sum of ``policy_sample_terms(params, states[i],
    actions[i])`` with unit weights, bit for bit.  Tabular rows are visit
    counts minus visit-weighted action probabilities, from one bincount over
    all trajectories; ``probs`` is ``softmax_table(params)`` when the caller
    has it.
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
        if probs is None:
            probs = softmax_table(params)
        expected = visits.reshape(n, kind.n_states, 1) * probs
        return counts.reshape(n, kind.param_count) - expected.reshape(n, -1)
    x, a = _samples(params, flat_states, flat_actions)
    diff, log_std = _gaussian_residual(params, x, a)
    rows = _gaussian_score_rows(x, diff, log_std)
    return rows.reshape(n, t, kind.param_count).sum(axis=1, initial=0.0)


def policy_log_prob(params: PolicyParams, state, action) -> float:
    """log pi_theta(action|state)."""
    return float(policy_log_probs(params, [state], [action])[0])


def policy_grad_log_prob(params: PolicyParams, state, action) -> np.ndarray:
    """Exact score d/dtheta log pi_theta(action|state), shaped like theta."""
    _, score_sum = policy_sample_terms(params, [state], [action])
    return score_sum(None, [1.0])
