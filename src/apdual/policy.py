"""Parametric stochastic policies with exact score functions.

Two families, both with theta a flat real vector:

  tabular softmax    pi(a|s) = softmax(theta[s*A : (s+1)*A])[a]
  linear Gaussian    a ~ N(W x, diag(exp(log_std))^2),  W = theta[:A*F] as (A, F)

The Gaussian log standard deviations are learned entries appended to theta
(initialized to log 0.5), so score functions cover them too.

policy_sample_terms turns stacked (N, F) samples into log-probs and
weighted score sums: it validates the samples once and computes one softmax
table (tabular), or hands their feature-major views to gaussian_block_terms
(Gaussian).  That kernel holds states as (F, M) and actions and residuals
as (A, M) blocks, so each numpy call is one loop over the M samples, and
adds each score sum in sample order without a per-sample score matrix.  A
tabular score sum is visit-weighted: counts(s, a) - visits(s) * pi(a|s),
each count and visit weight added in sample order (_tabular_score_sum), so
its last bits may differ from those of a sum of per-sample scores.
policy_log_probs and the per-sample policy_grad_log_prob are calls of
policy_sample_terms, policy_log_prob an N = 1 call of policy_log_probs;
the PPO-Lagrangian minibatch and the batched REINFORCE gradient call the
kernels directly.
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
    """W as an (A, F) matrix, and log_std."""
    kind = params.kind
    n = kind.action_dim * kind.feature_dim
    w = params.theta[:n].reshape(kind.action_dim, kind.feature_dim)
    return w, params.theta[n:]


def _gaussian_means(w: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """The (N, A) means W x_i of stacked (N, F) states, for W as an (A, F)
    matrix or a (1, A, F) stack, written into ``out`` when given.

    The stacked (A, F) @ (N, F, 1) products give every row bit for bit
    the value of w @ x_i, whatever the other rows; x @ w.T does not.  For
    F = 4, A = 2, every entry is (x0 w0 + x2 w2) + (x1 w1 + x3 w3): over
    10^5 random rows that order, and one digest, held under the default
    OpenBLAS kernel with AVX-512 numpy, under the Haswell kernel, under
    Prescott with baseline numpy and under AVX2 numpy
    (tests/test_harness.py pins it).  ``np.einsum("af,nf->na", w, x)`` is
    2-2.5x faster at 256-512 rows and agrees for A = 2, F = 4 on contiguous
    rows, but not for A = 1, for F = 2 or 3, or for strided x."""
    if out is None:
        out = np.empty((x.shape[0], w.shape[-2]))
    np.matmul(w, x[:, :, None], out=out[:, :, None])
    return out


def _block_means(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (A, M) means W x of feature-major (F, M) states, each column bit
    for bit its row's ``_gaussian_means`` value.

    For F = 4, A = 2 (the point envs) each mean is computed elementwise as
    (x0 w0 + x2 w2) + (x1 w1 + x3 w3), the order the stacked product takes
    under every kernel setting tests/test_harness.py pins.  Other shapes
    have no order common to all kernels (at A = 1 and F >= 2 the default
    OpenBLAS kernel fuses multiply-adds; at F = 4 and A >= 4 the Prescott
    kernel adds in another order), so they take the stacked product of
    contiguous rows."""
    if w.shape == (2, 4):
        # (F, A, M) products x_f w_af; a contiguous (F, A, 1) copy of W
        # broadcasts faster than a view of it
        p = x[:, None] * w.T.copy()[:, :, None]
        pairs = p[:2] + p[2:]  # x0 w0 + x2 w2 and x1 w1 + x3 w3
        return pairs[0] + pairs[1]
    return _gaussian_means(w, np.ascontiguousarray(x.T)).T


def _block_residuals(params: PolicyParams, x: np.ndarray, a: np.ndarray):
    """The (A, M) residuals a - W x of feature-major samples, states x
    (F, M) and actions a (A, M), and log_std."""
    kind = params.kind
    if x.ndim != 2 or x.shape[0] != kind.feature_dim:
        raise ValueError("state dimension incompatible with descriptor")
    if a.shape != (kind.action_dim, x.shape[1]):
        raise ValueError("action dimension incompatible with descriptor")
    w, log_std = _gaussian_parts(params)
    return a - _block_means(w, x), log_std


def _block_score_sums(x, diff, log_std, weights=None, groups: int = 1) -> np.ndarray:
    """(param_count, groups) Gaussian score sums over the columns of
    feature-major states x (F, M) and residuals diff (A, M), cut into
    ``groups`` equal runs of consecutive columns: the sum over a run of
    weights[i] * d/dtheta log pi(a_i|s_i), unit weights when None.

    Each run is added in column order starting from zero: the cumulative
    sum's last entry plus 0.0, which turns an all -0.0 run into +0.0, as a
    sum from +0.0 does.  So a run equals the sequential ``grad +=
    weights[i] * score_i`` bit for bit, with no (M, param_count) score
    matrix."""
    a_dim, m = diff.shape
    n = a_dim * x.shape[0]
    resid = diff * libm_exp(-2.0 * log_std)[:, None]  # (a - m) / sigma^2
    terms = np.empty((n + a_dim, m))
    np.multiply(resid[:, None], x, out=terms[:n].reshape(a_dim, x.shape[0], m))
    tail = terms[n:]
    np.subtract(np.multiply(diff, resid, out=tail), 1.0, out=tail)  # ((a - m)/sigma)^2 - 1
    if weights is not None:
        terms *= weights
    terms = terms.reshape(n + a_dim, groups, m // groups)
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:2])
    return terms.cumsum(axis=-1)[..., -1] + 0.0


def _checked_weights(weights, m: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise ValueError("one weight per sample expected")
    return weights


def gaussian_block_terms(params: PolicyParams, x: np.ndarray, a: np.ndarray):
    """Log-probs and score sums of M Gaussian samples held feature-major,
    states x (F, M) and actions a (A, M) with one column per sample:
    returns ``(log_probs, score_sum)`` as policy_sample_terms does, with
    ``rows`` indexing columns.

    Every numpy call runs along the M samples, except the log-probs' row
    dot products: np.vecdot takes them over a C-contiguous (M, A) copy, the
    layout whose per-row sums the pinned digests were taken on."""
    kind = params.kind
    diff, log_std = _block_residuals(params, x, a)
    z = np.ascontiguousarray((diff / libm_exp(log_std)[:, None]).T)
    log_probs = (
        np.vecdot(-0.5 * z, z)
        - log_std.sum()
        - 0.5 * kind.action_dim * math.log(2.0 * math.pi)
    )

    def score_sum(rows, weights) -> np.ndarray:
        xs, d = (x, diff) if rows is None else (x.take(rows, 1), diff.take(rows, 1))
        weights = _checked_weights(weights, d.shape[1])
        return _block_score_sums(xs, d, log_std, weights)[:, 0]

    return log_probs, score_sum


def _tabular_score_sum(probs: np.ndarray, s, a, weights) -> np.ndarray:
    """sum_j weights[j] * d/dtheta log pi(a_j|s_j) of tabular samples, with
    probs the policy's (S, A) softmax table: counts - visits * probs, from
    two weighted bincounts with no per-sample score matrix.

    counts[s, a] and visits[s] each add their samples' weights in sample
    order starting from +0.0, and each entry then takes one product and one
    difference: an entry without samples is +0.0."""
    n_states, n_actions = probs.shape
    counts = np.bincount(s * n_actions + a, weights=weights, minlength=probs.size)
    visits = np.bincount(s, weights=weights, minlength=n_states)
    return counts - (visits[:, None] * probs).ravel()


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
        out = _gaussian_means(w, states, out)
        out += scaled[k]
        return out

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
    None, shaped like theta.  A Gaussian sum adds the rows' weighted scores
    in order starting from zero, so it equals the sequential ``grad +=
    weights[j] * score_i`` bit for bit.  A tabular sum is counts - visits *
    probs (_tabular_score_sum): each (s, a) count and each state's visit
    weight adds its rows' weights in order from zero.  Both come from one
    validation of the samples and one softmax table (tabular) or one
    gaussian_block_terms call on feature-major views of them (Gaussian).
    An action of probability zero raises ValueError.
    """
    kind = params.kind
    s, a = _samples(params, states, actions)
    if isinstance(kind, LinearGaussian):
        return gaussian_block_terms(params, s.T, a.T)
    probs = softmax_table(params)
    p = probs[s, a]
    if (p <= 0.0).any():
        raise ValueError("zero-probability action")

    def score_sum(rows, weights) -> np.ndarray:
        rs, ra = (s, a) if rows is None else (s.take(rows), a.take(rows))
        return _tabular_score_sum(probs, rs, ra, _checked_weights(weights, rs.size))

    return np.log(p), score_sum


def policy_log_probs(params: PolicyParams, states, actions) -> np.ndarray:
    """log pi_theta(a_i|s_i) for N stacked samples, shape (N,)."""
    return policy_sample_terms(params, states, actions)[0]


def policy_log_prob(params: PolicyParams, state, action) -> float:
    """log pi_theta(action|state)."""
    return float(policy_log_probs(params, [state], [action])[0])


def policy_grad_log_prob(params: PolicyParams, state, action) -> np.ndarray:
    """Exact score d/dtheta log pi_theta(action|state), shaped like theta."""
    _, score_sum = policy_sample_terms(params, [state], [action])
    return score_sum(None, [1.0])
