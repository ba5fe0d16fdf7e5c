"""Lagrangian machinery against enumeration and closed-form oracles.

The REINFORCE estimator is checked two ways on a two-action bandit: exact
enumeration of every batch outcome (proving leave-one-out unbiasedness with
no sampling error) and a seeded Monte-Carlo run compared within standard
errors.  Surrogate values use hand-computed clip arithmetic.
"""

import math

import numpy as np
import pytest

from apdual import lagrangian, solver
from apdual.cmdp import (
    Cmdp,
    NonFiniteError,
    RolloutBatch,
    SamplingConfig,
    VectorStep,
    batch_values,
    collect_batch,
    discounted_value,
)
from apdual.lagrangian import (
    AdvantageBatch,
    PpolConfig,
    advantage_batch,
    backward_sums,
    lagrangian_values,
    ppol_surrogate_grad,
    reinforce_grad_from_batch,
)
from apdual.envs import (
    PointEnvConfig,
    default_hazard_gridworld,
    make_gridworld,
    make_point_env,
)
from apdual.duals import PidGains
from apdual.policy import (
    LinearGaussian,
    PolicyParams,
    TabularSoftmax,
    init_params,
    policy_grad_log_prob,
    policy_log_prob,
    policy_log_probs,
    policy_sample_terms,
    policy_trajectory_scores,
    softmax_table,
)
from apdual.schedules import LrSchedule
from apdual.solver import SolverConfig, papd_run

GAMMA = 0.9


def lagrangian_value(j_r, j_c, lam, limit):
    """Reference -J_R + lambda (J_C - d) of one trajectory."""
    return -j_r + lam * (j_c - limit)


def ppol_surrogate(batch, params, lam, cfg):
    """Reference surrogate, the batch mean of
    (1/(1+lambda)) (min(rho A_R, clip(rho) A_R) - lambda A_C);
    ppol_surrogate_grad is its ascent direction."""
    lp = policy_log_probs(params, batch.states, batch.actions)
    rho = np.exp(lp - batch.log_prob_old)
    clipped = np.clip(rho, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
    obj = np.minimum(rho * batch.adv_r, clipped * batch.adv_r)
    return float((obj - lam * batch.adv_c).mean() / (1.0 + lam))


def constraint_value(j_c, limit):
    """Reference g = J_C - d."""
    return j_c - limit


def policy_score_sum(params, states, actions, weights):
    """Reference sum_i weights[i] * d/dtheta log pi_theta(a_i|s_i), shaped
    like theta, from policy_sample_terms' score sum over all rows."""
    _, score_sum = policy_sample_terms(params, states, actions)
    return score_sum(None, weights)


def trajectory_score(params, states, actions):
    """Reference sum of exact scores d log pi(a_t|s_t) over one rollout's
    T + 1 states and T actions."""
    t = len(actions)
    return policy_trajectory_scores(
        params, np.asarray(states[:t])[None], np.asarray(actions)[None]
    )[0]


def gae_advantages(rewards, values, gamma, gae_lambda):
    """Reference GAE of one rollout: A_t = sum_l (gamma gae_lambda)^l
    delta_{t+l} with delta_t = r_t + gamma V_{t+1} - V_t, by a backward
    loop; values carries the bootstrap entry."""
    if len(values) != len(rewards) + 1:
        raise ValueError("values must have length len(rewards) + 1")
    adv = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * values[t + 1] - values[t] + gamma * gae_lambda * acc
        adv[t] = acc
    return adv


def bandit_cmdp(rewards, costs, gamma=GAMMA):
    """One state, two actions, deterministic reward/cost, horizon-1 use."""
    bound = max(abs(float(c)) for c in costs) or 1.0
    reward_of, cost_of = np.asarray(rewards, float), np.asarray(costs, float)
    return Cmdp(
        gamma=gamma,
        cost_bound=bound,
        initial_state=0,
        vector_step=VectorStep(
            0, lambda s, a, z: s, lambda s, a, s2: (reward_of[a], cost_of[a])
        ),
        n_states=1,
        n_actions=2,
    )


def bandit_batch(actions, rewards, costs):
    """One-step bandit rollouts, one per entry of actions."""
    a = np.asarray(actions, dtype=np.int64)[:, None]
    return RolloutBatch(
        np.zeros((len(a), 2), dtype=np.int64),
        a,
        np.asarray(rewards, dtype=float)[a],
        np.asarray(costs, dtype=float)[a],
    )


def bandit_exact_grad(params, rewards, costs, lam, d):
    """Enumeration oracle: grad L = sum_a pi(a) score(a) w(a)."""
    probs = softmax_table(params)[0]
    grad = np.zeros_like(params.theta)
    for a in range(2):
        w = -rewards[a] + lam * (costs[a] - d)
        grad += probs[a] * w * policy_grad_log_prob(params, 0, a)
    return grad


def dot_product_values(returns, costs, lam, limit):
    """-J_R + lambda . (J_C - d) with J_C, d and lambda as one-entry
    arrays: the one-term np.vecdot adds its product to +0.0."""
    penalty = np.vecdot((costs - limit)[:, None], np.array([lam]))
    return -returns + penalty


class TestValueArithmetic:
    def test_lagrangian_value(self):
        assert lagrangian_value(2.0, 3.0, 0.5, 1.0) == pytest.approx(
            -2.0 + 0.5 * 2.0
        )

    def test_constraint_value(self):
        assert constraint_value(3.0, 1.0) == 2.0
        assert constraint_value(1.0, 2.0) == -1.0

    @pytest.mark.parametrize("lam", [0.0, 0.7, 2.5])
    def test_weights_equal_dot_product_form(self, lam):
        # Zero returns, costs below, at and above the limit: at lambda = 0
        # a cost below the limit makes a -0.0 product, which the one-term
        # dot product turns into +0.0.
        rng = np.random.default_rng(5)
        returns = np.where(rng.random(400) < 0.3, 0.0, rng.normal(size=400) * 20.0)
        costs = 10.0 + rng.normal(size=400) * 3.0
        costs[rng.random(400) < 0.2] = 10.0
        costs[:4] = (3.0, 10.0, 12.0, 3.0)
        returns[:4] = 0.0
        got = lagrangian_values(returns, costs, lam, 10.0)
        want = dot_product_values(returns, costs, lam, 10.0)
        assert got.tobytes() == want.tobytes()
        if lam == 0.0:  # the data reach the case: a plain sum keeps -0.0
            plain = -returns + (costs - 10.0) * lam
            assert np.signbit(plain[0]) and not np.signbit(got[0])

    def test_weights_equal_dot_product_form_on_a_grid_batch(self):
        # iteration 0 of a gridworld run: lambda = 0, and rollouts that never
        # reach the goal or a hazard
        cmdp = make_gridworld(default_hazard_gridworld())
        params = init_params(TabularSoftmax(cmdp.n_states, cmdp.n_actions))
        batch = collect_batch(cmdp, params, SamplingConfig(64, 24), (0, 0))
        returns, costs = batch_values(batch, cmdp.gamma)
        for lam in (0.0, 0.3):
            got = lagrangian_values(returns, costs, lam, 10.0)
            want = dot_product_values(returns, costs, lam, 10.0)
            assert got.tobytes() == want.tobytes()


class TestTrajectoryScore:
    def test_tabular_fast_path_matches_loop(self):
        rng = np.random.default_rng(0)
        kind = TabularSoftmax(4, 3)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        t = 15
        states = list(rng.integers(0, 4, size=t + 1))
        actions = list(rng.integers(0, 3, size=t))
        fast = trajectory_score(params, states, actions)
        slow = sum(
            policy_grad_log_prob(params, states[i], actions[i]) for i in range(t)
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)

    def test_gaussian_path(self):
        rng = np.random.default_rng(1)
        kind = LinearGaussian(2, 2)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        t = 5
        states = [rng.normal(size=2) for _ in range(t + 1)]
        actions = [rng.normal(size=2) for _ in range(t)]
        got = trajectory_score(params, states, actions)
        want = sum(
            policy_grad_log_prob(params, states[i], actions[i]) for i in range(t)
        )
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestReinforceBandit:
    REWARDS = (1.0, 3.0)
    COSTS = (2.0, 0.5)
    LIMIT = 1.0

    def _params(self):
        return PolicyParams(TabularSoftmax(1, 2), np.array([0.4, -0.3]))

    def enumerate_batches(self, params, n, lam):
        """Expectation of the estimator over every n-trajectory outcome."""
        probs = softmax_table(params)[0]
        total = np.zeros_like(params.theta)
        for key in range(2**n):
            acts = [(key >> i) & 1 for i in range(n)]
            weight = math.prod(probs[a] for a in acts)
            batch = bandit_batch(acts, self.REWARDS, self.COSTS)
            est = reinforce_grad_from_batch(batch, GAMMA, params, lam, self.LIMIT)
            total += weight * est
        return total

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loo_estimator_unbiased_by_enumeration(self, n):
        params = self._params()
        lam = 0.7
        want = bandit_exact_grad(params, self.REWARDS, self.COSTS, lam, self.LIMIT)
        got = self.enumerate_batches(params, n, lam)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_constant_lagrangian_gives_exactly_zero(self):
        # with w(a) identical across actions the LOO weights vanish
        params = self._params()
        rewards, costs = (1.0, 1.0), (0.5, 0.5)
        batch = bandit_batch((0, 1, 1, 0), rewards, costs)
        got = reinforce_grad_from_batch(batch, GAMMA, params, 2.0, 0.0)
        np.testing.assert_array_equal(got, np.zeros(2))

    def test_estimator_affine_in_lambda(self):
        # w_i is affine in lambda, so on a fixed batch the estimate is too
        params = self._params()
        batch = bandit_batch((0, 1, 1), self.REWARDS, self.COSTS)

        def grad(lam):
            return reinforce_grad_from_batch(batch, GAMMA, params, lam, self.LIMIT)

        g0, g1, g2 = grad(0.0), grad(1.0), grad(2.0)
        np.testing.assert_allclose(g2, g0 + 2.0 * (g1 - g0), rtol=1e-12, atol=1e-14)

    def test_monte_carlo_within_3_se(self):
        params = self._params()
        lam, n = 0.7, 10_000
        cmdp = bandit_cmdp(self.REWARDS, self.COSTS)
        sampling = SamplingConfig(n_traj=n, horizon=1)
        batch = collect_batch(cmdp, params, sampling, seed=42)
        got = reinforce_grad_from_batch(batch, cmdp.gamma, params, lam, self.LIMIT)

        # the per-trajectory terms of the same batch give an empirical
        # standard error
        weights = np.array(
            [
                lagrangian_value(
                    *discounted_value(batch.rewards[i], batch.costs[i], GAMMA),
                    lam,
                    self.LIMIT,
                )
                for i in range(n)
            ]
        )
        baselines = (weights.sum() - weights) / (n - 1)
        terms = np.stack(
            [
                (weights[i] - baselines[i])
                * trajectory_score(params, batch.states[i], batch.actions[i])
                for i in range(n)
            ]
        )
        np.testing.assert_allclose(terms.mean(axis=0), got, rtol=1e-12)
        want = bandit_exact_grad(params, self.REWARDS, self.COSTS, lam, self.LIMIT)
        se = terms.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(got - want) <= 3.0 * se + 1e-12)


def reference_score(params, states, actions):
    """Per-rollout score: visit counts minus visit-weighted probabilities
    for tabular policies, the per-step score sum for Gaussian ones."""
    t = len(actions)
    kind = params.kind
    if isinstance(kind, TabularSoftmax):
        states = np.asarray(states[:t], dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        counts = np.bincount(
            states * kind.n_actions + actions, minlength=kind.param_count
        ).astype(float)
        visits = np.bincount(states, minlength=kind.n_states).astype(float)
        return counts - (visits[:, None] * softmax_table(params)).ravel()
    return policy_score_sum(params, states[:t], actions, np.ones(t))


def reference_reinforce_grad(batch, gamma, params, lam, limit):
    """The estimator as a per-trajectory loop in batch order."""
    n = len(batch)
    weights = np.array(
        [
            lagrangian_value(
                *discounted_value(batch.rewards[i], batch.costs[i], gamma), lam, limit
            )
            for i in range(n)
        ]
    )
    baselines = (weights.sum() - weights) / (n - 1)
    grad = np.zeros_like(params.theta)
    for i in range(n):
        score = reference_score(params, batch.states[i], batch.actions[i])
        grad += (weights[i] - baselines[i]) * score
    return grad / n


class TestBatchedReinforce:
    """The one-pass gradient over a batch equals the per-trajectory loop
    bit for bit, for both policy kinds."""

    @staticmethod
    def grid_batch():
        spec = default_hazard_gridworld()
        kind = TabularSoftmax(spec.n_cells, 4)
        theta = np.random.default_rng(8).normal(size=(spec.n_cells, 4))
        theta[:, 1] += 2.0  # some rollouts reach the goal mid-horizon
        params = PolicyParams(kind, theta.ravel())
        cmdp = make_gridworld(spec)
        batch = collect_batch(cmdp, params, SamplingConfig(16, 24), (3, 1))
        return cmdp, params, batch

    @staticmethod
    def point_batch():
        cmdp = make_point_env("circle", PointEnvConfig(noise_std=0.05))
        kind = LinearGaussian(4, 2)
        theta = np.random.default_rng(9).normal(size=kind.param_count) * 0.3
        params = PolicyParams(kind, theta)
        batch = collect_batch(cmdp, params, SamplingConfig(8, 64), (3, 2))
        return cmdp, params, batch

    @pytest.mark.parametrize("batch", ["grid_batch", "point_batch"])
    def test_equals_per_trajectory_loop(self, batch):
        cmdp, params, rollouts = getattr(self, batch)()
        lam, limit = 0.7, 10.0
        want = reference_reinforce_grad(rollouts, cmdp.gamma, params, lam, limit)
        got = reinforce_grad_from_batch(rollouts, cmdp.gamma, params, lam, limit)
        assert np.array_equal(got, want)
        values = batch_values(rollouts, cmdp.gamma)
        given = reinforce_grad_from_batch(
            rollouts, cmdp.gamma, params, lam, limit, values
        )
        assert np.array_equal(given, want)
        for states, actions in zip(rollouts.states, rollouts.actions):
            assert np.array_equal(
                trajectory_score(params, states, actions),
                reference_score(params, states, actions),
            )


class TestGae:
    def test_lambda_zero_is_td_error(self):
        rng = np.random.default_rng(2)
        t = 8
        rewards = rng.normal(size=t)
        values = rng.normal(size=t + 1)
        adv = gae_advantages(rewards, values, GAMMA, 0.0)
        want = rewards + GAMMA * values[1:] - values[:-1]
        np.testing.assert_allclose(adv, want, rtol=1e-12)

    def test_lambda_one_is_return_minus_value(self):
        rng = np.random.default_rng(3)
        t = 8
        rewards = rng.normal(size=t)
        values = rng.normal(size=t + 1)
        adv = gae_advantages(rewards, values, GAMMA, 1.0)
        for i in range(t):
            ret = sum(GAMMA ** (k - i) * rewards[k] for k in range(i, t))
            ret += GAMMA ** (t - i) * values[t]
            assert adv[i] == pytest.approx(ret - values[i], rel=1e-10, abs=1e-12)

    def test_values_length_checked(self):
        batch = RolloutBatch(
            np.zeros((1, 2), dtype=np.int64), np.zeros((1, 1), dtype=np.int64),
            np.ones((1, 1)), np.zeros((1, 1)),
        )
        params = init_params(TabularSoftmax(1, 1))
        for shape in ((1, 3, 2), (1, 2, 1), (2, 2, 2)):
            with pytest.raises(ValueError, match="values must have shape"):
                advantage_batch(batch, params, GAMMA, PpolConfig(), np.zeros(shape))

    @pytest.mark.parametrize("gae_lambda", [0.0, 0.95, 1.0])
    def test_batch_pass_matches_per_rollout_reference(self, gae_lambda):
        # advantage_batch's one backward pass, before centering, against the
        # per-rollout loop for the reward and the cost signal
        rng = np.random.default_rng(4)
        n, t = 5, 7
        batch = RolloutBatch(
            rng.integers(0, 3, size=(n, t + 1)), rng.integers(0, 2, size=(n, t)),
            rng.normal(size=(n, t)), rng.random((n, t)),
        )
        values = rng.normal(size=(n, t + 1, 2))
        params = init_params(TabularSoftmax(3, 2))
        cfg = PpolConfig(gae_lambda=gae_lambda)
        got = advantage_batch(batch, params, GAMMA, cfg, values)

        def per_rollout(signal, column):
            return np.concatenate([
                gae_advantages(signal[i], values[i, :, column], GAMMA, gae_lambda)
                for i in range(n)
            ])

        adv_r = per_rollout(batch.rewards, 0)
        adv_c = per_rollout(batch.costs, 1)
        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.adv_r, adv_r - adv_r.mean(), **tol)
        np.testing.assert_allclose(got.adv_c, adv_c, **tol)


def one_step_batch(params, samples, rho=None):
    """Assemble an AdvantageBatch by hand; rho forces importance ratios."""
    states = [s for s, *_ in samples]
    actions = [a for _, a, *_ in samples]
    adv_r = np.array([r for *_, r, _ in samples], dtype=float)
    adv_c = np.array([c for *_, c in samples], dtype=float)
    lp = np.array(
        [policy_log_prob(params, s, a) for s, a in zip(states, actions)]
    )
    if rho is not None:
        lp = lp - np.log(rho)
    return AdvantageBatch(states, actions, lp, adv_r, adv_c)


class TestPpolSurrogate:
    def _params(self):
        rng = np.random.default_rng(4)
        kind = TabularSoftmax(2, 3)
        return PolicyParams(kind, rng.normal(size=kind.param_count))

    def test_worked_example_rho_one(self):
        # rho = 1, A_R = 2, A_C = 1, lambda = 1 -> (2 - 1) / 2 = 0.5
        params = self._params()
        batch = one_step_batch(params, [(0, 1, 2.0, 1.0)])
        cfg = PpolConfig()
        val = ppol_surrogate(batch, params, 1.0, cfg)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_worked_example_clip_active(self):
        # rho = 1.5, eps = 0.2, A_R = 1, lambda = 0 -> min(1.5, 1.2) = 1.2
        params = self._params()
        batch = one_step_batch(params, [(0, 1, 1.0, 0.0)], rho=np.array([1.5]))
        val = ppol_surrogate(batch, params, 0.0, PpolConfig(clip_ratio=0.2))
        assert val == pytest.approx(1.2, rel=1e-12)

    def test_negative_advantage_clips_from_below(self):
        # rho = 0.5, A_R = -1 -> min(-0.5, -0.8) = -0.8
        params = self._params()
        batch = one_step_batch(params, [(1, 0, -1.0, 0.0)], rho=np.array([0.5]))
        val = ppol_surrogate(batch, params, 0.0, PpolConfig(clip_ratio=0.2))
        assert val == pytest.approx(-0.8, rel=1e-12)

    def test_lambda_zero_reduces_to_ppo(self):
        params = self._params()
        rng = np.random.default_rng(5)
        samples = [
            (int(rng.integers(2)), int(rng.integers(3)), float(rng.normal()), 1.0)
            for _ in range(20)
        ]
        batch = one_step_batch(params, samples)
        cfg = PpolConfig()
        val = ppol_surrogate(batch, params, 0.0, cfg)
        plain_ppo = float(
            np.minimum(batch.adv_r, batch.adv_r).mean()
        )  # rho = 1: min(rho A, clip A) = A
        assert val == pytest.approx(plain_ppo, rel=1e-12)

    def test_single_constraint_enforced(self):
        # one cost advantage per sample: a constraint axis is rejected
        params = self._params()
        batch = one_step_batch(params, [(0, 0, 1.0, 0.0), (1, 2, 0.5, 1.0)])
        for adv_c in (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2))):
            with pytest.raises(ValueError, match="inconsistent"):
                AdvantageBatch(
                    batch.states, batch.actions, batch.log_prob_old, batch.adv_r, adv_c
                )

    def test_grad_matches_fd_at_lambda_zero(self):
        # at lambda = 0 the surrogate is an exact function of theta away
        # from clip boundaries, so central differences apply
        params = self._params()
        rng = np.random.default_rng(6)
        samples = [
            (int(rng.integers(2)), int(rng.integers(3)), float(rng.normal()), 0.5)
            for _ in range(12)
        ]
        batch = one_step_batch(params, samples)
        cfg = PpolConfig(clip_ratio=0.5)  # wide clip: stay on smooth branch
        lam = 0.0
        g = ppol_surrogate_grad(batch, np.arange(len(batch)), params, lam, cfg)
        h = 1e-6
        fd = np.empty_like(params.theta)
        for i in range(params.theta.size):
            up = params.theta.copy()
            up[i] += h
            dn = params.theta.copy()
            dn[i] -= h
            fd[i] = (
                ppol_surrogate(batch, params.replace_theta(up), lam, cfg)
                - ppol_surrogate(batch, params.replace_theta(dn), lam, cfg)
            ) / (2.0 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_grad_cost_term_is_importance_weighted_score(self):
        # the penalty part of the ascent direction is
        # -lambda/(1+lambda) mean(rho A_C score); verify against a direct sum
        params = self._params()
        rng = np.random.default_rng(7)
        samples = [
            (int(rng.integers(2)), int(rng.integers(3)), 0.0, float(rng.normal()))
            for _ in range(10)
        ]
        batch = one_step_batch(params, samples, rho=np.full(10, 1.3))
        lam = 0.8
        cfg = PpolConfig()
        g = ppol_surrogate_grad(batch, np.arange(len(batch)), params, lam, cfg)
        want = np.zeros_like(params.theta)
        for i in range(10):
            score = policy_grad_log_prob(params, batch.states[i], batch.actions[i])
            want += -lam * 1.3 * batch.adv_c[i] * score
        want /= 10 * (1.0 + lam)
        np.testing.assert_allclose(g, want, rtol=1e-10, atol=1e-12)

    def test_clipped_samples_do_not_move_reward_term(self):
        # a positive-advantage sample with rho above the ceiling sits on the
        # flat clipped branch: zero gradient from the reward part
        params = self._params()
        batch = one_step_batch(params, [(0, 1, 2.0, 0.0)], rho=np.array([1.5]))
        g = ppol_surrogate_grad(batch, np.arange(len(batch)), params, 0.0, PpolConfig())
        np.testing.assert_array_equal(g, np.zeros_like(params.theta))


class TestAdvantageBatchAssembly:
    def _setup(self):
        rng = np.random.default_rng(8)
        kind = TabularSoftmax(3, 2)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        n, t = 4, 3
        rollouts = RolloutBatch(
            rng.integers(0, 3, size=(n, t + 1)),
            rng.integers(0, 2, size=(n, t)),
            rng.normal(size=(n, t)),
            rng.random((n, t)),
        )
        return params, rollouts

    def test_flattening_and_log_probs(self):
        params, rollouts = self._setup()
        zeros = np.zeros((4, 4, 2))
        batch = advantage_batch(rollouts, params, GAMMA, PpolConfig(), zeros)
        assert len(batch) == rollouts.actions.size
        k = 0
        for i in range(4):
            for t in range(3):
                state, action = rollouts.states[i, t], rollouts.actions[i, t]
                assert batch.states[k] == state
                assert batch.actions[k] == action
                assert batch.log_prob_old[k] == pytest.approx(
                    policy_log_prob(params, state, action)
                )
                k += 1

    def test_reward_advantages_centered(self):
        params, rollouts = self._setup()
        zeros = np.zeros((4, 4, 2))
        batch = advantage_batch(rollouts, params, GAMMA, PpolConfig(), zeros)
        assert abs(batch.adv_r.mean()) < 1e-12

    def test_cost_advantages_not_centered(self):
        params, rollouts = self._setup()
        zeros = np.zeros((4, 4, 2))
        batch = advantage_batch(rollouts, params, GAMMA, PpolConfig(), zeros)
        # positive step costs with zero values give positive advantages
        assert batch.adv_c.mean() > 0.0

    def test_constant_shift_of_raw_advantages_is_absorbed(self):
        # horizon-1 rollouts with gae_lambda = 1: shifting V_0 by -c shifts
        # every raw reward advantage by +c; assembly must erase the shift
        rng = np.random.default_rng(9)
        kind = TabularSoftmax(2, 2)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        rollouts = RolloutBatch(
            np.tile([0, 1], (6, 1)),
            np.ones((6, 1), dtype=np.int64),
            rng.normal(size=(6, 1)),
            rng.random((6, 1)),
        )
        cfg = PpolConfig(gae_lambda=1.0)
        values_plain = np.zeros((6, 2, 2))
        values_shifted = values_plain.copy()
        values_shifted[:, 0, 0] = -5.0

        a = advantage_batch(rollouts, params, GAMMA, cfg, values_plain)
        b = advantage_batch(rollouts, params, GAMMA, cfg, values_shifted)
        np.testing.assert_allclose(a.adv_r, b.adv_r, rtol=1e-12, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            AdvantageBatch([0], [0], np.array([np.nan]), np.ones(1), np.ones(1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AdvantageBatch([0, 1], [0], np.zeros(2), np.zeros(2), np.zeros(2))


def reference_backward_sums(x, decay):
    """The plain backward loop y[:, t] = x[:, t] + decay * y[:, t+1] over
    strided time columns, with y[:, T] = 0."""
    out = np.empty_like(x)
    acc = np.zeros_like(x[:, 0])
    for t in range(x.shape[1] - 1, -1, -1):
        acc = x[:, t] + decay * acc
        out[:, t] = acc
    return out


def same_bits(a, b):
    """Equal shapes and float64 bit patterns, so -0.0 differs from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype == np.float64
        and np.array_equal(a.view(np.int64), b.view(np.int64))
    )


class TestBackwardSums:
    @staticmethod
    def signed_zeros(shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.3] = -0.0
        x[:, -1] = -0.0  # the last step of every row
        return x

    @pytest.mark.parametrize(
        "shape", [(3, 7), (3, 7, 2), (4, 1), (2, 1, 3), (1, 64, 2)]
    )
    @pytest.mark.parametrize("decay", [0.9 * 0.95, 1.0, 0.0])
    def test_equals_per_step_loop(self, shape, decay):
        x = self.signed_zeros(shape, seed=len(shape) + shape[1])
        got = backward_sums(x, decay)
        assert same_bits(got, reference_backward_sums(x, decay))
        assert not np.signbit(got[:, -1]).any()  # -0.0 + 0.0 is +0.0

    def test_non_contiguous_input(self):
        big = self.signed_zeros((5, 12, 4), seed=3)
        x = big[::2, ::3, 1:3]  # strided on every axis
        assert not x.flags.c_contiguous
        assert same_bits(backward_sums(x, 0.7), reference_backward_sums(x, 0.7))
        t = self.signed_zeros((6, 3), seed=4).T.copy().T  # Fortran order
        assert same_bits(backward_sums(t, 0.7), reference_backward_sums(t, 0.7))

    def test_input_untouched(self):
        x = self.signed_zeros((3, 5, 2), seed=5)
        before = x.copy()
        backward_sums(x, 0.9)
        assert same_bits(x, before)


def reference_surrogate_grad(batch, params, lam, cfg):
    """The surrogate gradient of a minibatch copy by the separate chain:
    policy_log_probs, the ratios, then policy_score_sum on the rows whose
    coefficient is nonzero."""
    lp = policy_log_probs(params, batch.states, batch.actions)
    rho = np.exp(lp - batch.log_prob_old)
    clipped = np.clip(rho, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
    active = rho * batch.adv_r <= clipped * batch.adv_r
    coeff = (active * rho * batch.adv_r - lam * rho * batch.adv_c) / (1.0 + lam)
    nz = np.flatnonzero(coeff)
    grad = policy_score_sum(params, batch.states[nz], batch.actions[nz], coeff[nz])
    return grad / len(batch)


def minibatch_copy(batch, rows):
    """The rows of an AdvantageBatch as a batch of their own."""
    return AdvantageBatch(
        batch.states[rows],
        batch.actions[rows],
        batch.log_prob_old[rows],
        batch.adv_r[rows],
        batch.adv_c[rows],
    )


def random_advantage_batch(params, n, seed):
    """n samples whose ratios spread over (0.5, 1.6), so that clip_ratio 0.2
    clips a good share of them in both directions."""
    rng = np.random.default_rng(seed)
    kind = params.kind
    if isinstance(kind, TabularSoftmax):
        states = rng.integers(0, kind.n_states, size=n)
        actions = rng.integers(0, kind.n_actions, size=n)
    else:
        states = rng.normal(size=(n, kind.feature_dim))
        actions = rng.normal(size=(n, kind.action_dim))
    rho = rng.uniform(0.5, 1.6, size=n)
    lp_old = policy_log_probs(params, states, actions) - np.log(rho)
    adv_r = rng.normal(size=n)
    adv_c = rng.normal(size=n)
    return AdvantageBatch(states, actions, lp_old, adv_r, adv_c)


class TestFusedSurrogateGrad:
    KINDS = {"gaussian": LinearGaussian(4, 2), "tabular": TabularSoftmax(6, 3)}

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_equals_separate_chain_on_a_copy(self, kind, lam):
        kind = self.KINDS[kind]
        params = PolicyParams(
            kind, np.random.default_rng(1).normal(size=kind.param_count) * 0.3
        )
        batch = random_advantage_batch(params, 300, seed=2)
        cfg = PpolConfig(clip_ratio=0.2)
        order = np.random.default_rng(3).permutation(len(batch))
        zero_rows = 0
        for rows in (order[:128], order[128:256], order[256:], order[:1], order):
            got = ppol_surrogate_grad(batch, rows, params, lam, cfg)
            sub = minibatch_copy(batch, rows)
            want = reference_surrogate_grad(sub, params, lam, cfg)
            assert np.array_equal(got, want)
            lp = policy_log_probs(params, sub.states, sub.actions)
            rho = np.exp(lp - sub.log_prob_old)
            clipped = np.clip(rho, 0.8, 1.2)
            zero_rows += int((rho * sub.adv_r > clipped * sub.adv_r).sum())
        if lam == 0.0:
            assert zero_rows > 0  # clipped rows have coefficient zero

    def test_all_rows_clipped_gives_zero(self):
        params = PolicyParams(TabularSoftmax(2, 2), np.zeros(4))
        samples = [(0, 1, 2.0, 0.0), (1, 0, -1.0, 0.0)]
        batch = one_step_batch(params, samples, rho=np.array([1.5, 0.5]))
        got = ppol_surrogate_grad(batch, np.arange(2), params, 0.0, PpolConfig())
        assert same_bits(got, np.zeros(4))


def reference_ppol_step(cmdp, params, batch, lam, cfg, eta, k):
    """The PPO primal step of iteration k with one AdvantageBatch copy per
    minibatch and the separate surrogate chain (run with
    reference_backward_sums), its shuffle orders drawn from a fresh Philox
    Generator at key (seed, k) and the shuffle counter (0, 0, 1, 0)."""
    if cfg.values_fn is not None:
        values = cfg.values_fn(params, batch)
    else:
        values = solver._lstsq_values(cmdp, batch)
    samples = advantage_batch(batch, params, cmdp.gamma, cfg.ppol, values)
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, k], counter=[0, 0, 1, 0]))
    n = len(samples)
    mb = min(cfg.ppol.minibatch_size, n)
    for _ in range(cfg.ppol.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, mb):
            sub = minibatch_copy(samples, order[lo : lo + mb])
            grad = reference_surrogate_grad(sub, params, lam, cfg.ppol)
            params = params.replace_theta(params.theta + eta * grad)
    return params


class TestPpolRunMatchesReference:
    """papd_run with PPO gives the same RunRecord, array for array, as the
    same run through reference_ppol_step and reference_backward_sums."""

    @staticmethod
    def setup(task):
        if task == "point-run":
            cmdp = make_point_env("run", PointEnvConfig(noise_std=0.05))
            theta0 = init_params(LinearGaussian(4, 2))
            sampling, limit = SamplingConfig(n_traj=8, horizon=64), 2.0
            ppol, iterations = PpolConfig(minibatch_size=200, epochs=2), 4
        else:
            cmdp = make_gridworld(default_hazard_gridworld())
            theta0 = init_params(TabularSoftmax(cmdp.n_states, cmdp.n_actions))
            sampling, limit = SamplingConfig(n_traj=8, horizon=20), 1.0
            ppol, iterations = PpolConfig(minibatch_size=48, epochs=2), 12
        cfg = SolverConfig(
            iterations=iterations,
            schedule=LrSchedule("invlin-practical", h1=0.05, h2=3.0),
            gains=PidGains(0.5, 0.05, 0.1),
            theta0=theta0,
            sampling=sampling,
            seed=3,
            ppol=ppol,
        )
        return cmdp, limit, cfg

    @pytest.mark.parametrize("task", ["point-run", "grid"])
    def test_record_equals_reference(self, task, monkeypatch):
        cmdp, limit, cfg = self.setup(task)
        got = papd_run(cmdp, limit, cfg)
        monkeypatch.setattr(solver, "_ppol_update", reference_ppol_step)
        monkeypatch.setattr(solver, "backward_sums", reference_backward_sums)
        monkeypatch.setattr(lagrangian, "backward_sums", reference_backward_sums)
        want = papd_run(cmdp, limit, cfg)
        for name in ("thetas", "lambdas", "etas", "returns", "costs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.lambdas.max() > 0.0  # the penalty term takes part
        assert not np.array_equal(got.thetas[0], got.thetas[-1])
