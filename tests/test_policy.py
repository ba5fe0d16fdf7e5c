"""Policy families: probabilities, log densities, and exact scores.

Scores are validated against central finite differences of policy_log_prob,
a derivative oracle independent of the analytic formulas.
"""

import math
import types

import numpy as np
import pytest

from apdual import cmdp as cmdp_module
from apdual.cmdp import SamplingConfig, collect_batch, sample_trajectory
from apdual.envs import default_hazard_gridworld, make_gridworld
from apdual.policy import (
    LOG_STD_INIT,
    LinearGaussian,
    PolicyParams,
    TabularSoftmax,
    action_cdf,
    gaussian_actor,
    init_params,
    libm_exp,
    policy_act,
    policy_grad_log_prob,
    policy_log_prob,
    policy_log_probs,
    policy_score_sum,
    softmax_table,
)


def fd_grad(params, state, action, h=1e-6):
    """Central finite differences of log pi w.r.t. every theta entry."""
    grad = np.empty_like(params.theta)
    for i in range(params.theta.size):
        up = params.theta.copy()
        up[i] += h
        dn = params.theta.copy()
        dn[i] -= h
        grad[i] = (
            policy_log_prob(params.replace_theta(up), state, action)
            - policy_log_prob(params.replace_theta(dn), state, action)
        ) / (2.0 * h)
    return grad


class TopUniform:
    """Stands in for a Generator: every uniform is the largest double
    below 1."""

    # sample_trajectory advances its bit generator to the row's first draw.
    bit_generator = types.SimpleNamespace(advance=lambda delta: None)

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


# logits whose plain cumsum of probabilities ends at 0.9999999999999998
SHORT_CDF_LOGITS = (0.1, -0.1, 0.6, 0.1)


class TestLibmExp:
    def test_entries_equal_math_exp(self):
        x = np.random.default_rng(3).normal(size=(64, 3)) * 20.0
        got = libm_exp(x)
        assert got.shape == x.shape
        want = [math.exp(v) for v in x.ravel().tolist()]
        assert got.ravel().tolist() == want

    def test_overflow_warns_and_returns_inf_as_np_exp(self):
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            got = libm_exp(np.array([1.0, 1e3]))
        assert got[1] == np.inf
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            libm_exp(np.array([1e3]))


class TestTabular:
    def test_top_uniform_samples_the_last_action(self):
        params = PolicyParams(TabularSoftmax(1, 4), np.array(SHORT_CDF_LOGITS))
        plain = np.cumsum(softmax_table(params), axis=1)
        u = TopUniform().random()
        assert plain[0, -1] < u  # searchsorted on it would give action 4
        cdf = action_cdf(softmax_table(params))
        assert cdf[0, -1] == 1.0
        np.testing.assert_array_equal(cdf[:, :-1], plain[:, :-1])
        assert policy_act(params, 0, TopUniform()) == 3

    def test_top_uniform_in_both_samplers(self, monkeypatch):
        # every row's plain cdf ends below 1; the per-step and the lockstep
        # sampler must still take action 3 (west) at every step
        spec = default_hazard_gridworld()
        cmdp = make_gridworld(spec)
        kind = TabularSoftmax(spec.n_cells, 4)
        params = PolicyParams(kind, np.tile(SHORT_CDF_LOGITS, spec.n_cells))
        monkeypatch.setattr(cmdp_module, "philox", lambda seed: TopUniform())
        solo = sample_trajectory(cmdp, params, 6, 0)
        row = collect_batch(cmdp, params, SamplingConfig(n_traj=1, horizon=6), 0)
        assert solo.actions.tolist() == [[3] * 6]
        assert np.array_equal(row.actions, solo.actions)
        assert np.array_equal(row.states, solo.states)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        kind = TabularSoftmax(5, 4)
        params = PolicyParams(kind, rng.normal(size=kind.param_count) * 3.0)
        table = softmax_table(params)
        assert table.shape == (5, 4)
        assert np.all(table > 0.0)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=1e-12)

    def test_log_prob_matches_table(self):
        rng = np.random.default_rng(1)
        kind = TabularSoftmax(3, 4)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        table = softmax_table(params)
        for s in range(3):
            for a in range(4):
                assert policy_log_prob(params, s, a) == pytest.approx(
                    math.log(table[s, a]), rel=1e-12
                )

    def test_logit_shift_invariance(self):
        # adding a per-state constant to the logits is a reparametrization
        rng = np.random.default_rng(2)
        kind = TabularSoftmax(4, 3)
        theta = rng.normal(size=kind.param_count)
        shifted = theta.reshape(4, 3) + rng.normal(size=(4, 1))
        a = softmax_table(PolicyParams(kind, theta))
        b = softmax_table(PolicyParams(kind, shifted.ravel()))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_score_exact_identity(self):
        # d log pi / d theta[s, b] = 1[b = a] - pi(b | s) on state s's block
        rng = np.random.default_rng(3)
        kind = TabularSoftmax(3, 5)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        table = softmax_table(params)
        g = policy_grad_log_prob(params, 1, 2)
        want = np.zeros(15)
        want[5:10] = -table[1]
        want[5 + 2] += 1.0
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-15)
        # other states' blocks untouched
        assert np.all(g[:5] == 0.0) and np.all(g[10:] == 0.0)

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        kind = TabularSoftmax(4, 3)
        for _ in range(100):
            params = PolicyParams(kind, rng.normal(size=kind.param_count) * 2.0)
            s = int(rng.integers(4))
            a = int(rng.integers(3))
            g = policy_grad_log_prob(params, s, a)
            fd = fd_grad(params, s, a)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_scores_mean_zero_under_policy(self):
        # E_a[score] = 0 for any state: sum_a pi(a|s) grad log pi(a|s) = 0
        rng = np.random.default_rng(5)
        kind = TabularSoftmax(2, 6)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        table = softmax_table(params)
        for s in range(2):
            total = sum(
                table[s, a] * policy_grad_log_prob(params, s, a) for a in range(6)
            )
            np.testing.assert_allclose(total, 0.0, atol=1e-14)

    def test_act_frequency_matches_probs(self):
        kind = TabularSoftmax(1, 3)
        params = PolicyParams(kind, np.array([0.2, -0.4, 1.1]))
        probs = softmax_table(params)[0]
        rng = np.random.default_rng(6)
        n = 20000
        counts = np.bincount(
            [policy_act(params, 0, rng) for _ in range(n)], minlength=3
        )
        freq = counts / n
        se = np.sqrt(probs * (1.0 - probs) / n)
        assert np.all(np.abs(freq - probs) <= 3.0 * se)

    def test_act_state_range_checked(self):
        params = init_params(TabularSoftmax(2, 2))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            policy_act(params, 2, rng)


class TestGaussian:
    def test_param_count_and_init(self):
        kind = LinearGaussian(feature_dim=4, action_dim=2)
        assert kind.param_count == 2 * 4 + 2
        params = init_params(kind)
        assert np.all(params.theta[:8] == 0.0)
        np.testing.assert_allclose(params.theta[8:], LOG_STD_INIT)
        assert math.exp(LOG_STD_INIT) == pytest.approx(0.5)

    def test_log_prob_matches_normal_density(self):
        rng = np.random.default_rng(7)
        kind = LinearGaussian(3, 2)
        theta = rng.normal(size=kind.param_count)
        params = PolicyParams(kind, theta)
        w = theta[:6].reshape(2, 3)
        log_std = theta[6:]
        x = rng.normal(size=3)
        a = rng.normal(size=2)
        mean = w @ x
        var = np.exp(2.0 * log_std)
        want = float(
            -0.5 * np.sum((a - mean) ** 2 / var)
            - 0.5 * np.sum(np.log(2.0 * math.pi * var))
        )
        assert policy_log_prob(params, x, a) == pytest.approx(want, rel=1e-12)

    def test_mode_density_peak(self):
        # the mean action maximizes the density over perturbations
        rng = np.random.default_rng(8)
        kind = LinearGaussian(2, 2)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        w = params.theta[:4].reshape(2, 2)
        x = rng.normal(size=2)
        at_mode = policy_log_prob(params, x, w @ x)
        for _ in range(20):
            off = w @ x + rng.normal(size=2) * 0.3
            assert policy_log_prob(params, x, off) <= at_mode

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        kind = LinearGaussian(3, 2)
        for _ in range(100):
            params = PolicyParams(kind, rng.normal(size=kind.param_count))
            x = rng.normal(size=3)
            a = rng.normal(size=2)
            g = policy_grad_log_prob(params, x, a)
            fd = fd_grad(params, x, a)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_act_reparametrization(self):
        # action = mean + sigma * z with z standard normal from the stream
        kind = LinearGaussian(2, 2)
        rng = np.random.default_rng(10)
        theta = rng.normal(size=kind.param_count)
        params = PolicyParams(kind, theta)
        x = np.array([0.3, -1.2])
        a = policy_act(params, x, np.random.default_rng(42))
        z = np.random.default_rng(42).standard_normal(2)
        w = theta[:4].reshape(2, 2)
        want = w @ x + np.exp(theta[4:]) * z
        np.testing.assert_allclose(a, want, rtol=1e-12)

    def test_feature_dim_checked(self):
        params = init_params(LinearGaussian(3, 2))
        with pytest.raises(ValueError):
            policy_act(params, np.zeros(4), np.random.default_rng(0))


def reference_log_prob_and_score(params, state, action):
    """The per-sample formulas as a plain loop body: the oracle the batched
    forms must reproduce bit for bit."""
    kind = params.kind
    grad = np.zeros_like(params.theta)
    if isinstance(kind, TabularSoftmax):
        s, a = int(state), int(action)
        row = params.theta[s * kind.n_actions : (s + 1) * kind.n_actions]
        z = np.exp(row - row.max())
        probs = z / z.sum()
        block = grad[s * kind.n_actions : (s + 1) * kind.n_actions]
        block -= probs
        block[a] += 1.0
        return float(np.log(probs[a])), grad
    n = kind.action_dim * kind.feature_dim
    w = params.theta[:n].reshape(kind.action_dim, kind.feature_dim)
    log_std = params.theta[n:]
    x = np.asarray(state, dtype=float)
    a = np.asarray(action, dtype=float)
    z = (a - w @ x) / np.exp(log_std)
    lp = float(
        -0.5 * z @ z - log_std.sum() - 0.5 * kind.action_dim * math.log(2.0 * math.pi)
    )
    resid = (a - w @ x) * np.exp(-2.0 * log_std)
    grad[:n] = np.outer(resid, x).ravel()
    grad[n:] = (a - w @ x) * resid - 1.0
    return lp, grad


class TestBatchedForms:
    @pytest.mark.parametrize(
        "kind",
        [TabularSoftmax(5, 4), LinearGaussian(4, 2)],
        ids=["tabular", "gaussian"],
    )
    def test_batched_equal_single_calls_and_loop(self, kind):
        rng = np.random.default_rng(11)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        n = 257
        if isinstance(kind, TabularSoftmax):
            states = rng.integers(0, kind.n_states, size=n)
            actions = rng.integers(0, kind.n_actions, size=n)
        else:
            states = rng.normal(size=(n, kind.feature_dim)) * 3.0
            actions = rng.normal(size=(n, kind.action_dim))
        weights = rng.normal(size=n)
        weights[::7] = 0.0

        single_lp = [policy_log_prob(params, s, a) for s, a in zip(states, actions)]
        single_score = np.zeros_like(params.theta)
        loop_score = np.zeros_like(params.theta)
        for s, a, c in zip(states, actions, weights):
            single_score += c * policy_grad_log_prob(params, s, a)
            lp, score = reference_log_prob_and_score(params, s, a)
            assert policy_log_prob(params, s, a) == lp
            assert np.array_equal(policy_grad_log_prob(params, s, a), score)
            loop_score += c * score

        batched_lp = policy_log_probs(params, states, actions)
        batched_score = policy_score_sum(params, states, actions, weights)
        assert batched_lp.shape == (n,)
        assert np.array_equal(batched_lp, single_lp)
        assert np.array_equal(batched_score, single_score)
        assert np.array_equal(batched_score, loop_score)

    def test_empty_score_sum_is_zero(self):
        params = init_params(LinearGaussian(3, 2))
        got = policy_score_sum(params, np.zeros((0, 3)), np.zeros((0, 2)), [])
        assert np.array_equal(got, np.zeros(params.theta.size))

    def test_actor_rows_equal_policy_act(self):
        # normals[k, i] is the first draw of stream 6 k + i; act(states, k)
        # must give row i policy_act's action from that stream
        kind = LinearGaussian(4, 2)
        params = PolicyParams(kind, np.random.default_rng(12).normal(size=10))
        states = np.random.default_rng(13).normal(size=(3, 6, 4))
        normals = np.array(
            [
                [np.random.default_rng(6 * k + i).standard_normal(2) for i in range(6)]
                for k in range(3)
            ]
        )
        act = gaussian_actor(params, normals)
        for k in range(3):
            got = act(states[k], k)
            for i in range(6):
                rng = np.random.default_rng(6 * k + i)
                assert np.array_equal(got[i], policy_act(params, states[k, i], rng))

    def test_batch_shapes_checked(self):
        gauss = init_params(LinearGaussian(3, 2))
        with pytest.raises(ValueError):
            policy_log_probs(gauss, np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            policy_log_probs(gauss, np.zeros((4, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            policy_score_sum(gauss, np.zeros((4, 3)), np.zeros((4, 2)), np.ones(3))
        tab = init_params(TabularSoftmax(2, 2))
        with pytest.raises(ValueError):
            policy_log_probs(tab, [0, 2], [0, 1])
        with pytest.raises(TypeError):
            gaussian_actor(tab, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            gaussian_actor(gauss, np.zeros((4, 3)))


class TestValidation:
    def test_theta_size_mismatch(self):
        with pytest.raises(ValueError):
            PolicyParams(TabularSoftmax(2, 2), np.zeros(5))
        with pytest.raises(ValueError):
            PolicyParams(LinearGaussian(2, 2), np.zeros(7))

    def test_descriptor_positivity(self):
        with pytest.raises(ValueError):
            TabularSoftmax(0, 2)
        with pytest.raises(ValueError):
            LinearGaussian(2, 0)

    def test_softmax_table_requires_tabular(self):
        with pytest.raises(TypeError):
            softmax_table(init_params(LinearGaussian(2, 2)))

    def test_zero_probability_action_rejected(self):
        kind = TabularSoftmax(1, 2)
        params = PolicyParams(kind, np.array([800.0, -800.0]))
        with pytest.raises(ValueError):
            policy_log_prob(params, 0, 1)
