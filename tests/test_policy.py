"""Policy families: probabilities, log densities, and exact scores.

Scores are validated against central finite differences of policy_log_prob,
a derivative oracle independent of the analytic formulas.
"""

import math
import subprocess
import sys
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
    gaussian_block_terms,
    init_params,
    libm_exp,
    policy_act,
    policy_grad_log_prob,
    policy_log_prob,
    policy_log_probs,
    policy_sample_terms,
    policy_trajectory_scores,
    softmax_table,
)
from test_harness import CPU_VARIANTS, ON_X86_64, variant_env


def policy_score_sum(params, states, actions, weights):
    """sum_i weights[i] * d/dtheta log pi_theta(a_i|s_i), shaped like theta:
    policy_sample_terms' score sum over all rows, added in sample order from
    zero, so it equals the sequential ``grad += weights[i] * score_i`` bit
    for bit."""
    _, score_sum = policy_sample_terms(params, states, actions)
    return score_sum(None, weights)


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
    # contiguous copies: a sample's value must not depend on the layout of
    # the array it came from
    x = np.array(state, dtype=float)
    a = np.array(action, dtype=float)
    # every exp is libm's, which the policy's libm_exp documents
    std = np.array([math.exp(v) for v in log_std])
    inv_var = np.array([math.exp(-2.0 * v) for v in log_std])
    z = (a - w @ x) / std
    lp = float(
        -0.5 * z @ z - log_std.sum() - 0.5 * kind.action_dim * math.log(2.0 * math.pi)
    )
    resid = (a - w @ x) * inv_var
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


class TestGaussianBlockKernel:
    """The feature-major Gaussian kernel against the per-sample reference,
    bit for bit, on every path that reaches it."""

    @pytest.mark.parametrize("scale", [3.0, 1e3])
    @pytest.mark.parametrize("a_dim", [1, 2])
    @pytest.mark.parametrize("f", [2, 3, 4])
    def test_equals_reference(self, f, a_dim, scale):
        kind = LinearGaussian(f, a_dim)
        rng = np.random.default_rng(100 * f + a_dim)
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        n_traj, t = 8, 32
        n = n_traj * t
        # strided (N, F) and (N, A) views: every other column of wider arrays
        states = (rng.normal(size=(n, 2 * f)) * scale)[:, ::2]
        actions = rng.normal(size=(n, 2 * a_dim))[:, ::2]
        weights = rng.normal(size=n)
        weights[::7] = 0.0
        rows = rng.permutation(n)[: n // 3]

        ref = [reference_log_prob_and_score(params, s, a) for s, a in zip(states, actions)]
        ref_lp = np.array([lp for lp, _ in ref])
        ref_scores = [score for _, score in ref]

        def loop_sum(indices, w):
            grad = np.zeros_like(params.theta)
            for i, c in zip(indices, w):
                grad += c * ref_scores[i]
            return grad

        sample_terms = policy_sample_terms(params, states, actions)
        block_terms = gaussian_block_terms(params, states.T, actions.T)
        for lp, score_sum in (sample_terms, block_terms):
            assert np.array_equal(lp, ref_lp)
            assert np.array_equal(score_sum(None, weights), loop_sum(range(n), weights))
            got = score_sum(rows, weights[rows])
            assert np.array_equal(got, loop_sum(rows, weights[rows]))

        per_traj = policy_trajectory_scores(
            params, states.reshape(n_traj, t, f), actions.reshape(n_traj, t, a_dim)
        )
        assert per_traj.flags.c_contiguous
        for i in range(n_traj):
            want = loop_sum(range(i * t, (i + 1) * t), np.ones(t))
            assert np.array_equal(per_traj[i], want), i

    def test_empty_block_gives_zeros(self):
        params = init_params(LinearGaussian(4, 2))
        lp, score_sum = gaussian_block_terms(params, np.zeros((4, 0)), np.zeros((2, 0)))
        assert lp.shape == (0,)
        got = score_sum(None, [])
        assert np.array_equal(got, np.zeros(10)) and not np.signbit(got).any()
        assert np.array_equal(score_sum(np.arange(0), []), np.zeros(10))

    def test_all_negative_zero_terms_sum_to_positive_zero(self):
        # a sum from +0.0, as the sequential loop starts: -0.0 terms leave +0.0
        params = PolicyParams(LinearGaussian(2, 1), np.zeros(3))
        x, a = np.ones((2, 3)), np.zeros((1, 3))
        _, score_sum = gaussian_block_terms(params, x, a)
        got = score_sum(None, np.full(3, -0.0))
        assert np.array_equal(got, np.zeros(3)) and not np.signbit(got).any()

    def test_block_shapes_checked(self):
        params = init_params(LinearGaussian(3, 2))
        with pytest.raises(ValueError):
            gaussian_block_terms(params, np.zeros((4, 5)), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            gaussian_block_terms(params, np.zeros((3, 5)), np.zeros((2, 4)))
        _, score_sum = gaussian_block_terms(params, np.zeros((3, 5)), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            score_sum(None, np.ones(4))


# The kernel's log-probs of an A = 3 block against the row-major formula:
# z as (N, A) rows and np.vecdot over them.  Under the Prescott kernel
# np.vecdot sums 3-entry rows in another order when they are strided (and
# when they start off a 16-byte boundary), so the kernel's z must be a
# C-contiguous (M, A) array, as the row-major one is.
BLOCK_LOG_PROBS_PROBE = """
import math
import numpy as np
from apdual.policy import LinearGaussian, PolicyParams, gaussian_block_terms
rng = np.random.default_rng(21)
kind = LinearGaussian(4, 3)
params = PolicyParams(kind, rng.normal(size=kind.param_count))
x, a = rng.normal(size=(4, 4096)) * 3, rng.normal(size=(3, 4096))
got = gaussian_block_terms(params, x, a)[0]
w, log_std = params.theta[:12].reshape(3, 4), params.theta[12:]
std = np.array([math.exp(v) for v in log_std])
z = (a.T.copy() - np.array([w @ x_i for x_i in x.T.copy()])) / std
assert z.flags.c_contiguous
want = np.vecdot(-0.5 * z, z) - log_std.sum() - 1.5 * math.log(2.0 * math.pi)
print(np.array_equal(got, want))
"""


def test_block_log_probs_equal_row_formula(capsys):
    exec(BLOCK_LOG_PROBS_PROBE, {})  # the subprocesses' probe; prints the verdict
    assert capsys.readouterr().out.strip() == "True"


@ON_X86_64
@pytest.mark.parametrize("variant", list(CPU_VARIANTS))
def test_block_log_probs_equal_row_formula_under_cpu_kernels(variant):
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_LOG_PROBS_PROBE],
        env=variant_env(variant), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True", variant


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
