"""CMDP primitives: discounting arithmetic, seeding, and MC estimators.

The Monte-Carlo estimators are checked against a dynamic-programming oracle
written here in the test (distribution-vector recursion over an explicit
two-state chain), not against any library code path.
"""

import math
import warnings

import numpy as np
import pytest

from apdual.cmdp import (
    Cmdp,
    NonFiniteError,
    SamplingConfig,
    Trajectory,
    batch_values,
    collect_batch,
    default_horizon,
    derived_seed,
    discounted_value,
    estimate_objectives,
    require_finite,
    sample_trajectory,
)
from apdual.policy import PolicyParams, TabularSoftmax, init_params

GAMMA = 0.9


def chain_cmdp(p_jump=0.3, gamma=GAMMA, cost_scale=1.0):
    """Two-state chain: state 0 pays cost, state 1 pays reward.

    Action 0 stays put; action 1 jumps 0 -> 1 with probability p_jump.
    State 1 is absorbing.  Rewards/costs depend only on the source state,
    so exact values follow from an occupancy recursion.
    """

    def transition(s, a, rng):
        if s == 1:
            return 1
        if a == 1 and rng.random() < p_jump:
            return 1
        return 0

    return Cmdp(
        gamma=gamma,
        n_costs=1,
        cost_bound=max(cost_scale, 1e-9),
        initial_dist=lambda rng: 0,
        transition=transition,
        reward=lambda s, a, nxt: 1.0 if s == 1 else 0.0,
        costs=lambda s, a, nxt: cost_scale if s == 0 else 0.0,
        n_states=2,
        n_actions=2,
    )


def chain_exact(p_jump, gamma, horizon, probs, cost_scale=1.0):
    """Oracle: H-step truncated values by distribution recursion."""
    # P_pi[s, s'] with uniform-or-given policy probs (2x2 row table)
    stay0 = probs[0, 0] + probs[0, 1] * (1.0 - p_jump)
    p_pi = np.array([[stay0, 1.0 - stay0], [0.0, 1.0]])
    r = np.array([0.0, 1.0])
    c = np.array([cost_scale, 0.0])
    dist = np.array([1.0, 0.0])
    j_r = 0.0
    j_c = 0.0
    for t in range(horizon):
        j_r += gamma**t * float(dist @ r)
        j_c += gamma**t * float(dist @ c)
        dist = dist @ p_pi
    return j_r, j_c


def uniform_params(n_states=2, n_actions=2):
    return init_params(TabularSoftmax(n_states, n_actions))


class TestDefaultHorizon:
    def test_matches_log_formula(self):
        h = default_horizon(0.99, 1e-3)
        assert h == math.ceil(math.log(1e-3) / math.log(0.99))
        assert 0.99**h <= 1e-3 < 0.99 ** (h - 1)

    def test_tail_below_target_for_several_gammas(self):
        for gamma in (0.5, 0.9, 0.99, 0.999):
            for tail in (1e-2, 1e-3, 1e-6):
                h = default_horizon(gamma, tail)
                assert gamma**h <= tail

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            default_horizon(1.0)
        with pytest.raises(ValueError):
            default_horizon(0.0)


class TestDiscountedValue:
    def test_geometric_sum_closed_form(self):
        t = 50
        traj = Trajectory(
            states=list(range(t + 1)),
            actions=[0] * t,
            rewards=np.ones(t),
            costs=np.full((t, 2), [0.5, 2.0]),
        )
        j_r, j_c = discounted_value(traj, GAMMA)
        geom = (1.0 - GAMMA**t) / (1.0 - GAMMA)
        assert j_r == pytest.approx(geom, rel=1e-12)
        assert j_c == pytest.approx([0.5 * geom, 2.0 * geom], rel=1e-12)

    def test_matches_bruteforce_loop(self):
        rng = np.random.default_rng(7)
        t = 33
        traj = Trajectory(
            states=list(range(t + 1)),
            actions=[0] * t,
            rewards=rng.normal(size=t),
            costs=rng.random((t, 3)),
        )
        j_r, j_c = discounted_value(traj, 0.97)
        want_r = sum(0.97**k * traj.rewards[k] for k in range(t))
        want_c = sum(0.97**k * traj.costs[k] for k in range(t))
        assert j_r == pytest.approx(want_r, rel=1e-12)
        np.testing.assert_allclose(j_c, want_c, rtol=1e-12)

    def test_truncation_error_within_tail_bound(self):
        # constant reward 1: the infinite sum is 1/(1-gamma) and truncation
        # at H removes exactly gamma^H/(1-gamma)
        for h in (10, 100, 688):
            traj = Trajectory(
                states=list(range(h + 1)),
                actions=[0] * h,
                rewards=np.ones(h),
                costs=np.zeros((h, 1)),
            )
            j_r, _ = discounted_value(traj, 0.99)
            tail = 0.99**h / (1.0 - 0.99)
            assert abs(1.0 / (1.0 - 0.99) - j_r) == pytest.approx(tail, rel=1e-9)

    def test_rejects_bad_gamma(self):
        traj = Trajectory([0, 0], [0], np.ones(1), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            discounted_value(traj, 1.0)
        with pytest.raises(ValueError):
            batch_values([traj], 1.0)

    @pytest.mark.parametrize("t", [1, 24, 64, 200])
    @pytest.mark.parametrize("m", [1, 3])
    def test_batch_values_equal_per_trajectory(self, t, m):
        rng = np.random.default_rng(t + m)
        trajs = [
            Trajectory(
                states=list(range(t + 1)),
                actions=[0] * t,
                rewards=rng.normal(size=t) * 50.0,
                costs=rng.random((t, m)) * 4.0,
            )
            for _ in range(9)
        ]
        returns, costs = batch_values(trajs, 0.99)
        assert returns.shape == (9,) and costs.shape == (9, m)
        for i, traj in enumerate(trajs):
            j_r, j_c = discounted_value(traj, 0.99)
            assert returns[i] == j_r
            assert np.array_equal(costs[i], j_c)

    def test_batch_values_need_one_length(self):
        short = Trajectory([0, 0], [0], np.ones(1), np.zeros((1, 1)))
        longer = Trajectory([0, 0, 0], [0, 0], np.ones(2), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            batch_values([short, longer], GAMMA)


class TestTrajectoryShape:
    def test_lengths(self):
        cmdp = chain_cmdp()
        traj = sample_trajectory(cmdp, uniform_params(), horizon=17, seed=3)
        assert len(traj) == 17
        assert len(traj.states) == 18
        assert traj.rewards.shape == (17,)
        assert traj.costs.shape == (17, 1)

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0], [0], np.ones(1), np.zeros((1, 1)))

    def test_step_fields_align(self):
        # step t of the parallel fields is (s_t, a_t, r(s_t, a_t, s_t+1), c(...))
        cmdp = chain_cmdp()
        traj = sample_trajectory(cmdp, uniform_params(), horizon=5, seed=0)
        for t in range(len(traj)):
            s, a, nxt = traj.states[t], traj.actions[t], traj.states[t + 1]
            assert traj.rewards[t] == cmdp.reward(s, a, nxt)
            assert np.array_equal(traj.costs[t], [cmdp.costs(s, a, nxt)])


class TestSeeding:
    def test_same_seed_same_rollout(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        a = sample_trajectory(cmdp, params, 40, seed=11)
        b = sample_trajectory(cmdp, params, 40, seed=11)
        assert a.states == b.states
        assert a.actions == b.actions
        np.testing.assert_array_equal(a.rewards, b.rewards)
        np.testing.assert_array_equal(a.costs, b.costs)

    def test_distinct_seeds_differ(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        rollouts = [sample_trajectory(cmdp, params, 40, seed=s) for s in range(8)]
        signatures = {tuple(t.actions) + tuple(t.states) for t in rollouts}
        assert len(signatures) > 1

    def test_tuple_seed_accepted(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        a = sample_trajectory(cmdp, params, 10, seed=(4, 2))
        b = sample_trajectory(cmdp, params, 10, seed=(4, 2))
        assert a.actions == b.actions

    def test_derived_seed_scheme(self):
        assert derived_seed(5, 3) == (5, 3)
        assert derived_seed((5, 1), 3) == (5, 1, 3)

    def test_batch_member_regenerable_in_isolation(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        sampling = SamplingConfig(n_traj=6, horizon=25)
        batch = collect_batch(cmdp, params, sampling, seed=9)
        for i in (0, 3, 5):
            solo = sample_trajectory(cmdp, params, 25, seed=(9, i))
            assert solo.actions == batch[i].actions
            np.testing.assert_array_equal(solo.costs, batch[i].costs)

    def test_single_trajectory_batch_identity(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        sampling = SamplingConfig(n_traj=1, horizon=12)
        (only,) = collect_batch(cmdp, params, sampling, seed=2)
        solo = sample_trajectory(cmdp, params, 12, seed=(2, 0))
        assert only.actions == solo.actions


class TestCostBound:
    def test_violating_cost_raises(self):
        cmdp = chain_cmdp(cost_scale=1.0)
        # same dynamics but declare a bound below the actual per-step cost
        bad = Cmdp(
            gamma=cmdp.gamma,
            n_costs=1,
            cost_bound=0.5,
            initial_dist=cmdp.initial_dist,
            transition=cmdp.transition,
            reward=cmdp.reward,
            costs=cmdp.costs,
            n_states=2,
            n_actions=2,
        )
        with pytest.raises(ValueError, match="bound"):
            sample_trajectory(bad, uniform_params(), 30, seed=0)

    def test_bound_exactly_met_is_fine(self):
        cmdp = chain_cmdp(cost_scale=1.0)  # declared bound equals max cost
        sample_trajectory(cmdp, uniform_params(), 30, seed=0)


class TestEstimators:
    def test_mc_matches_dp_oracle_within_3_se(self):
        p_jump, horizon = 0.3, 30
        cmdp = chain_cmdp(p_jump=p_jump)
        params = uniform_params()
        probs = np.full((2, 2), 0.5)
        want_r, want_c = chain_exact(p_jump, GAMMA, horizon, probs)

        n = 2000
        sampling = SamplingConfig(n_traj=n, horizon=horizon)
        trajs = collect_batch(cmdp, params, sampling, seed=123)
        vals = np.array([discounted_value(t, GAMMA)[0] for t in trajs])
        cvals = np.array([discounted_value(t, GAMMA)[1][0] for t in trajs])
        se_r = vals.std(ddof=1) / math.sqrt(n)
        se_c = cvals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - want_r) <= 3.0 * se_r
        assert abs(cvals.mean() - want_c) <= 3.0 * se_c

        j_r_hat, j_c_hat = estimate_objectives(cmdp, params, sampling, seed=123)
        assert j_r_hat == pytest.approx(vals.mean(), rel=1e-12)
        assert j_c_hat[0] == pytest.approx(cvals.mean(), rel=1e-12)

    def test_estimator_deterministic_in_seed(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        sampling = SamplingConfig(n_traj=16, horizon=20)
        a = estimate_objectives(cmdp, params, sampling, seed=77)
        b = estimate_objectives(cmdp, params, sampling, seed=77)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_cost_estimate_shape(self):
        cmdp = chain_cmdp()
        _, j_c = estimate_objectives(
            cmdp, uniform_params(), SamplingConfig(4, 10), seed=0
        )
        assert j_c.shape == (1,)


class TestValidation:
    def test_require_finite_is_silent_on_large_finite_values(self):
        # the squared-norm screen overflows; that must neither warn nor fail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            require_finite("values", np.array([1e200, -3.0]))
            with pytest.raises(NonFiniteError, match=r"values at index \(1,\)"):
                require_finite("values", np.array([1e200, np.inf]))

    def test_cmdp_rejects_bad_fields(self):
        kw = dict(
            initial_dist=lambda rng: 0,
            transition=lambda s, a, rng: 0,
            reward=lambda s, a, n: 0.0,
            costs=lambda s, a, n: 0.0,
        )
        with pytest.raises(ValueError):
            Cmdp(gamma=1.0, n_costs=1, cost_bound=1.0, **kw)
        with pytest.raises(ValueError):
            Cmdp(gamma=0.9, n_costs=0, cost_bound=1.0, **kw)
        with pytest.raises(ValueError):
            Cmdp(gamma=0.9, n_costs=1, cost_bound=0.0, **kw)

    def test_sampling_config_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SamplingConfig(n_traj=0, horizon=5)
        with pytest.raises(ValueError):
            SamplingConfig(n_traj=5, horizon=0)

    def test_sample_trajectory_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            sample_trajectory(chain_cmdp(), uniform_params(), 0, seed=0)
