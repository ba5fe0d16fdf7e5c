"""CMDP primitives: discounting arithmetic, seeding, and MC estimators.

The Monte-Carlo estimators are checked against a dynamic-programming oracle
written here in the test (distribution-vector recursion over an explicit
two-state chain), not against any library code path.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from apdual.cmdp import (
    SHUFFLE_STREAM,
    Cmdp,
    NonFiniteError,
    RolloutBatch,
    SamplingConfig,
    VectorStep,
    batch_values,
    collect_batch,
    counter_form_fits,
    counter_streams,
    counter_uniforms,
    derived_seed,
    discounted_value,
    require_finite,
    sample_trajectory,
    stream_normals,
)
from apdual import cmdp as cmdp_module
from apdual import solver
from apdual.duals import PidGains
from apdual.envs import (
    PointEnvConfig,
    default_hazard_gridworld,
    make_gridworld,
    make_point_env,
)
from apdual.lagrangian import ConstraintSpec, PpolConfig, advantage_batch
from apdual.policy import LinearGaussian, TabularSoftmax, init_params, softmax_table
from apdual.schedules import LrSchedule
from apdual.solver import UNIFORM_BLOCK, SolverConfig, papd_run

GAMMA = 0.9
TAG = 999983  # a fourth seed word


def chain_cmdp(p_jump=0.3, gamma=GAMMA, cost_scale=1.0):
    """Two-state chain: state 0 pays cost, state 1 pays reward.

    Action 0 stays put; action 1 jumps 0 -> 1 with probability p_jump.
    State 1 is absorbing.  Rewards/costs depend only on the source state,
    so exact values follow from an occupancy recursion.  Every step draws
    one uniform u and jumps when u < p_jump.
    """

    def step(states, actions, uniforms):
        jump = (states == 1) | ((actions == 1) & (uniforms[:, 0] < p_jump))
        return jump.astype(np.int64)

    def signals(states, actions, nxt):
        return (states == 1).astype(float), np.where(states == 0, cost_scale, 0.0)

    return Cmdp(
        gamma=gamma,
        n_costs=1,
        cost_bound=max(cost_scale, 1e-9),
        initial_state=0,
        vector_step=VectorStep(1, step, signals),
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


def estimate_objectives(cmdp, params, sampling, seed):
    """Reference estimator: sample means (J_R_hat, J_C_hat) over a
    derived-seed batch."""
    returns, cost_vals = batch_values(
        collect_batch(cmdp, params, sampling, seed), cmdp.gamma
    )
    return float(returns.mean()), cost_vals.mean(axis=0)


def one_row(rewards, costs):
    """A one-rollout batch with the given (T,) rewards and (T, m) costs."""
    t = len(rewards)
    return RolloutBatch(
        np.arange(t + 1)[None], np.zeros((1, t), dtype=np.int64),
        np.asarray(rewards)[None], np.asarray(costs)[None],
    )


class TestDiscountedValue:
    def test_geometric_sum_closed_form(self):
        t = 50
        j_r, j_c = discounted_value(np.ones(t), np.full((t, 2), [0.5, 2.0]), GAMMA)
        geom = (1.0 - GAMMA**t) / (1.0 - GAMMA)
        assert j_r == pytest.approx(geom, rel=1e-12)
        assert j_c == pytest.approx([0.5 * geom, 2.0 * geom], rel=1e-12)

    def test_matches_bruteforce_loop(self):
        rng = np.random.default_rng(7)
        t = 33
        rewards, costs = rng.normal(size=t), rng.random((t, 3))
        j_r, j_c = discounted_value(rewards, costs, 0.97)
        want_r = sum(0.97**k * rewards[k] for k in range(t))
        want_c = sum(0.97**k * costs[k] for k in range(t))
        assert j_r == pytest.approx(want_r, rel=1e-12)
        np.testing.assert_allclose(j_c, want_c, rtol=1e-12)

    def test_truncation_error_within_tail_bound(self):
        # constant reward 1: the infinite sum is 1/(1-gamma) and truncation
        # at H removes exactly gamma^H/(1-gamma)
        for h in (10, 100, 688):
            (j_r,), _ = batch_values(one_row(np.ones(h), np.zeros((h, 1))), 0.99)
            tail = 0.99**h / (1.0 - 0.99)
            assert abs(1.0 / (1.0 - 0.99) - j_r) == pytest.approx(tail, rel=1e-9)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            discounted_value(np.ones(1), np.zeros((1, 1)), 1.0)
        with pytest.raises(ValueError):
            batch_values(one_row(np.ones(1), np.zeros((1, 1))), 1.0)

    @pytest.mark.parametrize("t", [1, 24, 64, 200])
    @pytest.mark.parametrize("m", [1, 3])
    def test_batch_values_equal_per_trajectory(self, t, m):
        rng = np.random.default_rng(t + m)
        batch = RolloutBatch(
            np.zeros((9, t + 1), dtype=np.int64),
            np.zeros((9, t), dtype=np.int64),
            rng.normal(size=(9, t)) * 50.0,
            rng.random((9, t, m)) * 4.0,
        )
        returns, costs = batch_values(batch, 0.99)
        assert returns.shape == (9,) and costs.shape == (9, m)
        for i in range(9):
            j_r, j_c = discounted_value(batch.rewards[i], batch.costs[i], 0.99)
            assert returns[i] == j_r
            assert np.array_equal(costs[i], j_c)

    def test_batch_values_need_one_length(self):
        # every field of a batch covers the same n rollouts of one length
        states, actions = np.zeros((2, 3)), np.zeros((2, 2))
        with pytest.raises(ValueError):
            RolloutBatch(states, actions, np.ones((2, 1)), np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            RolloutBatch(states, actions, np.ones((2, 2)), np.zeros((2, 1, 1)))
        with pytest.raises(ValueError):
            RolloutBatch(states, actions, np.ones((3, 2)), np.zeros((3, 2, 1)))


class TestTrajectoryShape:
    def test_lengths(self):
        cmdp = chain_cmdp()
        traj = sample_trajectory(cmdp, uniform_params(), horizon=17, seed=3)
        assert len(traj) == 1
        assert traj.states.shape == (1, 18)
        assert traj.actions.shape == (1, 17)
        assert traj.rewards.shape == (1, 17)
        assert traj.costs.shape == (1, 17, 1)

    def test_inconsistent_fields_rejected(self):
        one_step = np.ones((1, 1))
        with pytest.raises(ValueError):  # no final state
            RolloutBatch(np.zeros((1, 1)), one_step, one_step, np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):  # costs without their m axis
            RolloutBatch(np.zeros((1, 2)), one_step, one_step, np.zeros((1, 1)))

    def test_step_fields_align(self):
        # step t of the parallel fields is (s_t, a_t, r(s_t, a_t, s_t+1), c(...))
        cmdp = chain_cmdp()
        traj = sample_trajectory(cmdp, uniform_params(), horizon=5, seed=0)
        s, a, s2 = traj.states[:, :-1], traj.actions, traj.states[:, 1:]
        for t in range(5):
            reward, cost = cmdp.vector_step.signals(s[:, [t]], a[:, [t]], s2[:, [t]])
            assert traj.rewards[0, t] == reward[0, 0]
            assert np.array_equal(traj.costs[0, t], cost[0])


class TestSeeding:
    def test_same_seed_same_rollout(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        a = sample_trajectory(cmdp, params, 40, seed=11)
        b = sample_trajectory(cmdp, params, 40, seed=11)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        np.testing.assert_array_equal(a.costs, b.costs)

    def test_distinct_seeds_differ(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        rollouts = [sample_trajectory(cmdp, params, 40, seed=s) for s in range(8)]
        signatures = {tuple(t.actions[0]) + tuple(t.states[0]) for t in rollouts}
        assert len(signatures) > 1

    def test_tuple_seed_accepted(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        a = sample_trajectory(cmdp, params, 10, seed=(4, 2))
        b = sample_trajectory(cmdp, params, 10, seed=(4, 2))
        np.testing.assert_array_equal(a.actions, b.actions)

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
            np.testing.assert_array_equal(solo.states[0], batch.states[i])
            np.testing.assert_array_equal(solo.actions[0], batch.actions[i])
            np.testing.assert_array_equal(solo.costs[0], batch.costs[i])

    def test_single_trajectory_batch_identity(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        sampling = SamplingConfig(n_traj=1, horizon=12)
        only = collect_batch(cmdp, params, sampling, seed=2)
        solo = sample_trajectory(cmdp, params, 12, seed=(2, 0))
        assert len(only) == 1
        np.testing.assert_array_equal(only.actions, solo.actions)


class TestCostBound:
    def test_violating_cost_raises(self):
        cmdp = chain_cmdp(cost_scale=1.0)
        # same dynamics but declare a bound below the actual per-step cost
        bad = dataclasses.replace(cmdp, cost_bound=0.5)
        with pytest.raises(ValueError, match="bound"):
            sample_trajectory(bad, uniform_params(), 30, seed=0)
        with pytest.raises(ValueError, match="bound"):
            collect_batch(bad, uniform_params(), SamplingConfig(4, 30), seed=0)

    def test_bound_exactly_met_is_fine(self):
        cmdp = chain_cmdp(cost_scale=1.0)  # declared bound equals max cost
        sample_trajectory(cmdp, uniform_params(), 30, seed=0)

    @staticmethod
    def two_cost_cmdp(cost):
        """Two costs, the same (2,) step cost at every step, bound B = 1."""

        def signals(s, a, s2):
            return np.zeros(s.shape), np.broadcast_to(cost, (*s.shape, 2))

        return Cmdp(
            gamma=GAMMA,
            n_costs=2,
            cost_bound=1.0,
            initial_state=0,
            vector_step=VectorStep(0, lambda s, a, u: s, signals),
            n_states=2,
            n_actions=2,
        )

    def test_two_costs_bound_the_norm_not_each_entry(self):
        # |c| = 1 passes; (0.6, 0.81) has every entry below B but norm 1.008
        ok = self.two_cost_cmdp((0.6, 0.8))
        batch = collect_batch(ok, uniform_params(), SamplingConfig(4, 10), seed=0)
        assert batch.costs.shape == (4, 10, 2)
        bad = self.two_cost_cmdp((0.6, 0.81))
        for sample in (
            lambda: sample_trajectory(bad, uniform_params(), 10, seed=0),
            lambda: collect_batch(bad, uniform_params(), SamplingConfig(4, 10), 0),
        ):
            with pytest.raises(ValueError, match="exceeds declared bound 1") as err:
                sample()
            assert not isinstance(err.value, NonFiniteError)

    def test_two_costs_nan_is_non_finite(self):
        bad = self.two_cost_cmdp((0.6, math.nan))
        with pytest.raises(NonFiniteError, match=r"costs at index \(0, 0, 1\)"):
            collect_batch(bad, uniform_params(), SamplingConfig(4, 10), seed=0)


class TestEstimators:
    def test_mc_matches_dp_oracle_within_3_se(self):
        p_jump, horizon = 0.3, 30
        cmdp = chain_cmdp(p_jump=p_jump)
        params = uniform_params()
        probs = np.full((2, 2), 0.5)
        want_r, want_c = chain_exact(p_jump, GAMMA, horizon, probs)

        n = 2000
        sampling = SamplingConfig(n_traj=n, horizon=horizon)
        batch = collect_batch(cmdp, params, sampling, seed=123)
        vals, cvals = batch_values(batch, GAMMA)
        cvals = cvals[:, 0]
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
        # 1e200 squared overflows; the screen must neither warn nor fail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            require_finite("values", np.array([1e200, -3.0]))
            with pytest.raises(NonFiniteError, match=r"values at index \(1,\)"):
                require_finite("values", np.array([1e200, np.inf]))

    def test_require_finite_is_silent_under_errstate_raise(self):
        # numpy's own error state raises FloatingPointError on an overflow,
        # whatever the warnings filter
        with np.errstate(all="raise"):
            require_finite("values", np.array([1e200, -3.0]))
            with pytest.raises(NonFiniteError, match=r"values at index \(1,\)"):
                require_finite("values", np.array([1e200, np.inf]))

    def test_cmdp_rejects_bad_fields(self):
        kw = dict(
            initial_state=0,
            vector_step=VectorStep(
                0, lambda s, a, z: s, lambda s, a, s2: (0.0 * s, 0.0 * s)
            ),
        )
        with pytest.raises(ValueError):
            Cmdp(gamma=1.0, n_costs=1, cost_bound=1.0, **kw)
        with pytest.raises(ValueError):
            Cmdp(gamma=0.9, n_costs=0, cost_bound=1.0, **kw)
        with pytest.raises(ValueError):
            Cmdp(gamma=0.9, n_costs=1, cost_bound=0.0, **kw)
        kw["initial_state"] = np.array([0.0, np.nan])
        with pytest.raises(NonFiniteError, match=r"initial state at index \(1,\)"):
            Cmdp(gamma=0.9, n_costs=1, cost_bound=1.0, **kw)
        tabular = dict(gamma=0.9, n_costs=1, cost_bound=1.0, n_states=2, n_actions=2)
        for cell in (1.0, True):
            kw["initial_state"] = cell
            want = f"initial cell {cell} must be an integer cell index"
            with pytest.raises(ValueError, match=want):
                Cmdp(**tabular, **kw)
        kw["initial_state"] = 2
        with pytest.raises(ValueError, match=r"initial cell 2 outside \[0, 2\)"):
            Cmdp(**tabular, **kw)

    def test_sampling_config_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SamplingConfig(n_traj=0, horizon=5)
        with pytest.raises(ValueError):
            SamplingConfig(n_traj=5, horizon=0)

    def test_sample_trajectory_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            sample_trajectory(chain_cmdp(), uniform_params(), 0, seed=0)


def generator_uniforms(root, n, horizon):
    return np.stack(
        [np.random.default_rng(derived_seed(root, i)).random(horizon) for i in range(n)]
    )


def grid_cmdp(slip):
    """The shipped hazard corridor, slippery (slip_prob 0.2) or not."""
    spec = dataclasses.replace(default_hazard_gridworld(), slip_prob=0.2 * slip)
    return make_gridworld(spec)


def grid_papd_cfg(iterations, seed=3):
    return SolverConfig(
        iterations=iterations,
        schedule=LrSchedule("invlin-practical", h1=0.003, h2=3.0),
        gains=PidGains(),
        theta0=init_params(TabularSoftmax(default_hazard_gridworld().n_cells, 4)),
        sampling=SamplingConfig(n_traj=16, horizon=24),
        seed=seed,
    )


def assert_records_equal(a, b):
    for name in ("thetas", "lambdas", "etas", "returns", "costs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def generators_only(monkeypatch):
    """Hand every batch of papd_run uniforms drawn by default_rng Generators
    instead of counter uniforms."""

    def drawn(cmdp, params, cfg):
        n, horizon = cfg.sampling.n_traj, cfg.sampling.horizon
        width = 1 + cmdp.vector_step.noise_dim
        for k in range(cfg.iterations):
            u = generator_uniforms((cfg.seed, k), n, horizon * width)
            yield u.reshape(n, horizon, width), None

    monkeypatch.setattr(solver, "_iteration_variates", drawn)


def count_counter_calls(monkeypatch):
    calls = []

    def counted(roots, n, count):
        calls.append(len(roots))
        return counter_uniforms(roots, n, count)

    monkeypatch.setattr(solver, "counter_uniforms", counted)
    return calls


GRID_LIMIT = ConstraintSpec(np.array([10.0]))


class TestCounterUniforms:
    def test_bit_equal_on_4096_streams(self):
        roots = [(7, k) for k in range(1000, 1256)]
        got = counter_uniforms(roots, 16, 24)
        assert got.shape == (256, 16, 24)
        for j, root in enumerate(roots):
            assert np.array_equal(got[j], generator_uniforms(root, 16, 24)), root

    @pytest.mark.parametrize(
        "roots",
        [
            [(0, 0), (0, 2**32 - 1), (2**32 - 1, 0), (2**32 - 1, 2**32 - 1)],
            [0, 2**32 - 1, (5,), [6, 7]],
            [(s, k, TAG) for s in (0, 61) for k in (0, 1, 2**32 - 1)],
            [(3, 9), (3, 9, TAG), (3, 10), (3, 10, TAG)],
        ],
    )
    def test_bit_equal_on_edge_and_four_word_seeds(self, roots):
        got = counter_uniforms(roots, 5, 37)
        for j, root in enumerate(roots):
            assert np.array_equal(got[j], generator_uniforms(root, 5, 37)), root

    def test_one_step_and_wide_batch(self):
        got = counter_uniforms([(1, 2), (1, 3)], 600, 1)
        for j, root in enumerate([(1, 2), (1, 3)]):
            assert np.array_equal(got[j], generator_uniforms(root, 600, 1))

    def test_fit_guard(self):
        assert counter_form_fits((2**32 - 1, 0, TAG))
        assert counter_form_fits(4)
        for root in ((2**32, 0), (-1, 0), 2**32, (1, 2, 3, 4), (1.0, 2)):
            assert not counter_form_fits(root), root
            with pytest.raises(ValueError, match="counter form"):
                counter_uniforms([(0, 0), root], 2, 3)

    def test_self_check_raises_when_streams_differ(self, monkeypatch):
        monkeypatch.setattr(cmdp_module, "_counter_checked", False)
        monkeypatch.setattr(cmdp_module, "_INIT_B", cmdp_module._INIT_B ^ 1)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            counter_uniforms([(0, 1)], 2, 3)

    def test_collect_batch_with_uniforms_equals_generators(self):
        params = init_params(TabularSoftmax(15, 4))
        params = params.replace_theta(np.random.default_rng(4).normal(size=60))
        sampling = SamplingConfig(n_traj=6, horizon=30)
        for slip in (False, True):
            cmdp = grid_cmdp(slip)
            width = 1 + cmdp.vector_step.noise_dim  # 1 + 2 slip uniforms
            u = generator_uniforms((8, 2), 6, 30 * width).reshape(6, 30, width)
            probs = softmax_table(params)
            got = collect_batch(cmdp, params, sampling, (8, 2))  # counter uniforms
            want = collect_batch(cmdp, params, sampling, (8, 2), u)
            shared = collect_batch(cmdp, params, sampling, (8, 2), u, probs)
            for name in ("states", "actions", "rewards", "costs"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
                assert np.array_equal(getattr(shared, name), getattr(want, name)), name
            for bad in (u[:, :5], u[:, :, :0], u.reshape(6, -1)):
                with pytest.raises(ValueError, match="shape"):
                    collect_batch(cmdp, params, sampling, (8, 2), bad)
            with pytest.raises(ValueError, match="shape"):
                collect_batch(cmdp, params, sampling, (8, 2), u, probs[:, :3])
            gaussian = init_params(LinearGaussian(4, 2))
            with pytest.raises(ValueError, match=r"shape \(n, H, w\) = \(6, 30, "):
                collect_batch(cmdp, gaussian, sampling, (8, 2), u)  # A + k wide
            with pytest.raises(ValueError, match="tabular batch"):
                collect_batch(cmdp, gaussian, sampling, (8, 2), None, probs)


class TestPapdCounterBlocks:
    @pytest.mark.parametrize("slip", [False, True])
    @pytest.mark.parametrize("iterations", [1, 63, 64, 65, 130])
    def test_records_equal_generator_loop(self, monkeypatch, iterations, slip):
        cmdp = grid_cmdp(slip)
        cfg = grid_papd_cfg(iterations)
        calls = count_counter_calls(monkeypatch)
        got = papd_run(cmdp, GRID_LIMIT, cfg)
        blocks = -(-iterations // UNIFORM_BLOCK)
        assert len(calls) == blocks
        assert sum(calls) == iterations
        generators_only(monkeypatch)
        assert_records_equal(got, papd_run(cmdp, GRID_LIMIT, cfg))

    def test_no_generator_for_a_drawn_batch(self, monkeypatch):
        cmdp = grid_cmdp(slip=True)
        cfg = grid_papd_cfg(70)
        want = papd_run(cmdp, GRID_LIMIT, cfg)  # also runs the self-check
        built = []
        default_rng = np.random.default_rng

        def counted(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        assert_records_equal(papd_run(cmdp, GRID_LIMIT, cfg), want)
        assert built == []

    def test_large_seed_raises(self):
        cmdp = make_gridworld(default_hazard_gridworld())
        cfg = grid_papd_cfg(5, seed=2**32)
        with pytest.raises(ValueError, match=r"seed 4294967296 outside \[0, 2\^32\)"):
            papd_run(cmdp, GRID_LIMIT, cfg)


def eastward_grid_params(n_cells, seed=4):
    """Random logits with a pull east, so grid rollouts reach the goal part-way
    through the horizon and then sit in it."""
    theta = np.random.default_rng(seed).normal(size=(n_cells, 4))
    theta[:, 1] += 2.0
    return init_params(TabularSoftmax(n_cells, 4)).replace_theta(theta.ravel())


def counter_cmdp(successor, noise_dim=0, start=0):
    """Three cells; the step function sends cell s to successor(s, u), u the
    step's transition uniforms, whatever the action.  Every reward and cost
    is zero."""

    def step(states, actions, uniforms):
        return successor(states, uniforms)

    def signals(s, a, s2):
        return np.zeros(s.shape), np.zeros(s.shape)

    return Cmdp(
        gamma=GAMMA,
        n_costs=1,
        cost_bound=1.0,
        initial_state=start,
        vector_step=VectorStep(noise_dim, step, signals),
        n_states=3,
        n_actions=2,
    )


TABLE_CASES = {
    # name: (cmdp, params, n_traj, horizon)
    "chain": (chain_cmdp(), uniform_params(), 6, 25),
    "grid": (grid_cmdp(False), eastward_grid_params(15), 16, 24),
    "slip-grid": (grid_cmdp(True), eastward_grid_params(15), 16, 24),
    "one-trajectory": (grid_cmdp(True), eastward_grid_params(15), 1, 24),
    "one-step": (grid_cmdp(True), eastward_grid_params(15), 16, 1),
}


class TestSuccessorTable:
    """Tabular collect_batch steps all trajectories through a successor table
    built a span of steps at a time; row i must be the per-step sampler's
    trajectory for derived seed i, however the horizon splits into passes."""

    @pytest.mark.parametrize("table", [None, 1, 1200])
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_rows_equal_sample_trajectory(self, monkeypatch, case, table):
        cmdp, params, n, horizon = TABLE_CASES[case]
        if table is not None:
            # 1: one step per pass; 1200: 5-step passes on the 15-cell grid
            # with 16 trajectories, 4 on the chain with 6, short last pass.
            monkeypatch.setattr(cmdp_module, "_TABLE", table)
        seed = (11, 3)
        batch = collect_batch(cmdp, params, SamplingConfig(n, horizon), seed)
        assert batch.states.dtype == batch.actions.dtype == np.int64
        for i in range(n):
            solo = sample_trajectory(cmdp, params, horizon, derived_seed(seed, i))
            for name in ("states", "actions", "rewards", "costs"):
                assert np.array_equal(getattr(batch, name)[i], getattr(solo, name)[0])
        if case in ("grid", "slip-grid"):
            goal = default_hazard_gridworld().goal_cell
            entered = [list(row).index(goal) for row in batch.states if goal in row]
            assert any(k < horizon // 2 for k in entered)
            assert batch.states[:, -1].tolist().count(goal) < n  # not all there

    @pytest.mark.parametrize("table, calls", [(None, 1), (1200, 5), (1, 24)])
    def test_one_step_call_per_pass(self, monkeypatch, table, calls):
        if table is not None:
            monkeypatch.setattr(cmdp_module, "_TABLE", table)
        cmdp = grid_cmdp(True)
        fn, rows = cmdp.vector_step.fn, []

        def counted(states, actions, noise):
            rows.append(len(states))
            return fn(states, actions, noise)

        step = dataclasses.replace(cmdp.vector_step, fn=counted)
        counted_cmdp = dataclasses.replace(cmdp, vector_step=step)
        collect_batch(counted_cmdp, eastward_grid_params(15), SamplingConfig(16, 24), 0)
        assert len(rows) == calls
        assert sum(rows) == 15 * 24 * 16  # every cell, step and trajectory once

    @pytest.mark.parametrize(
        "successor, message",
        [
            (lambda s, u: np.where(s == 2, -1, s + 1), "cell 2 steps to cell -1"),
            (lambda s, u: s + 1, "cell 2 steps to cell 3"),
        ],
        ids=["below-zero", "past-the-last-cell"],
    )
    def test_successor_outside_the_grid_raises(self, successor, message):
        # Cell 2 leaves the grid; a wrapped cdf[-1] lookup used to carry on
        # with the states 0 1 2 -1 0 1 2.
        cmdp = counter_cmdp(successor)
        with pytest.raises(ValueError, match=rf"trajectory 0, step 0: {message}, "):
            collect_batch(cmdp, uniform_params(3, 2), SamplingConfig(2, 6), 0)

    def test_successor_error_names_the_earliest_step(self, monkeypatch):
        # Only trajectory 1's step-3 transition uniform (>= 0.5) sends a cell
        # off the grid, in the second of three 2-step passes.
        monkeypatch.setattr(cmdp_module, "_TABLE", 3 * 2 * 2)
        cmdp = counter_cmdp(lambda s, u: np.where(u[:, 0] < 0.5, s, 7), noise_dim=1)
        u = np.full((2, 5, 2), 0.25)
        u[1, 3, 1] = 0.75
        with pytest.raises(ValueError, match="trajectory 1, step 3: cell 0 steps"):
            collect_batch(cmdp, uniform_params(3, 2), SamplingConfig(2, 5), 0, u)

    @pytest.mark.parametrize("start", [-1, 3])
    def test_initial_cell_outside_the_grid_raises(self, start):
        # The start is checked once, when the CMDP is built.
        with pytest.raises(ValueError, match=rf"initial cell {start} outside \[0, 3\)"):
            counter_cmdp(lambda s, u: np.minimum(s + 1, 2), start=start)


EDGE_ROOTS = [(0, 0), (0, 2**32 - 1), (2**32 - 1, 0), (2**32 - 1, 2**32 - 1)]
EDGE_ROOTS.append((7, 10**9))  # a large iteration k


class TestCounterStreams:
    """counter_streams' one Generator, set to each stream's seeded state,
    draws what default_rng(derived_seed(root, i)) draws."""

    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_normals_and_permutations_equal_default_rng(self, block):
        n = 8
        indices = [0, n - 1, SHUFFLE_STREAM]
        streams = counter_streams(iter(EDGE_ROOTS), indices, block)
        for root in EDGE_ROOTS:
            for i in indices:
                want = np.random.default_rng(derived_seed(root, i))
                gen = next(streams)
                normals = gen.standard_normal(37)
                assert np.array_equal(normals, want.standard_normal(37))
                for _ in range(2):  # the epochs' orders continue the stream
                    assert np.array_equal(gen.permutation(512), want.permutation(512))
        assert next(streams, None) is None

    def test_stream_normals_rows(self):
        got = stream_normals(counter_streams([(3, 4)], range(5)), (5, 64, 4))
        for i in range(5):
            want = np.random.default_rng((3, 4, i)).standard_normal((64, 4))
            assert np.array_equal(got[i], want), i

    def test_rejects_what_the_counter_form_does_not_cover(self):
        with pytest.raises(ValueError, match="counter form"):
            next(counter_streams([(2**32, 0)], [0]))
        with pytest.raises(ValueError, match="indices"):
            next(counter_streams([(1, 0)], [2**32]))

    def test_self_check_raises_when_a_stream_differs(self, monkeypatch):
        # Uniforms do not read the seeded states, so only the Gaussian and
        # shuffle probes can catch this.
        seeded = cmdp_module._seeded_states

        def shifted(roots, indices):
            return [(state ^ 1, inc) for state, inc in seeded(roots, indices)]

        monkeypatch.setattr(cmdp_module, "_counter_checked", False)
        monkeypatch.setattr(cmdp_module, "_seeded_states", shifted)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            next(counter_streams([(0, 1)], [0]))
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            counter_uniforms([(0, 1)], 2, 3)


def point_ppol_cfg(iterations, seed=5):
    return SolverConfig(
        iterations=iterations,
        schedule=LrSchedule("invlin-practical", h1=0.001, h2=3.0),
        gains=PidGains(),
        theta0=init_params(LinearGaussian(4, 2)),
        sampling=SamplingConfig(n_traj=8, horizon=64),
        seed=seed,
        ppol=PpolConfig(epochs=4),
    )


def point_run_cmdp():
    return make_point_env("run", PointEnvConfig(noise_std=0.05))


class TestPapdGaussianStreams:
    def test_iteration_variates_equal_default_rng(self):
        cmdp, cfg = point_run_cmdp(), point_ppol_cfg(UNIFORM_BLOCK + 2)
        variates = solver._iteration_variates(cmdp, cfg.theta0, cfg)
        for k, (normals, orders) in enumerate(variates):
            if k in (0, UNIFORM_BLOCK - 1, UNIFORM_BLOCK + 1):
                for i in range(8):
                    rng = np.random.default_rng(derived_seed((cfg.seed, k), i))
                    assert np.array_equal(normals[i], rng.standard_normal((64, 4)))
                shuffle = np.random.default_rng((cfg.seed, k, SHUFFLE_STREAM))
                assert len(orders) == 4
                for order in orders:
                    assert np.array_equal(order, shuffle.permutation(512))
        assert k == UNIFORM_BLOCK + 1

    def test_rows_with_drawn_normals_equal_sample_trajectory(self):
        cmdp, cfg = point_run_cmdp(), point_ppol_cfg(2)
        theta = np.random.default_rng(2).normal(size=10) * 0.3
        params = cfg.theta0.replace_theta(theta)
        variates = solver._iteration_variates(cmdp, params, cfg)
        for k, (normals, _) in enumerate(variates):
            seed = (cfg.seed, k)
            batch = collect_batch(cmdp, params, cfg.sampling, seed, normals)
            for i in range(8):
                solo = sample_trajectory(cmdp, params, 64, derived_seed(seed, i))
                for name in ("states", "actions", "rewards", "costs"):
                    got, want = getattr(batch, name)[i], getattr(solo, name)[0]
                    assert np.array_equal(got, want), (k, i, name)

    def test_no_generator_for_a_point_ppo_run(self, monkeypatch):
        cmdp, cfg = point_run_cmdp(), point_ppol_cfg(3)
        spec = ConstraintSpec(np.array([2.0]))
        want = papd_run(cmdp, spec, cfg)  # also runs the self-check
        built = []
        default_rng = np.random.default_rng

        def counted(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        assert_records_equal(papd_run(cmdp, spec, cfg), want)
        assert built == []


class TestBatchLayout:
    def test_values_independent_of_memory_layout(self):
        """A batch built from time-major views gives the same values, value
        fit and advantages, bit for bit, as its C-contiguous copy."""
        cmdp = point_run_cmdp()
        params = init_params(LinearGaussian(4, 2))
        params = params.replace_theta(np.random.default_rng(3).normal(size=10) * 0.3)
        batch = collect_batch(cmdp, params, SamplingConfig(8, 64), (1, 4))
        names = ("states", "actions", "rewards", "costs")
        time_major = [getattr(batch, name).swapaxes(0, 1).copy() for name in names]
        views = RolloutBatch(*(arr.swapaxes(0, 1) for arr in time_major))
        for name in names:
            assert np.array_equal(getattr(views, name), getattr(batch, name))
            assert getattr(views, name).flags.c_contiguous, name
        want = batch_values(batch, cmdp.gamma)
        for got, want in zip(batch_values(views, cmdp.gamma), want):
            assert np.array_equal(got, want)
        values = solver._lstsq_values(cmdp, views)
        assert np.array_equal(values, solver._lstsq_values(cmdp, batch))
        got = advantage_batch(views, params, cmdp.gamma, PpolConfig(), values)
        want = advantage_batch(batch, params, cmdp.gamma, PpolConfig(), values)
        for name in ("states", "actions", "log_prob_old", "adv_r", "adv_c"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
