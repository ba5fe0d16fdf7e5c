"""CMDP primitives: discounting arithmetic, seeding, and MC estimators.

The Monte-Carlo estimators are checked against a dynamic-programming oracle
written here in the test (distribution-vector recursion over an explicit
two-state chain), not against any library code path.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from apdual.cmdp import (
    SHUFFLE_COUNTER,
    Cmdp,
    NonFiniteError,
    RolloutBatch,
    SamplingConfig,
    VectorStep,
    batch_values,
    collect_batch,
    discount_weights,
    discounted_value,
    philox,
    policy_state_values,
    require_finite,
    sample_trajectory,
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
from apdual.lagrangian import PpolConfig, advantage_batch
from apdual.policy import LinearGaussian, TabularSoftmax, init_params, softmax_table
from apdual.schedules import LrSchedule
from apdual.solver import SolverConfig, papd_run

GAMMA = 0.9


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
    """Reference estimator: sample means (J_R_hat, J_C_hat) over the batch
    of key seed."""
    returns, cost_vals = batch_values(
        collect_batch(cmdp, params, sampling, seed), cmdp.gamma
    )
    return float(returns.mean()), float(cost_vals.mean())


def one_row(rewards, costs):
    """A one-rollout batch with the given (T,) rewards and (T,) costs."""
    t = len(rewards)
    return RolloutBatch(
        np.arange(t + 1)[None], np.zeros((1, t), dtype=np.int64),
        np.asarray(rewards)[None], np.asarray(costs)[None],
    )


class TestDiscountedValue:
    def test_geometric_sum_closed_form(self):
        t = 50
        j_r, j_c = discounted_value(np.ones(t), np.full(t, 0.5), GAMMA)
        geom = (1.0 - GAMMA**t) / (1.0 - GAMMA)
        assert j_r == pytest.approx(geom, rel=1e-12)
        assert j_c == pytest.approx(0.5 * geom, rel=1e-12)

    def test_matches_bruteforce_loop(self):
        rng = np.random.default_rng(7)
        t = 33
        rewards, costs = rng.normal(size=t), rng.random(t)
        j_r, j_c = discounted_value(rewards, costs, 0.97)
        want_r = sum(0.97**k * rewards[k] for k in range(t))
        want_c = sum(0.97**k * costs[k] for k in range(t))
        assert j_r == pytest.approx(want_r, rel=1e-12)
        assert j_c == pytest.approx(want_c, rel=1e-12)

    def test_truncation_error_within_tail_bound(self):
        # constant reward 1: the infinite sum is 1/(1-gamma) and truncation
        # at H removes exactly gamma^H/(1-gamma)
        for h in (10, 100, 688):
            (j_r,), _ = batch_values(one_row(np.ones(h), np.zeros(h)), 0.99)
            tail = 0.99**h / (1.0 - 0.99)
            assert abs(1.0 / (1.0 - 0.99) - j_r) == pytest.approx(tail, rel=1e-9)

    def test_weights_are_repeated_products(self):
        for gamma in (0.9, 0.99, 0.999):
            w = discount_weights(gamma, 300)
            assert w[0] == 1.0
            for t in range(1, 300):
                assert w[t] == w[t - 1] * gamma, (gamma, t)
        assert discount_weights(0.5, 0).shape == (0,)

    def test_weights_computed_once_read_only(self):
        w = discount_weights(0.99, 24)
        assert discount_weights(0.99, 24) is w
        assert not w.flags.writeable

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            discounted_value(np.ones(1), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            batch_values(one_row(np.ones(1), np.zeros(1)), 1.0)

    @pytest.mark.parametrize("t", [1, 24, 64, 200])
    @pytest.mark.parametrize("n", [1, 3])
    def test_batch_values_equal_per_trajectory(self, t, n):
        rng = np.random.default_rng(t + n)
        batch = RolloutBatch(
            np.zeros((n, t + 1), dtype=np.int64),
            np.zeros((n, t), dtype=np.int64),
            rng.normal(size=(n, t)) * 50.0,
            rng.random((n, t)) * 4.0,
        )
        returns, costs = batch_values(batch, 0.99)
        assert returns.shape == (n,) and costs.shape == (n,)
        for i in range(n):
            j_r, j_c = discounted_value(batch.rewards[i], batch.costs[i], 0.99)
            assert returns[i] == j_r
            assert costs[i] == j_c

    def test_batch_values_need_one_length(self):
        # every field of a batch covers the same n rollouts of one length
        states, actions = np.zeros((2, 3)), np.zeros((2, 2))
        with pytest.raises(ValueError):
            RolloutBatch(states, actions, np.ones((2, 1)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RolloutBatch(states, actions, np.ones((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            RolloutBatch(states, actions, np.ones((3, 2)), np.zeros((3, 2)))


class TestTrajectoryShape:
    def test_lengths(self):
        cmdp = chain_cmdp()
        traj = sample_trajectory(cmdp, uniform_params(), horizon=17, seed=3)
        assert len(traj) == 1
        assert traj.states.shape == (1, 18)
        assert traj.actions.shape == (1, 17)
        assert traj.rewards.shape == (1, 17)
        assert traj.costs.shape == (1, 17)

    def test_inconsistent_fields_rejected(self):
        one_step = np.ones((1, 1))
        with pytest.raises(ValueError):  # no final state
            RolloutBatch(np.zeros((1, 1)), one_step, one_step, np.zeros((1, 1)))
        with pytest.raises(ValueError):  # costs with a constraint axis
            RolloutBatch(np.zeros((1, 2)), one_step, one_step, np.zeros((1, 1, 1)))

    def test_step_fields_align(self):
        # step t of the parallel fields is (s_t, a_t, r(s_t, a_t, s_t+1), c(...))
        cmdp = chain_cmdp()
        traj = sample_trajectory(cmdp, uniform_params(), horizon=5, seed=0)
        s, a, s2 = traj.states[:, :-1], traj.actions, traj.states[:, 1:]
        for t in range(5):
            reward, cost = cmdp.vector_step.signals(s[:, [t]], a[:, [t]], s2[:, [t]])
            assert traj.rewards[0, t] == reward[0, 0]
            assert traj.costs[0, t] == cost[0, 0]


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

    def test_batch_member_regenerable_in_isolation(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        sampling = SamplingConfig(n_traj=6, horizon=25)
        batch = collect_batch(cmdp, params, sampling, seed=9)
        for i in (0, 3, 5):
            solo = sample_trajectory(cmdp, params, 25, 9, i)
            np.testing.assert_array_equal(solo.states[0], batch.states[i])
            np.testing.assert_array_equal(solo.actions[0], batch.actions[i])
            np.testing.assert_array_equal(solo.costs[0], batch.costs[i])

    def test_single_trajectory_batch_identity(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        sampling = SamplingConfig(n_traj=1, horizon=12)
        only = collect_batch(cmdp, params, sampling, seed=2)
        solo = sample_trajectory(cmdp, params, 12, seed=2, row=0)
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
    def constant_cost_cmdp(cost):
        """The same step cost at every step, bound B = 1."""

        def signals(s, a, s2):
            return np.zeros(s.shape), np.full(s.shape, cost)

        return Cmdp(
            gamma=GAMMA,
            cost_bound=1.0,
            initial_state=0,
            vector_step=VectorStep(0, lambda s, a, u: s, signals),
            n_states=2,
            n_actions=2,
        )

    def test_bound_holds_for_negative_costs(self):
        # the bound is on |c|: -1 passes, -1.01 fails as a bound violation
        ok = self.constant_cost_cmdp(-1.0)
        batch = collect_batch(ok, uniform_params(), SamplingConfig(4, 10), seed=0)
        assert batch.costs.shape == (4, 10)
        bad = self.constant_cost_cmdp(-1.01)
        for sample in (
            lambda: sample_trajectory(bad, uniform_params(), 10, seed=0),
            lambda: collect_batch(bad, uniform_params(), SamplingConfig(4, 10), 0),
        ):
            with pytest.raises(ValueError, match="exceeds declared bound 1") as err:
                sample()
            assert not isinstance(err.value, NonFiniteError)

    def test_nan_cost_is_non_finite(self):
        bad = self.constant_cost_cmdp(math.nan)
        with pytest.raises(NonFiniteError, match=r"costs at index \(0, 0\)"):
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
        se_r = vals.std(ddof=1) / math.sqrt(n)
        se_c = cvals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - want_r) <= 3.0 * se_r
        assert abs(cvals.mean() - want_c) <= 3.0 * se_c

        j_r_hat, j_c_hat = estimate_objectives(cmdp, params, sampling, seed=123)
        assert j_r_hat == pytest.approx(vals.mean(), rel=1e-12)
        assert j_c_hat == pytest.approx(cvals.mean(), rel=1e-12)

    def test_estimator_deterministic_in_seed(self):
        cmdp = chain_cmdp()
        params = uniform_params()
        sampling = SamplingConfig(n_traj=16, horizon=20)
        a = estimate_objectives(cmdp, params, sampling, seed=77)
        b = estimate_objectives(cmdp, params, sampling, seed=77)
        assert a == b

    def test_cost_estimate_shape(self):
        cmdp = chain_cmdp()
        _, j_c = estimate_objectives(
            cmdp, uniform_params(), SamplingConfig(4, 10), seed=0
        )
        assert isinstance(j_c, float)


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
            Cmdp(gamma=1.0, cost_bound=1.0, **kw)
        with pytest.raises(ValueError):
            Cmdp(gamma=0.9, cost_bound=0.0, **kw)
        kw["initial_state"] = np.array([0.0, np.nan])
        with pytest.raises(NonFiniteError, match=r"initial state at index \(1,\)"):
            Cmdp(gamma=0.9, cost_bound=1.0, **kw)
        tabular = dict(gamma=0.9, cost_bound=1.0, n_states=2, n_actions=2)
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


def fresh_philox(seed, counter=(0, 0, 0, 0)):
    """A new Generator at the Philox key of seed and at counter."""
    key = np.array([seed, 0] if isinstance(seed, int) else seed, dtype=np.uint64)
    counter = np.array(counter, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def fresh_generators(monkeypatch):
    """Give every Philox address its own new Generator instead of the one
    Generator that cmdp.philox sets to it."""
    monkeypatch.setattr(cmdp_module, "philox", fresh_philox)
    monkeypatch.setattr(solver, "philox", fresh_philox)


def count_generators(monkeypatch):
    """The seeds of every default_rng and Generator built from here on."""
    built = []
    default_rng, generator = np.random.default_rng, np.random.Generator

    def counted_rng(seed=None):
        built.append(seed)
        return default_rng(seed)

    def counted_generator(bits):
        built.append(bits)
        return generator(bits)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    monkeypatch.setattr(np.random, "Generator", counted_generator)
    return built


GRID_LIMIT = 10.0


class TestPapdCounterBlocks:
    """papd_run's tabular batches read Philox blocks at key (seed, k)
    through the one Generator of cmdp.philox."""

    @pytest.mark.parametrize("slip", [False, True])
    @pytest.mark.parametrize("iterations", [1, 63, 64, 65, 130])
    def test_records_equal_generator_loop(self, monkeypatch, iterations, slip):
        cmdp = grid_cmdp(slip)
        cfg = grid_papd_cfg(iterations)
        got = papd_run(cmdp, GRID_LIMIT, cfg)
        fresh_generators(monkeypatch)
        assert_records_equal(got, papd_run(cmdp, GRID_LIMIT, cfg))

    def test_no_generator_for_a_drawn_batch(self, monkeypatch):
        cmdp = grid_cmdp(slip=True)
        cfg = grid_papd_cfg(70)
        want = papd_run(cmdp, GRID_LIMIT, cfg)  # builds this thread's Generator
        built = count_generators(monkeypatch)
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
    trajectory at row i's address, however the horizon splits into passes."""

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
            solo = sample_trajectory(cmdp, params, horizon, seed, i)
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

    def test_shared_probs_give_the_same_batch(self):
        cmdp, params = grid_cmdp(True), eastward_grid_params(15)
        sampling = SamplingConfig(6, 30)
        probs = softmax_table(params)
        own = collect_batch(cmdp, params, sampling, (8, 2))
        shared = collect_batch(cmdp, params, sampling, (8, 2), probs)
        for name in ("states", "actions", "rewards", "costs"):
            assert np.array_equal(getattr(shared, name), getattr(own, name)), name
        with pytest.raises(ValueError, match="shape"):
            collect_batch(cmdp, params, sampling, (8, 2), probs[:, :3])
        gaussian = init_params(LinearGaussian(4, 2))
        with pytest.raises(ValueError, match="tabular batch"):
            collect_batch(point_run_cmdp(), gaussian, sampling, (8, 2), probs)

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
        # A transition uniform >= 0.5 sends a cell off the grid.  Under key
        # 367 the first is trajectory 1's at step 3, in the second of three
        # 2-step passes; both trajectories have one at step 4.
        monkeypatch.setattr(cmdp_module, "_TABLE", 3 * 2 * 2)
        off = philox(367).random((2, 10)).reshape(2, 5, 2)[:, :, 1] >= 0.5
        assert not off[:, :3].any() and off[:, 3].tolist() == [False, True]
        assert off[:, 4].all()
        cmdp = counter_cmdp(lambda s, u: np.where(u[:, 0] < 0.5, s, 7), noise_dim=1)
        with pytest.raises(ValueError, match="trajectory 1, step 3: cell 0 steps"):
            collect_batch(cmdp, uniform_params(3, 2), SamplingConfig(2, 5), 367)

    @pytest.mark.parametrize("start", [-1, 3])
    def test_initial_cell_outside_the_grid_raises(self, start):
        # The start is checked once, when the CMDP is built.
        with pytest.raises(ValueError, match=rf"initial cell {start} outside \[0, 3\)"):
            counter_cmdp(lambda s, u: np.minimum(s + 1, 2), start=start)


def without_table(cmdp, monkeypatch):
    """The same CMDP built with its step table left out: batches call fn and
    signals."""
    with monkeypatch.context() as patch:
        patch.setattr(Cmdp, "_tabulate", lambda self: None)
        return dataclasses.replace(cmdp)


def assert_batches_equal(got, want, note=None):
    for name in ("states", "actions", "rewards", "costs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), (name, note)


def lookup_cmdp(nxt, rewards, costs, bound=1.0):
    """Three cells, two actions: the step from cell s under action a is row
    s * 2 + a of the given (6,) next cells, rewards and costs.  The signals
    see only successors inside the grid, as a grid's cell lookups need."""
    nxt, rewards, costs = (np.array(x) for x in (nxt, rewards, costs))

    def step(states, actions, noise):
        return nxt[states * 2 + actions]

    def signals(s, a, s2):
        assert ((s2 >= 0) & (s2 < 3)).all()
        return rewards[s * 2 + a], costs[s * 2 + a]

    return Cmdp(
        gamma=GAMMA,
        cost_bound=bound,
        initial_state=0,
        vector_step=VectorStep(0, step, signals),
        n_states=3,
        n_actions=2,
    )


def bandit_cmdp():
    """Acceptance criterion 7's two-action bandit: one cell, fixed rewards
    and costs per action."""
    reward_of, cost_of = np.array([1.0, 3.0]), np.array([2.0, 0.5])
    step = VectorStep(
        0, lambda s, a, z: s, lambda s, a, s2: (reward_of[a], cost_of[a])
    )
    return Cmdp(0.9, 2.0, 0, step, n_states=1, n_actions=2)


# Cells 0 and 1 lead to each other or stay, so cell 2 is never reached.
LOOKUP_NEXT = [0, 1, 1, 0, 2, 2]
LOOKUP_BAD = {
    # name: (row, field, value, message of the batch or None).  Every cell's
    # successor is checked, reached or not, at the first step whose uniform
    # picks the bad action.
    "successor-reached": (2, 0, 3, r"trajectory \d+, step \d+: cell 1 steps to cell 3"),
    "successor-unreached": (4, 0, -1, r"trajectory \d+, step \d+: cell 2 steps to cell -1"),
    "reward-reached": (3, 1, math.nan, r"non-finite rewards at index"),
    "reward-unreached": (5, 1, math.inf, None),
    "cost-reached": (1, 2, 2.0, r"sampled step cost 2 exceeds declared bound 1"),
    "cost-unreached": (4, 2, math.nan, None),
}


class TestStepTable:
    """A tabular CMDP whose step draws no noise is tabulated once, when it is
    built; its batches must equal those of fn and signals bit for bit."""

    @pytest.mark.parametrize("table", [None, 1, 1200])
    def test_batches_equal_fn_batches(self, monkeypatch, table):
        if table is not None:
            monkeypatch.setattr(cmdp_module, "_TABLE", table)
        cmdp = grid_cmdp(False)
        plain = without_table(cmdp, monkeypatch)
        assert cmdp._table is not None and plain._table is None
        rng = np.random.default_rng(29)
        for k in range(40):
            scale = rng.uniform(0.0, 6.0)
            theta = rng.normal(size=60) * scale + np.tile([0, scale, 0, 0], 15)
            params = init_params(TabularSoftmax(15, 4)).replace_theta(theta)
            sampling = SamplingConfig(int(rng.integers(1, 20)), int(rng.integers(1, 40)))
            seed = (int(rng.integers(2**63)), k)
            got = collect_batch(cmdp, params, sampling, seed)
            assert_batches_equal(got, collect_batch(plain, params, sampling, seed), k)

    def test_no_fn_or_signals_call_per_batch(self):
        grid, calls = grid_cmdp(False), []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        step = dataclasses.replace(
            grid.vector_step,
            fn=counted("fn", grid.vector_step.fn),
            signals=counted("signals", grid.vector_step.signals),
        )
        cmdp = dataclasses.replace(grid, vector_step=step)
        assert calls == ["fn", "signals"]  # once each, when the CMDP is built
        params, sampling = eastward_grid_params(15), SamplingConfig(16, 24)
        for seed in [(3, 1), (3, 2)]:
            got = collect_batch(cmdp, params, sampling, seed)
            assert_batches_equal(got, collect_batch(grid, params, sampling, seed))
        assert calls == ["fn", "signals"]

    def test_fn_gets_int64_actions(self):
        # _tabular_paths counts actions in a narrow integer type; the slip
        # grid's fn, called per batch, still receives int64 cells and actions
        grid, dtypes = grid_cmdp(True), set()
        fn = grid.vector_step.fn

        def recording(cells, actions, noise):
            dtypes.add((cells.dtype, actions.dtype))
            return fn(cells, actions, noise)

        step = dataclasses.replace(grid.vector_step, fn=recording)
        cmdp = dataclasses.replace(grid, vector_step=step)
        params, sampling = eastward_grid_params(15), SamplingConfig(16, 24)
        got = collect_batch(cmdp, params, sampling, (3, 1))
        assert dtypes == {(np.dtype(np.int64), np.dtype(np.int64))}
        assert_batches_equal(got, collect_batch(grid, params, sampling, (3, 1)))

    def test_only_the_slip_free_grid_declares_a_table(self, monkeypatch):
        cmdp = grid_cmdp(False)
        nxt, rewards, costs = cmdp._table
        cells, actions = np.repeat(np.arange(15), 4), np.tile(np.arange(4), 15)
        want_next = cmdp.vector_step.fn(cells, actions, np.empty((60, 0)))
        want_rewards, want_costs = cmdp.vector_step.signals(cells, actions, want_next)
        assert np.array_equal(nxt, want_next) and nxt.dtype == np.int64
        assert rewards.tobytes() == want_rewards.tobytes()
        assert costs.tobytes() == want_costs.tobytes()
        bandit = bandit_cmdp()
        want = [[0, 0], [1.0, 3.0], [2.0, 0.5]]
        assert [arr.tolist() for arr in bandit._table] == want
        params, sampling = uniform_params(1, 2), SamplingConfig(50, 1)
        got = collect_batch(bandit, params, sampling, 42)
        plain = without_table(bandit, monkeypatch)
        assert_batches_equal(got, collect_batch(plain, params, sampling, 42))
        assert grid_cmdp(True)._table is None
        assert make_point_env("run", PointEnvConfig())._table is None

    @pytest.mark.parametrize("case", list(LOOKUP_BAD))
    def test_failing_table_raises_the_fn_error(self, case):
        # A step with one bad (cell, action) entry keeps no table: its
        # batches check what they sample, and sample when the entry is never
        # reached, just as the model without the bad entry does.
        row, field, value, message = LOOKUP_BAD[case]
        arrays = [LOOKUP_NEXT, [0.5] * 6, [0.25] * 6]
        good = lookup_cmdp(*arrays)
        arrays[field] = list(arrays[field])
        arrays[field][row] = value
        bad = lookup_cmdp(*arrays)
        assert good._table is not None and bad._table is None
        params, sampling = uniform_params(3, 2), SamplingConfig(4, 12)
        if message is None:
            got = collect_batch(bad, params, sampling, 5)
            assert_batches_equal(got, collect_batch(good, params, sampling, 5))
            return
        with pytest.raises(ValueError, match=message):
            collect_batch(bad, params, sampling, 5)

    def test_passing_table_is_marked(self):
        assert lookup_cmdp(LOOKUP_NEXT, [0.5] * 6, [-1.0] * 6)._table is not None
        # |cost| <= B is the bound, with the samplers' 1e-12 relative slack
        assert lookup_cmdp(LOOKUP_NEXT, [0.5] * 6, [1.0 + 1e-13] * 6)._table is not None
        over = lookup_cmdp(LOOKUP_NEXT, [0.5] * 6, [1.0 + 1e-11] * 6)
        assert over._table is None
        with pytest.raises(ValueError, match="exceeds declared bound 1"):
            collect_batch(over, uniform_params(3, 2), SamplingConfig(2, 3), 0)
        # whole-valued float successors are no cell indices
        floats = np.array(LOOKUP_NEXT, dtype=float)
        assert lookup_cmdp(floats, [0.5] * 6, [0.0] * 6)._table is None

    def test_table_is_a_read_only_copy(self):
        # signals that hand back the model's own arrays: the table copies them
        rewards, costs = np.full((2, 1), 0.5), np.zeros((2, 1))
        step = VectorStep(0, lambda s, a, z: s, lambda s, a, s2: (rewards, costs))
        cmdp = Cmdp(GAMMA, 1.0, 0, step, n_states=1, n_actions=2)
        rewards[0] = 7.0
        assert cmdp._table[1].tolist() == [0.5, 0.5]
        assert rewards.flags.writeable and costs.flags.writeable
        for table in (cmdp._table, grid_cmdp(False)._table):
            assert not any(arr.flags.writeable for arr in table)

    @pytest.mark.parametrize("shape", [(15, 3), (16, 4)])
    @pytest.mark.parametrize("slip", [False, True], ids=["grid", "slip-grid"])
    def test_policy_of_another_shape_raises(self, shape, slip):
        # a 16th cell used to end in a bare IndexError from the grid's step
        cmdp, params = grid_cmdp(slip), uniform_params(*shape)
        want = rf"\({shape[0]}, {shape[1]}\) on a CMDP with \(S, A\) = \(15, 4\)"
        with pytest.raises(ValueError, match=want):
            collect_batch(cmdp, params, SamplingConfig(5, 30), 2)
        with pytest.raises(ValueError, match=want):
            sample_trajectory(cmdp, params, 30, 2)



class TestPolicyStateValues:
    """The exact DP on tabular CMDPs other than the grid, against closed
    forms."""

    @pytest.mark.parametrize("horizon", [1, 7, 60])
    def test_bandit_values_are_geometric_sums(self, horizon):
        # one cell that every action leads back to: v = (pi . r) sum_t 0.9^t
        bandit, q = bandit_cmdp(), 0.3
        v_r, v_c = policy_state_values(bandit, np.array([[q, 1.0 - q]]), horizon)
        steps = (1.0 - 0.9**horizon) / (1.0 - 0.9)
        assert v_r[0] == pytest.approx((q * 1.0 + (1.0 - q) * 3.0) * steps, rel=1e-12)
        assert v_c[0] == pytest.approx((q * 2.0 + (1.0 - q) * 0.5) * steps, rel=1e-12)

    def test_deterministic_path_values(self):
        # action 1 in cells 0 and 1 alternates them: rows 1 and 3 pay in turn
        cmdp = lookup_cmdp(LOOKUP_NEXT, [0.0, 1.0, 0.0, 2.0, 0.0, 0.0], [0.25] * 6)
        probs = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        horizon = 9
        v_r, v_c = policy_state_values(cmdp, probs, horizon)
        pay = [1.0 if t % 2 == 0 else 2.0 for t in range(horizon)]
        want_r = sum(GAMMA**t * x for t, x in enumerate(pay))
        assert v_r[0] == pytest.approx(want_r, rel=1e-12)
        assert v_r[2] == 0.0
        assert v_c == pytest.approx(0.25 * (1.0 - GAMMA**horizon) / (1.0 - GAMMA), rel=1e-12)

    def test_kernel_is_built_once_and_read_only(self):
        cmdp = grid_cmdp(False)
        kernel = cmdp._kernel
        policy_state_values(cmdp, softmax_table(uniform_params(15, 4)), 5)
        assert cmdp._kernel is kernel
        assert not any(arr.flags.writeable for arr in kernel)
        assert np.array_equal(kernel[0].sum(axis=2), np.ones((15, 4)))

    @pytest.mark.parametrize("case", ["noisy-chain", "failing-table", "point-run"])
    def test_no_step_table_raises(self, case):
        cmdp = {
            "noisy-chain": lambda: chain_cmdp(),
            "failing-table": lambda: lookup_cmdp(LOOKUP_NEXT, [0.5] * 6, [2.0] * 6),
            "point-run": point_run_cmdp,
        }[case]()
        with pytest.raises(ValueError, match="exact evaluation needs a tabular"):
            policy_state_values(cmdp, np.full((2, 2), 0.5), 3)

EDGE_KEYS = [0, (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (7, 10**9)]
COUNTERS = [(0, 0, 0, 0), (0, 5, 0, 0), SHUFFLE_COUNTER, (2**64 - 1, 0, 0, 0)]


# name: (cmdp, n_traj, horizon).  w = 1 + 2 on the slippery grid, so
# H * w = 15 and the rows start at every offset mod 4 of a Philox block.
ADDRESS_CASES = {
    "slip-grid-h5": (grid_cmdp(True), 9, 5),
    "grid": (grid_cmdp(False), 16, 24),
    "point-run": (make_point_env("run", PointEnvConfig(noise_std=0.05)), 5, 7),
}


class TestCounterStreams:
    """The Philox contract: a stream is a key and a counter, cmdp.philox
    sets its one Generator to it, and row i of a batch reads its address."""

    @pytest.mark.parametrize("seed", EDGE_KEYS)
    def test_philox_equals_a_fresh_generator(self, seed):
        for counter in COUNTERS:
            want = fresh_philox(seed, counter)
            assert np.array_equal(philox(seed, counter).random(7), want.random(7))
            assert np.array_equal(
                philox(seed, counter).standard_normal(37),
                fresh_philox(seed, counter).standard_normal(37),
            )
            shuffle = philox(seed, counter)
            again = fresh_philox(seed, counter)
            for _ in range(2):  # the epochs' orders continue the stream
                assert np.array_equal(shuffle.permutation(512), again.permutation(512))

    @pytest.mark.parametrize("case", list(ADDRESS_CASES))
    def test_rows_equal_sample_trajectory_at_their_address(self, case):
        cmdp, n, horizon = ADDRESS_CASES[case]
        if cmdp.is_tabular:
            params = eastward_grid_params(15)
        else:
            params = init_params(LinearGaussian(4, 2))
            params = params.replace_theta(np.random.default_rng(2).normal(size=10) * 0.3)
        key = (4, 2**40 + 3)
        batch = collect_batch(cmdp, params, SamplingConfig(n, horizon), key)
        for i in range(n):
            solo = sample_trajectory(cmdp, params, horizon, key, i)
            for name in ("states", "actions", "rewards", "costs"):
                assert np.array_equal(getattr(batch, name)[i], getattr(solo, name)[0]), (
                    i, name
                )

    @pytest.mark.parametrize("task", ["run", "circle"])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_fn_only_vector_step_batches_equal_sample_trajectory(self, task, noise):
        # without a stepper of its own a VectorStep steps its batch with one
        # fn call a step: the same batch as the point env's own stepper
        cmdp = make_point_env(task, PointEnvConfig(noise_std=noise))
        fn_only = dataclasses.replace(
            cmdp, vector_step=dataclasses.replace(cmdp.vector_step, stepper=None)
        )
        params = init_params(LinearGaussian(4, 2))
        params = params.replace_theta(np.random.default_rng(4).normal(size=10) * 0.3)
        key, sampling = (9, 1), SamplingConfig(5, 30)
        batch = collect_batch(fn_only, params, sampling, key)
        own = collect_batch(cmdp, params, sampling, key)
        for name in ("states", "actions", "rewards", "costs"):
            assert np.array_equal(getattr(batch, name), getattr(own, name))
        for i in range(5):
            solo = sample_trajectory(fn_only, params, 30, key, i)
            for name in ("states", "actions", "rewards", "costs"):
                assert np.array_equal(getattr(batch, name)[i], getattr(solo, name)[0])

    def test_batch_variates_at_their_address(self):
        """A CMDP whose next state is its transition draw shows the
        variates: tabular row i at output i * H * w of counter 0, Gaussian
        row i from counter (0, i, 0, 0)."""
        key, n, horizon = (3, 8), 6, 5

        def signals(s, a, s2):
            return np.zeros(s.shape[:2]), np.zeros(s.shape[:2])

        # 1000 cells: the cell is the transition uniform's first 3 digits.
        cells = Cmdp(0.9, 1.0, 0, VectorStep(
            2, lambda s, a, u: (u[:, 0] * 1000).astype(np.int64), signals
        ), n_states=1000, n_actions=2)
        batch = collect_batch(cells, uniform_params(1000, 2), SamplingConfig(n, horizon), key)
        u = fresh_philox(key, (0, 0, 0, 0)).random(n * horizon * 3).reshape(n, horizon, 3)
        assert np.array_equal(batch.states[:, 1:], (u[:, :, 1] * 1000).astype(np.int64))
        point = Cmdp(0.9, 1.0, np.zeros(1), VectorStep(
            1, lambda s, a, z: z.copy(), signals
        ))
        params = init_params(LinearGaussian(1, 1))
        batch = collect_batch(point, params, SamplingConfig(n, horizon), key)
        for i in range(n):
            z = fresh_philox(key, (0, i, 0, 0)).standard_normal((horizon, 2))
            assert np.array_equal(batch.states[i, 1:, 0], z[:, 1]), i

    def test_ppo_shuffle_equals_a_fresh_generator(self, monkeypatch):
        cmdp, cfg = point_run_cmdp(), point_ppol_cfg(3)
        cfg = dataclasses.replace(cfg, ppol=PpolConfig(minibatch_size=512, epochs=2))
        orders, grad = [], solver.ppol_surrogate_grad

        def recorded(samples, rows, *args):
            orders.append(rows)
            return grad(samples, rows, *args)

        monkeypatch.setattr(solver, "ppol_surrogate_grad", recorded)
        papd_run(cmdp, 2.0, cfg)
        assert len(orders) == 3 * 2  # one minibatch per epoch
        for k in range(3):
            shuffle = fresh_philox((cfg.seed, k), (0, 0, 1, 0))
            for epoch in range(2):
                assert np.array_equal(orders[2 * k + epoch], shuffle.permutation(512))

    def test_rejects_what_the_counter_form_does_not_cover(self):
        for seed in ((2**64, 0), (-1, 0), 2**64, (1, 2, 3), (1.0, 2)):
            with pytest.raises(ValueError, match="one or two integers"):
                philox(seed)
            with pytest.raises(ValueError, match="one or two integers"):
                collect_batch(chain_cmdp(), uniform_params(), SamplingConfig(2, 3), seed)


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
    def test_rows_with_drawn_normals_equal_sample_trajectory(self, monkeypatch):
        """Iteration k of a point PPO run samples the batch of key (seed, k),
        whose rows equal the per-step sampler's."""
        cmdp, cfg = point_run_cmdp(), point_ppol_cfg(2)
        batches, collect = [], solver.collect_batch

        def recorded(cmdp, params, sampling, seed, probs=None):
            batch = collect(cmdp, params, sampling, seed, probs)
            batches.append((params, seed, batch))
            return batch

        monkeypatch.setattr(solver, "collect_batch", recorded)
        papd_run(cmdp, 2.0, cfg)
        assert [seed for _, seed, _ in batches] == [(cfg.seed, 0), (cfg.seed, 1)]
        for k, (params, seed, batch) in enumerate(batches):
            for i in range(8):
                solo = sample_trajectory(cmdp, params, 64, seed, i)
                for name in ("states", "actions", "rewards", "costs"):
                    got, want = getattr(batch, name)[i], getattr(solo, name)[0]
                    assert np.array_equal(got, want), (k, i, name)

    def test_no_generator_for_a_point_ppo_run(self, monkeypatch):
        cmdp, cfg = point_run_cmdp(), point_ppol_cfg(3)
        want = papd_run(cmdp, 2.0, cfg)  # builds this thread's Generator
        built = count_generators(monkeypatch)
        assert_records_equal(papd_run(cmdp, 2.0, cfg), want)
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
