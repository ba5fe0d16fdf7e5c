"""Environments: worked reward/cost values, exact kernels, DP-vs-MC checks.

The gridworld has two independent realizations (a sampler and an explicit
(P, R, C) model); tests here drive both and require agreement.  The
reward-greedy oracle is a test-local value iteration, so the claim "the
unconstrained optimum violates the constraint" never depends on library
solver code.
"""

import math
import warnings

import numpy as np
import pytest

from apdual import envs
from apdual.cmdp import (
    NonFiniteError,
    SamplingConfig,
    batch_values,
    collect_batch,
    sample_trajectory,
)
from apdual.envs import (
    GridworldSpec,
    N_ACTIONS,
    PointEnvConfig,
    circle_reward_cost,
    default_hazard_gridworld,
    exact_policy_eval,
    grid_move_table,
    gridworld_kernel,
    make_gridworld,
    make_point_env,
    policy_state_values,
    run_reward_cost,
)
from apdual.policy import (
    LinearGaussian,
    PolicyParams,
    TabularSoftmax,
    init_params,
    softmax_table,
)


class TestRunTask:
    def test_progress_reward(self):
        cfg = PointEnvConfig()
        r, c = run_reward_cost((0.0, 0.0), (1.0, 0.0), (0.5, 0.0), cfg)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert c == 0.0

    def test_both_indicators_fire(self):
        cfg = PointEnvConfig()
        _, c = run_reward_cost((0.0, 0.0), (1.0, 1.5), (0.0, 2.0), cfg)
        assert c == 2.0

    def test_boundary_is_safe(self):
        cfg = PointEnvConfig(y_lim=1.0, v_lim=1.0)
        _, c = run_reward_cost((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), cfg)
        assert c == 0.0

    def test_moving_away_negative(self):
        cfg = PointEnvConfig()
        r, _ = run_reward_cost((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), cfg)
        assert r == pytest.approx(-1.0, abs=1e-12)


class TestCircleTask:
    def test_on_radius_counterclockwise(self):
        cfg = PointEnvConfig()  # circle_radius 2, x_lim 1.5
        r, c = circle_reward_cost((2.0, 0.0), (0.0, 1.0), cfg)
        assert r == pytest.approx(2.0, abs=1e-12)
        assert c == 1.0  # |p_x| = 2 > 1.5

    def test_clockwise_negative(self):
        cfg = PointEnvConfig()
        r, c = circle_reward_cost((0.0, 2.0), (1.0, 0.0), cfg)
        assert r == pytest.approx(-2.0, abs=1e-12)
        assert c == 0.0

    def test_off_radius_discounted(self):
        cfg = PointEnvConfig()
        r_on, _ = circle_reward_cost((0.0, 2.0), (-1.0, 0.0), cfg)
        r_off, _ = circle_reward_cost((0.0, 3.0), (-1.0, 0.0), cfg)
        # same angular momentum direction, radius off by 1 halves... not
        # exactly: numerator grows with |p| but the radius penalty divides
        assert r_on == pytest.approx(2.0, abs=1e-12)
        assert r_off == pytest.approx(3.0 / 2.0, abs=1e-12)

    def test_rotation_invariance_of_reward(self):
        # reward = cross(p, v) / (1 + | |p| - o |) is rotation invariant
        cfg = PointEnvConfig()
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = rng.normal(size=2) * 3.0
            v = rng.normal(size=2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array(
                [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
            )
            r0, _ = circle_reward_cost(p, v, cfg)
            r1, _ = circle_reward_cost(rot @ p, rot @ v, cfg)
            assert r1 == pytest.approx(r0, rel=1e-9, abs=1e-12)


class TestPointEnv:
    def test_double_integrator_step_exact(self):
        cfg = PointEnvConfig(dt=0.1, action_scale=2.0, noise_std=0.0)
        cmdp = make_point_env("run", cfg)
        state = np.array([1.0, -0.5, 0.3, 0.2])
        action = np.array([0.5, -1.0])
        nxt, _, _ = one_step(cmdp, state, action)
        v = state[2:] + action * 2.0 * 0.1
        p = state[:2] + v * 0.1
        np.testing.assert_allclose(nxt, np.concatenate([p, v]), rtol=1e-12)

    def test_run_rewards_telescope(self):
        # undiscounted reward sum equals initial minus final goal distance
        cfg = PointEnvConfig(noise_std=0.1)
        cmdp = make_point_env("run", cfg)
        params = init_params(LinearGaussian(4, 2))
        traj = sample_trajectory(cmdp, params, horizon=40, seed=5)
        g = np.asarray(cfg.goal)
        first = np.linalg.norm(traj.states[0, 0, :2] - g)
        last = np.linalg.norm(traj.states[0, -1, :2] - g)
        assert traj.rewards.sum() == pytest.approx(first - last, abs=1e-9)

    def test_start_states(self):
        run = make_point_env("run", PointEnvConfig())
        circle = make_point_env("circle", PointEnvConfig())
        np.testing.assert_array_equal(run.initial_state, np.zeros(4))
        np.testing.assert_array_equal(
            circle.initial_state, np.array([2.0, 0.0, 0.0, 0.0])
        )

    def test_cost_bounds(self):
        assert make_point_env("run", PointEnvConfig()).cost_bound == 2.0
        assert make_point_env("circle", PointEnvConfig()).cost_bound == 1.0

    def test_noise_seeded(self):
        cfg = PointEnvConfig(noise_std=0.2)
        cmdp = make_point_env("circle", cfg)
        s = np.array([2.0, 0.0, 0.0, 0.0])
        a = np.array([1.0, 1.0])
        n1, n2, n3 = (
            one_step(cmdp, s, a, np.random.default_rng(seed))[0] for seed in (3, 3, 4)
        )
        np.testing.assert_array_equal(n1, n2)
        assert not np.array_equal(n1, n3)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            make_point_env("swim", PointEnvConfig())

    def test_batched_signals_equal_single_calls(self):
        cfg = PointEnvConfig()
        rng = np.random.default_rng(5)
        p_prev, p, v = (rng.normal(size=(50, 2)) * 3.0 for _ in range(3))
        r_run, c_run = run_reward_cost(p_prev, p, v, cfg)
        r_circ, c_circ = circle_reward_cost(p, v, cfg)
        for i in range(50):
            assert (r_run[i], c_run[i]) == run_reward_cost(p_prev[i], p[i], v[i], cfg)
            assert (r_circ[i], c_circ[i]) == circle_reward_cost(p[i], v[i], cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PointEnvConfig(y_lim=0.0)
        with pytest.raises(ValueError):
            PointEnvConfig(dt=0.0)
        with pytest.raises(ValueError):
            PointEnvConfig(noise_std=-0.1)


class TestLockstep:
    """collect_batch on the point tasks advances all trajectories together;
    row i must be the per-step sampler's trajectory at row i's address."""

    @staticmethod
    def params():
        kind = LinearGaussian(4, 2)
        theta = np.random.default_rng(21).normal(size=kind.param_count) * 0.3
        return PolicyParams(kind, theta)

    @pytest.mark.parametrize("task", ["run", "circle"])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_rows_equal_sample_trajectory(self, task, noise):
        cmdp = make_point_env(task, PointEnvConfig(noise_std=noise))
        params = self.params()
        seed = (7, 2)
        batch = collect_batch(cmdp, params, SamplingConfig(n_traj=5, horizon=30), seed)
        assert len(batch) == 5
        assert_rows_equal_sample_trajectory(cmdp, params, batch, seed)

    def test_one_signal_call_per_batch(self, monkeypatch):
        calls = []
        original = envs.run_reward_cost

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(envs, "run_reward_cost", counted)
        cmdp = make_point_env("run", PointEnvConfig(noise_std=0.05))
        collect_batch(cmdp, self.params(), SamplingConfig(n_traj=8, horizon=16), 3)
        assert len(calls) == 1

    def test_overflowing_std_raises_without_numpy_warnings(self):
        # exp(log_std) overflows to inf: collect_batch must raise
        # NonFiniteError, with numpy's overflow warning silenced
        cmdp = make_point_env("run", PointEnvConfig())
        theta = self.params().theta.copy()
        theta[8:] = 1e3
        params = self.params().replace_theta(theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                collect_batch(cmdp, params, SamplingConfig(n_traj=2, horizon=4), 0)

    def test_non_finite_state_rejected(self):
        cmdp = make_point_env("run", PointEnvConfig())
        params = self.params().replace_theta(np.full(10, 1e200))
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError):
                collect_batch(cmdp, params, SamplingConfig(n_traj=2, horizon=40), 0)
            with pytest.raises(NonFiniteError):
                sample_trajectory(cmdp, params, 40, 0)


class TestGridworldLockstep:
    """The gridworld samples tabular batches in lockstep from lookup
    tables, with or without slip; row i must be the per-step sampler's
    trajectory at row i's address."""

    @staticmethod
    def eastward_params(spec, seed=4):
        # non-uniform logits with a pull east, so rollouts reach the goal
        # part-way through the horizon and then sit in it
        kind = TabularSoftmax(spec.n_cells, N_ACTIONS)
        theta = np.random.default_rng(seed).normal(size=(spec.n_cells, N_ACTIONS))
        theta[:, 1] += 2.0
        return PolicyParams(kind, theta.ravel())

    @pytest.mark.parametrize(
        "spec",
        [
            default_hazard_gridworld(),
            GridworldSpec(
                width=4, height=3, start_cell=4, goal_cell=7, hazard_cells=(5, 6)
            ),
        ],
    )
    def test_rows_equal_sample_trajectory(self, spec):
        cmdp = make_gridworld(spec)
        params = self.eastward_params(spec)
        seed, horizon = (11, 3), 24
        batch = collect_batch(
            cmdp, params, SamplingConfig(n_traj=16, horizon=horizon), seed
        )
        assert len(batch) == 16
        # some rollouts enter the goal part-way and then sit in it
        entered = [
            list(row).index(spec.goal_cell)
            for row in batch.states
            if spec.goal_cell in row
        ]
        assert any(k < horizon // 2 for k in entered)
        assert_rows_equal_sample_trajectory(cmdp, params, batch, seed)

    def test_tables_agree_with_callbacks(self):
        spec = default_hazard_gridworld()
        cmdp = make_gridworld(spec)
        cells = np.repeat(np.arange(spec.n_cells), N_ACTIONS)
        actions = np.tile(np.arange(N_ACTIONS), spec.n_cells)
        nxt = cmdp.vector_step.fn(cells, actions, np.empty((cells.size, 0)))
        rewards, costs = cmdp.vector_step.signals(cells, actions, nxt)
        for s, a, s2, r, c in zip(cells, actions, nxt, rewards, costs):
            assert one_step(cmdp, s, a) == (s2, r, c)
        goal_rows = cells == spec.goal_cell
        assert (nxt[goal_rows] == spec.goal_cell).all()
        assert (rewards[goal_rows] == 0.0).all() and (costs[goal_rows] == 0.0).all()

    def test_slip_rows_equal_sample_trajectory(self):
        # every step draws (action, slip, direction) uniforms, from the goal
        # too, so slippery rows line up with the per-step sampler as well
        spec = GridworldSpec(
            width=4, height=3, start_cell=4, goal_cell=7, hazard_cells=(5, 6),
            slip_prob=0.2,
        )
        cmdp = make_gridworld(spec)
        assert cmdp.vector_step.noise_dim == 2
        params = self.eastward_params(spec)
        seed, horizon = (5, 1), 24
        batch = collect_batch(
            cmdp, params, SamplingConfig(n_traj=16, horizon=horizon), seed
        )
        assert_rows_equal_sample_trajectory(cmdp, params, batch, seed)
        # some moves slipped: the cell reached is not the commanded one
        moves = grid_move_table(spec)
        live = batch.states[:, :-1] != spec.goal_cell
        commanded = moves[batch.states[:, :-1], batch.actions]
        assert (live & (commanded != batch.states[:, 1:])).any()

    def test_slip_step_turns_to_each_other_direction(self):
        spec = GridworldSpec(width=3, height=3, goal_cell=8, slip_prob=0.3)
        cmdp = make_gridworld(spec)
        moves = grid_move_table(spec)
        # u = 0.25 < slip_prob turns by 1 + floor(3 v); u = 0.3 does not slip
        v = np.array([0.0, 0.34, 0.67, 0.99, 0.5])
        u = np.array([0.25, 0.25, 0.25, 0.25, 0.3])
        nxt = cmdp.vector_step.fn(
            np.full(5, 4), np.zeros(5, dtype=np.int64), np.stack([u, v], axis=1)
        )
        want = moves[4, [1, 2, 3, 3, 0]]
        np.testing.assert_array_equal(nxt, want)


def one_step(cmdp, state, action, rng=None):
    """(next state, reward, cost) of one step from one-row ``fn`` and
    ``signals`` calls; a given rng draws the step's transition variates as
    the per-step sampler does (uniforms for a tabular CMDP)."""
    step = cmdp.vector_step
    s, a = np.asarray(state)[None], np.asarray(action)[None]
    noise = np.zeros((1, step.noise_dim))
    if rng is not None:
        draw = rng.random if cmdp.is_tabular else rng.standard_normal
        noise = draw((1, step.noise_dim))
    s2 = step.fn(s, a, noise)
    reward, cost = step.signals(s[:, None], a[:, None], s2[:, None])
    return s2[0], reward[0, 0], cost[0, 0]


def assert_rows_equal_sample_trajectory(cmdp, params, batch, seed):
    """Row i of a collect_batch batch is the per-step sampler's trajectory
    at row i's address under the batch's key, bit for bit."""
    horizon = batch.rewards.shape[1]
    for i in range(len(batch)):
        solo = sample_trajectory(cmdp, params, horizon, seed, i)
        for name in ("states", "actions", "rewards", "costs"):
            assert np.array_equal(getattr(batch, name)[i], getattr(solo, name)[0]), name


@pytest.mark.parametrize("env", ["run", "circle", "slip-grid"])
def test_batch_signals_equal_per_step_callbacks(env):
    """One VectorStep.signals call over a whole sampled batch gives, entry
    by entry, the one-row signals call of every step."""
    if env == "slip-grid":
        spec = GridworldSpec(
            width=4, height=3, start_cell=4, goal_cell=7, hazard_cells=(5, 6),
            slip_prob=0.2,
        )
        cmdp = make_gridworld(spec)
        params = TestGridworldLockstep.eastward_params(spec)
    else:
        cmdp = make_point_env(env, PointEnvConfig(noise_std=0.05))
        params = TestLockstep.params()
    batch = collect_batch(cmdp, params, SamplingConfig(n_traj=6, horizon=40), (3, 1))
    s, s2 = batch.states[:, :-1], batch.states[:, 1:]
    rewards, costs = cmdp.vector_step.signals(s, batch.actions, s2)
    assert rewards.shape == costs.shape == (6, 40)
    assert costs.any() and len(np.unique(rewards)) > 1
    for i, t in np.ndindex(6, 40):
        row = (x[i : i + 1, t : t + 1] for x in (s, batch.actions, s2))
        reward, cost = cmdp.vector_step.signals(*row)
        assert rewards[i, t] == reward[0, 0]
        assert costs[i, t] == cost[0, 0]
    assert np.array_equal(rewards, batch.rewards)
    assert np.array_equal(costs, batch.costs)


def uniform_table(spec):
    return np.full((spec.n_cells, N_ACTIONS), 1.0 / N_ACTIONS)


def greedy_reward_policy(spec, gamma, horizon):
    """Test-local value iteration on the exact kernel, rewards only."""
    p, r, _ = gridworld_kernel(spec)
    v = np.zeros(spec.n_cells)
    for _ in range(horizon):
        q = r + gamma * np.einsum("sat,t->sa", p, v)
        v = q.max(axis=1)
    greedy = np.zeros((spec.n_cells, N_ACTIONS))
    greedy[np.arange(spec.n_cells), q.argmax(axis=1)] = 1.0
    return greedy


class TestGridMoves:
    def test_small_grid_edges(self):
        spec = GridworldSpec(width=3, height=2, goal_cell=5)
        moves = grid_move_table(spec)
        # cell 0 = (y=0, x=0): north -> 3, east -> 1, south/west blocked
        np.testing.assert_array_equal(moves[0], [3, 1, 0, 0])
        # cell 4 = (y=1, x=1): north blocked, east -> 5, south -> 1, west -> 3
        np.testing.assert_array_equal(moves[4], [4, 5, 1, 3])

    def test_moves_stay_in_grid(self):
        spec = GridworldSpec(width=4, height=5, goal_cell=0)
        moves = grid_move_table(spec)
        assert moves.min() >= 0 and moves.max() < 20


class TestGridworldSemantics:
    def test_goal_absorbing(self):
        spec = default_hazard_gridworld()
        cmdp = make_gridworld(spec)
        for a in range(N_ACTIONS):
            assert one_step(cmdp, spec.goal_cell, a) == (spec.goal_cell, 0.0, 0.0)

    def test_rewards_and_costs_on_entry(self):
        spec = default_hazard_gridworld()
        cmdp = make_gridworld(spec)
        start, goal = spec.start_cell, spec.goal_cell
        assert start + 1 == spec.hazard_cells[0] and goal == 9
        assert one_step(cmdp, start, 1) == (start + 1, -1.0, 4.0)
        assert one_step(cmdp, 8, 1) == (goal, -1.0 + 50.0, 0.0)

    def test_no_slip_deterministic(self):
        spec = default_hazard_gridworld()
        cmdp = make_gridworld(spec)
        moves = grid_move_table(spec)
        for s in range(spec.n_cells):
            if s == spec.goal_cell:
                continue
            for a in range(N_ACTIONS):
                assert one_step(cmdp, s, a)[0] == moves[s, a]

    def test_slip_frequencies(self):
        spec = GridworldSpec(width=3, height=3, goal_cell=8, slip_prob=0.3)
        cmdp = make_gridworld(spec)
        moves = grid_move_table(spec)
        rng = np.random.default_rng(1)
        n = 20000
        hits = np.zeros(N_ACTIONS)
        for _ in range(n):
            nxt = one_step(cmdp, 4, 0, rng)[0]
            for eff in range(N_ACTIONS):
                if moves[4, eff] == nxt:
                    hits[eff] += 1
                    break
        freq = hits / n
        want = np.array([0.7, 0.1, 0.1, 0.1])
        se = np.sqrt(want * (1.0 - want) / n)
        assert np.all(np.abs(freq - want) <= 3.0 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridworldSpec(width=0, height=2, goal_cell=0)
        with pytest.raises(ValueError):
            GridworldSpec(width=2, height=2, goal_cell=4)
        with pytest.raises(ValueError):
            GridworldSpec(width=2, height=2, goal_cell=1, hazard_cells=(1,))
        with pytest.raises(ValueError):
            GridworldSpec(width=2, height=2, goal_cell=1, slip_prob=1.0)

    @pytest.mark.parametrize("cost", [-1.0, -1e-300, math.nan])
    def test_negative_hazard_cost_rejected(self, cost):
        # a step costs 0 or hazard_cost, so a negative one would make the
        # CMDP's costs negative
        with pytest.raises(ValueError, match="hazard_cost"):
            GridworldSpec(width=2, height=2, goal_cell=1, hazard_cost=cost)

    def test_zero_hazard_cost_accepted(self):
        assert GridworldSpec(width=2, height=2, goal_cell=1, hazard_cost=0.0).hazard_cost == 0.0

    def test_hazards_deduped_sorted(self):
        spec = GridworldSpec(width=3, height=2, goal_cell=5, hazard_cells=(4, 1, 4))
        assert spec.hazard_cells == (1, 4)


class TestGridworldKernel:
    @pytest.mark.parametrize("slip", [0.0, 0.25])
    def test_rows_are_distributions(self, slip):
        spec = GridworldSpec(
            width=4, height=3, goal_cell=11, hazard_cells=(5, 6), slip_prob=slip
        )
        p, _, _ = gridworld_kernel(spec)
        np.testing.assert_allclose(p.sum(axis=2), 1.0, rtol=1e-12)
        assert p.min() >= 0.0

    def test_kernel_matches_sampler_one_step(self):
        # expected one-step reward/cost from the kernel vs MC over the sampler
        spec = GridworldSpec(
            width=3, height=3, goal_cell=8, hazard_cells=(4,), slip_prob=0.4
        )
        cmdp = make_gridworld(spec)
        p, r, c = gridworld_kernel(spec)
        rng = np.random.default_rng(2)
        n = 20000
        s, a = 1, 0
        rs = np.empty(n)
        cs = np.empty(n)
        for i in range(n):
            _, rs[i], cs[i] = one_step(cmdp, s, a, rng)
        # the 1e-12 absorbs kernel slip-weight rounding when a column is
        # constant and the standard error collapses to zero
        assert abs(rs.mean() - r[s, a]) <= 3.0 * rs.std(ddof=1) / math.sqrt(n) + 1e-12
        assert abs(cs.mean() - c[s, a]) <= 3.0 * cs.std(ddof=1) / math.sqrt(n) + 1e-12

    def test_dp_matches_mc_values(self):
        # dual-route check: exact policy evaluation vs Monte Carlo rollouts
        spec = GridworldSpec(
            width=4,
            height=3,
            start_cell=4,
            goal_cell=7,
            hazard_cells=(5, 6),
            slip_prob=0.2,
        )
        cmdp = make_gridworld(spec, gamma=0.95)
        params = init_params(TabularSoftmax(spec.n_cells, N_ACTIONS))
        horizon = 20
        want_r, want_c = exact_policy_eval(
            spec, softmax_table(params), 0.95, horizon
        )
        batch = collect_batch(
            cmdp, params, SamplingConfig(n_traj=2000, horizon=horizon), seed=3
        )
        vals, cvals = batch_values(batch, 0.95)
        assert abs(vals.mean() - want_r) <= 3.0 * vals.std(ddof=1) / math.sqrt(2000)
        assert abs(cvals.mean() - want_c) <= 3.0 * cvals.std(ddof=1) / math.sqrt(2000)

    def test_state_values_align_with_start_eval(self):
        spec = default_hazard_gridworld()
        probs = uniform_table(spec)
        v_r, v_c = policy_state_values(spec, probs, 0.99, 30)
        j_r, j_c = exact_policy_eval(spec, probs, 0.99, 30)
        assert v_r[spec.start_cell] == pytest.approx(j_r, rel=1e-12)
        assert v_c[spec.start_cell] == pytest.approx(j_c, rel=1e-12)


class TestDefaultCorridor:
    def test_direct_path_cost_closed_form(self):
        spec = default_hazard_gridworld()
        gamma = 0.99
        # east four times: enter hazards at t = 0, 1, 2 and the goal at t = 3
        direct = np.zeros((spec.n_cells, N_ACTIONS))
        direct[:, 1] = 1.0
        horizon = 30
        j_r, j_c = exact_policy_eval(spec, direct, gamma, horizon)
        want_cost = 4.0 * (1.0 + gamma + gamma**2)
        assert j_c == pytest.approx(want_cost, rel=1e-12)
        # reward: -1 at t = 0, 1, 2 and -1 + 50 on goal entry at t = 3
        want_ret = -(1.0 + gamma + gamma**2) + 49.0 * gamma**3
        assert j_r == pytest.approx(want_ret, rel=1e-12)

    def test_reward_greedy_policy_violates_constraint(self):
        # the unconstrained optimum must be infeasible at d = 10, otherwise
        # the corridor would not exercise the dual at all
        spec = default_hazard_gridworld()
        gamma, horizon = 0.99, 30
        greedy = greedy_reward_policy(spec, gamma, horizon)
        j_r, j_c = exact_policy_eval(spec, greedy, gamma, horizon)
        assert j_c > 10.0 + 1.0  # comfortably infeasible
        # and a detour policy is strictly feasible with lower return
        detour = detour_policy(spec)
        d_r, d_c = exact_policy_eval(spec, detour, gamma, horizon)
        assert d_c == 0.0
        assert d_r < j_r

    def test_detour_is_two_steps_longer(self):
        spec = default_hazard_gridworld()
        gamma, horizon = 0.99, 30
        detour = detour_policy(spec)
        d_r, _ = exact_policy_eval(spec, detour, gamma, horizon)
        # six steps: -1 at t = 0..4 and -1 + 50 on goal entry at t = 5
        want = -sum(gamma**t for t in range(5)) + 49.0 * gamma**5
        assert d_r == pytest.approx(want, rel=1e-12)


def detour_policy(spec):
    """North from the start, east along the top row, south into the goal."""
    width = spec.width
    table = np.zeros((spec.n_cells, N_ACTIONS))
    table[:, 1] = 1.0  # default east
    table[spec.start_cell] = np.eye(N_ACTIONS)[0]  # north
    top_right = 2 * width + (width - 1)
    table[top_right] = np.eye(N_ACTIONS)[2]  # south
    return table
