"""End-to-end acceptance checks.

Each test is one numbered criterion and prints a single pass/fail line with
the measured quantities (visible with -s, or in the captured output on
failure).  The two long fixtures are shared module-wide: the exact testbed
runs behind criteria 1-4 and the sampled gridworld study behind criterion 8.
"""

import math
import time

import numpy as np
import pytest

from apdual.cmdp import SamplingConfig, VectorStep, batch_values, collect_batch
from apdual.duals import PidGains, PidState, pid_dual_step, project_nonneg
from apdual.envs import default_hazard_gridworld, make_gridworld
from apdual.harness import parse_config, read_record_csv, record_to_csv
from apdual.lagrangian import reinforce_grad_from_batch
from apdual.policy import (
    PolicyParams,
    TabularSoftmax,
    init_params,
    policy_grad_log_prob,
    policy_log_prob,
    softmax_table,
)
from apdual.quadprog import quad_kkt_solve, quad_testbed
from apdual.schedules import LrSchedule
from apdual.solver import (
    SolverConfig,
    apd_run,
    feasibility_check,
    papd_run,
    verify_bounds,
)
from test_lagrangian import trajectory_score

SQ2 = math.sqrt(2.0)
PID_GAINS = PidGains(0.05, 0.0005, 0.1)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def testbed_runs():
    """Both exact schedules, zeta = 0.05, K = 10^4, with per-run wall time."""
    prog = quad_testbed(0.5)
    out = {}
    for variant in ("invlin-exact", "invqua-exact"):
        cfg = SolverConfig(
            iterations=10_000,
            schedule=LrSchedule(variant),
            zeta=0.05,
        )
        started = time.perf_counter()
        record = apd_run(prog, cfg)
        out[variant] = (record, time.perf_counter() - started)
    return prog, out


@pytest.fixture(scope="module")
def testbed_certs(testbed_runs):
    prog, runs = testbed_runs
    return {v: verify_bounds(rec, prog) for v, (rec, _) in runs.items()}


def test_criterion_1_testbed_kkt_convergence(testbed_runs):
    prog, runs = testbed_runs
    sol = quad_kkt_solve(prog)
    assert sol.lambda_star == pytest.approx(SQ2 - 1.0, abs=1e-10)
    details = []
    ok = True
    for variant, (rec, elapsed) in runs.items():
        lam_err = abs(rec.final_lambda[0] - (SQ2 - 1.0))
        theta_err = np.linalg.norm(rec.final_theta - np.array([1.0, 1.0]) / SQ2)
        ok = ok and lam_err <= 1e-3 and theta_err <= 1e-3 and elapsed < 1.0
        details.append(
            f"{variant}: |lam err| {lam_err:.2e}, |theta err| {theta_err:.2e}, "
            f"{elapsed:.2f}s"
        )
    report(1, ok, "; ".join(details))


def test_criterion_2_dual_gap_certificate(testbed_certs):
    details = []
    ok = True
    for variant, cert in testbed_certs.items():
        worst = float(cert.slacks["dual-gap"].min())
        ok = ok and worst >= -1e-9
        details.append(f"{variant}: min prefix slack {worst:.3e}")
    report(2, ok, "; ".join(details))


def test_criterion_3_per_step_certificates(testbed_certs):
    keys = (
        "eps-invlin",
        "eps-invqua",
        "eps-opt-invlin",
        "eps-opt-invqua",
        "opt-invlin",
        "opt-invqua",
    )
    details = []
    ok = True
    for variant, cert in testbed_certs.items():
        worst = min(float(np.nanmin(cert.slacks[k])) for k in keys)
        flagged = sum(int(f.sum()) for f in cert.flags.values())
        ok = ok and worst >= -1e-9 and cert.passed
        details.append(f"{variant}: min slack {worst:.3e}, {flagged} flagged")
    report(3, ok, "; ".join(details))


def test_criterion_4_average_feasibility(testbed_runs):
    prog, runs = testbed_runs
    details = []
    ok = True
    for variant, (rec, _) in runs.items():
        rep = feasibility_check(rec, prog.limit)
        final_avg = rep.full_avg
        ok = ok and final_avg <= 0.5 + 1e-2 and rep.envelope_ok
        details.append(
            f"{variant}: running avg {final_avg:.4f} vs 0.51, "
            f"envelope {'ok' if rep.envelope_ok else 'violated'}"
        )
    report(4, ok, "; ".join(details))


def test_criterion_5_schedule_arithmetic():
    lin = LrSchedule("invlin-practical", h1=0.001, h2=3.0)
    qua = LrSchedule("invqua-practical", h1=0.015, h2=6.0)
    vals = (
        abs(lin.rate(0.0) - 1.0 / 3000.0),
        abs(lin.rate(7.0) - 1e-4),
        abs(qua.rate(0.0) - 0.015 / 36.0),
    )
    grid = np.linspace(0.0, 10.0, 100)
    lin_curve = np.array([lin.rate(float(g)) for g in grid])
    qua_curve = np.array([qua.rate(float(g)) for g in grid])
    decreasing = bool(np.all(np.diff(lin_curve) < 0) and np.all(np.diff(qua_curve) < 0))
    ok = max(vals) <= 1e-12 and decreasing
    report(
        5,
        ok,
        f"worked-value err {max(vals):.1e}, strictly decreasing: {decreasing}",
    )


def test_criterion_6_pid_unit_semantics():
    lam, _ = pid_dual_step(PidState(), PID_GAINS, 20.0, 10.0)
    worked_err = abs(lam - 0.505)

    # with only the integral gain active the controller must retrace
    # projected dual ascent at step size K_I
    rng = np.random.default_rng(11)
    costs = 10.0 + rng.normal(scale=4.0, size=100)
    zeta = 0.07
    reduced = PidGains(k_p=0.0, k_i=zeta, k_d=0.0)
    state = PidState()
    ascent_lam = 0.0
    max_gap = 0.0
    for c in costs.tolist():
        pid_lam, state = pid_dual_step(state, reduced, c, 10.0)
        # projected dual ascent, lambda <- [lambda + zeta (J_C - d)]_+
        ascent_lam = project_nonneg(ascent_lam + zeta * (c - 10.0))
        max_gap = max(max_gap, abs(pid_lam - ascent_lam))
    ok = worked_err <= 1e-12 and max_gap <= 1e-12
    report(6, ok, f"worked err {worked_err:.1e}, integral-vs-ascent gap {max_gap:.1e}")


def test_criterion_7_gradient_fidelity():
    # a) policy score vs central differences of the log density
    rng = np.random.default_rng(5)
    kind = TabularSoftmax(3, 4)
    h = 1e-6
    worst_policy = 0.0
    for _ in range(100):
        params = PolicyParams(kind, rng.normal(size=kind.param_count))
        state = int(rng.integers(3))
        action = int(rng.integers(4))
        got = policy_grad_log_prob(params, state, action)
        fd = np.empty(kind.param_count)
        for i in range(kind.param_count):
            up = params.theta.copy()
            dn = params.theta.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                policy_log_prob(PolicyParams(kind, up), state, action)
                - policy_log_prob(PolicyParams(kind, dn), state, action)
            ) / (2 * h)
        denom = max(np.abs(fd).max(), 1.0)
        worst_policy = max(worst_policy, float(np.abs(got - fd).max() / denom))
    policy_ok = worst_policy <= 1e-5

    # b) analytic testbed gradient vs central differences
    prog = quad_testbed(0.5)
    worst_quad = 0.0
    for _ in range(100):
        theta = rng.normal(size=2) * 2.0
        lam = float(rng.random() * 3.0)
        got = prog.grad_lagrangian(theta, lam)
        fd = np.empty(2)
        for i in range(2):
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (prog.lagrangian(up, lam) - prog.lagrangian(dn, lam)) / (2 * h)
        denom = max(np.abs(fd).max(), 1.0)
        worst_quad = max(worst_quad, float(np.abs(got - fd).max() / denom))
    quad_ok = worst_quad <= 1e-8

    # c) score-function estimator vs enumeration on a two-action bandit
    from apdual.cmdp import Cmdp

    rewards, costs, limit, lam, n = (1.0, 3.0), (2.0, 0.5), 1.0, 0.7, 10_000
    reward_of, cost_of = np.array(rewards), np.array(costs)
    cmdp = Cmdp(
        gamma=0.9,
        cost_bound=2.0,
        initial_state=0,
        vector_step=VectorStep(
            0, lambda s, a, z: s, lambda s, a, s2: (reward_of[a], cost_of[a])
        ),
        n_states=1,
        n_actions=2,
    )
    params = PolicyParams(TabularSoftmax(1, 2), np.array([0.4, -0.3]))
    sampling = SamplingConfig(n_traj=n, horizon=1)
    batch = collect_batch(cmdp, params, sampling, seed=42)
    got = reinforce_grad_from_batch(batch, cmdp.gamma, params, lam, limit)
    probs = softmax_table(params)[0]
    want = np.zeros_like(params.theta)
    for a in range(2):
        w = -rewards[a] + lam * (costs[a] - limit)
        want += probs[a] * w * policy_grad_log_prob(params, 0, a)
    returns, cost_vals = batch_values(batch, 0.9)
    weights = -returns + lam * (cost_vals - limit)
    baselines = (weights.sum() - weights) / (n - 1)
    scores = np.stack(
        [trajectory_score(params, s, a) for s, a in zip(batch.states, batch.actions)]
    )
    terms = (weights - baselines)[:, None] * scores
    se = terms.std(axis=0, ddof=1) / math.sqrt(n)
    mc_ok = bool(np.all(np.abs(got - want) <= 3.0 * se + 1e-12))
    sigma = float(np.max(np.abs(got - want) / np.maximum(se, 1e-300)))

    ok = policy_ok and quad_ok and mc_ok
    report(
        7,
        ok,
        f"policy fd rel {worst_policy:.1e}, testbed fd rel {worst_quad:.1e}, "
        f"estimator within {sigma:.2f} se",
    )


# --- criterion 8: sampled study ------------------------------------------

STUDY_SEEDS = (0, 1, 2, 3, 4)
STUDY_ITERS = 4000
STUDY_LIMIT = 10.0
STUDY_WINDOW = 0.2
CONSTANT_GRID = (1e-4, 2.5e-4, 5e-4, 1e-3)


def _study_cfg(schedule, seed):
    return SolverConfig(
        iterations=STUDY_ITERS,
        schedule=schedule,
        gains=PID_GAINS,
        theta0=init_params(TabularSoftmax(15, 4)),
        sampling=SamplingConfig(n_traj=16, horizon=24),
        seed=seed,
    )


@pytest.fixture(scope="module")
def gridworld_study():
    """PAPD plus the four constant-rate baselines, five seeds each."""
    cmdp = make_gridworld(default_hazard_gridworld())
    started = time.perf_counter()

    def cell(schedule):
        rets, csts = [], []
        for seed in STUDY_SEEDS:
            rec = papd_run(cmdp, STUDY_LIMIT, _study_cfg(schedule, seed))
            window = feasibility_check(rec, STUDY_LIMIT, STUDY_WINDOW)
            rets.append(window.window_return)
            csts.append(window.window_avg)
        return float(np.mean(rets)), float(np.mean(csts))

    papd_cell = cell(LrSchedule("invlin-practical", h1=0.003, h2=3.0))
    constant_cells = {
        eta: cell(LrSchedule("constant", eta=eta)) for eta in CONSTANT_GRID
    }
    return papd_cell, constant_cells, time.perf_counter() - started


def test_criterion_8_papd_matches_best_constant(gridworld_study):
    (papd_ret, papd_cost), constant_cells, elapsed = gridworld_study
    feasible = {e: rc for e, rc in constant_cells.items() if rc[1] <= STUDY_LIMIT + 0.5}
    assert feasible, "no constant-rate baseline was feasible; grid is miscalibrated"
    best_eta, (best_ret, best_cost) = max(
        feasible.items(), key=lambda item: item[1][0]
    )
    ok = (
        papd_cost <= STUDY_LIMIT + 0.5
        and papd_ret >= 0.95 * best_ret
        and elapsed < 600.0
    )
    report(
        8,
        ok,
        f"papd return {papd_ret:.2f} cost {papd_cost:.2f}; best feasible "
        f"constant {best_eta:g}: return {best_ret:.2f} cost {best_cost:.2f}; "
        f"ratio {papd_ret / best_ret:.4f}; {elapsed:.0f}s for 25 runs",
    )


def test_criterion_9_determinism_and_round_trip(tmp_path):
    raw = {
        "schema_version": 1,
        "task": "gridworld",
        "algorithm": "papd-reinforce",
        "iterations": 40,
        "seeds": [0, 1],
        "cost_limit": 10.0,
        "schedule": {"variant": "invlin-practical", "h1": 0.003, "h2": 3.0},
        "dual": {"variant": "pid"},
        "sampling": {"n_traj": 8, "horizon": 16},
        "output_dir": "det",
    }
    from apdual.harness import _run_single

    cfg = parse_config(raw)
    texts = []
    for _ in range(2):
        records = [_run_single(cfg, s) for s in cfg.seeds]
        texts.append("".join(record_to_csv(r) for r in records))
    byte_identical = texts[0] == texts[1]

    rec = _run_single(cfg, 0)
    path = tmp_path / "roundtrip.csv"
    path.write_text(record_to_csv(rec))
    cols = read_record_csv(path)
    exact = (
        np.array_equal(cols["return"], rec.returns)
        and np.array_equal(cols["cost"], rec.costs[:, 0])
        and np.array_equal(cols["lr"], rec.etas)
        and np.array_equal(cols["lambda"], rec.lambdas[:-1, 0])
    )
    ok = byte_identical and exact
    report(
        9,
        ok,
        f"byte-identical reruns: {byte_identical}, lossless round-trip: {exact}",
    )
