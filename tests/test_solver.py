"""Solver loops and certificates.

The exact loop is checked against hand-stepped iterations and saddle-point
fixed points; certificates are exercised on healthy runs, on a synthetic
record engineered to trip the negative-radicand flags, and on records they
must refuse (sampled).
"""

import dataclasses
import itertools
import math
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from apdual import cmdp as cmdp_module
from apdual import lagrangian, policy, solver
from apdual.cmdp import (
    Cmdp,
    NonFiniteError,
    RolloutBatch,
    SamplingConfig,
    VectorStep,
    sample_trajectory,
)
from apdual.duals import PidGains
from apdual.envs import (
    GridworldSpec,
    PointEnvConfig,
    default_hazard_gridworld,
    make_gridworld,
    make_point_env,
)
from apdual.harness import certificate_json, record_to_csv
from apdual.lagrangian import PpolConfig
from apdual.policy import LinearGaussian, TabularSoftmax, init_params
from apdual.quadprog import dual_values_batch, quad_kkt_solve, quad_make, quad_testbed
from apdual.schedules import LrSchedule, SmoothnessConstants
from apdual.solver import (
    RunRecord,
    SolverConfig,
    apd_run,
    cycle_index,
    feasibility_check,
    papd_run,
    verify_bounds,
)

ZETA = 0.05


def exact_cfg(variant="invlin-exact", iterations=300, **kw):
    return SolverConfig(
        iterations=iterations,
        schedule=LrSchedule(variant),
        zeta=ZETA,
        **kw,
    )


class TestApdRun:
    def test_single_step_hand_computed(self):
        prog = quad_testbed(0.5)
        cfg = exact_cfg(iterations=1)
        rec = apd_run(prog, cfg)
        # theta_0 = 0, lambda_0 = 0, L(0) = 1 -> eta = 1/2
        assert rec.etas[0] == pytest.approx(0.5)
        np.testing.assert_array_equal(rec.thetas[0], [0.0, 0.0])
        np.testing.assert_array_equal(rec.lambdas[0], [0.0])
        # theta_1 = theta - eta (Q theta - b) = 0.5 * b
        np.testing.assert_allclose(rec.thetas[1], [0.5, 0.5], rtol=1e-15)
        # J values at theta_1
        assert rec.returns[0] == pytest.approx(prog.j_r([0.5, 0.5]), rel=1e-15)
        assert rec.costs[0, 0] == pytest.approx(0.25, rel=1e-15)
        # lambda_1 = [0 + zeta (0.25 - 0.5)]_+ = 0
        assert rec.lambdas[1, 0] == 0.0

    def test_saddle_point_is_fixed(self):
        prog = quad_testbed(0.5)
        sol = quad_kkt_solve(prog)
        cfg = exact_cfg(
            iterations=100, theta0=sol.theta_star, lambda0=sol.lambda_star
        )
        rec = apd_run(prog, cfg)
        np.testing.assert_allclose(rec.final_theta, sol.theta_star, atol=1e-9)
        assert rec.final_lambda[0] == pytest.approx(sol.lambda_star, abs=1e-9)

    def test_vanishing_zeta_recovers_unconstrained_optimum(self):
        prog = quad_testbed(0.5)
        cfg = SolverConfig(
            iterations=200,
            schedule=LrSchedule("invlin-exact"),
            zeta=1e-12,
        )
        rec = apd_run(prog, cfg)
        # with the dual frozen near zero the primal descends J_R alone
        np.testing.assert_allclose(rec.final_theta, [1.0, 1.0], atol=1e-6)
        assert rec.final_lambda[0] < 1e-8

    def test_deterministic(self):
        prog = quad_testbed(0.5)
        a = apd_run(prog, exact_cfg())
        b = apd_run(prog, exact_cfg())
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)

    def test_converges_to_kkt_both_schedules(self):
        prog = quad_testbed(0.5)
        sol = quad_kkt_solve(prog)
        for variant in ("invlin-exact", "invqua-exact"):
            rec = apd_run(prog, exact_cfg(variant, iterations=3000))
            assert abs(rec.final_lambda[0] - sol.lambda_star) < 1e-3
            assert np.linalg.norm(rec.final_theta - sol.theta_star) < 1e-3

    def test_schedule_constants_mismatch_rejected(self):
        prog = quad_testbed(0.5)
        wrong = SmoothnessConstants(l_r=3.0, l_c=1.0, mu=1.0)
        cfg = SolverConfig(
            iterations=5,
            schedule=LrSchedule("invlin-exact", constants=wrong),
            zeta=ZETA,
        )
        with pytest.raises(ValueError, match="disagree"):
            apd_run(prog, cfg)

    def test_theta0_shape_checked(self):
        for bad in ([0.0, 0.0, 0.0], [[0.0, 0.0]]):
            with pytest.raises(ValueError, match="theta0 must have shape"):
                apd_run(quad_testbed(0.5), exact_cfg(iterations=3, theta0=bad))

    def test_record_shapes(self):
        rec = apd_run(quad_testbed(0.5), exact_cfg(iterations=7))
        assert rec.iterations == 7
        assert rec.thetas.shape == (8, 2)
        assert rec.lambdas.shape == (8, 1)
        assert rec.etas.shape == (7,)
        assert rec.costs.shape == (7, 1)

    def test_divergence_names_seed_and_iteration(self):
        # eta (1 + lambda) > 2 makes every primal step expand: theta
        # overflows at iteration 6
        eye = np.eye(2)
        prog = quad_make(eye, np.ones(2), eye, np.zeros(2), 0.5)
        cfg = SolverConfig(
            iterations=2000,
            schedule=LrSchedule("constant", eta=5.0),
            zeta=ZETA,
            seed=7,
        )
        want = "seed 7, iteration 6: non-finite theta"
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=want):
            apd_run(prog, cfg)

    def test_divergence_raises_without_numpy_warnings(self):
        # the overflow inside the loop is not reported as a RuntimeWarning;
        # the finiteness screen after the loop names seed and iteration
        cfg = SolverConfig(
            iterations=50,
            schedule=LrSchedule("constant", eta=50.0),
            zeta=0.1,
        )
        # theta overflows in the loop, J_R in the stacked j_r after it
        want = "seed 0, iteration 4: non-finite return"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=want):
                apd_run(quad_testbed(0.5), cfg)


def reference_apd_run(problem, cfg):
    """The exact loop with the multiplier as a (1,) array: one
    LrSchedule.rate, one grad_lagrangian, j_r and j_c call and one array
    dual update per iteration."""
    sched = cfg.schedule
    if sched.variant.endswith("-exact"):
        sched = dataclasses.replace(sched, constants=problem.smoothness())
    theta = (
        np.zeros(problem.dim)
        if cfg.theta0 is None
        else np.asarray(cfg.theta0, dtype=float).copy()
    )
    lam = np.zeros(1) if cfg.lambda0 is None else np.array([cfg.lambda0], dtype=float)
    k_iter = cfg.iterations
    thetas = np.empty((k_iter + 1, theta.size))
    lambdas = np.empty((k_iter + 1, 1))
    etas = np.empty(k_iter)
    returns = np.empty(k_iter)
    costs = np.empty((k_iter, 1))
    for k in range(k_iter):
        thetas[k] = theta
        lambdas[k] = lam
        eta = sched.rate(lam[0])
        etas[k] = eta
        theta = theta - eta * problem.grad_lagrangian(theta, lam[0])
        j_c = problem.j_c(theta)
        returns[k] = problem.j_r(theta)
        costs[k] = j_c
        lam = np.maximum(lam + cfg.zeta * (j_c - problem.limit), 0.0)
    thetas[k_iter] = theta
    lambdas[k_iter] = lam
    return thetas, lambdas, etas, returns, costs


def assert_record_equal(rec, want):
    """Every array of an apd_run record equals reference_apd_run's."""
    names = ("thetas", "lambdas", "etas", "returns", "costs")
    for name, expected in zip(names, want):
        assert np.array_equal(getattr(rec, name), expected), name


def random_program(n, seed):
    """Q and P positive definite, c = 0, so theta = 0 is a Slater point."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    q = a @ a.T / n + 0.5 * np.eye(n)
    e = rng.normal(size=(n, n))
    p = e @ e.T / n + 0.1 * np.eye(n)
    b = rng.normal(size=n) + 1.0
    return quad_make(q, b, p, np.zeros(n), 0.3)


class TestFloatLoopMatchesReference:
    """apd_run keeps the multiplier as a float and computes J_R once after
    the loop; every record array must equal the per-iteration reference."""

    CASES = {
        "invlin-exact": dict(schedule=LrSchedule("invlin-exact")),
        "invqua-exact": dict(schedule=LrSchedule("invqua-exact")),
        "constant": dict(schedule=LrSchedule("constant", eta=0.05)),
        "invlin-practical": dict(
            schedule=LrSchedule("invlin-practical", h1=0.2, h2=2.0)
        ),
        "invqua-practical": dict(
            schedule=LrSchedule("invqua-practical", h1=0.5, h2=2.0)
        ),
        "lambda0": dict(
            schedule=LrSchedule("invlin-exact"), lambda0=1.7
        ),
        "theta0": dict(schedule=LrSchedule("invlin-exact"), theta0="given"),
    }

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_record_arrays_equal(self, case, n):
        prog = random_program(n, seed=n)
        kw = dict(zeta=0.2) | self.CASES[case]
        if kw.get("theta0") == "given":
            kw["theta0"] = np.linspace(-1.0, 2.0, n)
        cfg = SolverConfig(iterations=400, **kw)
        rec = apd_run(prog, cfg)
        assert_record_equal(rec, reference_apd_run(prog, cfg))
        assert rec.lambdas.max() > 0.0  # the constraint binds at some point

    def test_lambda0_validation(self):
        for bad in (-0.1, math.nan, math.inf, [0.5], [0.1, 0.2], np.array([1.0])):
            with pytest.raises(ValueError, match="lambda0"):
                apd_run(quad_testbed(0.5), exact_cfg(iterations=3, lambda0=bad))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generated_step_on_general_programs(self, n, seed):
        # Q and P full, c nonzero and theta0 off zero: every product of the
        # generated step is live, unlike on the testbed (Q = P = I, c = 0)
        rng = np.random.default_rng(100 * n + seed)
        a, e = rng.normal(size=(2, n, n))
        prog = quad_make(
            a @ a.T / n + 0.5 * np.eye(n), rng.normal(size=n) + 1.0,
            e @ e.T / n + 0.1 * np.eye(n), rng.normal(size=n) * 0.5, 0.3,
        )
        cfg = SolverConfig(
            iterations=300, schedule=LrSchedule("invqua-exact"), zeta=0.2,
            theta0=rng.normal(size=n), lambda0=float(rng.random()),
        )
        rec = apd_run(prog, cfg)
        assert_record_equal(rec, reference_apd_run(prog, cfg))
        assert rec.lambdas.max() > 0.0


def first_repeat(thetas, lambdas):
    """(k, period) of the first state (theta_k, lambda_k) whose bytes equal
    those of an earlier state, period iterations back; None if no state
    does."""
    first = {}
    for k, row in enumerate(np.concatenate([thetas, lambdas], axis=1)):
        j = first.setdefault(row.tobytes(), k)
        if j < k:
            return k, k - j
    return None


def assert_cycle_form_equals_full_rows(rec, prog, found):
    """rec.cycle is (k - period, period) for the reference loop's first
    repeat (k, period), None for none; the CSV text and the certificate of
    the record equal those of the same rows with no cycle."""
    assert rec.cycle == (None if found is None else (found[0] - found[1], found[1]))
    assert_certified_like_full_rows(rec, prog)


def assert_certified_like_full_rows(rec, prog):
    """The CSV text, certificate JSON and every slack, flag, eps and delta
    array of the record equal those of the same rows with no cycle."""
    full = dataclasses.replace(rec, cycle=None)
    assert record_to_csv(rec) == record_to_csv(full)
    got, want = verify_bounds(rec, prog), verify_bounds(full, prog)
    assert certificate_json(got) == certificate_json(want)
    for field in ("slacks", "flags"):
        got_arrays, want_arrays = getattr(got, field), getattr(want, field)
        assert got_arrays.keys() == want_arrays.keys()
        for name, arr in want_arrays.items():
            assert np.array_equal(got_arrays[name], arr, equal_nan=True), (field, name)
    assert np.array_equal(got.eps, want.eps, equal_nan=True)
    assert np.array_equal(got.delta, want.delta, equal_nan=True)


@pytest.mark.parametrize("rows", [1, 2, 3, 10, 10001])
@pytest.mark.parametrize("period", [1, 2])
def test_cycle_index_equals_modulo_definition(rows, period):
    assert np.array_equal(cycle_index(rows, None)[0], np.arange(rows))
    assert cycle_index(rows, None)[1] == rows
    for start in sorted({0, 1, rows - period}):
        if start < 0 or start + period > rows:
            continue
        m = np.arange(rows)
        want = np.where(m < start, m, start + (m - start) % period)
        idx, end = cycle_index(rows, (start, period))
        assert np.array_equal(idx, want), start
        assert end == start + period


class TestRepeatFastForward:
    """apd_run stops at a bitwise repeat of any period and gathers the
    rows left from the cycle; the record must equal the full reference
    loop's, and its cycle form must give the full-row form's CSV and
    certificate.  Each case first checks on the reference that its repeat
    happens within the run, or, for no-repeat, that none does."""

    @pytest.mark.parametrize("variant", ["invlin-exact", "invqua-exact"])
    @pytest.mark.parametrize(
        "limit, iterations, repeat",
        [(0.5, 2000, 1), (0.9, 1000, 2), (0.8864, 1000, 64), (0.2, 3000, None)],
        ids=["period-1", "period-2", "period-64", "no-repeat"],
    )
    def test_record_equals_full_loop(self, variant, limit, iterations, repeat):
        prog = quad_testbed(limit)
        cfg = exact_cfg(variant, iterations=iterations)
        want = reference_apd_run(prog, cfg)
        found = first_repeat(*want[:2])
        assert (None if found is None else found[1]) == repeat
        rec = apd_run(prog, cfg)
        assert_record_equal(rec, want)
        assert_cycle_form_equals_full_rows(rec, prog, found)

    @pytest.mark.parametrize("variant", ["invlin-exact", "invqua-exact"])
    @pytest.mark.parametrize("limit", [*np.linspace(0.2, 0.9, 8).round(2), 0.95])
    def test_certificate_over_benchmark_limits(self, variant, limit):
        # the benchmark's 10^4 iterations at limits across its range [0.2,
        # 0.9], and 0.95: every record cycles, with period 2 from 0.9 on
        prog = quad_testbed(limit)
        rec = apd_run(prog, exact_cfg(variant, iterations=10_000))
        assert rec.cycle is not None and rec.cycle[1] == (2 if limit >= 0.9 else 1)
        assert_certified_like_full_rows(rec, prog)

    @pytest.mark.parametrize(
        "limit, variant, cycle",
        [
            (0.8864, "invlin-exact", (360, 64)),
            (0.8864, "invqua-exact", (354, 64)),
            (0.8894482354136235, "invlin-exact", (354, 53)),
            (0.8434, "invqua-exact", (383, 34)),
        ],
    )
    def test_long_period_at_benchmark_length(self, limit, variant, cycle):
        # periods a check of periods 1 and 2 alone never detects (it ran all
        # 10^4 iterations), and that 16 does not divide: the checkpoint
        # repeat is a multiple of the period, found from the buffered rows
        prog = quad_testbed(limit)
        cfg = exact_cfg(variant, iterations=10_000)
        rec = apd_run(prog, cfg)
        assert rec.cycle == cycle
        assert_record_equal(rec, reference_apd_run(prog, cfg))
        assert_certified_like_full_rows(rec, prog)

    @pytest.mark.parametrize("variant", ["invlin-exact", "invqua-exact"])
    def test_start_at_a_fixed_point(self, variant):
        prog = quad_testbed(0.5)
        thetas, lambdas, *_ = reference_apd_run(
            prog, exact_cfg(variant, iterations=2000)
        )
        cfg = exact_cfg(
            variant, iterations=50, theta0=thetas[-1], lambda0=lambdas[-1, 0]
        )
        want = reference_apd_run(prog, cfg)
        assert first_repeat(*want[:2]) == (1, 1)
        rec = apd_run(prog, cfg)
        assert_record_equal(rec, want)
        assert_cycle_form_equals_full_rows(rec, prog, (1, 1))
        # 16 iterations hold one checkpoint, state 0, so the repeat is not
        # seen: every row is computed and the record has no cycle
        short = dataclasses.replace(cfg, iterations=16)
        rec = apd_run(prog, short)
        assert rec.cycle is None
        assert_record_equal(rec, reference_apd_run(prog, short))


class TestRunRecordValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            RunRecord(
                thetas=np.zeros((3, 2)),
                lambdas=np.zeros((2, 1)),
                etas=np.zeros(2),
                returns=np.zeros(2),
                costs=np.zeros((2, 1)),
                meta={},
            )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            RunRecord(
                thetas=np.zeros((3, 2)),
                lambdas=np.full((3, 1), -1.0),
                etas=np.zeros(2),
                returns=np.zeros(2),
                costs=np.zeros((2, 1)),
                meta={},
            )

    @staticmethod
    def two_rows(cycle):
        return RunRecord(
            np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(2), np.zeros(2),
            np.zeros((2, 1)), {}, cycle,
        )

    @pytest.mark.parametrize(
        "cycle",
        [(-1, 1), (0, 0), (2, 1), (1, 2), (0.0, 1), (0, 1.0), (0, 1, 1), [0, 1], 1],
    )
    def test_bad_cycle_rejected(self, cycle):
        with pytest.raises(ValueError, match="cycle"):
            self.two_rows(cycle)

    @pytest.mark.parametrize("cycle", [None, (0, 1), (1, 1), (0, 2), (np.int64(0), 2)])
    def test_cycle_within_the_rows_accepted(self, cycle):
        assert self.two_rows(cycle).cycle == cycle


class TestBoundCertificates:
    @pytest.mark.parametrize("variant", ["invlin-exact", "invqua-exact"])
    def test_certificate_passes_on_healthy_run(self, variant):
        prog = quad_testbed(0.5)
        rec = apd_run(prog, exact_cfg(variant, iterations=400))
        cert = verify_bounds(rec, prog)
        assert cert.passed
        assert all(flag.sum() == 0 for flag in cert.flags.values())
        # primal errors are true suboptimalities, hence nonnegative
        assert np.all(cert.eps >= -1e-9)
        assert cert.slacks["dual-gap"].min() >= -1e-9
        assert cert.slacks["rate"].min() >= -1e-9
        assert cert.d_star == pytest.approx(0.5 - np.sqrt(2.0), abs=1e-9)

    def test_worst_slacks_computed_once(self, monkeypatch):
        # passed, to_dict() and a failure message all read one result
        prog = quad_testbed(0.5)
        cert = verify_bounds(apd_run(prog, exact_cfg(iterations=50)), prog)
        calls = []
        nanmin = np.nanmin
        monkeypatch.setattr(np, "nanmin", lambda a: calls.append(1) or nanmin(a))
        assert cert.passed
        first = len(calls)
        assert 0 < first <= len(cert.slacks)
        assert cert.to_dict()["worst_slack"] is cert.worst and cert.passed
        assert len(calls) == first
        assert cert.worst["dual-gap"] == float(nanmin(cert.slacks["dual-gap"]))

    def test_optimality_check_nontrivial(self):
        # away from convergence the optimizer strictly beats 2x and 0.5x
        prog = quad_testbed(0.5)
        rec = apd_run(prog, exact_cfg(iterations=30))
        cert = verify_bounds(rec, prog)
        assert np.nanmax(cert.slacks["opt-invlin"]) > 0.0
        assert np.nanmax(cert.slacks["opt-invqua"]) > 0.0

    def test_optimized_step_bound_needs_matching_eta(self):
        prog = quad_testbed(0.5)
        rec = apd_run(prog, exact_cfg("invlin-exact", iterations=60))
        cert = verify_bounds(rec, prog)
        lin = cert.slacks["eps-opt-invlin"]
        # invlin run: eta matches the invlin optimizer everywhere
        assert not np.isnan(lin).any()
        qua = cert.slacks["eps-opt-invqua"]
        # and matches the invqua optimizer only where lambda = 0 (L = mu)
        lam_zero = rec.lambdas[:-1, 0] == 0.0
        assert np.isnan(qua[~lam_zero]).all()
        assert not np.isnan(qua[lam_zero]).any()

    def test_negative_radicand_flagged_not_failed(self):
        # feeding the checker understated smoothness constants makes the
        # invlin radicand negative wherever delta > 0; those iterations must
        # be flagged and excluded, not scored
        prog = quad_testbed(0.5)
        rec = apd_run(prog, exact_cfg("invlin-exact", iterations=40))
        lied = SmoothnessConstants(l_r=0.3, l_c=0.3, mu=0.3)
        cert = verify_bounds(rec, prog, constants=lied)
        n_flagged = int(cert.flags["eps-invlin"].sum())
        assert n_flagged > 0
        flagged = cert.flags["eps-invlin"]
        assert np.isnan(cert.slacks["eps-invlin"][flagged]).all()
        assert cert.to_dict()["flagged_iterations"]["eps-invlin"] == n_flagged

    def test_eps_is_the_lagrangian_gap_row_by_row(self):
        # eps_k = L(theta_{k+1}, lambda_k) - d(lambda_k), bit for bit, on an
        # n = 3 program with an active constraint that is not the testbed
        rng = np.random.default_rng(5)
        a, g = rng.normal(size=(2, 3, 3))
        prog = quad_make(
            a @ a.T + 3.0 * np.eye(3), rng.normal(size=3), g @ g.T,
            rng.normal(size=3), 0.1,
        )
        rec = apd_run(prog, exact_cfg(iterations=200))
        assert rec.lambdas[-1, 0] > 0.0
        eps = verify_bounds(rec, prog).eps
        want = [
            prog.lagrangian(theta, lam) - dual_values_batch(prog, [lam])[0][0]
            for theta, lam in zip(rec.thetas[1:], rec.lambdas[:-1, 0])
        ]
        assert eps.tobytes() == np.array(want).tobytes()

    def test_rejects_non_exact_records(self):
        prog = quad_testbed(0.5)
        rec = apd_run(prog, exact_cfg(iterations=5))
        rec.meta["kind"] = "papd"
        with pytest.raises(ValueError, match="exact"):
            verify_bounds(rec, prog)

    def test_certificate_serializable(self):
        import json

        prog = quad_testbed(0.5)
        rec = apd_run(prog, exact_cfg(iterations=20))
        cert = verify_bounds(rec, prog)
        text = json.dumps(cert.to_dict())
        assert json.loads(text)["passed"] is True


class TestFeasibility:
    def test_running_average_settles_below_limit(self):
        prog = quad_testbed(0.5)
        rec = apd_run(prog, exact_cfg(iterations=2000))
        report = feasibility_check(rec, prog.limit)
        assert report.passed
        assert report.full_avg <= 0.5 + 1e-2
        assert report.envelope_ok

    def test_envelope_exact_while_unclipped(self):
        # while lambda never hits the projection boundary the transient
        # envelope is an identity: avg g = (lambda_K' - lambda_0)/(zeta K')
        prog = quad_testbed(0.5)
        cfg = exact_cfg(iterations=50, theta0=np.array([2.0, 2.0]))
        rec = apd_run(prog, cfg)
        report = feasibility_check(rec, prog.limit)
        ascending = rec.lambdas[1:, 0] > 0.0
        first = np.flatnonzero(~ascending)
        upto = int(first[0]) if first.size else rec.iterations
        np.testing.assert_allclose(
            report.envelope_slack[:upto], 0.0, atol=1e-12
        )

    def test_pass_fail_tolerance(self):
        thetas = np.zeros((4, 1))
        lambdas = np.zeros((4, 1))
        etas = np.zeros(3)
        returns = np.zeros(3)
        high = RunRecord(
            thetas, lambdas, etas, returns, np.full((3, 1), 1.05), {"kind": "x"}
        )
        low = RunRecord(
            thetas, lambdas, etas, returns, np.full((3, 1), 1.005), {"kind": "x"}
        )
        assert not feasibility_check(high, 1.0).passed
        assert feasibility_check(low, 1.0).passed

    def test_window_validation(self):
        prog = quad_testbed(0.5)
        rec = apd_run(prog, exact_cfg(iterations=10))
        with pytest.raises(ValueError):
            feasibility_check(rec, prog.limit, window=0.0)


def papd_cfg(iterations=40, seed=0, n_cells=15, n_actions=4, **kw):
    return SolverConfig(
        iterations=iterations,
        schedule=LrSchedule("invlin-practical", h1=0.003, h2=3.0),
        gains=PidGains(0.05, 0.0005, 0.1),
        theta0=init_params(TabularSoftmax(n_cells, n_actions)),
        sampling=SamplingConfig(n_traj=8, horizon=20),
        seed=seed,
        **kw,
    )


class TestPapdRun:
    def setup_method(self):
        self.spec_grid = default_hazard_gridworld()
        self.cmdp = make_gridworld(self.spec_grid)
        self.constraint = 10.0

    def test_deterministic(self):
        a = papd_run(self.cmdp, self.constraint, papd_cfg())
        b = papd_run(self.cmdp, self.constraint, papd_cfg())
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.returns, b.returns)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)

    def test_seed_changes_run(self):
        a = papd_run(self.cmdp, self.constraint, papd_cfg(seed=0))
        b = papd_run(self.cmdp, self.constraint, papd_cfg(seed=1))
        assert not np.array_equal(a.returns, b.returns)

    def test_record_semantics(self):
        rec = papd_run(self.cmdp, self.constraint, papd_cfg(iterations=10))
        assert rec.meta["kind"] == "papd"
        np.testing.assert_array_equal(rec.lambdas[0], [0.0])
        # at lambda = 0 the practical invlin rate is H1/H2
        assert rec.etas[0] == pytest.approx(0.003 / 3.0)
        assert np.all(rec.lambdas >= 0.0)
        assert rec.cycle is None

    def test_learning_progress_without_hazards(self):
        # no hazards: the dual stays at zero and the primal is pure ascent
        safe = GridworldSpec(
            width=5, height=3, start_cell=5, goal_cell=9, hazard_cells=()
        )
        cmdp = make_gridworld(safe)
        rec = papd_run(cmdp, 10.0, papd_cfg(iterations=150))
        assert np.all(rec.lambdas == 0.0)
        assert rec.returns[-20:].mean() > rec.returns[:20].mean()

    def test_pid_reacts_to_violation(self):
        rec = papd_run(self.cmdp, self.constraint, papd_cfg(iterations=60))
        assert rec.lambdas[:, 0].max() > 0.0

    def test_one_softmax_table_per_iteration(self, monkeypatch):
        # the batch's actions and the REINFORCE scores share one table
        original = policy.softmax_table
        thetas = []

        def counted(params):
            thetas.append(params.theta.copy())
            return original(params)

        for module in (policy, cmdp_module, lagrangian, solver):
            monkeypatch.setattr(module, "softmax_table", counted)
        rec = papd_run(self.cmdp, self.constraint, papd_cfg(iterations=5))
        np.testing.assert_array_equal(thetas, rec.thetas[:-1])

    def test_ppol_runs_and_deterministic(self):
        a = papd_run(
            self.cmdp, self.constraint, papd_cfg(iterations=8, ppol=PpolConfig())
        )
        b = papd_run(
            self.cmdp, self.constraint, papd_cfg(iterations=8, ppol=PpolConfig())
        )
        np.testing.assert_array_equal(a.thetas, b.thetas)
        assert a.meta["algorithm"] == "ppol"

    def test_validation(self):
        with pytest.raises(ValueError, match="sampling"):
            papd_run(
                self.cmdp,
                self.constraint,
                SolverConfig(
                    iterations=5,
                    schedule=LrSchedule("constant", eta=1e-3),
                    theta0=init_params(TabularSoftmax(15, 4)),
                ),
            )
        with pytest.raises(ValueError, match="PolicyParams"):
            papd_run(
                self.cmdp,
                self.constraint,
                SolverConfig(
                    iterations=5,
                    schedule=LrSchedule("constant", eta=1e-3),
                    theta0=np.zeros(60),
                    sampling=SamplingConfig(4, 10),
                ),
            )
        with pytest.raises(ValueError, match="practical or constant"):
            papd_run(
                self.cmdp,
                self.constraint,
                SolverConfig(
                    iterations=5,
                    schedule=LrSchedule("invlin-exact"),
                    theta0=init_params(TabularSoftmax(15, 4)),
                    sampling=SamplingConfig(4, 10),
                ),
            )

    @pytest.mark.parametrize("bad", [[math.nan], [-1.0], [0.5, 0.5], math.nan, -1.0])
    def test_lambda0_validation(self, bad):
        with pytest.raises(ValueError, match="lambda0"):
            papd_run(self.cmdp, self.constraint, papd_cfg(iterations=3, lambda0=bad))


class TestPapdPointPpol:
    """Gaussian PPO-Lagrangian on the Run task, the configs/point_run_ppol.json
    shape shortened to a few iterations."""

    @staticmethod
    def run(cmdp, seed=3):
        cfg = SolverConfig(
            iterations=4,
            schedule=LrSchedule("invlin-practical", h1=0.001, h2=3.0),
            gains=PidGains(0.05, 0.0005, 0.1),
            theta0=init_params(LinearGaussian(4, 2)),
            sampling=SamplingConfig(n_traj=8, horizon=64),
            seed=seed,
            ppol=PpolConfig(minibatch_size=256, epochs=4),
        )
        return papd_run(cmdp, 2.0, cfg)

    def test_finite_repeatable_and_equal_to_per_step_sampling(self, monkeypatch):
        cmdp = make_point_env("run", PointEnvConfig(noise_std=0.05))
        a = self.run(cmdp)
        b = self.run(cmdp)
        # the same run with every batch stacked from per-step rollouts
        monkeypatch.setattr(solver, "collect_batch", per_step_batch)
        c = self.run(cmdp)
        for name in ("thetas", "lambdas", "etas", "returns", "costs"):
            got = getattr(a, name)
            assert np.isfinite(got).all(), name
            assert np.array_equal(got, getattr(b, name)), name
            assert np.array_equal(got, getattr(c, name)), name
        assert not np.array_equal(a.thetas[0], a.thetas[-1])


def per_step_batch(cmdp, params, sampling, seed, probs=None):
    """collect_batch's batch with every row from sample_trajectory, which
    draws its own variates and computes its own softmax table."""
    rows = [
        sample_trajectory(cmdp, params, sampling.horizon, seed, i)
        for i in range(sampling.n_traj)
    ]
    return RolloutBatch(
        *(
            np.concatenate([getattr(row, name) for row in rows])
            for name in ("states", "actions", "rewards", "costs")
        )
    )


def nan_signal_cmdp(signal: str, bad_call: int) -> Cmdp:
    """Deterministic counter chain whose reward (or cost) is NaN at its
    bad_call-th step (0-based), counted over every step.  The signals count
    the steps of a batch time-major, in the order they were taken.

    Counting signals carry state from call to call, which a step table
    computed once would break, so the chain draws one transition uniform
    that its step ignores: with noise, the Cmdp tabulates nothing and every
    batch calls the signals."""
    calls = itertools.count()

    def flaky(s, a, nxt):
        return math.nan if next(calls) == bad_call else 0.5

    def steady(s, a, nxt):
        return 0.5

    reward = flaky if signal == "rewards" else steady
    costs = flaky if signal == "costs" else steady

    def signals(s, a, s2):
        rows = list(zip(s.T.ravel(), a.T.ravel(), s2.T.ravel()))
        return (
            np.array([reward(*row) for row in rows]).reshape(s.T.shape).T,
            np.array([costs(*row) for row in rows]).reshape(s.T.shape).T,
        )

    return Cmdp(
        gamma=0.9,
        cost_bound=1.0,
        initial_state=0,
        vector_step=VectorStep(1, lambda s, a, z: np.minimum(s + 1, 9), signals),
        n_states=10,
        n_actions=2,
    )


class TestNonFinite:
    @pytest.mark.parametrize("signal", ["rewards", "costs"])
    def test_sampler_names_the_step(self, signal):
        cmdp = nan_signal_cmdp(signal, bad_call=6)
        params = init_params(TabularSoftmax(10, 2))
        # sample_trajectory returns a one-row batch: row 0, step 6
        with pytest.raises(NonFiniteError, match=rf"{signal} at index \(0, 6"):
            sample_trajectory(cmdp, params, horizon=9, seed=0)

    @pytest.mark.parametrize("algorithm", ["reinforce", "ppol"])
    def test_papd_run_names_seed_and_iteration(self, algorithm):
        # 2 rollouts x 5 steps = 10 reward calls per iteration, two per time
        # step, so call 37 is step 3 of the second rollout (row 1) of
        # iteration 3
        cmdp = nan_signal_cmdp("rewards", bad_call=37)
        ppol = PpolConfig() if algorithm == "ppol" else None
        cfg = dataclasses.replace(
            papd_cfg(iterations=6, seed=4, n_cells=10, n_actions=2, ppol=ppol),
            sampling=SamplingConfig(n_traj=2, horizon=5),
        )
        want = r"seed 4, iteration 3: non-finite rewards at index \(1, 3\)"
        with pytest.raises(NonFiniteError, match=want):
            papd_run(cmdp, 1.0, cfg)

    @pytest.mark.parametrize("promote", ["warnings", "errstate"])
    def test_underflow_is_not_reported_as_non_finite(self, promote):
        # a logit 800 below its state's others underflows np.exp in the
        # softmax to 0.0, which is finite: promoted to an exception, the
        # underflow leaves as a FloatingPointError naming seed and iteration
        cmdp = make_gridworld(default_hazard_gridworld())
        cfg = papd_cfg(iterations=3, seed=2)
        theta = np.zeros_like(cfg.theta0.theta)
        theta[::4] = -800.0
        cfg = dataclasses.replace(cfg, theta0=cfg.theta0.replace_theta(theta))
        limit = 10.0
        rec = papd_run(cmdp, limit, cfg)
        assert np.isfinite(rec.thetas).all() and np.isfinite(rec.returns).all()
        want = "seed 2, iteration 0: underflow encountered in exp"
        with warnings.catch_warnings(), pytest.raises(FloatingPointError, match=want):
            if promote == "warnings":
                warnings.simplefilter("error")
                with np.errstate(under="warn"):
                    papd_run(cmdp, limit, cfg)
            else:
                with np.errstate(under="raise"):
                    papd_run(cmdp, limit, cfg)

    def test_papd_run_rejects_non_finite_theta(self):
        cmdp = make_point_env("circle", PointEnvConfig(noise_std=0.05))
        cfg = SolverConfig(
            iterations=3,
            schedule=LrSchedule("constant", eta=1e308),
            theta0=init_params(LinearGaussian(4, 2)),
            sampling=SamplingConfig(n_traj=4, horizon=16),
            seed=5,
        )
        want = "seed 5, iteration 0: non-finite theta"
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=want):
            papd_run(cmdp, 5.0, cfg)


class TestSolverConfigValidation:
    def test_bad_fields(self):
        sched = LrSchedule("constant", eta=1e-3)
        with pytest.raises(ValueError):
            SolverConfig(iterations=0, schedule=sched, zeta=0.1)
        # the exact loop's dual ascent needs a positive rate
        for zeta in (None, 0.0):
            cfg = SolverConfig(iterations=5, schedule=sched, zeta=zeta)
            with pytest.raises(ValueError, match="zeta > 0"):
                apd_run(quad_testbed(0.5), cfg)


def test_readme_python_snippet_runs():
    """The README's "From Python" block runs as written."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().split("From Python:\n\n", 1)[1].splitlines()
    block = itertools.takewhile(lambda line: not line or line[:4] == "    ", lines)
    exec(textwrap.dedent("\n".join(block)), {})
