"""Analytic quadratic program: KKT oracle, dual geometry, derivatives.

The default instance has a pencil-and-paper solution (lambda* = sqrt(2)-1,
theta* = (1/sqrt 2, 1/sqrt 2)); the solver must hit it to bisection
precision.  Gradients are checked against central finite differences at a
tight tolerance since everything is exact arithmetic.
"""

import math

import numpy as np
import pytest

from apdual.quadprog import (
    QuadProgram,
    dual_values_batch,
    form_value,
    lagrangian_grad,
    quad_dual_value,
    quad_kkt_solve,
    quad_make,
    quad_primal_min,
    quad_testbed,
)

SQ2 = math.sqrt(2.0)


def asymmetric_program(rng, n=3):
    """A program whose Q and P are not symmetric, so a row read as a column
    shows.  Built directly: quad_make checks symmetry."""
    q, p = rng.normal(size=(2, n, n))
    b, c = rng.normal(size=(2, n))
    return QuadProgram(q, b, p, c, 0.5)


class TestDefaultInstance:
    def test_frozen_kkt_solution(self):
        sol = quad_kkt_solve(quad_testbed(0.5))
        assert sol.lambda_star == pytest.approx(SQ2 - 1.0, abs=1e-10)
        np.testing.assert_allclose(
            sol.theta_star, [1.0 / SQ2, 1.0 / SQ2], atol=1e-10
        )
        # D* = L(theta*, lambda*) = -J_R* with the constraint active
        prog = quad_testbed(0.5)
        j_r_star = prog.j_r(sol.theta_star)
        assert sol.dual_opt == pytest.approx(-j_r_star, abs=1e-9)
        assert sol.dual_opt == pytest.approx(0.5 - SQ2, abs=1e-9)

    def test_constraint_active_at_solution(self):
        prog = quad_testbed(0.5)
        sol = quad_kkt_solve(prog)
        assert prog.j_c(sol.theta_star) == pytest.approx(0.5, abs=1e-9)

    def test_complementary_slackness(self):
        prog = quad_testbed(0.5)
        sol = quad_kkt_solve(prog)
        slack = prog.j_c(sol.theta_star) - prog.limit
        assert abs(sol.lambda_star * slack) < 1e-10

    def test_stationarity(self):
        prog = quad_testbed(0.5)
        sol = quad_kkt_solve(prog)
        g = prog.grad_lagrangian(sol.theta_star, sol.lambda_star)
        assert np.linalg.norm(g) < 1e-9

    def test_smoothness_constants(self):
        c = quad_testbed(0.5).smoothness()
        assert c.l_r == pytest.approx(1.0)
        assert c.mu == pytest.approx(1.0)
        assert c.l_c == pytest.approx(1.0)


class TestInactiveConstraint:
    def test_loose_limit_gives_lambda_zero(self):
        eye = np.eye(2)
        prog = quad_make(eye, np.ones(2), eye, np.zeros(2), 10.0)
        sol = quad_kkt_solve(prog)
        assert sol.lambda_star == 0.0
        # unconstrained maximizer Q^{-1} b = (1, 1)
        np.testing.assert_allclose(sol.theta_star, [1.0, 1.0], atol=1e-12)
        assert sol.dual_opt == pytest.approx(-prog.j_r([1.0, 1.0]), abs=1e-12)


class TestDualGeometry:
    def test_primal_min_solves_stationarity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        q = a @ a.T + 3.0 * np.eye(3)
        g = rng.normal(size=(3, 3))
        p = g @ g.T
        prog = quad_make(q, rng.normal(size=3), p, rng.normal(size=3), 1.0)
        for lam in (0.0, 0.3, 2.0):
            theta = quad_primal_min(prog, lam)
            np.testing.assert_allclose(
                prog.grad_lagrangian(theta, lam), 0.0, atol=1e-10
            )

    def test_dual_value_is_global_minimum(self):
        prog = quad_testbed(0.5)
        rng = np.random.default_rng(1)
        for lam in (0.0, 0.5, 3.0):
            d_val = quad_dual_value(prog, lam)
            theta = quad_primal_min(prog, lam)
            for _ in range(25):
                other = theta + rng.normal(size=2)
                assert prog.lagrangian(other, lam) >= d_val - 1e-12

    def test_dual_concavity_on_grid(self):
        # midpoint value above the chord, for several random instances
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=(2, 2))
            q = a @ a.T + 2.0 * np.eye(2)
            prog = quad_make(q, rng.normal(size=2), np.eye(2), rng.normal(size=2), 1.0)
            lams = np.linspace(0.0, 4.0, 41)
            d_vals, _, _ = dual_values_batch(prog, lams)
            mid = 0.5 * (d_vals[:-2] + d_vals[2:])
            assert np.all(d_vals[1:-1] >= mid - 1e-12)

    def test_dual_maximized_at_lambda_star(self):
        prog = quad_testbed(0.5)
        sol = quad_kkt_solve(prog)
        lams = np.linspace(0.0, 3.0, 301)
        d_vals, _, _ = dual_values_batch(prog, lams)
        assert sol.dual_opt >= d_vals.max() - 1e-9

    def test_constraint_value_nonincreasing_in_lambda(self):
        prog = quad_testbed(0.5)
        lams = np.linspace(0.0, 10.0, 200)
        _, _, j_c = dual_values_batch(prog, lams)
        assert np.all(np.diff(j_c) <= 1e-12)

    def test_batch_rows_equal_single_calls(self):
        # Shuffled, repeated multipliers, signed zeros included: each row is
        # bit-equal to the row of a batch holding that multiplier alone.
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        g = rng.normal(size=(4, 4))
        prog = quad_make(
            a @ a.T + 4.0 * np.eye(4), rng.normal(size=4), g @ g.T,
            rng.normal(size=4), 0.5,
        )
        lams = rng.permutation(np.repeat([0.0, -0.0, 0.3, 1.7, 2.9], [3, 2, 4, 1, 5]))
        batch = dual_values_batch(prog, lams)
        for i in range(lams.size):
            single = dual_values_batch(prog, lams[i : i + 1])
            for got, want in zip(batch, single):
                assert got[i].tobytes() == want[0].tobytes()

    def test_batch_matches_scalar_routes(self):
        prog = quad_testbed(0.5)
        lams = np.array([0.0, 0.7, 2.5])
        d_vals, th, j_c = dual_values_batch(prog, lams)
        for i, lam in enumerate(lams):
            assert d_vals[i] == pytest.approx(quad_dual_value(prog, lam), rel=1e-12)
            np.testing.assert_allclose(th[i], quad_primal_min(prog, lam), rtol=1e-12)
            assert j_c[i] == pytest.approx(prog.j_c(th[i]), rel=1e-12)


class TestGradients:
    def test_grad_lagrangian_matches_fd(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2))
        q = a @ a.T + 2.0 * np.eye(2)
        prog = quad_make(q, rng.normal(size=2), np.eye(2), rng.normal(size=2), 0.7)
        h = 1e-6
        for _ in range(100):
            theta = rng.normal(size=2) * 2.0
            lam = float(rng.random() * 3.0)
            g = prog.grad_lagrangian(theta, lam)
            fd = np.empty(2)
            for i in range(2):
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (prog.lagrangian(up, lam) - prog.lagrangian(dn, lam)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-8, atol=1e-8)


class TestArithmeticOrder:
    """grad_lagrangian and j_c are the documented sums of Python floats,
    added left to right, bit for bit."""

    def test_equal_to_left_to_right_float_sums(self):
        rng = np.random.default_rng(11)
        n = 3
        prog = asymmetric_program(rng, n)
        qs, ps, bs, cs = (a.tolist() for a in (prog.q, prog.p, prog.b, prog.c))
        for _ in range(200):
            th = (rng.normal(size=n) * 3.0).tolist()
            lam = float(rng.random() * 4.0)
            grad = []
            for i in range(n):
                row = (qs[i][0] + lam * ps[i][0]) * th[0]
                row += (qs[i][1] + lam * ps[i][1]) * th[1]
                row += (qs[i][2] + lam * ps[i][2]) * th[2]
                grad.append(row - bs[i] + lam * cs[i])
            half = [0.5 * t for t in th]
            v = [half[0] * ps[0][j] + half[1] * ps[1][j] + half[2] * ps[2][j]
                 for j in range(n)]
            quad = v[0] * th[0] + v[1] * th[1] + v[2] * th[2]
            lin = cs[0] * th[0] + cs[1] * th[1] + cs[2] * th[2]
            assert prog.grad_lagrangian(np.array(th), lam).tolist() == grad
            assert prog.j_c(np.array(th)) == quad + lin


def stacked_program(n):
    """TestArithmeticOrder's asymmetric n = 3 program for n None, else a
    symmetric one of dimension n."""
    if n is None:
        return asymmetric_program(np.random.default_rng(11))
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    return quad_make(
        a @ a.T + np.eye(n), rng.normal(size=n), np.eye(n), np.zeros(n), 1.0
    )


class TestStackedForms:
    @pytest.mark.parametrize("n", [pytest.param(None, id="asymmetric"), 2, 3, 5, 8, 16])
    def test_stacked_rows_equal_single_theta_calls(self, n):
        # J_R rows against j_r, J_C rows against form_value on floats and
        # gradient rows against lagrangian_grad, bit for bit; signed zeros
        # included.
        prog = stacked_program(n)
        rng = np.random.default_rng(100)
        thetas = rng.normal(size=(500, prog.dim)) * 5.0
        lams = rng.random(500) * 4.0
        thetas[:2], lams[:2] = [[0.0], [-0.0]], [0.0, -0.0]
        q, p, b, c = (a.tolist() for a in (prog.q, prog.p, prog.b, prog.c))
        p_cols = prog.p.T.tolist()
        rows = list(zip(thetas.tolist(), lams.tolist()))
        want_r = np.array([prog.j_r(th) for th, _ in rows])
        want_c = np.array([form_value(p_cols, c, th, 0.5) for th, _ in rows])
        want_g = np.array([lagrangian_grad(q, p, b, c, th, lam) for th, lam in rows])
        assert prog.j_r(thetas).tobytes() == want_r.tobytes()
        assert prog.j_c(thetas).tobytes() == want_c.tobytes()
        assert prog.grad_lagrangian(thetas, lams).tobytes() == want_g.tobytes()


class TestValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="q must have shape"):
            quad_make(np.eye(2), np.ones(3), np.eye(2), np.zeros(2), 1.0)

    def test_b_must_be_a_vector(self):
        with pytest.raises(ValueError, match="b must be a vector"):
            quad_make(np.eye(2), np.ones((2, 1)), np.eye(2), np.zeros(2), 0.5)

    def test_infinite_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be finite"):
            quad_make(np.eye(2), np.ones(2), np.eye(2), np.zeros(2), math.inf)

    def test_nan_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be finite"):
            quad_make(np.eye(2), np.ones(2), np.eye(2), np.zeros(2), math.nan)

    @pytest.mark.parametrize("name", ["q", "b", "p", "c"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entries_rejected(self, name, bad):
        args = {"q": np.eye(2), "b": np.ones(2), "p": np.eye(2), "c": np.zeros(2)}
        args[name] = args[name].copy()
        args[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            quad_make(limit=0.5, **args)

    def test_symmetry_checks(self):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            quad_make(q, np.ones(2), np.eye(2), np.zeros(2), 1.0)

    def test_definiteness_checks(self):
        with pytest.raises(ValueError, match="positive definite"):
            quad_make(np.zeros((2, 2)), np.ones(2), np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="semidefinite"):
            quad_make(np.eye(2), np.ones(2), -np.eye(2), np.zeros(2), 1.0)

    def test_slater_violation_detected(self):
        # J_C = 1/2 ||theta||^2 >= 0 can never go below -1
        with pytest.raises(ValueError, match="Slater"):
            quad_kkt_solve(
                quad_make(np.eye(2), np.ones(2), np.eye(2), np.zeros(2), -1.0)
            )

    def test_slater_with_linear_escape_is_fine(self):
        # P singular but c has a null-space component: J_C unbounded below,
        # so any limit admits a Slater point
        p = np.diag([1.0, 0.0])
        prog = quad_make(np.eye(2), np.ones(2), p, np.array([0.0, 1.0]), -5.0)
        sol = quad_kkt_solve(prog)
        assert sol.lambda_star >= 0.0
