"""Analytic quadratic program: KKT oracle, dual geometry, derivatives.

The default instance has a pencil-and-paper solution (lambda* = sqrt(2)-1,
theta* = (1/sqrt 2, 1/sqrt 2)); the solver must hit it to bisection
precision.  Gradients are checked against central finite differences at a
tight tolerance since everything is exact arithmetic.
"""

import io
import math
import subprocess
import sys
import tokenize

import numpy as np
import pytest

from apdual import quadprog
from apdual.quadprog import (
    QuadProgram,
    descent_step,
    dual_values_batch,
    form_value,
    lagrangian_grad,
    ldl_solve,
    quad_dual_value,
    quad_kkt_solve,
    quad_make,
    quad_primal_min,
    quad_testbed,
)
# The kernel settings of tests/test_harness.py's CPU-independence tests.
from test_harness import CPU_VARIANTS, ON_X86_64, variant_env

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


def loop_lagrangian_grad(q, p, b, c, theta, lam):
    """The reference order of grad L: row i adds (q_ij + lam p_ij) theta_j
    left to right over j from -0.0, then subtracts b_i and adds lam c_i."""
    grad = []
    for q_i, p_i, b_i, c_i in zip(q, p, b, c):
        row = -0.0
        for q_ij, p_ij, t_j in zip(q_i, p_i, theta):
            row += (q_ij + lam * p_ij) * t_j
        grad.append(row - b_i + lam * c_i)
    return grad


def loop_form_value(m_cols, v, theta, s):
    """The reference order of s theta' M theta + v' theta: u_j adds
    (s theta_i) m_ij left to right over i from -0.0; sum_j u_j theta_j and
    sum_j v_j theta_j are each added left to right from -0.0, then summed."""
    scaled = [s * t for t in theta]
    quad = lin = -0.0
    for m_j, v_j, t_j in zip(m_cols, v, theta):
        u_j = -0.0
        for st_i, m_ij in zip(scaled, m_j):
            u_j += st_i * m_ij
        quad += u_j * t_j
        lin += v_j * t_j
    return quad + lin


def as_bytes(values):
    """The bytes of a float, a list of floats, or a list of numpy columns."""
    return np.array(values, dtype=float).tobytes()


def kernel_cases(n, rows=64):
    """An asymmetric program of dimension n, rows of theta with signed-zero
    entries, and the multipliers 0.0, -0.0 and random ones."""
    rng = np.random.default_rng(1000 + n)
    prog = asymmetric_program(rng, n)
    thetas = rng.normal(size=(rows, n)) * 3.0
    thetas[0] = 0.0
    thetas[1] = -0.0
    thetas[2:10, rng.integers(n)] = -0.0
    thetas[10:18, rng.integers(n)] = 0.0
    lams = rng.random(rows) * 4.0
    lams[::3] = 0.0
    lams[1::3] = -0.0
    return prog, thetas, lams


class TestGeneratedKernels:
    """The generated kernels against the loops they replace, as bytes."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_floats_equal_the_loops(self, n):
        prog, thetas, lams = kernel_cases(n)
        q, p, b, c = (a.tolist() for a in (prog.q, prog.p, prog.b, prog.c))
        q_cols, p_cols = prog.q.T.tolist(), prog.p.T.tolist()
        for th, lam in zip(thetas.tolist(), lams.tolist()):
            assert as_bytes(lagrangian_grad(q, p, b, c, th, lam)) == as_bytes(
                loop_lagrangian_grad(q, p, b, c, th, lam)
            )
            for m_cols, v, s in ((q_cols, b, -0.5), (p_cols, c, 0.5)):
                assert as_bytes(form_value(m_cols, v, th, s)) == as_bytes(
                    loop_form_value(m_cols, v, th, s)
                )

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam_kind", ["column", "float"])
    def test_columns_equal_the_loops(self, n, lam_kind):
        prog, thetas, lams = kernel_cases(n)
        q, p, b, c = (a.tolist() for a in (prog.q, prog.p, prog.b, prog.c))
        cols = list(thetas.T)
        for lam in [lams] if lam_kind == "column" else [0.0, -0.0, 1.3]:
            assert as_bytes(lagrangian_grad(q, p, b, c, cols, lam)) == as_bytes(
                loop_lagrangian_grad(q, p, b, c, cols, lam)
            )
        for m_cols, v, s in ((prog.q.T.tolist(), b, -0.5), (prog.p.T.tolist(), c, 0.5)):
            assert as_bytes(form_value(m_cols, v, cols, s)) == as_bytes(
                loop_form_value(m_cols, v, cols, s)
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_descent_step_equals_the_loops(self, n):
        # theta' = theta - eta grad L, then J_C(theta') with P's columns
        prog, thetas, lams = kernel_cases(n)
        q, p, b, c = (a.tolist() for a in (prog.q, prog.p, prog.b, prog.c))
        p_cols = prog.p.T.tolist()
        step = descent_step(prog)
        etas = np.random.default_rng(n).random(len(lams))
        for th, lam, eta in zip(thetas.tolist(), lams.tolist(), etas.tolist()):
            grad = loop_lagrangian_grad(q, p, b, c, th, lam)
            want = [t_i - eta * g_i for t_i, g_i in zip(th, grad)]
            got, j_c = step(th, lam, eta)
            assert as_bytes(got) == as_bytes(want)
            assert as_bytes(j_c) == as_bytes(loop_form_value(p_cols, c, want, 0.5))

    def test_code_is_shared_by_the_programs_of_a_dimension(self):
        one, other = (asymmetric_program(np.random.default_rng(s)) for s in (1, 2))
        assert descent_step(one).__code__ is descent_step(other).__code__
        assert descent_step(one).__defaults__ != descent_step(other).__defaults__

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_source_holds_names_and_operators_only(self, n):
        # the program's numbers come in as arguments, never as text
        tokens = tokenize.generate_tokens(io.StringIO(quadprog._source(n)).readline)
        kinds = {tokenize.tok_name[tok.type] for tok in tokens}
        assert kinds <= {"NAME", "OP", "NEWLINE", "NL", "INDENT", "DEDENT", "ENDMARKER"}

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            form_value([], [], [], 0.5)
        with pytest.raises(ValueError, match="n >= 1"):
            ldl_solve([], [])


def loop_ldl_solve(a, r):
    """The reference order of the LDL' solve: each difference subtracts its
    terms left to right, k ascending (the module docstring's formulas)."""
    n = len(r)
    low, d = [], []
    for i in range(n):
        u = []
        for j in range(i):
            s = a[i][j]
            for k in range(j):
                s = s - u[k] * low[j][k]
            u.append(s)
        row = [u_j / d_j for u_j, d_j in zip(u, d)]
        s = a[i][i]
        for u_k, l_k in zip(u, row):
            s = s - u_k * l_k
        low.append(row)
        d.append(s)
    y = []
    for i in range(n):
        s = r[i]
        for l_k, y_k in zip(low[i], y):
            s = s - l_k * y_k
        y.append(s)
    x = [None] * n
    for i in reversed(range(n)):
        s = y[i] / d[i]
        for k in range(i + 1, n):
            s = s - low[k][i] * x[k]
        x[i] = s
    return x


# Random programs of dimension 1 to 6: Q = G G' + I and P = H H', each
# entry an fsum of Python float products, so no BLAS product enters and the
# programs are the same under every kernel setting; the limit 0 leaves a
# Slater point.  LAMS holds 0, -0.0 and repeated multipliers.
SPD_PROGRAMS = """
import math
import numpy as np
from apdual.quadprog import quad_make


def spd_program(seed, n):
    rng = np.random.default_rng(seed)
    g, h = rng.normal(size=(2, n, n)).tolist()

    def gram(m, shift):
        return [[math.fsum(m[i][k] * m[j][k] for k in range(n))
                 + (shift if i == j else 0.0) for j in range(n)] for i in range(n)]

    b, c = rng.normal(size=(2, n))
    return quad_make(gram(g, 1.0), b, gram(h, 0.0), c, 0.0)


PROGRAMS = [spd_program(seed, n) for n in range(1, 7) for seed in range(10)]
LAMS = np.concatenate([[0.0, -0.0, 0.3, 0.3], np.random.default_rng(0).random(12) * 5.0])
"""
SOLVE_DIGEST_PROBE = SPD_PROGRAMS + """
import hashlib
from apdual.quadprog import dual_values_batch, quad_primal_min
digest = hashlib.sha256()
for prog in PROGRAMS:
    d, theta, _ = dual_values_batch(prog, LAMS)
    digest.update(d.tobytes() + theta.tobytes())
    digest.update(quad_primal_min(prog, 0.7).tobytes())
print(digest.hexdigest())
"""
spd = {}
exec(SPD_PROGRAMS, spd)
# SHA-256 of SOLVE_DIGEST_PROBE's theta*(lambda) and d(lambda).
PINNED_SOLVE_DIGEST = "335d2988b82e969dfac57d182a80ac58cfae161f79ee9d50bbf7f95cd7870004"


def lapack_primal_min(prog, lam):
    return np.linalg.solve(prog.q + lam * prog.p, prog.b - lam * prog.c)


def lapack_lambda_star(prog):
    """quad_kkt_solve's bisection with LAPACK's theta*(lambda)."""
    def violation(lam):
        return prog.j_c(lapack_primal_min(prog, lam)) - prog.limit

    if violation(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while violation(hi) >= 0.0:
        hi *= 2.0
    while hi - lo > quadprog.KKT_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if violation(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


class TestLdlSolve:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_kernel_equals_the_loop(self, n):
        # floats and numpy columns, bit for bit, on every random program
        for prog in spd["PROGRAMS"][10 * (n - 1) : 10 * n]:
            lams = spd["LAMS"]
            a = (prog.q[None] + lams[:, None, None] * prog.p[None]).tolist()
            r = (prog.b[None] - lams[:, None] * prog.c[None]).tolist()
            for a_k, r_k in zip(a, r):
                assert as_bytes(ldl_solve(a_k, r_k)) == as_bytes(loop_ldl_solve(a_k, r_k))
            a_cols = [[np.array(col) for col in zip(*row)] for row in zip(*a)]
            r_cols = [np.array(col) for col in zip(*r)]
            assert as_bytes(ldl_solve(a_cols, r_cols)) == as_bytes(
                loop_ldl_solve(a_cols, r_cols)
            )

    def test_agrees_with_lapack(self):
        lams = spd["LAMS"]
        for prog in spd["PROGRAMS"]:
            d, theta, _ = dual_values_batch(prog, lams)
            want = np.array([lapack_primal_min(prog, lam) for lam in lams])
            np.testing.assert_allclose(theta, want, rtol=1e-12, atol=1e-12)
            want_d = [prog.lagrangian(th, lam) for th, lam in zip(want, lams)]
            np.testing.assert_allclose(d, want_d, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                quad_primal_min(prog, 0.7), lapack_primal_min(prog, 0.7),
                rtol=1e-12, atol=1e-12,
            )
            lam_star = quad_kkt_solve(prog).lambda_star
            assert lam_star == pytest.approx(lapack_lambda_star(prog), abs=1e-12)

    def test_stacked_rows_equal_single_solves(self):
        lams = spd["LAMS"]
        for prog in spd["PROGRAMS"]:
            stacked = quad_primal_min(prog, lams)
            assert stacked.shape == (lams.size, prog.dim)
            for row, lam in zip(stacked, lams.tolist()):
                assert row.tobytes() == quad_primal_min(prog, lam).tobytes()

    def test_testbed_solve_is_a_division(self):
        # Q + lam P = (1 + lam) I: theta* = b / (1 + lam), LAPACK's bits too
        prog = quad_testbed(0.5)
        lams = np.random.default_rng(5).random(200) * 10.0
        for lam in lams.tolist():
            want = prog.b / (1.0 + lam)
            assert quad_primal_min(prog, lam).tobytes() == want.tobytes()
            assert lapack_primal_min(prog, lam).tobytes() == want.tobytes()

    def test_solve_digest_pinned(self, capsys):
        exec(SOLVE_DIGEST_PROBE, {})  # the subprocesses' probe; prints the digest
        assert capsys.readouterr().out.strip() == PINNED_SOLVE_DIGEST

    @ON_X86_64
    @pytest.mark.parametrize("variant", list(CPU_VARIANTS))
    def test_solve_digest_independent_of_cpu_kernels(self, variant):
        """theta*(lambda) and d(lambda) of the random programs, in a
        subprocess under each kernel setting, give the pinned digest."""
        proc = subprocess.run(
            [sys.executable, "-c", SOLVE_DIGEST_PROBE],
            env=variant_env(variant), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == PINNED_SOLVE_DIGEST, variant


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
