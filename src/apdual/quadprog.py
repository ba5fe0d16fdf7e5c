"""An analytic constrained quadratic program: the ground truth every bound
is checked against.

    maximize  J_R(theta) = -1/2 theta' Q theta + b' theta
    subject to J_C(theta) = 1/2 theta' P theta + c' theta <= d

with Q positive definite and P positive semidefinite, so for every
lambda >= 0 the Lagrangian -J_R + lambda (J_C - d) is strongly convex with

    grad_theta L = (Q + lambda P) theta - b + lambda c
    theta*(lambda) = (Q + lambda P)^{-1} (b - lambda c)
    d(lambda) = L(theta*(lambda), lambda)

and exact constants L_R = eigmax(Q), L_C = [eigmax(P)], mu = eigmin(Q).

grad_theta L and J_C are BLAS-free: lagrangian_grad and constraint_value
compute them on Python floats, as sums added left to right in index order,

    grad_i = sum_j (q_ij + lambda p_ij) theta_j - b_i + lambda c_i
    J_C    = sum_j (sum_i (1/2 theta_i) p_ij) theta_j + sum_j c_j theta_j,

and QuadProgram.grad_lagrangian, QuadProgram.j_c and solver.apd_run all call
them, so the exact loop and the methods round alike.  numpy's @ would hand
these products to the BLAS, whose kernels may fuse multiply-adds and so
round differently from one CPU to the next.  dual_values_batch sums J_R
and J_C in the same fixed order on numpy columns (_row_forms).  J_R, the
KKT solve, the linear solve for theta*(lambda) and the certificate algebra
still use numpy and the BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lagrangian import ConstraintSpec
from .schedules import SmoothnessConstants

DEFINITENESS_TOL = 1e-10
KKT_TOL = 1e-12


@dataclass(frozen=True)
class KktSolution:
    theta_star: np.ndarray
    lambda_star: float
    dual_opt: float


@dataclass(frozen=True)
class QuadProgram:
    q: np.ndarray
    b: np.ndarray
    p: np.ndarray
    c: np.ndarray
    limit: float

    @property
    def dim(self) -> int:
        return self.b.size

    def j_r(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        return float(-0.5 * theta @ self.q @ theta + self.b @ theta)

    def j_r_rows(self, thetas: np.ndarray) -> np.ndarray:
        """J_R of every row of a (K, n) array, bit-equal to K j_r calls.

        The products are stacked (1, n) @ (n, n) @ (n, 1) matmuls, which
        reduce in the per-row order; ``thetas @ q`` does not for n >= 5."""
        th = np.asarray(thetas, dtype=float)
        quad = ((-0.5 * th)[:, None, :] @ self.q @ th[:, :, None])[:, 0, 0]
        return quad + (th[:, None, :] @ self.b[:, None])[:, 0, 0]

    def j_c(self, theta: np.ndarray) -> float:
        """J_C(theta) of the program's one constraint (constraint_value)."""
        theta = np.asarray(theta, dtype=float).tolist()
        return constraint_value(self.p.T.tolist(), self.c.tolist(), theta)

    def constraint_spec(self) -> ConstraintSpec:
        return ConstraintSpec(np.array([self.limit]))

    def lagrangian(self, theta: np.ndarray, lam: float) -> float:
        return -self.j_r(theta) + lam * (self.j_c(theta) - self.limit)

    def grad_lagrangian(self, theta: np.ndarray, lam: float) -> np.ndarray:
        """grad_theta L at the float multiplier lam (lagrangian_grad)."""
        grad = lagrangian_grad(
            self.q.tolist(), self.p.tolist(), self.b.tolist(), self.c.tolist(),
            np.asarray(theta, dtype=float).tolist(), float(lam),
        )
        return np.array(grad)

    def smoothness(self) -> SmoothnessConstants:
        q_eigs = np.linalg.eigvalsh(self.q)
        p_eigs = np.linalg.eigvalsh(self.p)
        return SmoothnessConstants(
            l_r=float(q_eigs[-1]), l_c=np.array([float(p_eigs[-1])]),
            mu=float(q_eigs[0]),
        )


def lagrangian_grad(
    q: list, p: list, b: list, c: list, theta: list, lam: float
) -> list[float]:
    """grad_theta L on Python floats: q and p as lists of rows, b, c and
    theta as lists.  Row i adds (q_ij + lam p_ij) theta_j left to right over
    j, then subtracts b_i and adds lam c_i.  Each sum starts from -0.0, which
    x + -0.0 leaves unchanged for every x, signed zeros included."""
    grad = []
    for q_i, p_i, b_i, c_i in zip(q, p, b, c):
        row = -0.0
        for q_ij, p_ij, t_j in zip(q_i, p_i, theta):
            row += (q_ij + lam * p_ij) * t_j
        grad.append(row - b_i + lam * c_i)
    return grad


def constraint_value(p_cols: list, c: list, theta: list) -> float:
    """J_C on Python floats: p as a list of columns, c and theta as lists.
    v_j adds (1/2 theta_i) p_ij left to right over i; sum_j v_j theta_j and
    sum_j c_j theta_j are each added left to right, then summed.  The sums
    start from -0.0, as in lagrangian_grad."""
    half = [0.5 * t for t in theta]
    quad = lin = -0.0
    for p_j, c_j, t_j in zip(p_cols, c, theta):
        v_j = -0.0
        for h_i, p_ij in zip(half, p_j):
            v_j += h_i * p_ij
        quad += v_j * t_j
        lin += c_j * t_j
    return quad + lin


def quad_make(q, b, p, c, limit: float) -> QuadProgram:
    """Validate symmetry and definiteness (eigenvalue tolerance 1e-10)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = b.size
    if q.shape != (n, n) or p.shape != (n, n) or c.shape != (n,):
        raise ValueError("inconsistent problem dimensions")
    if np.abs(q - q.T).max() > DEFINITENESS_TOL:
        raise ValueError("Q must be symmetric")
    if np.abs(p - p.T).max() > DEFINITENESS_TOL:
        raise ValueError("P must be symmetric")
    if np.linalg.eigvalsh(q)[0] <= DEFINITENESS_TOL:
        raise ValueError("Q must be positive definite")
    if np.linalg.eigvalsh(p)[0] < -DEFINITENESS_TOL:
        raise ValueError("P must be positive semidefinite")
    return QuadProgram(q, b, p, c, float(limit))


def quad_testbed(limit: float) -> QuadProgram:
    """The harness's testbed: n = 2, Q = I, b = (1, 1), P = I, c = 0, with
    the cost limit d.  The constraint is active for d < 1; at d = 0.5,
    lambda* = sqrt(2) - 1 and theta* = (1/sqrt 2, 1/sqrt 2)."""
    eye = np.eye(2)
    return quad_make(eye, np.ones(2), eye, np.zeros(2), limit)


def quad_primal_min(prog: QuadProgram, lam: float) -> np.ndarray:
    """theta*(lambda) by direct linear solve."""
    return np.linalg.solve(prog.q + lam * prog.p, prog.b - lam * prog.c)


def quad_dual_value(prog: QuadProgram, lam: float) -> float:
    """d(lambda) = L(theta*(lambda), lambda)."""
    return prog.lagrangian(quad_primal_min(prog, lam), lam)


def _row_forms(
    th: np.ndarray, mat: np.ndarray, vec: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(theta' mat theta, vec' theta) of every row of th, summed over
    columns of th: (mat theta)_j adds mat_ji theta_i left to right over i,
    and both forms add over j left to right, each sum starting from -0.0 as
    in constraint_value.  Each elementwise numpy operation rounds alone, so
    no multiply-add is fused and no row depends on another row or on the
    CPU's BLAS kernel."""
    quad = lin = -0.0
    for mat_j, vec_j, th_j in zip(mat, vec, th.T):
        mat_th_j = -0.0
        for mat_ji, th_i in zip(mat_j, th.T):
            mat_th_j = mat_th_j + mat_ji * th_i
        quad = quad + mat_th_j * th_j
        lin = lin + vec_j * th_j
    return quad, lin


def dual_values_batch(
    prog: QuadProgram, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (d(lambda), theta*(lambda), J_C(theta*)) over a 1-d array
    of multipliers.

    Each distinct multiplier, keyed by its 8 bytes so that 0.0 and -0.0
    differ, is solved once in one stacked linear solve, and the rows are
    gathered back into the order of ``lams``.  An exact run that stops at a
    repeat of its state records few distinct multipliers.  Every row is
    computed alone (stacked solve, _row_forms sums), whatever else is in
    the batch, so row i equals ``dual_values_batch(prog, lams[i:i + 1])``
    bit for bit; ``einsum`` and ``@`` over the stack do not for a batch of
    one."""
    lams = np.asarray(lams, dtype=float)
    keys, inverse = np.unique(lams.view(np.uint64), return_inverse=True)
    lam = keys.view(float)
    a = prog.q[None, :, :] + lam[:, None, None] * prog.p[None, :, :]
    rhs = prog.b[None, :] - lam[:, None] * prog.c[None, :]
    th = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    quad_r, lin_r = _row_forms(th, prog.q, prog.b)
    quad_c, lin_c = _row_forms(th, prog.p, prog.c)
    j_r = -0.5 * quad_r + lin_r
    j_c = 0.5 * quad_c + lin_c
    d = -j_r + lam * (j_c - prog.limit)
    return d[inverse], th[inverse], j_c[inverse]


def _constraint_infimum(prog: QuadProgram) -> float:
    """inf_theta J_C, -inf when unbounded below (Slater check)."""
    eigvals, eigvecs = np.linalg.eigh(prog.p)
    c_rot = eigvecs.T @ prog.c
    null = eigvals <= DEFINITENESS_TOL
    if np.abs(c_rot[null]).max(initial=0.0) > DEFINITENESS_TOL:
        return -np.inf  # linear escape direction in the null space
    theta_rot = np.where(null, 0.0, -c_rot / np.where(null, 1.0, eigvals))
    theta = eigvecs @ theta_rot
    return prog.j_c(theta)


def quad_kkt_solve(prog: QuadProgram) -> KktSolution:
    """KKT point of the program.

    If the unconstrained maximizer is feasible, lambda* = 0.  Otherwise
    J_C(theta*(lambda)) is nonincreasing in lambda, so lambda* is the root
    of J_C(theta*(lambda)) = d, bisected on [0, hi] with hi doubled until it
    brackets, to an interval width of 1e-12.
    """
    if _constraint_infimum(prog) >= prog.limit:
        raise ValueError("no Slater point: J_C cannot go below the limit")

    def violation(lam: float) -> float:
        theta = np.linalg.solve(prog.q + lam * prog.p, prog.b - lam * prog.c)
        return prog.j_c(theta) - prog.limit

    if violation(0.0) <= 0.0:
        return KktSolution(quad_primal_min(prog, 0.0), 0.0, quad_dual_value(prog, 0.0))

    hi = 1.0
    for _ in range(200):
        if violation(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError("bisection bracketing failed")
    lo = 0.0
    while hi - lo > KKT_TOL:
        mid = 0.5 * (lo + hi)
        if violation(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return KktSolution(quad_primal_min(prog, lam), lam, quad_dual_value(prog, lam))
