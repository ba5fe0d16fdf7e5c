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

J_R, J_C and grad_theta L each have one fixed order of arithmetic, written
once: form_value and lagrangian_grad add their sums left to right in index
order, each starting from -0.0,

    s theta' M theta + v' theta
        = sum_j (sum_i (s theta_i) m_ij) theta_j + sum_j v_j theta_j
    grad_i = sum_j (q_ij + lambda p_ij) theta_j - b_i + lambda c_i,

with (M, v, s) = (Q, b, -1/2) for J_R and (P, c, 1/2) for J_C.  The same
code runs on Python floats for one theta and on numpy columns for a stack
of thetas, one entry per row; each elementwise numpy operation rounds
alone, so a stacked row equals the single call bit for bit, no multiply-add
is fused, and no value depends on the CPU's BLAS kernel or on numpy's SIMD
dispatch.  solver.apd_run, the QuadProgram methods, dual_values_batch and
solver.verify_bounds all compute these quantities through them.  On the
testbed path the only BLAS/LAPACK calls left are the linear solves for
theta*(lambda) and the eigenvalue routines (eigvalsh for the smoothness
constants, eigh for the Slater check).
"""

from __future__ import annotations

import math
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


def _entries(theta) -> list:
    """theta's n entries: Python floats for one theta of shape (n,), numpy
    columns of K entries for a (K, n) stack."""
    theta = np.asarray(theta, dtype=float)
    return theta.tolist() if theta.ndim == 1 else list(theta.T)


@dataclass(frozen=True)
class QuadProgram:
    """The program's data.  Each method takes one theta of shape (n,) and
    gives floats, or a (K, n) stack of thetas (with lam a float or K
    multipliers) and gives one value per row, bit for bit the single call's
    (form_value, lagrangian_grad)."""

    q: np.ndarray
    b: np.ndarray
    p: np.ndarray
    c: np.ndarray
    limit: float

    @property
    def dim(self) -> int:
        return self.b.size

    def j_r(self, theta):
        return form_value(self.q.T.tolist(), self.b.tolist(), _entries(theta), -0.5)

    def j_c(self, theta):
        return form_value(self.p.T.tolist(), self.c.tolist(), _entries(theta), 0.5)

    def constraint_spec(self) -> ConstraintSpec:
        return ConstraintSpec(np.array([self.limit]))

    def lagrangian(self, theta, lam):
        return -self.j_r(theta) + lam * (self.j_c(theta) - self.limit)

    def grad_lagrangian(self, theta, lam) -> np.ndarray:
        grad = lagrangian_grad(
            self.q.tolist(), self.p.tolist(), self.b.tolist(), self.c.tolist(),
            _entries(theta), lam,
        )
        return np.array(grad).T

    def smoothness(self) -> SmoothnessConstants:
        q_eigs = np.linalg.eigvalsh(self.q)
        p_eigs = np.linalg.eigvalsh(self.p)
        return SmoothnessConstants(
            l_r=float(q_eigs[-1]), l_c=np.array([float(p_eigs[-1])]),
            mu=float(q_eigs[0]),
        )


def lagrangian_grad(q: list, p: list, b: list, c: list, theta: list, lam) -> list:
    """grad_theta L with q and p as lists of rows and b and c as lists of
    floats; theta is n floats and lam a float, or theta n numpy columns and
    lam a float or a column.  Row i adds (q_ij + lam p_ij) theta_j left to
    right over j, then subtracts b_i and adds lam c_i.  Each sum starts from
    -0.0, which x + -0.0 leaves unchanged for every x, signed zeros
    included."""
    grad = []
    for q_i, p_i, b_i, c_i in zip(q, p, b, c):
        row = -0.0
        for q_ij, p_ij, t_j in zip(q_i, p_i, theta):
            row += (q_ij + lam * p_ij) * t_j
        grad.append(row - b_i + lam * c_i)
    return grad


def form_value(m_cols: list, v: list, theta: list, s: float):
    """s theta' M theta + v' theta with M as a list of columns and v as a
    list of floats; theta is n floats or n numpy columns.  u_j adds
    (s theta_i) m_ij left to right over i; sum_j u_j theta_j and sum_j v_j
    theta_j are each added left to right, then summed.  The sums start from
    -0.0, as in lagrangian_grad."""
    scaled = [s * t for t in theta]
    quad = lin = -0.0
    for m_j, v_j, t_j in zip(m_cols, v, theta):
        u_j = -0.0
        for st_i, m_ij in zip(scaled, m_j):
            u_j += st_i * m_ij
        quad += u_j * t_j
        lin += v_j * t_j
    return quad + lin


def quad_make(q, b, p, c, limit: float) -> QuadProgram:
    """Validate shapes, finiteness, symmetry and definiteness (eigenvalue
    tolerance 1e-10); each ValueError names the argument at fault."""
    q, b, p, c = (np.asarray(a, dtype=float) for a in (q, b, p, c))
    if b.ndim != 1:
        raise ValueError(f"b must be a vector, got shape {b.shape}")
    n = b.size
    for name, arr, shape in (("q", q, (n, n)), ("p", p, (n, n)), ("c", c, (n,))):
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    for name, arr in zip("qbpc", (q, b, p, c)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite entries")
    if not math.isfinite(limit):
        raise ValueError(f"limit must be finite, got {limit}")
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


def dual_values_batch(
    prog: QuadProgram, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (d(lambda), theta*(lambda), J_C(theta*)) over a 1-d array
    of multipliers, all solved in one stacked linear solve.

    Every row is computed alone (stacked solve, then J_R and J_C on numpy
    columns), whatever else is in the batch, so row i equals
    ``dual_values_batch(prog, lams[i:i + 1])`` bit for bit."""
    lam = np.asarray(lams, dtype=float)
    a = prog.q[None, :, :] + lam[:, None, None] * prog.p[None, :, :]
    rhs = prog.b[None, :] - lam[:, None] * prog.c[None, :]
    th = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    j_c = prog.j_c(th)
    d = -prog.j_r(th) + lam * (j_c - prog.limit)
    return d, th, j_c


def _constraint_infimum(prog: QuadProgram) -> float:
    """inf_theta J_C, -inf when unbounded below (Slater check)."""
    eigvals, eigvecs = np.linalg.eigh(prog.p)
    c_rot = (eigvecs * prog.c[:, None]).sum(axis=0)
    null = eigvals <= DEFINITENESS_TOL
    if np.abs(c_rot[null]).max(initial=0.0) > DEFINITENESS_TOL:
        return -np.inf  # linear escape direction in the null space
    theta_rot = np.where(null, 0.0, -c_rot / np.where(null, 1.0, eigvals))
    theta = (eigvecs * theta_rot).sum(axis=1)
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
        return prog.j_c(quad_primal_min(prog, lam)) - prog.limit

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
