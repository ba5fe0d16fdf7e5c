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
        """J_C(theta) of the program's one constraint."""
        return float(0.5 * theta @ self.p @ theta + self.c @ theta)

    def constraint_spec(self) -> ConstraintSpec:
        return ConstraintSpec(np.array([self.limit]))

    def lagrangian(self, theta: np.ndarray, lam: float) -> float:
        return -self.j_r(theta) + lam * (self.j_c(theta) - self.limit)

    def grad_lagrangian(self, theta: np.ndarray, lam: float) -> np.ndarray:
        """grad_theta L at the float multiplier lam."""
        return (self.q + lam * self.p) @ theta - self.b + lam * self.c

    def smoothness(self) -> SmoothnessConstants:
        q_eigs = np.linalg.eigvalsh(self.q)
        p_eigs = np.linalg.eigvalsh(self.p)
        return SmoothnessConstants(
            l_r=float(q_eigs[-1]), l_c=np.array([float(p_eigs[-1])]),
            mu=float(q_eigs[0]),
        )


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
    the cost limit d.  The constraint is active for d < 1."""
    eye = np.eye(2)
    return quad_make(eye, np.ones(2), eye, np.zeros(2), limit)


def quad_default() -> QuadProgram:
    """The testbed at d = 0.5: lambda* = sqrt(2) - 1,
    theta* = (1/sqrt 2, 1/sqrt 2)."""
    return quad_testbed(0.5)


def quad_primal_min(prog: QuadProgram, lam: float) -> np.ndarray:
    """theta*(lambda) by direct linear solve."""
    return np.linalg.solve(prog.q + lam * prog.p, prog.b - lam * prog.c)


def quad_dual_value(prog: QuadProgram, lam: float) -> float:
    """d(lambda) = L(theta*(lambda), lambda)."""
    return prog.lagrangian(quad_primal_min(prog, lam), lam)


def dual_values_batch(
    prog: QuadProgram, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (d(lambda), theta*(lambda), J_C(theta*)) over a 1-d grid
    of multipliers; one stacked linear solve instead of a Python loop."""
    lams = np.asarray(lams, dtype=float)
    a = prog.q[None, :, :] + lams[:, None, None] * prog.p[None, :, :]
    rhs = prog.b[None, :] - lams[:, None] * prog.c[None, :]
    th = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    j_r = -0.5 * np.einsum("ki,ij,kj->k", th, prog.q, th) + th @ prog.b
    j_c = 0.5 * np.einsum("ki,ij,kj->k", th, prog.p, th) + th @ prog.c
    return -j_r + lams * (j_c - prog.limit), th, j_c


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
