"""An analytic constrained quadratic program: the ground truth every bound
is checked against.

    maximize  J_R(theta) = -1/2 theta' Q theta + b' theta
    subject to J_C(theta) = 1/2 theta' P theta + c' theta <= d

with Q positive definite and P positive semidefinite, so for every
lambda >= 0 the Lagrangian -J_R + lambda (J_C - d) is strongly convex with

    grad_theta L = (Q + lambda P) theta - b + lambda c
    theta*(lambda) = (Q + lambda P)^{-1} (b - lambda c)
    d(lambda) = L(theta*(lambda), lambda)

and exact constants L_R = eigmax(Q), L_C = eigmax(P), mu = eigmin(Q).

J_R, J_C, grad_theta L and theta*(lambda) each have one fixed order of
arithmetic: every sum is added left to right in index order, starting from
-0.0, and every difference subtracts its terms left to right,

    s theta' M theta + v' theta
        = sum_j (sum_i (s theta_i) m_ij) theta_j + sum_j v_j theta_j
    grad_i = sum_j (q_ij + lambda p_ij) theta_j - b_i + lambda c_i,

with (M, v, s) = (Q, b, -1/2) for J_R and (P, c, 1/2) for J_C, and
theta*(lambda) solves A x = r, A = Q + lambda P and r = b - lambda c
(a_ij = q_ij + lambda p_ij, r_i = b_i - lambda c_i), by an LDL'
factorization with no square root and no pivoting (A is positive definite):

    u_ij = a_ij - sum_{k<j} u_ik l_jk,  l_ij = u_ij / d_j       (j < i)
    d_i  = a_ii - sum_{k<i} u_ik l_ik
    y_i  = r_i - sum_{k<i} l_ik y_k
    x_i  = y_i / d_i - sum_{k>i} l_ki x_k                       (i descending)

On the testbed A = (1 + lambda) I, so x = r / (1 + lambda) exactly.  One
emitter (_grad, _form, _ldl) writes that order out as straight-line
Python, one statement or expression per sum with no loop, for each
dimension n, and the source is compiled once per n (_kernels).  -0.0 + x is
x for every x, so a sum is written from its first term.  The source holds
names, operators and the kernels' argument names only: every number comes
in as an argument.  The kernels of dimension n are

    lagrangian_grad(q, p, b, c, theta, lam), form_value(m_cols, v, theta, s)
        and ldl_solve(a, r), the program's entries as arguments (lists of
        rows or columns);
    descent_step's step(theta, lam, eta) -> (theta', J_C(theta')),
        theta' = theta - eta grad_theta L, the program's entries bound as
        default arguments, so every program of dimension n shares one code
        object; solver.apd_run binds it once per run.

lagrangian_grad, form_value and ldl_solve run on Python floats for one
theta or lambda and on numpy columns for a stack, one entry per row; each
elementwise numpy operation rounds alone, so a stacked row equals the
single call bit for bit, no multiply-add is fused, and no value depends on
the CPU's BLAS kernel or on numpy's SIMD dispatch.  The QuadProgram
methods, quad_primal_min, dual_values_batch, quad_kkt_solve and
solver.verify_bounds compute these quantities through them.  No linear
solve calls LAPACK: on the testbed path the only LAPACK calls are the
eigenvalue routines (eigvalsh for the smoothness constants and quad_make's
definiteness checks, eigh for the Slater check).
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

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
            l_r=float(q_eigs[-1]), l_c=float(p_eigs[-1]), mu=float(q_eigs[0])
        )


def lagrangian_grad(q: list, p: list, b: list, c: list, theta: list, lam) -> list:
    """grad_theta L with q and p as lists of rows and b and c as lists of
    floats; theta is n floats and lam a float, or theta n numpy columns and
    lam a float or a column.  The generated kernel of dimension len(theta)
    (see the module docstring)."""
    return _kernels(len(theta))["lagrangian_grad"](q, p, b, c, theta, lam)


def form_value(m_cols: list, v: list, theta: list, s: float):
    """s theta' M theta + v' theta with M as a list of columns and v as a
    list of floats; theta is n floats or n numpy columns.  The generated
    kernel of dimension len(theta) (see the module docstring)."""
    return _kernels(len(theta))["form_value"](m_cols, v, theta, s)


def ldl_solve(a: list, r: list) -> list:
    """The solution x of A x = r for a symmetric positive definite A, a a
    list of rows (only its lower triangle is read) and r a list, by the LDL'
    factorization in the module docstring's order; the entries are floats,
    or numpy columns for a stack of systems.  The generated kernel of
    dimension len(r)."""
    return _kernels(len(r))["ldl_solve"](a, r)


def descent_step(prog: QuadProgram):
    """The exact loop's step for this program, ``step(theta, lam, eta) ->
    (theta', J_C(theta'))`` with theta' = theta - eta grad_theta L(theta,
    lam): n floats in, a tuple of n floats and a float out, the same bits
    as lagrangian_grad followed by form_value(P columns, c, theta', 0.5).
    The program's entries are bound as the generated code's default
    arguments, so the code object is shared by every program of its
    dimension."""
    step = _kernels(prog.dim)["descent_step"]
    consts = [0.5, *prog.q.ravel().tolist(), *prog.p.ravel().tolist()]
    consts += prog.b.tolist() + prog.c.tolist()
    return types.FunctionType(step.__code__, step.__globals__, None, tuple(consts))


# The emitter.  Every kernel is written from _grad, _form and _ldl, so one
# place fixes the order of arithmetic.  Names carry their indices: q0_1 is
# q_01, b1 is b_1 and t0 is theta_0.


def _sum(terms: list[str]) -> str:
    # A sum from -0.0, left to right: -0.0 + x is x for every x, signed
    # zeros included, so the sum is written from its first term.
    return " + ".join(terms)


def _grad(n: int) -> list[str]:
    """grad_i = sum_j (q_ij + lam p_ij) t_j - b_i + lam c_i for i < n."""
    return [
        _sum([f"(q{i}_{j} + lam * p{i}_{j}) * t{j}" for j in range(n)])
        + f" - b{i} + lam * c{i}"
        for i in range(n)
    ]


def _form(n: int, m: str, v: str, t: str, s: str) -> tuple[list[str], str]:
    """Statements and expression of s t' M t + v' t: st_i = s t_i, u_j adds
    st_i m_ij over i, then (sum_j u_j t_j) + (sum_j v_j t_j)."""
    lines = [f"st{i} = {s} * {t}{i}" for i in range(n)]
    for j in range(n):
        lines.append(f"u{j} = " + _sum([f"st{i} * {m}{i}_{j}" for i in range(n)]))
    quad = _sum([f"u{j} * {t}{j}" for j in range(n)])
    lin = _sum([f"{v}{j} * {t}{j}" for j in range(n)])
    return lines, f"({quad}) + ({lin})"


def _minus(first: str, terms: list[str]) -> str:
    """first minus each term, left to right."""
    return " - ".join([first, *terms])


def _ldl(n: int) -> list[str]:
    """Statements of the LDL' solve of a x = r into x_i, i < n."""
    lines = []
    for i in range(n):
        for j in range(i):
            u_terms = [f"u{i}_{k} * l{j}_{k}" for k in range(j)]
            lines.append(f"u{i}_{j} = " + _minus(f"a{i}_{j}", u_terms))
            lines.append(f"l{i}_{j} = u{i}_{j} / d{j}")
        d_terms = [f"u{i}_{k} * l{i}_{k}" for k in range(i)]
        lines.append(f"d{i} = " + _minus(f"a{i}_{i}", d_terms))
    for i in range(n):
        y_terms = [f"l{i}_{k} * y{k}" for k in range(i)]
        lines.append(f"y{i} = " + _minus(f"r{i}", y_terms))
    for i in reversed(range(n)):
        x_terms = [f"l{k}_{i} * x{k}" for k in range(i + 1, n)]
        lines.append(f"x{i} = " + _minus(f"y{i} / d{i}", x_terms))
    return lines


def _unpack(names: list, value: str) -> str:
    """``(a, b, ) = value`` for a list of names, nested for a list of rows."""
    def target(x):
        if isinstance(x, str):
            return x
        return "(" + "".join(target(y) + ", " for y in x) + ")"

    return f"{target(names)} = {value}"


def _source(n: int) -> str:
    """The source of lagrangian_grad, form_value, descent_step and
    ldl_solve of dimension n >= 1."""
    if n < 1:
        raise ValueError(f"a kernel needs dimension n >= 1, got {n}")
    b, c, v, t, new_t, r, x = (
        [f"{name}{i}" for i in range(n)] for name in "b c v t new_t r x".split()
    )
    q, p, m, a = (
        [[f"{name}{i}_{j}" for j in range(n)] for i in range(n)] for name in "qpma"
    )
    form_lines, form = _form(n, "m", "v", "t", "s")
    cost_lines, cost = _form(n, "p", "c", "new_t", "half")
    consts = ", ".join(["half", *sum(q, []), *sum(p, []), *b, *c])
    kernels = {
        "lagrangian_grad(q, p, b, c, theta, lam)": [
            _unpack(q, "q"), _unpack(p, "p"), _unpack(b, "b"), _unpack(c, "c"),
            _unpack(t, "theta"),
            f"return [{', '.join(_grad(n))}]",
        ],
        "form_value(m_cols, v, theta, s)": [
            _unpack([list(col) for col in zip(*m)], "m_cols"), _unpack(v, "v"),
            _unpack(t, "theta"),
            *form_lines,
            f"return {form}",
        ],
        f"descent_step(theta, lam, eta, {consts})": [
            _unpack(t, "theta"),
            *(f"new_t{i} = t{i} - eta * ({g})" for i, g in enumerate(_grad(n))),
            *cost_lines,
            f"return ({''.join(name + ', ' for name in new_t)}), {cost}",
        ],
        "ldl_solve(a, r)": [
            _unpack(a, "a"), _unpack(r, "r"),
            *_ldl(n),
            f"return [{', '.join(x)}]",
        ],
    }
    return "".join(
        f"def {head}:\n" + "".join(f"    {line}\n" for line in body)
        for head, body in kernels.items()
    )


@functools.cache
def _kernels(n: int) -> dict:
    """The namespace of the kernels of dimension n, compiled once."""
    namespace = {"__builtins__": {}}
    exec(compile(_source(n), f"<quadprog kernels, n = {n}>", "exec"), namespace)
    return namespace


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


def _primal_min_solver(prog: QuadProgram):
    """lam -> theta*(lam) as ldl_solve's n entries: the solve of (Q + lam P)
    theta = b - lam c, floats for a float lam and numpy columns for a 1-d
    array of multipliers.  The program's entries are read once."""
    q, p, b, c = (x.tolist() for x in (prog.q, prog.p, prog.b, prog.c))

    def solve(lam) -> list:
        a = [
            [q_ij + lam * p_ij for q_ij, p_ij in zip(q_i, p_i)]
            for q_i, p_i in zip(q, p)
        ]
        return ldl_solve(a, [b_i - lam * c_i for b_i, c_i in zip(b, c)])

    return solve


def quad_primal_min(prog: QuadProgram, lam) -> np.ndarray:
    """theta*(lambda) by ldl_solve: shape (n,) for a float lam, (K, n) for a
    1-d array of K multipliers, whose row k equals the single solve at
    lam[k] bit for bit."""
    return np.stack(_primal_min_solver(prog)(lam), axis=-1)


def quad_dual_value(prog: QuadProgram, lam: float) -> float:
    """d(lambda) = L(theta*(lambda), lambda)."""
    return prog.lagrangian(quad_primal_min(prog, lam), lam)


def dual_values_batch(
    prog: QuadProgram, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (d(lambda), theta*(lambda), J_C(theta*)) over a 1-d array
    of multipliers, all solved in one stacked quad_primal_min.

    Every row is computed alone (ldl_solve, then J_R and J_C on numpy
    columns), whatever else is in the batch, so row i equals
    ``dual_values_batch(prog, lams[i:i + 1])`` bit for bit."""
    lam = np.asarray(lams, dtype=float)
    th = quad_primal_min(prog, lam)
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

    # prog.j_c(quad_primal_min(prog, lam)) - d on Python floats.
    solve, p_cols, c = _primal_min_solver(prog), prog.p.T.tolist(), prog.c.tolist()

    def violation(lam: float) -> float:
        return form_value(p_cols, c, solve(lam), 0.5) - prog.limit

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
