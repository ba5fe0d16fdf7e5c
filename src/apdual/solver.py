"""Primal-dual solver loops and numerical certificates.

apd_run is the exact-gradient loop on a problem exposing closed-form
J_R, J_C, and grad L (the quadratic testbed): one primal descent step at
the schedule's eta(lambda_k), then projected dual ascent on g(theta_{k+1}).
The testbed has one constraint, so the loop carries the multiplier as a
Python float and the ascent is max(lambda + zeta (J_C - d), 0.0).  J_R is
not needed inside the loop and is computed once afterwards over all
theta_{k+1} (QuadProgram.j_r_rows, bit-equal to j_r per row).  papd_run is
the sampled variant for CMDPs: Monte-Carlo estimates, a score-function or
clipped-surrogate primal step at the practical eta(lambda_k), and a PID
dual update on the estimated cost; it carries the m multipliers as an (m,)
array.  Each iteration samples one rollout batch, which feeds the primal
step and the dual update alike.  For tabular batches it draws the uniforms of
UNIFORM_BLOCK iterations at once with cmdp.counter_uniforms and hands each
batch its slice, so no batch builds Generators (see the cmdp module
docstring).

verify_bounds turns an exact run into a BoundCertificate by recomputing the
per-iteration primal error

    eps_k = L(theta_{k+1}, lambda_k) - d(lambda_k)

and checking, with measured slack per iteration:
  (a)  the dual-gap bound at every prefix K',
  (b)  the two per-step error bounds at the run's eta_k,
  (c)  the same bounds at their optimizing eta (and that the optimizer
       beats 0.5x and 2x perturbations),
  (d)  the average-return rate bound at every prefix.
Iterations where a bound's radicand is negative are flagged and excluded
rather than failed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

# discounted_value is no longer called here but stays importable from this
# module: perfbench/tracing.py times its calls under this name.
from .cmdp import (  # noqa: F401
    Cmdp,
    NonFiniteError,
    RolloutBatch,
    SamplingConfig,
    batch_values,
    collect_batch,
    counter_form_fits,
    counter_uniforms,
    discounted_value,
    initial_dist_draws,
    require_finite,
)
# project_nonneg is no longer called here but stays importable from this
# module: perfbench/tracing.py times its calls under this name.
from .duals import (  # noqa: F401
    PidGains,
    PidState,
    pid_dual_step,
    project_nonneg,
)
from .lagrangian import (
    ConstraintSpec,
    PpolConfig,
    advantage_batch,
    backward_sums,
    ppol_surrogate_grad,
    reinforce_grad_from_batch,
)
from .policy import PolicyParams, TabularSoftmax
from .quadprog import QuadProgram, dual_values_batch, quad_kkt_solve
from .schedules import LrSchedule, SmoothnessConstants

SHUFFLE_STREAM = 999979  # substream tag for minibatch shuffling
# papd_run draws the tabular uniforms of this many iterations at once:
# the seed hashing costs about as much for one batch as for a block.
UNIFORM_BLOCK = 64


@dataclass(frozen=True)
class SolverConfig:
    iterations: int
    schedule: LrSchedule
    dual_variant: str = "ascent"
    zeta: float | None = None
    gains: PidGains | None = None
    lambda0: np.ndarray | None = None
    theta0: object | None = None  # vector (apd) or PolicyParams (papd)
    sampling: SamplingConfig | None = None
    seed: int = 0
    algorithm: str = "reinforce"
    ppol: PpolConfig = field(default_factory=PpolConfig)
    # optional exact values for GAE: values_fn(params, batch) -> (n, H+1, 1+m)
    values_fn: object | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.dual_variant not in ("ascent", "pid"):
            raise ValueError(f"unknown dual variant {self.dual_variant!r}")
        if self.dual_variant == "ascent" and (self.zeta is None or self.zeta <= 0):
            raise ValueError("ascent dual update needs zeta > 0")
        if self.algorithm not in ("reinforce", "ppol"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


@dataclass
class RunRecord:
    """Everything a certificate needs: the full iterate sequences plus the
    per-iteration values consumed by the dual update.

    Row k holds (theta_k, lambda_k, eta_k) and the (J_R, J_C) fed to the
    k-th dual step; thetas and lambdas carry one extra terminal row.
    """

    thetas: np.ndarray
    lambdas: np.ndarray
    etas: np.ndarray
    returns: np.ndarray
    costs: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        k = self.etas.size
        if not (
            self.thetas.shape[0] == k + 1
            and self.lambdas.shape[0] == k + 1
            and self.returns.shape == (k,)
            and self.costs.shape[0] == k
        ):
            raise ValueError("inconsistent record shapes")
        if (self.lambdas < 0.0).any():
            raise ValueError("multiplier rows must be nonnegative")

    @property
    def iterations(self) -> int:
        return self.etas.size

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    @property
    def final_lambda(self) -> np.ndarray:
        return self.lambdas[-1]


def _resolve_schedule(cfg: SolverConfig, problem: QuadProgram) -> LrSchedule:
    sched = cfg.schedule
    if not sched.variant.endswith("-exact"):
        return sched
    exact = problem.smoothness()
    if sched.constants is None:
        return replace(sched, constants=exact)
    given = sched.constants
    if (
        abs(given.l_r - exact.l_r) > 1e-9
        or abs(given.mu - exact.mu) > 1e-9
        or given.l_c.shape != exact.l_c.shape
        or np.abs(given.l_c - exact.l_c).max() > 1e-9
    ):
        raise ValueError("schedule constants disagree with the problem's")
    return sched


def _initial_multiplier(lambda0, m: int) -> np.ndarray:
    """cfg.lambda0 as an (m,) array, zeros when unset.  Every later
    multiplier comes out of a projection; this one comes from outside."""
    if lambda0 is None:
        return np.zeros(m)
    lam = np.atleast_1d(np.asarray(lambda0, dtype=float))
    if lam.shape != (m,) or not (np.isfinite(lam) & (lam >= 0.0)).all():
        raise ValueError(
            f"lambda0 must be {m} finite nonnegative multiplier(s), got {lambda0!r}"
        )
    return lam


def apd_run(problem: QuadProgram, cfg: SolverConfig) -> RunRecord:
    """Exact primal descent / projected dual ascent on an analytic program."""
    eta_of = _resolve_schedule(cfg, problem).rate
    spec = problem.constraint_spec()
    k_iter = cfg.iterations

    theta = (
        np.zeros(problem.dim)
        if cfg.theta0 is None
        else np.asarray(cfg.theta0, dtype=float).copy()
    )
    # The program has one constraint, so the multiplier is a float.
    lam = float(_initial_multiplier(cfg.lambda0, 1)[0])
    zeta, limit = cfg.zeta, problem.limit
    grad, j_c_at = problem.grad_lagrangian, problem.j_c
    pid = cfg.dual_variant == "pid"
    gains = cfg.gains or PidGains()
    pid_state = PidState.zeros(1)

    thetas = np.empty((k_iter + 1, theta.size))
    lambdas = np.empty((k_iter + 1, 1))
    etas = np.empty(k_iter)
    costs = np.empty((k_iter, 1))

    start = time.perf_counter()
    # A diverging run overflows here; the screen after the loop raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_iter):
            thetas[k] = theta
            lambdas[k, 0] = lam
            eta = eta_of(lam)
            etas[k] = eta
            theta = theta - eta * grad(theta, lam)
            j_c = j_c_at(theta)
            costs[k, 0] = j_c
            if pid:
                lam_next, pid_state = pid_dual_step(
                    pid_state, gains, np.array([j_c]), spec
                )
                lam = float(lam_next[0])
            else:
                lam = max(lam + zeta * (j_c - limit), 0.0)
        thetas[k_iter] = theta
        lambdas[k_iter] = lam
        returns = problem.j_r_rows(thetas[1:])

    # One finiteness screen for the whole run, none per iteration: row k
    # holds theta_{k+1}, J_R and J_C, everything iteration k produced.
    produced = np.concatenate([thetas[1:], returns[:, None], costs], axis=1)
    try:
        require_finite("iterates", produced)
    except NonFiniteError as exc:
        k, j = (int(i) for i in np.argwhere(~np.isfinite(produced))[0])
        what = "theta" if j < theta.size else "return" if j == theta.size else "cost"
        raise NonFiniteError(
            f"seed {cfg.seed}, iteration {k}: non-finite {what}"
        ) from exc

    d_vals, _, _ = dual_values_batch(problem, lambdas[:, 0])
    best = int(np.argmax(d_vals))
    meta = {
        "kind": "apd",
        "dual": cfg.dual_variant,
        "zeta": cfg.zeta,
        "seed": cfg.seed,
        "cost_limit": spec.limits.tolist(),
        "schedule_variant": cfg.schedule.variant,
        "lambda_best": lambdas[best].tolist(),
        "dual_best": float(d_vals[best]),
        "wall_clock_s": time.perf_counter() - start,
    }
    return RunRecord(thetas, lambdas, etas, returns, costs, meta)


def _lstsq_values(cmdp: Cmdp, batch: RolloutBatch) -> np.ndarray:
    """(n, H+1, 1+m) values from a linear least-squares fit against
    discounted returns-to-go.

    Features are one-hot state indicators for tabular models and [s, 1]
    otherwise; one fit per batch, shared by reward and each cost signal.
    The returns-to-go of all trajectories come from one backward pass.
    """
    states = batch.states
    n, t, m = batch.costs.shape
    signals = np.concatenate([batch.rewards[:, :, None], batch.costs], axis=2)
    togo = backward_sums(signals, cmdp.gamma)
    if cmdp.is_tabular:
        phi = np.eye(cmdp.n_states)[states]
    else:
        phi = np.concatenate([states, np.ones(states.shape[:2] + (1,))], axis=2)
    x = phi[:, :t].reshape(n * t, -1)
    w, *_ = np.linalg.lstsq(x, togo.reshape(n * t, 1 + m), rcond=None)
    return phi @ w


def papd_run(cmdp: Cmdp, spec: ConstraintSpec, cfg: SolverConfig) -> RunRecord:
    """Sampled primal-dual loop: practical/constant schedule + PID dual."""
    if cfg.dual_variant != "pid":
        raise ValueError("papd_run uses the PID dual controller")
    if cfg.sampling is None:
        raise ValueError("papd_run needs a sampling config")
    if not isinstance(cfg.theta0, PolicyParams):
        raise ValueError("papd_run needs theta0 as PolicyParams")
    if cfg.schedule.variant.endswith("-exact"):
        raise ValueError("papd_run takes a practical or constant schedule")
    if cfg.schedule.variant.endswith("-practical") and spec.m != 1:
        raise ValueError("practical schedules are single-constraint")

    gains = cfg.gains or PidGains()
    params = cfg.theta0
    m = spec.m
    k_iter = cfg.iterations
    lam = _initial_multiplier(cfg.lambda0, m)
    pid_state = PidState.zeros(m)

    thetas = np.empty((k_iter + 1, params.theta.size))
    lambdas = np.empty((k_iter + 1, m))
    etas = np.empty(k_iter)
    returns = np.empty(k_iter)
    costs = np.empty((k_iter, m))

    start = time.perf_counter()
    uniforms = _iteration_uniforms(cmdp, params, cfg)
    for k in range(k_iter):
        thetas[k] = params.theta
        lambdas[k] = lam
        # Practical schedules have one constraint; a constant one ignores lam.
        eta = cfg.schedule.rate(lam[0])
        etas[k] = eta
        try:
            params, j_r_hat, j_c_hat = _papd_iteration(
                cmdp, params, lam, spec, cfg, eta, k, next(uniforms)
            )
        except NonFiniteError as exc:
            raise NonFiniteError(f"seed {cfg.seed}, iteration {k}: {exc}") from exc

        returns[k] = j_r_hat
        costs[k] = j_c_hat
        lam, pid_state = pid_dual_step(pid_state, gains, j_c_hat, spec)
    thetas[k_iter] = params.theta
    lambdas[k_iter] = lam

    meta = {
        "kind": "papd",
        "dual": "pid",
        "zeta": None,
        "gains": [gains.k_p, gains.k_i, gains.k_d],
        "seed": cfg.seed,
        "algorithm": cfg.algorithm,
        "cost_limit": spec.limits.tolist(),
        "schedule_variant": cfg.schedule.variant,
        "wall_clock_s": time.perf_counter() - start,
    }
    return RunRecord(thetas, lambdas, etas, returns, costs, meta)


def _iteration_uniforms(cmdp: Cmdp, params: PolicyParams, cfg: SolverConfig):
    """Per iteration k, the (n, H, 1 + noise_dim) counter uniforms of the
    batch rooted at (seed, k), drawn UNIFORM_BLOCK iterations at a time;
    None throughout, so that collect_batch builds Generators, unless the
    policy is tabular, initial_dist draws nothing and the seeds fit the
    counter form."""
    if not (
        isinstance(params.kind, TabularSoftmax)
        and counter_form_fits((cfg.seed, cfg.iterations - 1))
        and not initial_dist_draws(cmdp)
    ):
        yield from itertools.repeat(None, cfg.iterations)
        return
    n, horizon = cfg.sampling.n_traj, cfg.sampling.horizon
    width = 1 + cmdp.vector_step.noise_dim
    for lo in range(0, cfg.iterations, UNIFORM_BLOCK):
        ks = range(lo, min(lo + UNIFORM_BLOCK, cfg.iterations))
        block = counter_uniforms([(cfg.seed, k) for k in ks], n, horizon * width)
        yield from block.reshape(len(ks), n, horizon, width)


def _papd_iteration(
    cmdp: Cmdp,
    params: PolicyParams,
    lam: np.ndarray,
    spec: ConstraintSpec,
    cfg: SolverConfig,
    eta: float,
    k: int,
    uniforms: np.ndarray | None,
) -> tuple[PolicyParams, float, np.ndarray]:
    """Primal step k of papd_run: (new params, J_R estimate, J_C estimate).

    ``uniforms`` holds the counter uniforms of the batch, or None to sample
    with Generators.  Raises NonFiniteError when a sample, the estimates or
    theta turn non-finite."""
    batch = collect_batch(cmdp, params, cfg.sampling, (cfg.seed, k), uniforms)
    returns, cost_vals = batch_values(batch, cmdp.gamma)

    if cfg.algorithm == "reinforce":
        grad = reinforce_grad_from_batch(
            batch, cmdp.gamma, params, lam, spec, (returns, cost_vals)
        )
        params = params.replace_theta(params.theta - eta * grad)
    else:
        params = _ppol_update(cmdp, params, batch, lam, cfg, eta, k)
    require_finite("theta", params.theta)
    require_finite("return estimates", returns)
    require_finite("cost estimates", cost_vals)
    return params, float(returns.mean()), cost_vals.mean(axis=0)


def _ppol_update(
    cmdp: Cmdp,
    params: PolicyParams,
    batch: RolloutBatch,
    lam: np.ndarray,
    cfg: SolverConfig,
    eta: float,
    k: int,
) -> PolicyParams:
    if cfg.values_fn is not None:
        values = cfg.values_fn(params, batch)
    else:
        values = _lstsq_values(cmdp, batch)
    samples = advantage_batch(batch, params, cmdp.gamma, cfg.ppol, values)
    rng = np.random.default_rng((cfg.seed, k, SHUFFLE_STREAM))
    n = len(samples)
    mb = min(cfg.ppol.minibatch_size, n)
    for _ in range(cfg.ppol.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, mb):
            sub = samples[order[lo : lo + mb]]
            grad = ppol_surrogate_grad(sub, params, lam, cfg.ppol)
            params = params.replace_theta(params.theta + eta * grad)
    return params


def dual_asymptotic_term(
    cost_bound: float, gamma: float, limits: np.ndarray, zeta: float
) -> float:
    """The K-independent term of the dual-gap bound,
    zeta (B + (1-gamma) ||d||)^2 / (2 (1-gamma)^2)."""
    norm_d = float(np.linalg.norm(np.atleast_1d(limits)))
    return zeta * (cost_bound + (1.0 - gamma) * norm_d) ** 2 / (
        2.0 * (1.0 - gamma) ** 2
    )


@dataclass
class BoundCertificate:
    """Measured per-iteration slacks (bound minus requirement, so valid
    means >= -tol), NaN where a check does not apply at that iteration."""

    slacks: dict
    flags: dict
    eps: np.ndarray
    delta: np.ndarray
    l_prime: float
    g_norm: float
    d_star: float
    lambda_star: float
    tol: float

    @property
    def passed(self) -> bool:
        for arr in self.slacks.values():
            if arr.size and not np.all(np.isnan(arr)):
                if np.nanmin(arr) < -self.tol:
                    return False
        return True

    def worst(self) -> dict:
        out = {}
        for name, arr in self.slacks.items():
            if arr.size and not np.all(np.isnan(arr)):
                out[name] = float(np.nanmin(arr))
            else:
                out[name] = None
        return out

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "l_prime": self.l_prime,
            "g_norm": self.g_norm,
            "d_star": self.d_star,
            "lambda_star": self.lambda_star,
            "worst_slack": self.worst(),
            "flagged_iterations": {
                name: int(flag.sum()) for name, flag in self.flags.items()
            },
        }


def verify_bounds(
    record: RunRecord,
    problem: QuadProgram,
    constants: SmoothnessConstants | None = None,
    zeta: float | None = None,
    tol: float = 1e-9,
) -> BoundCertificate:
    """Check every proved inequality against an exact-run record."""
    if record.meta.get("kind") != "apd":
        raise ValueError("bound certificates require an exact (apd) record")
    if record.meta.get("dual") != "ascent":
        raise ValueError("bound certificates require the ascent dual update")
    c = constants or problem.smoothness()
    if zeta is None:
        zeta = record.meta["zeta"]
    mu = c.mu
    l_c0 = float(c.l_c[0])

    k_iter = record.iterations
    lam_all = record.lambdas[:, 0]
    lam_k = lam_all[:-1]
    etas = record.etas
    limit = problem.limit

    # Closed-form minimizers and dual values at every recorded multiplier.
    d_all, theta_star_all, _ = dual_values_batch(problem, lam_all)
    theta_star = theta_star_all[:-1]

    th_prev = record.thetas[:-1]
    th_next = record.thetas[1:]

    def quad_form(th, mat):
        return np.einsum("ki,ij,kj->k", th, mat, th)

    j_r_next = -0.5 * quad_form(th_next, problem.q) + th_next @ problem.b
    j_c_next = 0.5 * quad_form(th_next, problem.p) + th_next @ problem.c
    lag_next = -j_r_next + lam_k * (j_c_next - limit)
    eps = lag_next - d_all[:-1]
    delta = ((th_prev - theta_star) ** 2).sum(axis=1)

    big_l = c.l_r + lam_k * l_c0
    a_stack = problem.q[None, :, :] + lam_k[:, None, None] * problem.p[None, :, :]
    rhs = problem.b[None, :] - lam_k[:, None] * problem.c[None, :]
    grad_prev = np.einsum("kij,kj->ki", a_stack, th_prev) - rhs
    grad_next = np.einsum("kij,kj->ki", a_stack, th_next) - rhs
    gn_prev = np.linalg.norm(grad_prev, axis=1)
    gn_next = np.linalg.norm(grad_next, axis=1)

    if c.l_lip is not None:
        l_prime = c.l_lip
    else:
        # Lagrangian-value Lipschitz constant over the iterate hull: the
        # largest gradient norm seen at any endpoint, with 10% headroom.
        l_prime = 1.1 * float(max(gn_prev.max(initial=0.0), gn_next.max(initial=0.0)))

    g_rows = record.costs[:, 0] - limit
    g_norm = float(np.abs(g_rows).max(initial=0.0))

    kkt = quad_kkt_solve(problem)
    prefixes = np.arange(1, k_iter + 1, dtype=float)
    eps_csum = np.cumsum(eps)

    # (a) dual-gap bound at every prefix K'.
    best_d = np.maximum.accumulate(d_all)[1:]
    lhs_dual = kkt.dual_opt - best_d
    lam0_dist = float(np.abs(lam_all[0] - kkt.lambda_star))
    rhs_dual = (
        lam0_dist**2 / (2.0 * zeta * prefixes)
        + zeta * g_norm**2 / 2.0
        + eps_csum / prefixes
    )
    slack_dual = rhs_dual - lhs_dual

    def error_bounds(eta):
        rad1 = (2.0 / mu) * (big_l * delta + (big_l * eta**2 - eta) * gn_prev**2)
        rad2 = (1.0 + eta**2 * big_l**2 - eta * mu) * delta
        b1 = np.where(rad1 >= 0.0, l_prime * np.sqrt(np.maximum(rad1, 0.0)), np.nan)
        b2 = np.where(rad2 >= 0.0, l_prime * np.sqrt(np.maximum(rad2, 0.0)), np.nan)
        return b1, b2, rad1 < 0.0, rad2 < 0.0

    # (b) per-step bounds at the eta the run actually used.
    b1_run, b2_run, f1_run, f2_run = error_bounds(etas)
    slack_run_lin = b1_run - eps
    slack_run_qua = b2_run - eps

    # (c) bounds at the optimizing eta, where the run used it.
    eta1 = 1.0 / (2.0 * big_l)
    eta2 = mu / (2.0 * big_l**2)
    app1 = np.abs(etas - eta1) <= 1e-9 * eta1
    app2 = np.abs(etas - eta2) <= 1e-9 * eta2
    bound_opt_lin = l_prime * np.sqrt((2.0 * delta / mu) * (big_l - mu**2 / (16.0 * big_l)))
    bound_opt_qua = l_prime * np.sqrt(delta * (1.0 - mu**2 / (4.0 * big_l**2)))
    slack_eps_opt_lin = np.where(app1, bound_opt_lin - eps, np.nan)
    slack_eps_opt_qua = np.where(app2, bound_opt_qua - eps, np.nan)

    # Optimizer beats its 0.5x and 2x perturbations (checked at every
    # iteration; the comparison is between bound formulas, not the run).
    b1_half, _, f1_half, _ = error_bounds(0.5 * eta1)
    b1_double, _, f1_double, _ = error_bounds(2.0 * eta1)
    b1_star, _, f1_star, _ = error_bounds(eta1)
    _, b2_half, _, f2_half = error_bounds(0.5 * eta2)
    _, b2_double, _, f2_double = error_bounds(2.0 * eta2)
    _, b2_star, _, f2_star = error_bounds(eta2)
    ok1 = ~(f1_half | f1_double | f1_star)
    ok2 = ~(f2_half | f2_double | f2_star)
    slack_opt1 = np.where(ok1, np.minimum(b1_half, b1_double) - b1_star, np.nan)
    slack_opt2 = np.where(ok2, np.minimum(b2_half, b2_double) - b2_star, np.nan)

    # (d) average-return rate bound at every prefix.
    j_r_opt = problem.j_r(kkt.theta_star)
    avg_ret = np.cumsum(record.returns) / prefixes
    lam0_norm = float(np.abs(lam_all[0]))
    rhs_rate = (
        j_r_opt
        - eps_csum / prefixes
        - zeta * g_norm**2 / 2.0
        - lam0_norm**2 / (2.0 * zeta * prefixes)
    )
    slack_rate = avg_ret - rhs_rate

    slacks = {
        "dual-gap": slack_dual,
        "eps-invlin": slack_run_lin,
        "eps-invqua": slack_run_qua,
        "eps-opt-invlin": slack_eps_opt_lin,
        "eps-opt-invqua": slack_eps_opt_qua,
        "opt-invlin": slack_opt1,
        "opt-invqua": slack_opt2,
        "rate": slack_rate,
    }
    flags = {
        "eps-invlin": f1_run,
        "eps-invqua": f2_run,
        "opt-invlin": ~ok1,
        "opt-invqua": ~ok2,
    }
    return BoundCertificate(
        slacks=slacks,
        flags=flags,
        eps=eps,
        delta=delta,
        l_prime=float(l_prime),
        g_norm=g_norm,
        d_star=float(kkt.dual_opt),
        lambda_star=float(kkt.lambda_star),
        tol=tol,
    )


@dataclass
class FeasibilityReport:
    running_avg: np.ndarray
    full_avg: np.ndarray
    window_avg: np.ndarray
    limits: np.ndarray
    tol: float
    passed: bool
    envelope_slack: np.ndarray | None = None
    envelope_ok: bool | None = None


def feasibility_check(
    record: RunRecord, spec: ConstraintSpec, window: float = 0.2, tol: float = 1e-2
) -> FeasibilityReport:
    """Average-feasibility report.

    Passes iff both the full-run average and the trailing-window average of
    J_C are within d + tol, componentwise.  For ascent records the exact
    transient envelope avg(g)[K'] <= (lambda_K' - lambda_0)/(zeta K') is
    also evaluated; envelope_ok checks it from 10% of the run onward.
    """
    k_iter = record.iterations
    if k_iter == 0:
        raise ValueError("empty record")
    if not 0.0 < window <= 1.0:
        raise ValueError("window must lie in (0, 1]")
    counts = np.arange(1, k_iter + 1, dtype=float)[:, None]
    running = np.cumsum(record.costs, axis=0) / counts
    tail = max(1, int(round(window * k_iter)))
    window_avg = record.costs[-tail:].mean(axis=0)
    full_avg = running[-1]
    passed = bool(
        (full_avg <= spec.limits + tol).all()
        and (window_avg <= spec.limits + tol).all()
    )

    env_slack = None
    env_ok = None
    if record.meta.get("dual") == "ascent" and record.meta.get("zeta"):
        zeta = record.meta["zeta"]
        envelope = (record.lambdas[1:] - record.lambdas[0]) / (zeta * counts)
        env_slack = envelope - (running - spec.limits)
        start = max(1, int(np.ceil(0.1 * k_iter))) - 1
        env_ok = bool((env_slack[start:] >= -1e-9).all())
    return FeasibilityReport(
        running_avg=running,
        full_avg=full_avg,
        window_avg=window_avg,
        limits=spec.limits,
        tol=tol,
        passed=passed,
        envelope_slack=env_slack,
        envelope_ok=env_ok,
    )
