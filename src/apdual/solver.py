"""Primal-dual solver loops and numerical certificates.

apd_run is the exact-gradient loop on a problem exposing closed-form J_R,
J_C, and grad L (the quadratic testbed): one primal descent step at the
schedule's eta(lambda_k), then projected dual ascent on g(theta_{k+1}) at
rate cfg.zeta.  The loop runs on Python floats: theta is n floats, the one
constraint's multiplier a float, and the ascent is
duals.project_nonneg(lambda + zeta (J_C - d)), the projection the PID
uses.  The descent step and J_C of the new theta come from one call of
quadprog.descent_step's kernel, bound once per run: straight-line Python on
floats in the one fixed order of arithmetic that the QuadProgram methods
also use, with no BLAS and so no fused multiply-add.  Each iteration
appends its theta, lambda, eta and J_C to array.array('d') buffers.  The
loop stops once the state (theta_k, lambda_k) repeats bit for bit with
period 1 or 2, and the record's arrays are gathered from the buffers by the
row index of that cycle (see apd_run).
J_R is not needed inside the loop and is computed once afterwards over all
theta_{k+1} (QuadProgram.j_r on the stack, bit-equal to j_r per row).
papd_run is the sampled variant for CMDPs: Monte-Carlo estimates, a
score-function (cfg.ppol None) or clipped-surrogate primal step at the
practical eta(lambda_k), and a PID dual update (cfg.gains) on the estimated
cost; like apd_run it carries one float multiplier and one cost signal,
against the float limit d.  Each iteration
samples one rollout batch, which feeds the primal step and the dual update
alike.  Iteration k's batch draws its variates at Philox key (seed, k),
and a PPO iteration its shuffle orders at the same key and
cmdp.SHUFFLE_COUNTER (see the cmdp module docstring), all from the one
Generator of cmdp.philox, so no iteration builds a Generator.

verify_bounds turns an exact run into a BoundCertificate by computing the
per-iteration primal error

    eps_k = L(theta_{k+1}, lambda_k) - d(lambda_k)

from the record's J_R and J_C of theta_{k+1} and dual_values_batch, the
gradient norms at theta_k and theta_{k+1} from QuadProgram.grad_lagrangian
on the stacked iterates, and checking, with measured slack per iteration:
  (a)  the dual-gap bound at every prefix K',
  (b)  the two per-step error bounds at the run's eta_k,
  (c)  the same bounds at their optimizing eta (and that the optimizer
       beats 0.5x and 2x perturbations),
  (d)  the average-return rate bound at every prefix.
Iterations where a bound's radicand is negative are flagged and excluded
rather than failed.

feasibility_check is the one place that applies the final-window rule: its
report carries the window averages of J_R and J_C, the batch-means SE of
the window cost, the full-run average cost, the average-feasibility verdict
and, for apd runs, the transient envelope.
"""

from __future__ import annotations

import math
import numbers
import struct
import time
from array import array
from dataclasses import dataclass, replace

import numpy as np

# discounted_value is not called here but stays importable from this module:
# perfbench/tracing.py times its calls under this name.
from .cmdp import (  # noqa: F401
    SHUFFLE_COUNTER,
    Cmdp,
    NonFiniteError,
    RolloutBatch,
    SamplingConfig,
    batch_values,
    collect_batch,
    discounted_value,
    philox,
    require_finite,
)
from .duals import PidGains, PidState, pid_dual_step, project_nonneg
from .lagrangian import (
    PpolConfig,
    advantage_batch,
    backward_sums,
    ppol_surrogate_grad,
    reinforce_grad_from_batch,
)
from .policy import PolicyParams, TabularSoftmax, softmax_table
from .quadprog import (
    QuadProgram,
    descent_step,
    dual_values_batch,
    quad_kkt_solve,
)
from .schedules import LrSchedule, SmoothnessConstants

CERT_TOL = 1e-9  # a certificate passes when no slack is below -CERT_TOL


@dataclass(frozen=True)
class SolverConfig:
    iterations: int
    schedule: LrSchedule
    zeta: float | None = None  # apd_run's dual ascent rate
    gains: PidGains = PidGains()  # papd_run's PID dual
    lambda0: float | None = None
    theta0: object | None = None  # vector (apd) or PolicyParams (papd)
    sampling: SamplingConfig | None = None
    seed: int = 0
    ppol: PpolConfig | None = None  # papd_run's primal step; None is REINFORCE
    # optional exact values for GAE: values_fn(params, batch) -> (n, H+1, 2)
    values_fn: object | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class RunRecord:
    """Everything a certificate needs: the full iterate sequences plus the
    per-iteration values consumed by the dual update.

    Row k holds (theta_k, lambda_k, eta_k) and the (J_R, J_C) fed to the
    k-th dual step; thetas and lambdas carry one extra terminal row.
    lambdas (K+1, 1) and costs (K, 1) keep a constraint axis of width one,
    the layout perfbench/gate.py reads.
    cycle = (start, period) says that every row from start on, terminal row
    included, equals its row in [start, start + period) (cycle_index).
    """

    thetas: np.ndarray
    lambdas: np.ndarray
    etas: np.ndarray
    returns: np.ndarray
    costs: np.ndarray
    meta: dict
    cycle: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        k = self.etas.size
        if not (
            self.thetas.shape[0] == k + 1
            and self.lambdas.shape[0] == k + 1
            and self.returns.shape == (k,)
            and self.costs.shape[0] == k
        ):
            raise ValueError("inconsistent record shapes")
        if self.lambdas.shape[1:] != (1,) or self.costs.shape[1:] != (1,):
            raise ValueError(
                "a record is single-constraint: lambdas and costs need one column"
            )
        if (self.lambdas < 0.0).any():
            raise ValueError("multiplier rows must be nonnegative")
        cyc = self.cycle
        if cyc is not None and not (
            isinstance(cyc, tuple) and len(cyc) == 2
            and all(isinstance(v, (int, np.integer)) for v in cyc)
            and cyc[0] >= 0 and cyc[1] >= 1 and cyc[0] + cyc[1] <= k
        ):
            raise ValueError(
                "cycle must be integers (start, period), start >= 0, period"
                f" >= 1, start + period <= iterations = {k}; got {cyc!r}"
            )

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
        or abs(given.l_c - exact.l_c) > 1e-9
    ):
        raise ValueError("schedule constants disagree with the problem's")
    return sched


def _initial_multiplier(lambda0) -> float:
    """cfg.lambda0 as a float, 0.0 when unset.  Every later multiplier comes
    out of a projection; this one comes from outside."""
    if lambda0 is None:
        return 0.0
    if not (isinstance(lambda0, numbers.Real) and 0.0 <= lambda0 < math.inf):
        raise ValueError(
            f"lambda0 must be a finite nonnegative number, got {lambda0!r}"
        )
    return float(lambda0)


def cycle_index(rows: int, cycle: tuple[int, int] | None) -> tuple[np.ndarray, int]:
    """(idx, end) over a record's first ``rows`` rows: row m equals row
    idx[m] < end.  A RunRecord ``cycle`` (start, period) gives idx[m] =
    start + (m - start) % period from start on and end = start + period;
    None gives the identity and end = rows."""
    idx = np.arange(rows)
    if cycle is None:
        return idx, rows
    start, period = cycle
    idx[start:] = start + (idx[start:] - start) % period
    return idx, start + period


def apd_run(problem: QuadProgram, cfg: SolverConfig) -> RunRecord:
    """Exact primal descent / projected dual ascent on an analytic program.

    The loop stops early once the state (theta_k, lambda_k) repeats bit for
    bit the state of iteration k - 1 or k - 2.  The step reads nothing but
    the state, so from then on the run cycles with that period: the record's
    cycle is (k - period, period), and its arrays are gathered by
    cycle_index from the k rows computed.  A converged testbed run reaches
    such a repeat within its first few thousand iterations; the record is
    the same as the full loop's, bit for bit.
    """
    if cfg.zeta is None or cfg.zeta <= 0:
        raise ValueError("apd_run's dual ascent needs zeta > 0")
    eta_of = _resolve_schedule(cfg, problem).rate
    k_iter, n = cfg.iterations, problem.dim

    theta0 = np.zeros(n) if cfg.theta0 is None else np.asarray(cfg.theta0, dtype=float)
    if theta0.shape != (n,):
        raise ValueError(f"theta0 must have shape ({n},), got {theta0.shape}")
    theta = theta0.tolist()
    lam = _initial_multiplier(cfg.lambda0)
    zeta, limit = cfg.zeta, problem.limit
    step = descent_step(problem)

    theta_rows, lambda_rows = array("d"), array("d")
    eta_rows, cost_rows = array("d"), array("d")

    # The state (theta_k, lambda_k) as the bytes of n + 1 C doubles, so that
    # 0.0 and -0.0 differ and a NaN equals its own bits.
    pack = struct.Struct(f"{n + 1}d").pack
    last = before_last = cycle = None

    start = time.perf_counter()
    # A diverging run overflows to inf or nan here; the screen after the
    # loop raises.
    for k in range(k_iter):
        state = pack(*theta, lam)
        if state == last or state == before_last:
            # Row k and the state after it depend only on the state, so
            # every row from here on repeats the row one period back.
            period = 1 if state == last else 2
            cycle = (k - period, period)
            break
        before_last, last = last, state
        theta_rows.extend(theta)
        lambda_rows.append(lam)
        eta = eta_of(lam)
        eta_rows.append(eta)
        theta, j_c = step(theta, lam, eta)
        cost_rows.append(j_c)
        lam = project_nonneg(lam + zeta * (j_c - limit))
    theta_rows.extend(theta)
    lambda_rows.append(lam)

    rows, _ = cycle_index(k_iter + 1, cycle)
    thetas = np.frombuffer(theta_rows).reshape(-1, n)[rows]
    lambdas = np.frombuffer(lambda_rows).reshape(-1, 1)[rows]
    etas = np.frombuffer(eta_rows)[rows[:-1]]
    costs = np.frombuffer(cost_rows).reshape(-1, 1)[rows[:-1]]
    with np.errstate(over="ignore", invalid="ignore"):
        returns = problem.j_r(thetas[1:])

    # One finiteness screen for the whole run, none per iteration: row k
    # holds theta_{k+1}, J_R and J_C, everything iteration k produced.
    produced = np.concatenate([thetas[1:], returns[:, None], costs], axis=1)
    try:
        require_finite("iterates", produced)
    except NonFiniteError as exc:
        k, j = (int(i) for i in np.argwhere(~np.isfinite(produced))[0])
        what = "theta" if j < n else "return" if j == n else "cost"
        raise NonFiniteError(
            f"seed {cfg.seed}, iteration {k}: non-finite {what}"
        ) from exc

    meta = {
        "kind": "apd",
        "dual": "ascent",
        "zeta": cfg.zeta,
        "seed": cfg.seed,
        "cost_limit": [limit],
        "schedule_variant": cfg.schedule.variant,
        "wall_clock_s": time.perf_counter() - start,
    }
    return RunRecord(thetas, lambdas, etas, returns, costs, meta, cycle)


def _lstsq_values(cmdp: Cmdp, batch: RolloutBatch) -> np.ndarray:
    """(n, H+1, 2) values, reward then cost, from a linear least-squares fit
    against discounted returns-to-go.

    Features are one-hot state indicators for tabular models and [s, 1]
    otherwise; one fit per batch, shared by reward and cost.
    The returns-to-go of all trajectories come from one backward pass.
    """
    states = batch.states
    n, t = batch.costs.shape
    signals = np.stack([batch.rewards, batch.costs], axis=2)
    togo = backward_sums(signals, cmdp.gamma)
    if cmdp.is_tabular:
        phi = np.eye(cmdp.n_states)[states]
    else:
        phi = np.concatenate([states, np.ones(states.shape[:2] + (1,))], axis=2)
    x = phi[:, :t].reshape(n * t, -1)
    w, *_ = np.linalg.lstsq(x, togo.reshape(n * t, 2), rcond=None)
    return phi @ w


def papd_run(cmdp: Cmdp, limit: float, cfg: SolverConfig) -> RunRecord:
    """Sampled primal-dual loop against the cost limit d = ``limit``:
    practical/constant schedule + PID dual."""
    if cfg.sampling is None:
        raise ValueError("papd_run needs a sampling config")
    if not isinstance(cfg.theta0, PolicyParams):
        raise ValueError("papd_run needs theta0 as PolicyParams")
    if cfg.schedule.variant.endswith("-exact"):
        raise ValueError("papd_run takes a practical or constant schedule")
    if not 0 <= cfg.seed < 2**32:
        raise ValueError(f"seed {cfg.seed} outside [0, 2^32)")

    params = cfg.theta0
    k_iter = cfg.iterations
    lam = _initial_multiplier(cfg.lambda0)
    pid_state = PidState()

    thetas = np.empty((k_iter + 1, params.theta.size))
    lambdas = np.empty((k_iter + 1, 1))
    etas = np.empty(k_iter)
    returns = np.empty(k_iter)
    costs = np.empty((k_iter, 1))

    start = time.perf_counter()
    for k in range(k_iter):
        thetas[k] = params.theta
        lambdas[k] = lam
        eta = cfg.schedule.rate(lam)
        etas[k] = eta
        try:
            params, j_r_hat, j_c_hat = _papd_iteration(
                cmdp, params, lam, limit, cfg, eta, k
            )
        except (NonFiniteError, RuntimeWarning, FloatingPointError) as exc:
            # RuntimeWarning and FloatingPointError arrive here when numpy's
            # floating-point warnings are errors (-W error, np.errstate).  After
            # an underflow every value is still finite.
            kind = FloatingPointError if "underflow" in str(exc) else NonFiniteError
            raise kind(f"seed {cfg.seed}, iteration {k}: {exc}") from exc

        returns[k] = j_r_hat
        costs[k] = j_c_hat
        lam, pid_state = pid_dual_step(pid_state, cfg.gains, j_c_hat, limit)
    thetas[k_iter] = params.theta
    lambdas[k_iter] = lam

    meta = {
        "kind": "papd",
        "dual": "pid",
        "zeta": None,
        "gains": [cfg.gains.k_p, cfg.gains.k_i, cfg.gains.k_d],
        "seed": cfg.seed,
        "algorithm": "reinforce" if cfg.ppol is None else "ppol",
        "cost_limit": [float(limit)],
        "schedule_variant": cfg.schedule.variant,
        "wall_clock_s": time.perf_counter() - start,
    }
    return RunRecord(thetas, lambdas, etas, returns, costs, meta)


def _papd_iteration(
    cmdp: Cmdp,
    params: PolicyParams,
    lam: float,
    limit: float,
    cfg: SolverConfig,
    eta: float,
    k: int,
) -> tuple[PolicyParams, float, float]:
    """Primal step k of papd_run: (new params, J_R estimate, J_C estimate).

    A tabular iteration computes its softmax table once, for the batch's
    actions and the REINFORCE scores alike.  Raises NonFiniteError when a
    sample, the estimates or theta turn non-finite."""
    probs = softmax_table(params) if isinstance(params.kind, TabularSoftmax) else None
    batch = collect_batch(cmdp, params, cfg.sampling, (cfg.seed, k), probs)
    returns, cost_vals = batch_values(batch, cmdp.gamma)

    if cfg.ppol is None:
        grad = reinforce_grad_from_batch(
            batch, cmdp.gamma, params, lam, limit, (returns, cost_vals), probs
        )
        params = params.replace_theta(params.theta - eta * grad)
    else:
        params = _ppol_update(cmdp, params, batch, lam, cfg, eta, k)
    require_finite("theta", params.theta)
    require_finite("return estimates", returns)
    require_finite("cost estimates", cost_vals)
    # The sums and divisions np.mean runs, without its dispatch.
    n = len(returns)
    return params, float(returns.sum() / n), float(cost_vals.sum() / n)


def _ppol_update(
    cmdp: Cmdp,
    params: PolicyParams,
    batch: RolloutBatch,
    lam: float,
    cfg: SolverConfig,
    eta: float,
    k: int,
) -> PolicyParams:
    """The PPO primal step of iteration k: one minibatch ascent step per
    minibatch_size slice of each epoch's shuffle order, drawn in turn from
    the stream at key (seed, k) and SHUFFLE_COUNTER."""
    if cfg.values_fn is not None:
        values = cfg.values_fn(params, batch)
    else:
        values = _lstsq_values(cmdp, batch)
    samples = advantage_batch(batch, params, cmdp.gamma, cfg.ppol, values)
    n = len(samples)
    mb = min(cfg.ppol.minibatch_size, n)
    shuffle = philox((cfg.seed, k), SHUFFLE_COUNTER)
    orders = [shuffle.permutation(n) for _ in range(cfg.ppol.epochs)]
    for order in orders:
        for lo in range(0, n, mb):
            grad = ppol_surrogate_grad(
                samples, order[lo : lo + mb], params, lam, cfg.ppol
            )
            params = params.replace_theta(params.theta + eta * grad)
    return params


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
        return all(w is None or w >= -self.tol for w in self.worst().values())

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
) -> BoundCertificate:
    """Check every proved inequality against an exact-run record."""
    if record.meta.get("kind") != "apd":
        raise ValueError("bound certificates require an exact (apd) record")
    c = constants or problem.smoothness()
    zeta = record.meta["zeta"]
    mu = c.mu

    k_iter = record.iterations
    lam_all = record.lambdas[:, 0]
    lam_k = lam_all[:-1]
    etas = record.etas
    limit = problem.limit

    # Iteration rows [0, end) and state rows [0, end] hold every distinct
    # row; the per-row work runs on them alone.
    rows, end = cycle_index(k_iter, record.cycle)
    states, _ = cycle_index(k_iter + 1, record.cycle)
    lam = lam_all[: end + 1]
    th = record.thetas[: end + 1]

    # Closed-form minimizers and dual values at every distinct multiplier.
    d, theta_star, _ = dual_values_batch(problem, lam)
    d_all = d[states]
    delta = ((th[:-1] - theta_star[:-1]) ** 2).sum(axis=1)[rows]

    # The record's returns and costs are J_R and J_C of theta_{k+1}.
    g_rows = record.costs[:, 0] - limit
    eps = -record.returns + lam_k * g_rows - d_all[:-1]

    big_l = c.l_r + lam_k * c.l_c
    gn_prev = np.linalg.norm(problem.grad_lagrangian(th[:-1], lam[:-1]), axis=1)
    gn_next = np.linalg.norm(problem.grad_lagrangian(th[1:], lam[:-1]), axis=1)

    # Lagrangian-value Lipschitz constant over the iterate hull: the
    # largest gradient norm seen at any endpoint, with 10% headroom.
    l_prime = 1.1 * float(max(gn_prev.max(initial=0.0), gn_next.max(initial=0.0)))
    gn_prev = gn_prev[rows]

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

    def error_bound(rad):
        """(L' sqrt(rad), NaN where rad < 0) and the flags rad < 0."""
        bound = np.where(rad >= 0.0, l_prime * np.sqrt(np.maximum(rad, 0.0)), np.nan)
        return bound, rad < 0.0

    def invlin_bound(eta):
        return error_bound(
            (2.0 / mu) * (big_l * delta + (big_l * eta**2 - eta) * gn_prev**2)
        )

    def invqua_bound(eta):
        return error_bound((1.0 + eta**2 * big_l**2 - eta * mu) * delta)

    # (b) per-step bounds at the eta the run actually used.
    b1_run, f1_run = invlin_bound(etas)
    b2_run, f2_run = invqua_bound(etas)
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
    b1_half, f1_half = invlin_bound(0.5 * eta1)
    b1_double, f1_double = invlin_bound(2.0 * eta1)
    b1_star, f1_star = invlin_bound(eta1)
    b2_half, f2_half = invqua_bound(0.5 * eta2)
    b2_double, f2_double = invqua_bound(2.0 * eta2)
    b2_star, f2_star = invqua_bound(eta2)
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
        tol=CERT_TOL,
    )


WINDOW_BATCHES = 20  # at most this many batch means behind window_se
FEASIBILITY_TOL = 1e-2  # feasible: average costs within d + FEASIBILITY_TOL


@dataclass
class FeasibilityReport:
    full_avg: float
    window_avg: float
    window_return: float
    window_se: float
    passed: bool
    envelope_slack: np.ndarray | None = None
    envelope_ok: bool | None = None


def feasibility_check(
    record: RunRecord, limit: float, window: float = 0.2
) -> FeasibilityReport:
    """Average-feasibility report against the cost limit d = ``limit``, and
    every final-window statistic.

    The window is the last L = max(1, round(window * K)) iterations.
    window_avg and window_return average J_C and J_R over it; window_se is
    the batch-means SE of window_avg: std(means, ddof=1) / sqrt(b) of b =
    min(WINDOW_BATCHES, L) equal consecutive batches of the last b * (L // b)
    costs, and 0 when b < 2.

    Passes iff both the full-run average and the window average of J_C are
    within d + FEASIBILITY_TOL.  For apd records the exact transient
    envelope avg(g)[K'] <= (lambda_K' - lambda_0)/(zeta K') is also
    evaluated; envelope_ok checks it from 10% of the run onward.
    """
    k_iter = record.iterations
    if k_iter == 0:
        raise ValueError("empty record")
    if not 0.0 < window <= 1.0:
        raise ValueError("window must lie in (0, 1]")
    costs = record.costs[:, 0]
    counts = np.arange(1, k_iter + 1, dtype=float)
    running = np.cumsum(costs) / counts
    tail = max(1, int(round(window * k_iter)))
    window_avg = float(costs[-tail:].mean())
    b = min(WINDOW_BATCHES, tail)
    size = tail // b
    means = costs[-b * size :].reshape(b, size).mean(axis=1)
    se = float(means.std(ddof=1) / np.sqrt(b)) if b > 1 else 0.0
    full_avg = float(running[-1])
    bound = limit + FEASIBILITY_TOL
    passed = full_avg <= bound and window_avg <= bound

    env_slack = None
    env_ok = None
    if record.meta.get("kind") == "apd":
        zeta = record.meta["zeta"]
        lambdas = record.lambdas[:, 0]
        envelope = (lambdas[1:] - lambdas[0]) / (zeta * counts)
        env_slack = envelope - (running - limit)
        start = max(1, int(np.ceil(0.1 * k_iter))) - 1
        env_ok = bool((env_slack[start:] >= -1e-9).all())
    return FeasibilityReport(
        full_avg=full_avg,
        window_avg=window_avg,
        window_return=float(record.returns[-tail:].mean()),
        window_se=se,
        passed=passed,
        envelope_slack=env_slack,
        envelope_ok=env_ok,
    )
