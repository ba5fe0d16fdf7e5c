"""Experiment harness: JSON configs, seed fan-out, sweeps, persistence.

A config is a JSON object with a versioned ``schema_version`` (currently 1):

    {
      "schema_version": 1,
      "task": "testbed" | "gridworld" | "point-run" | "point-circle",
      "algorithm": "apd" | "papd-reinforce" | "papd-ppol",
      "iterations": 10000,
      "seeds": [0, 1, 2],
      "cost_limit": 0.5,
      "gamma": 0.99,                      // ignored by the testbed
      "schedule": {"variant": "invlin-exact"}
                | {"variant": "constant", "eta": 2.5e-4}
                | {"variant": "invlin-practical", "h1": 0.001, "h2": 3},
      "dual": {"variant": "ascent", "zeta": 0.05}
            | {"variant": "pid", "kp": 0.05, "ki": 0.0005, "kd": 0.1},
      "sampling": {"n_traj": 16, "horizon": 24},   // papd only
      "ppol": {"clip_ratio": 0.2, "gae_lambda": 0.95,
               "minibatch_size": 256, "epochs": 4},  // papd-ppol only
      "task_params": { ... environment overrides ... },
      "output_dir": "out/exp",
      "workers": 1,
      "window": 0.2
    }

Each seed produces runs/seed_<s>.csv with the fixed column order
step, return, cost, lr, lambda (floats emitted with repr, so parsing
round-trips exactly), a summary.json, and for testbed runs a bound
certificate JSON per seed.  For sampled runs summary.json records, per
seed, the verdict of solver.feasibility_check ("feasible": both the
full-run and the final-window average cost are within the limit plus
0.01) and the two averages it compares, "cost_full_avg" and
"cost_window_avg".  verify_dir names the first CSV row and column that
differ from the re-run, with both values.  The env var APDUAL_OUTPUT_ROOT,
when set, prefixes every output_dir.

Final-window statistics use the last ``window`` fraction (default 20%) of
iterations.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cmdp import SamplingConfig
from .duals import PidGains
from .envs import (
    GridworldSpec,
    PointEnvConfig,
    default_hazard_gridworld,
    make_gridworld,
    make_point_env,
    policy_state_values,
)
from .lagrangian import ConstraintSpec, PpolConfig
from .policy import LinearGaussian, TabularSoftmax, init_params, softmax_table
from .quadprog import quad_testbed
from .schedules import LrSchedule
from .solver import (
    RunRecord,
    SolverConfig,
    apd_run,
    feasibility_check,
    papd_run,
    verify_bounds,
)

OUTPUT_ROOT_ENV = "APDUAL_OUTPUT_ROOT"
SCHEMA_VERSION = 1
CSV_COLUMNS = ("step", "return", "cost", "lr", "lambda")
CURVE_NAMES = CSV_COLUMNS[1:]

TASKS = ("testbed", "gridworld", "point-run", "point-circle")
ALGORITHMS = ("apd", "papd-reinforce", "papd-ppol")


class ConfigError(Exception):
    """Config parse or validation failure (CLI exit code 2)."""


class VerificationError(Exception):
    """A stored artifact failed re-verification (CLI exit code 3)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    algorithm: str
    iterations: int
    seeds: tuple[int, ...]
    cost_limit: float
    gamma: float
    schedule: dict
    dual: dict
    sampling: dict | None
    ppol: dict
    task_params: dict
    output_dir: str
    workers: int
    window: float
    raw: dict = field(repr=False)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object; messages name the offending field."""
    _require(isinstance(raw, dict), "top level: expected a JSON object")
    version = raw.get("schema_version")
    _require(
        version == SCHEMA_VERSION,
        f"schema_version: expected {SCHEMA_VERSION}, got {version!r}",
    )
    task = raw.get("task")
    _require(task in TASKS, f"task: expected one of {TASKS}, got {task!r}")
    algorithm = raw.get("algorithm")
    _require(
        algorithm in ALGORITHMS,
        f"algorithm: expected one of {ALGORITHMS}, got {algorithm!r}",
    )
    if task == "testbed":
        _require(algorithm == "apd", "algorithm: the testbed task uses apd")
    else:
        _require(
            algorithm != "apd",
            "algorithm: apd needs exact gradients; sampled tasks use papd-*",
        )

    iterations = raw.get("iterations")
    _require(
        isinstance(iterations, int) and iterations >= 1,
        "iterations: expected a positive integer",
    )
    seeds = raw.get("seeds")
    _require(
        isinstance(seeds, list)
        and len(seeds) >= 1
        and all(isinstance(s, int) for s in seeds),
        "seeds: expected a non-empty list of integers",
    )
    _require(len(set(seeds)) == len(seeds), "seeds: duplicates not allowed")
    cost_limit = raw.get("cost_limit")
    _require(
        isinstance(cost_limit, (int, float)) and math.isfinite(cost_limit),
        "cost_limit: expected a finite number",
    )
    gamma = raw.get("gamma", 0.99)
    _require(
        isinstance(gamma, (int, float)) and 0.0 < gamma < 1.0,
        "gamma: expected a number in (0, 1)",
    )

    schedule = raw.get("schedule")
    _require(isinstance(schedule, dict), "schedule: expected an object")
    try:
        build_schedule(schedule)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"schedule: {exc}") from exc
    dual = raw.get("dual")
    _require(isinstance(dual, dict), "dual: expected an object")
    try:
        build_dual(dual)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"dual: {exc}") from exc
    if algorithm == "apd":
        _require(dual.get("variant") == "ascent", "dual: apd uses the ascent variant")
    else:
        _require(dual.get("variant") == "pid", "dual: papd uses the pid variant")

    sampling = raw.get("sampling")
    if algorithm != "apd":
        _require(isinstance(sampling, dict), "sampling: required for papd algorithms")
        try:
            SamplingConfig(
                n_traj=int(sampling.get("n_traj", 0)),
                horizon=int(sampling.get("horizon", 0)),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"sampling: {exc}") from exc

    ppol = raw.get("ppol", {})
    _require(isinstance(ppol, dict), "ppol: expected an object")
    if ppol:
        try:
            PpolConfig(**ppol)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"ppol: {exc}") from exc
    task_params = raw.get("task_params", {})
    _require(isinstance(task_params, dict), "task_params: expected an object")
    output_dir = raw.get("output_dir", "out")
    _require(
        isinstance(output_dir, str) and output_dir, "output_dir: expected a path"
    )
    workers = raw.get("workers", 1)
    _require(
        isinstance(workers, int) and workers >= 1, "workers: expected a positive int"
    )
    window = raw.get("window", 0.2)
    _require(
        isinstance(window, (int, float)) and 0.0 < window <= 1.0,
        "window: expected a fraction in (0, 1]",
    )
    return ExperimentConfig(
        task=task,
        algorithm=algorithm,
        iterations=iterations,
        seeds=tuple(seeds),
        cost_limit=float(cost_limit),
        gamma=float(gamma),
        schedule=dict(schedule),
        dual=dict(dual),
        sampling=dict(sampling) if sampling else None,
        ppol=dict(ppol),
        task_params=dict(task_params),
        output_dir=output_dir,
        workers=workers,
        window=float(window),
        raw=raw,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(raw)


def build_schedule(spec: dict) -> LrSchedule:
    variant = spec.get("variant")
    if variant == "constant":
        return LrSchedule("constant", eta=spec.get("eta"))
    if variant in ("invlin-exact", "invqua-exact"):
        return LrSchedule(variant)
    if variant in ("invlin-practical", "invqua-practical"):
        return LrSchedule(variant, h1=spec.get("h1"), h2=spec.get("h2"))
    raise ValueError(f"unknown schedule variant {variant!r}")


def build_dual(spec: dict) -> tuple[str, float | None, PidGains | None]:
    variant = spec.get("variant")
    if variant == "ascent":
        zeta = spec.get("zeta")
        if not isinstance(zeta, (int, float)) or zeta <= 0.0:
            raise ValueError("ascent dual needs zeta > 0")
        return "ascent", float(zeta), None
    if variant == "pid":
        gains = PidGains(
            k_p=float(spec.get("kp", 0.05)),
            k_i=float(spec.get("ki", 0.0005)),
            k_d=float(spec.get("kd", 0.1)),
        )
        return "pid", None, gains
    raise ValueError(f"unknown dual variant {variant!r}")


def build_gridworld_spec(params: dict) -> GridworldSpec:
    base = default_hazard_gridworld()
    allowed = {
        "width", "height", "start_cell", "goal_cell", "hazard_cells",
        "step_reward", "goal_reward", "hazard_cost", "slip_prob",
    }
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"task_params: unknown gridworld fields {sorted(unknown)}")
    kwargs = {f: getattr(base, f) for f in allowed}
    kwargs.update(params)
    kwargs["hazard_cells"] = tuple(kwargs["hazard_cells"])
    return GridworldSpec(**kwargs)


def _run_single(cfg: ExperimentConfig, seed: int) -> RunRecord:
    """Run one seed; rebuilds the task so it is safe in a worker process."""
    schedule = build_schedule(cfg.schedule)
    dual_variant, zeta, gains = build_dual(cfg.dual)

    if cfg.task == "testbed":
        solver_cfg = SolverConfig(
            iterations=cfg.iterations,
            schedule=schedule,
            dual_variant=dual_variant,
            zeta=zeta,
            gains=gains,
            seed=seed,
        )
        return apd_run(quad_testbed(cfg.cost_limit), solver_cfg)

    sampling = SamplingConfig(
        n_traj=int(cfg.sampling["n_traj"]), horizon=int(cfg.sampling["horizon"])
    )
    spec = ConstraintSpec(np.array([cfg.cost_limit]))
    values_fn = None
    if cfg.task == "gridworld":
        grid = build_gridworld_spec(cfg.task_params)
        cmdp = make_gridworld(grid, gamma=cfg.gamma)
        params0 = init_params(TabularSoftmax(grid.n_cells, 4))
        if cfg.algorithm == "papd-ppol":
            # exact tabular values for the advantage baseline
            def values_fn(params, trajs, _grid=grid):
                v_r, v_c = policy_state_values(
                    _grid, softmax_table(params), cfg.gamma, sampling.horizon
                )
                out = []
                for traj in trajs:
                    idx = np.asarray(traj.states, dtype=np.int64)
                    out.append((v_r[idx], v_c[idx][:, None]))
                return out

    else:
        try:
            point_cfg = PointEnvConfig(**{
                k: tuple(v) if k == "goal" else v for k, v in cfg.task_params.items()
            })
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"task_params: {exc}") from exc
        task = "run" if cfg.task == "point-run" else "circle"
        cmdp = make_point_env(task, point_cfg, gamma=cfg.gamma)
        params0 = init_params(LinearGaussian(feature_dim=4, action_dim=2))

    solver_cfg = SolverConfig(
        iterations=cfg.iterations,
        schedule=schedule,
        dual_variant="pid",
        gains=gains,
        theta0=params0,
        sampling=sampling,
        seed=seed,
        algorithm="reinforce" if cfg.algorithm == "papd-reinforce" else "ppol",
        ppol=PpolConfig(**cfg.ppol) if cfg.ppol else PpolConfig(),
        values_fn=values_fn,
    )
    return papd_run(cmdp, spec, solver_cfg)


def record_to_csv(record: RunRecord) -> str:
    """Fixed-column CSV text; floats use repr so parsing is lossless."""
    if record.costs.shape[1] != 1 or record.lambdas.shape[1] != 1:
        raise ValueError("CSV emission is defined for single-constraint records")
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    k_iter = record.iterations
    for k in range(k_iter):
        buf.write(
            f"{k},{float(record.returns[k])!r},{float(record.costs[k, 0])!r},"
            f"{float(record.etas[k])!r},{float(record.lambdas[k, 0])!r}\n"
        )
    return buf.getvalue()


def read_record_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Parse an emitted CSV back into column arrays (exact round-trip)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise VerificationError(f"{path}: unexpected CSV header {header}")
        rows = [row for row in reader]
    cols: dict[str, np.ndarray] = {
        "step": np.array([int(r[0]) for r in rows], dtype=np.int64)
    }
    for j, name in enumerate(CSV_COLUMNS[1:], start=1):
        cols[name] = np.array([float(r[j]) for r in rows])
    return cols


@dataclass
class CurveStats:
    """Pointwise across-seed statistics per metric (return, cost, lr,
    lambda), each an array of length K."""

    mean: dict
    low: dict
    high: dict

    def n_steps(self) -> int:
        return len(next(iter(self.mean.values())))


def _record_metrics(record: RunRecord) -> dict[str, np.ndarray]:
    return {
        "return": record.returns,
        "cost": record.costs[:, 0],
        "lr": record.etas,
        "lambda": record.lambdas[:-1, 0],
    }


def curve_stats(curves: list[dict[str, np.ndarray]]) -> CurveStats:
    """Pointwise mean/min/max across per-seed curves, each a mapping from
    the CURVE_NAMES to equal-length arrays (records or parsed CSVs)."""
    if not curves:
        raise ValueError("no records to aggregate")
    k_iter = len(curves[0]["return"])
    if any(len(c[name]) != k_iter for c in curves for name in CURVE_NAMES):
        raise ValueError("records disagree on iteration count")
    stacks = {name: np.stack([c[name] for c in curves]) for name in CURVE_NAMES}
    return CurveStats(
        mean={k: v.mean(axis=0) for k, v in stacks.items()},
        low={k: v.min(axis=0) for k, v in stacks.items()},
        high={k: v.max(axis=0) for k, v in stacks.items()},
    )


def aggregate_seeds(records: list[RunRecord]) -> CurveStats:
    return curve_stats([_record_metrics(r) for r in records])


def final_window_stats(record: RunRecord, window: float) -> dict[str, float]:
    tail = max(1, int(round(window * record.iterations)))
    return {
        "return_mean": float(record.returns[-tail:].mean()),
        "cost_mean": float(record.costs[-tail:, 0].mean()),
        "lambda_final": float(record.lambdas[-1, 0]),
        "wall_clock_s": float(record.meta.get("wall_clock_s", 0.0)),
    }


def _window_aggregate(records: list[RunRecord], window: float) -> dict[str, float]:
    per_seed = [final_window_stats(r, window) for r in records]
    rets = np.array([s["return_mean"] for s in per_seed])
    csts = np.array([s["cost_mean"] for s in per_seed])
    return {
        "return_mean": float(rets.mean()),
        "return_std": float(rets.std()),
        "cost_mean": float(csts.mean()),
        "cost_std": float(csts.std()),
    }


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / cfg.output_dir
    return Path(cfg.output_dir)


@dataclass
class ExperimentResult:
    output_dir: Path
    records: list
    csv_paths: list
    summary_path: Path
    certificate_paths: list
    certificates_passed: bool
    aggregate: dict


def _collect_records(cfg: ExperimentConfig) -> list[RunRecord]:
    if cfg.workers > 1 and len(cfg.seeds) > 1:
        with concurrent.futures.ProcessPoolExecutor(cfg.workers) as pool:
            futures = [pool.submit(_run_single, cfg, s) for s in cfg.seeds]
            return [f.result() for f in futures]
    return [_run_single(cfg, s) for s in cfg.seeds]


def run_experiment(cfg: ExperimentConfig | str | Path) -> ExperimentResult:
    """Run every seed, persist CSVs/summary (and testbed certificates)."""
    if not isinstance(cfg, ExperimentConfig):
        cfg = load_config(cfg)
    out_dir = resolve_output_dir(cfg)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    records = _collect_records(cfg)

    csv_paths = []
    for seed, record in zip(cfg.seeds, records):
        path = runs_dir / f"seed_{seed}.csv"
        path.write_text(record_to_csv(record))
        csv_paths.append(path)

    cert_paths = []
    certs_ok = True
    per_seed_summary = {}
    for seed, record in zip(cfg.seeds, records):
        entry = final_window_stats(record, cfg.window)
        if cfg.task == "testbed":
            cert = verify_bounds(record, quad_testbed(cfg.cost_limit))
            cert_dir = out_dir / "certificates"
            cert_dir.mkdir(exist_ok=True)
            cert_path = cert_dir / f"seed_{seed}.json"
            cert_path.write_text(
                json.dumps(cert.to_dict(), indent=2, sort_keys=True, allow_nan=False)
            )
            cert_paths.append(cert_path)
            entry["certificate_passed"] = cert.passed
            certs_ok = certs_ok and cert.passed
        else:
            spec = ConstraintSpec(np.array([cfg.cost_limit]))
            report = feasibility_check(record, spec, cfg.window)
            entry["feasible"] = report.passed
            entry["cost_full_avg"] = float(report.full_avg[0])
            entry["cost_window_avg"] = float(report.window_avg[0])
        per_seed_summary[str(seed)] = entry

    aggregate = _window_aggregate(records, cfg.window)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.raw,
        "per_seed": per_seed_summary,
        "aggregate": aggregate,
        "csv": [p.name for p in csv_paths],
        "wall_clock_s": time.perf_counter() - started,
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    )
    return ExperimentResult(
        output_dir=out_dir,
        records=records,
        csv_paths=csv_paths,
        summary_path=summary_path,
        certificate_paths=cert_paths,
        certificates_passed=certs_ok,
        aggregate=aggregate,
    )


GRID_PARAMS = ("eta", "h1", "h2")


def parse_grid(text: str) -> tuple[str, list[float]]:
    """Grid spec 'param:f1,f2,...': multiplicative factors on a schedule
    parameter (eta for constant schedules; h1 or h2 for practical ones)."""
    head, sep, tail = text.partition(":")
    if not sep or head not in GRID_PARAMS:
        raise ConfigError(
            f"grid: expected 'param:f1,f2,...' with param in {GRID_PARAMS}"
        )
    try:
        factors = [float(tok) for tok in tail.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"grid: bad factor list {tail!r}") from exc
    if not factors:
        raise ConfigError("grid: needs at least one factor")
    if any(f <= 0.0 for f in factors):
        raise ConfigError("grid: factors must be positive")
    return head, factors


def sweep(
    cfg: ExperimentConfig | str | Path, grid: str | tuple[str, list[float]]
) -> Path:
    """Run one experiment per grid cell; emit a robustness table CSV."""
    if not isinstance(cfg, ExperimentConfig):
        cfg = load_config(cfg)
    param, factors = parse_grid(grid) if isinstance(grid, str) else grid

    variant = cfg.schedule.get("variant")
    if param == "eta":
        _require(variant == "constant", "grid: eta factors need a constant schedule")
    else:
        _require(
            variant in ("invlin-practical", "invqua-practical"),
            f"grid: {param} factors need a practical schedule",
        )
    base_value = float(cfg.schedule[param if param != "eta" else "eta"])

    out_dir = resolve_output_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for factor in factors:
        cell_schedule = dict(cfg.schedule)
        cell_schedule[param] = base_value * factor
        cell_raw = dict(cfg.raw)
        cell_raw["schedule"] = cell_schedule
        cell_raw["output_dir"] = str(Path(cfg.output_dir) / f"cell_{param}_{factor:g}")
        cell_cfg = parse_config(cell_raw)
        result = run_experiment(cell_cfg)
        stats = result.aggregate
        rows.append(
            (
                param,
                factor,
                base_value * factor,
                stats["return_mean"],
                stats["return_std"],
                stats["cost_mean"],
                stats["cost_std"],
            )
        )

    table = out_dir / f"sweep_{param}.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["param", "factor", "value", "return_mean", "return_std",
             "cost_mean", "cost_std"]
        )
        for row in rows:
            writer.writerow([row[0]] + [repr(float(v)) for v in row[1:]])
    return table


def curve_to_csv(stats: CurveStats, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["step"]
        for name in CURVE_NAMES:
            header += [f"{name}_mean", f"{name}_min", f"{name}_max"]
        writer.writerow(header)
        for k in range(stats.n_steps()):
            row = [k]
            for name in CURVE_NAMES:
                row += [
                    repr(float(stats.mean[name][k])),
                    repr(float(stats.low[name][k])),
                    repr(float(stats.high[name][k])),
                ]
            writer.writerow(row)


def _first_csv_difference(stored: str, regenerated: str) -> str | None:
    """Where two CSV texts first differ: the data row (0-based) and column
    with both values, or the row counts; None when they are equal."""
    if stored == regenerated:
        return None
    old_rows, new_rows = stored.splitlines(), regenerated.splitlines()
    for i, (old, new) in enumerate(zip(old_rows, new_rows)):
        cells = itertools.zip_longest(
            CSV_COLUMNS, old.split(","), new.split(","), fillvalue="<missing>"
        )
        for name, a, b in cells:
            if a != b:
                where = "header" if i == 0 else f"row {i - 1}"
                return f"{where}, column {name}: stored {a}, regenerated {b}"
    if len(old_rows) != len(new_rows):
        return f"row count: stored {len(old_rows) - 1}, regenerated {len(new_rows) - 1}"
    return "line endings"


def verify_dir(directory: str | Path) -> list[str]:
    """Re-run an experiment directory and re-check its artifacts.

    Reproduces every seed from the stored config, compares the regenerated
    CSV bytes with the stored files, and recomputes bound certificates for
    testbed runs.  Returns human-readable per-seed lines; raises
    VerificationError on any mismatch or failed certificate.
    """
    directory = Path(directory)
    summary_path = directory / "summary.json"
    if not summary_path.exists():
        raise ConfigError(f"{directory}: no summary.json to verify against")
    summary = json.loads(summary_path.read_text())
    cfg = parse_config(summary["config"])

    lines = []
    failures = []
    for seed in cfg.seeds:
        record = _run_single(cfg, seed)
        stored = directory / "runs" / f"seed_{seed}.csv"
        if not stored.exists():
            failures.append(f"seed {seed}: missing {stored}")
            continue
        regenerated = record_to_csv(record)
        mismatch = _first_csv_difference(stored.read_text(), regenerated)
        if mismatch:
            failures.append(
                f"seed {seed}: stored CSV differs from regenerated run at {mismatch}"
            )
            continue
        line = f"seed {seed}: reproduced ({record.iterations} rows)"
        if cfg.task == "testbed":
            cert = verify_bounds(record, quad_testbed(cfg.cost_limit))
            if not cert.passed:
                failures.append(
                    f"seed {seed}: certificate failed, worst slacks {cert.worst()}"
                )
                continue
            line += ", certificate passed"
        lines.append(line)
    if failures:
        raise VerificationError("; ".join(failures))
    return lines
