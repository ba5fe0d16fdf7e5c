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
      "sampling": {"n_traj": 16, "horizon": 24},   // papd-* only
      "ppol": {"clip_ratio": 0.2, "gae_lambda": 0.95,
               "minibatch_size": 256, "epochs": 4},  // papd-ppol only
      "task_params": { ... environment overrides ... },  // not testbed
      "output_dir": "out/exp",
      "workers": 1,
      "window": 0.2
    }

parse_config builds the run's objects once, into the seedless
SolverConfig that every seed shares (ExperimentConfig.solver): the
LrSchedule, the ascent rate zeta or the PidGains, and for papd-* the
SamplingConfig and, for papd-ppol, the PpolConfig.  Unknown keys, PID gains
that are not finite numbers, seeds outside [0, 2^32), a testbed cost_limit
<= 0 (no Slater point), a sampled-task cost_limit < 0 (no feasible policy),
an exact schedule on a sampled task (only the testbed has the constants
L_R, L_C and mu that its step sizes need) and non-empty sections that the
run would not read are rejected with a ConfigError naming them; task_params
values that the environment rejects too, when a seed's run builds the
task.  run_experiment runs every seed before it creates the output
directory, so a config or run error leaves nothing on disk.

Each seed produces runs/seed_<s>.csv with the fixed column order step,
return, cost, lr, lambda (floats emitted with repr, so parsing round-trips
exactly), and for testbed runs a bound certificate JSON.  summary.json holds
"schema_version", "config", "csv" (the run files in seed order),
"wall_clock_s", "per_seed", "aggregate", "apdual_version", "numpy_version"
and "blas_version" (sampled runs depend on apdual's stream layout, on
numpy's fixed bit-generator streams, NEP 19, and through their matrix
products on the BLAS build; the exact loop's arithmetic and the
certificate's linear solves call neither BLAS nor LAPACK, and only the
eigenvalue routines behind the smoothness constants and the Slater check
call LAPACK).
seed_summary builds a seed's entry from one solver.feasibility_check over
the last ``window`` fraction (default 20%) of iterations: the window
averages "return_mean" and "cost_mean", "lambda_final", "wall_clock_s", and
for a testbed run "certificate_passed".  A sampled entry adds the verdict
"feasible" (full-run and window cost both within the limit plus 0.01), the
two averages it compares, "cost_full_avg" and "cost_window_avg" (equal to
"cost_mean"), the window cost's batch-means SE "cost_window_se", and
"cost_window_margin", the window cost minus the limit in SEs; both are null
for a zero SE or fewer than 2 batches.  "aggregate" is the across-seed mean
and std of "return_mean" and "cost_mean".  verify_dir re-runs every seed the
way run_experiment does, workers included, and names the first CSV cell that
differs (after an apdual, numpy or BLAS version mismatch, if any), then the
first summary.json key, wall-clock times aside, that differs, then the
first key of a testbed seed's stored certificate that differs from the
recomputed one; it also checks that "csv" lists the config's seeds in order.
aggregate_dir reads only the CSVs that "csv" lists.  The env var
APDUAL_OUTPUT_ROOT, when set, prefixes every output_dir.
"""

from __future__ import annotations

import concurrent.futures
import csv
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cmdp import SamplingConfig, policy_state_values
from .duals import PidGains
from .envs import (
    GridworldSpec,
    PointEnvConfig,
    default_hazard_gridworld,
    make_gridworld,
    make_point_env,
    slip_mixed_probs,
)
from .lagrangian import PpolConfig
from .policy import LinearGaussian, TabularSoftmax, init_params, softmax_table
from .quadprog import quad_testbed
from .schedules import LrSchedule
from .solver import (
    BoundCertificate,
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
# The fields of each schedule variant besides "variant", as LrSchedule takes them.
SCHEDULE_KEYS = {"constant": ("eta",), "invlin-exact": (), "invqua-exact": (),
                 "invlin-practical": ("h1", "h2"), "invqua-practical": ("h1", "h2")}
PID_KEYS = {"kp": "k_p", "ki": "k_i", "kd": "k_d"}  # config key -> PidGains field
TOP_LEVEL_KEYS = ("schema_version", "task", "algorithm", "iterations", "seeds",
                  "cost_limit", "gamma", "schedule", "dual", "sampling", "ppol",
                  "task_params", "output_dir", "workers", "window")


class ConfigError(Exception):
    """Config parse or validation failure (CLI exit code 2)."""


class VerificationError(Exception):
    """A stored artifact failed re-verification (CLI exit code 3)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _build(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError or TypeError a ConfigError
    naming section."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _reject_unknown(obj: dict, known, path: str) -> None:
    """Raise ConfigError naming every key of obj outside known."""
    unknown = sorted(set(obj) - set(known))
    _require(not unknown, f"{path}: unknown keys {unknown}")


def _reject_booleans(value, path: str) -> None:
    """Raise ConfigError naming the first JSON boolean in value.  No config
    field is a boolean, and Python reads true and false as the ints 1 and
    0, so every numeric check would pass them."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got a JSON boolean")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_booleans(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_booleans(item, f"{path}[{i}]")


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config.  solver is the seedless SolverConfig that every
    seed's run copies.  schedule, dual and task_params keep their JSON
    sections: sweep scales the schedule's numbers, and each seed's run
    builds its environment from task_params."""

    task: str
    seeds: tuple[int, ...]
    cost_limit: float
    gamma: float
    schedule: dict
    dual: dict
    task_params: dict
    output_dir: str
    workers: int
    window: float
    solver: SolverConfig
    raw: dict = field(repr=False)

    @property
    def iterations(self) -> int:
        return self.solver.iterations


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object; messages name the offending field."""
    _require(isinstance(raw, dict), "top level: expected a JSON object")
    _reject_unknown(raw, TOP_LEVEL_KEYS, "top level")
    for key, value in raw.items():
        _reject_booleans(value, key)
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
        and all(isinstance(s, int) and 0 <= s < 2**32 for s in seeds),
        "seeds: expected a non-empty list of integers in [0, 2^32)",
    )
    _require(len(set(seeds)) == len(seeds), "seeds: duplicates not allowed")
    cost_limit = raw.get("cost_limit")
    _require(
        isinstance(cost_limit, (int, float)) and math.isfinite(cost_limit),
        "cost_limit: expected a finite number",
    )
    # The testbed's J_C = 1/2 |theta|^2 is never below 0: a limit d <= 0
    # leaves no Slater point, and the KKT solve behind its certificate fails.
    _require(
        task != "testbed" or cost_limit > 0.0,
        f"cost_limit: the testbed needs a positive limit, got {cost_limit!r}"
        " (J_C = 1/2 |theta|^2 >= 0 leaves no Slater point)",
    )
    # A sampled step costs 0 or more (a point task's indicators, a grid's 0
    # or hazard_cost >= 0), so J_C >= 0 and no policy meets d < 0.  d = 0 is
    # met by a policy that never pays a cost.
    _require(
        task == "testbed" or cost_limit >= 0.0,
        f"cost_limit: the {task} task needs a nonnegative limit, got"
        f" {cost_limit!r} (every step cost is >= 0, so no policy meets it)",
    )
    gamma = raw.get("gamma", 0.99)
    _require(
        isinstance(gamma, (int, float)) and 0.0 < gamma < 1.0,
        "gamma: expected a number in (0, 1)",
    )

    schedule = raw.get("schedule")
    _require(isinstance(schedule, dict), "schedule: expected an object")
    lr_schedule = _build("schedule", build_schedule, schedule)
    # The exact rules need L_R, L_C and mu, which only the testbed has.
    _require(
        task == "testbed" or not lr_schedule.variant.endswith("-exact"),
        f"schedule: the {task} task needs a practical or constant schedule",
    )
    dual = raw.get("dual")
    _require(isinstance(dual, dict), "dual: expected an object")
    dual_kwargs = _build("dual", build_dual, dual)
    if algorithm == "apd":
        _require(dual.get("variant") == "ascent", "dual: apd uses the ascent variant")
    else:
        _require(dual.get("variant") == "pid", "dual: papd uses the pid variant")

    sampling = raw.get("sampling")
    sampling_cfg = None
    if algorithm != "apd" or sampling is not None:
        _require(isinstance(sampling, dict), "sampling: expected an object")
        _reject_unknown(sampling, ("n_traj", "horizon"), "sampling")
        for key in ("n_traj", "horizon"):
            _require(
                isinstance(sampling.get(key), int),
                f"sampling: {key} must be an integer",
            )
        sampling_cfg = _build("sampling", SamplingConfig, **sampling)

    ppol = raw.get("ppol", {})
    _require(isinstance(ppol, dict), "ppol: expected an object")
    _reject_unknown(ppol, PpolConfig.__dataclass_fields__, "ppol")
    ppol_cfg = _build("ppol", PpolConfig, **ppol)
    task_params = raw.get("task_params", {})
    _require(isinstance(task_params, dict), "task_params: expected an object")
    # A section the run never reads is an error, checked after its contents.
    unread = {"sampling": algorithm == "apd", "ppol": algorithm != "papd-ppol",
              "task_params": task == "testbed"}
    for key, ignored in unread.items():
        msg = f"{key}: {algorithm} on the {task} task does not read this section"
        _require(not (ignored and raw.get(key)), msg)
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
    solver = SolverConfig(
        iterations,
        lr_schedule,
        sampling=sampling_cfg,
        ppol=ppol_cfg if algorithm == "papd-ppol" else None,
        **dual_kwargs,
    )
    return ExperimentConfig(
        task=task,
        seeds=tuple(seeds),
        cost_limit=float(cost_limit),
        gamma=float(gamma),
        schedule=dict(schedule),
        dual=dict(dual),
        task_params=dict(task_params),
        output_dir=output_dir,
        workers=workers,
        window=float(window),
        solver=solver,
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
    if variant not in SCHEDULE_KEYS:
        raise ValueError(f"unknown schedule variant {variant!r}")
    keys = SCHEDULE_KEYS[variant]
    _reject_unknown(spec, ("variant", *keys), "schedule")
    return LrSchedule(variant, **{key: spec.get(key) for key in keys})


def build_dual(spec: dict) -> dict:
    """The SolverConfig keyword of a dual section: zeta for the ascent that
    apd_run takes, gains (PidGains defaults for unset keys) for papd_run."""
    variant = spec.get("variant")
    if variant == "ascent":
        _reject_unknown(spec, ("variant", "zeta"), "dual")
        zeta = spec.get("zeta")
        if not isinstance(zeta, (int, float)) or zeta <= 0.0:
            raise ValueError("ascent dual needs zeta > 0")
        return {"zeta": float(zeta)}
    if variant == "pid":
        _reject_unknown(spec, ("variant", *PID_KEYS), "dual")
        gains = {}
        for key, name in PID_KEYS.items():
            value = spec.get(key, getattr(PidGains, name))
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
            gains[name] = float(value)
        return {"gains": PidGains(**gains)}
    raise ValueError(f"unknown dual variant {variant!r}")


def build_gridworld_spec(params: dict) -> GridworldSpec:
    return build_task_spec("gridworld", params)


def build_task_spec(task: str, params: dict) -> GridworldSpec | PointEnvConfig:
    """A sampled task's environment spec: its default spec with task_params
    applied.  An unknown field or a value the environment rejects is a
    ConfigError naming task_params."""
    base = default_hazard_gridworld() if task == "gridworld" else PointEnvConfig()
    unknown = sorted(set(params) - {f.name for f in fields(base)})
    _require(not unknown, f"task_params: unknown {task} fields {unknown}")
    return _build("task_params", replace, base, **params)


def blas_version() -> str:
    """Name and version of the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def _run_single(cfg: ExperimentConfig, seed: int) -> RunRecord:
    """Run one seed of cfg.solver.  The environment is built per seed
    because a Cmdp's step functions cannot be sent to a worker process."""
    if cfg.task == "testbed":
        return apd_run(quad_testbed(cfg.cost_limit), replace(cfg.solver, seed=seed))

    values_fn = None
    spec = build_task_spec(cfg.task, cfg.task_params)
    if cfg.task == "gridworld":
        cmdp = make_gridworld(spec, gamma=cfg.gamma)
        theta0 = init_params(TabularSoftmax(spec.n_cells, 4))
        if cfg.solver.ppol is not None:
            # exact tabular values for the advantage baseline: the grid under
            # pi is the slip-free grid under pi mixed by the slip
            horizon = cfg.solver.sampling.horizon
            exact = make_gridworld(replace(spec, slip_prob=0.0), gamma=cfg.gamma)

            def values_fn(params, batch):
                probs = slip_mixed_probs(softmax_table(params), spec.slip_prob)
                v_r, v_c = policy_state_values(exact, probs, horizon)
                return np.stack([v_r, v_c], axis=1)[batch.states]

    else:
        task = "run" if cfg.task == "point-run" else "circle"
        cmdp = make_point_env(task, spec, gamma=cfg.gamma)
        theta0 = init_params(LinearGaussian(feature_dim=4, action_dim=2))

    solver = replace(cfg.solver, seed=seed, theta0=theta0, values_fn=values_fn)
    return papd_run(cmdp, cfg.cost_limit, solver)


def _step_texts(n: int) -> list[str]:
    """str(k) for k < n, with no str() per k: from 100 on, the text of k is
    the text of k // 100 followed by the two digits of k % 100."""
    texts = [str(k) for k in range(min(n, 100))]
    pairs = [f"{k:02d}" for k in range(100)]
    done = 100
    while done < n:
        # k in [done, 100 done) has its head k // 100 in [done / 100, done).
        heads = texts[done // 100 : min(done, -(-n // 100))]
        texts += [head + pair for head in heads for pair in pairs]
        done *= 100
    del texts[n:]
    return texts


def record_to_csv(record: RunRecord) -> str:
    """Fixed-column CSV text; floats use repr so parsing is lossless.

    The text of f"{k},{float(x)!r},...\n" per row k.  Only the rows before
    the end of the record's cycle (all rows of a record without one) are
    formatted, each as its ",r,c,e,lam\n" tail; from the cycle's start the
    tails repeat the cycle's.  The step texts come from _step_texts, and the
    two lists are interleaved and joined once.  Nothing is kept across
    calls."""
    k_iter = record.iterations
    start, period = record.cycle or (k_iter, 0)
    cols = (record.returns, record.costs[:, 0], record.etas, record.lambdas[:, 0])
    values = np.stack([col[: start + period] for col in cols], dtype=float)
    tails = [f",{r!r},{c!r},{e!r},{lam!r}\n" for r, c, e, lam in zip(*values.tolist())]
    if period:
        repeats = -(-(k_iter - start) // period)
        tails[start:] = (tails[start:] * repeats)[: k_iter - start]
    rows = [""] * (2 * k_iter)
    rows[::2] = _step_texts(k_iter)
    rows[1::2] = tails
    return ",".join(CSV_COLUMNS) + "\n" + "".join(rows)


def read_record_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Parse an emitted CSV back into column arrays (exact round-trip)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise VerificationError(f"{path}: unexpected CSV header {header}")
        rows = [row for row in reader]
    cols = {"step": np.array([int(r[0]) for r in rows], dtype=np.int64)}
    for j, name in enumerate(CURVE_NAMES, start=1):
        cols[name] = np.array([float(r[j]) for r in rows])
    return cols


def seed_summary(
    cfg: ExperimentConfig, record: RunRecord
) -> tuple[dict, BoundCertificate | None]:
    """One seed's summary.json entry, and for a testbed run its bound
    certificate.  Every window number comes from one feasibility_check."""
    report = feasibility_check(record, cfg.cost_limit, cfg.window)
    cost = report.window_avg
    entry = {
        "return_mean": report.window_return,
        "cost_mean": cost,
        "lambda_final": float(record.lambdas[-1, 0]),
        "wall_clock_s": float(record.meta.get("wall_clock_s", 0.0)),
    }
    if cfg.task == "testbed":
        cert = verify_bounds(record, quad_testbed(cfg.cost_limit))
        entry["certificate_passed"] = cert.passed
        return entry, cert
    se = report.window_se or None
    entry.update(
        feasible=report.passed,
        cost_full_avg=report.full_avg,
        cost_window_avg=cost,
        cost_window_se=se,
        cost_window_margin=None if se is None else (cost - cfg.cost_limit) / se,
    )
    return entry, None


def certificate_json(cert: BoundCertificate) -> str:
    """The text of certificates/seed_<s>.json."""
    return json.dumps(cert.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def seed_aggregate(entries: list[dict]) -> dict[str, float]:
    """Across-seed mean and std of the per-seed window averages."""
    out = {}
    for name in ("return", "cost"):
        m = np.array([e[f"{name}_mean"] for e in entries])
        out[f"{name}_mean"], out[f"{name}_std"] = float(m.mean()), float(m.std())
    return out


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
    started = time.perf_counter()
    records = _collect_records(cfg)  # a failing seed leaves no output
    return _write_experiment(cfg, records, started)


def _write_experiment(
    cfg: ExperimentConfig, records: list[RunRecord], started: float
) -> ExperimentResult:
    """Persist the records of cfg's seeds, whose run began at ``started``."""
    out_dir = resolve_output_dir(cfg)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    csv_paths, cert_paths, per_seed_summary = [], [], {}
    for seed, record in zip(cfg.seeds, records):
        csv_path = runs_dir / f"seed_{seed}.csv"
        csv_path.write_text(record_to_csv(record))
        csv_paths.append(csv_path)
        entry, cert = seed_summary(cfg, record)
        per_seed_summary[str(seed)] = entry
        if cert is not None:
            cert_path = out_dir / "certificates" / f"seed_{seed}.json"
            cert_path.parent.mkdir(exist_ok=True)
            cert_path.write_text(certificate_json(cert))
            cert_paths.append(cert_path)

    aggregate = seed_aggregate(list(per_seed_summary.values()))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "apdual_version": __version__,
        "numpy_version": np.__version__,
        "blas_version": blas_version(),
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
        certificates_passed=all(
            e.get("certificate_passed", True) for e in per_seed_summary.values()
        ),
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
    cells = {}
    for f in factors:
        name = _cell_name(head, f)
        if name in cells:
            raise ConfigError(f"grid: factors {cells[name]!r} and {f!r} share {name}")
        cells[name] = f
    return head, factors


def _cell_name(param: str, factor: float) -> str:
    return f"cell_{param}_{factor:g}"


def sweep(
    cfg: ExperimentConfig | str | Path, grid: str | tuple[str, list[float]]
) -> Path:
    """Run every grid cell's experiment, then write each and a robustness CSV."""
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
    base_value = float(cfg.schedule[param])

    cells = []
    for factor in factors:
        cell_schedule = dict(cfg.schedule)
        cell_schedule[param] = base_value * factor
        cell_raw = dict(cfg.raw)
        cell_raw["schedule"] = cell_schedule
        cell_raw["output_dir"] = str(Path(cfg.output_dir) / _cell_name(param, factor))
        cell_cfg = parse_config(cell_raw)
        started = time.perf_counter()
        records = _collect_records(cell_cfg)
        cells.append((factor, cell_cfg, records, time.perf_counter() - started))

    out_dir = resolve_output_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for factor, cell, records, run_s in cells:
        stats = _write_experiment(cell, records, time.perf_counter() - run_s).aggregate
        rows.append((param, factor, base_value * factor, stats["return_mean"],
                     stats["return_std"], stats["cost_mean"], stats["cost_std"]))

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


def aggregate_dir(directory: str | Path) -> Path:
    """Pointwise across-seed mean, min and max of every CSV curve of the
    runs that summary.json lists, in its order, written to aggregate.csv."""
    directory = Path(directory)
    summary_path = directory / "summary.json"
    if not summary_path.exists():
        raise ConfigError(f"{directory}: no summary.json to aggregate")
    listed = json.loads(summary_path.read_text())["csv"]
    paths = [directory / "runs" / name for name in listed]
    if not paths:
        raise VerificationError(f"{summary_path}: lists no records to aggregate")
    for path in paths:
        if not path.exists():
            raise VerificationError(f"{summary_path} lists {path}, which is missing")
    curves = [read_record_csv(path) for path in paths]
    rows = [len(c["step"]) for c in curves]
    if len(set(rows)) > 1:
        raise VerificationError(f"{directory}: runs disagree on iteration count {rows}")
    stats = ("mean", "min", "max")
    stacks = [np.stack([c[name] for c in curves]) for name in CURVE_NAMES]
    columns = [getattr(np, f)(x, axis=0) for x in stacks for f in stats]
    out = directory / "aggregate.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"{n}_{f}" for n in CURVE_NAMES for f in stats])
        for k, row in enumerate(zip(*columns)):
            writer.writerow([k] + [repr(float(v)) for v in row])
    return out


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


def _first_key_difference(
    stored: dict, regenerated: dict, prefix: str = ""
) -> str | None:
    """The first key but wall_clock_s whose values differ, with both values.
    Nested objects are compared key by key and named by dotted paths."""
    for key in sorted((stored.keys() | regenerated.keys()) - {"wall_clock_s"}):
        a, b = stored.get(key, "<missing>"), regenerated.get(key, "<missing>")
        if isinstance(a, dict) and isinstance(b, dict):
            inner = _first_key_difference(a, b, f"{prefix}{key}.")
            if inner:
                return inner
        elif a != b:
            return f"key {prefix}{key}: stored {a}, regenerated {b}"
    return None


def _certificate_difference(path: Path, cert: BoundCertificate) -> str | None:
    """How the stored certificate file differs from the recomputed one: its
    absence, the first differing key with both values, or its text alone."""
    if not path.exists():
        return f"missing {path}"
    text = path.read_text()
    if text == certificate_json(cert):
        return None
    try:
        stored = json.loads(text)
    except json.JSONDecodeError:
        stored = None
    if not isinstance(stored, dict):
        return f"{path} is not a JSON object"
    differ = _first_key_difference(stored, cert.to_dict())
    return f"{path.name} {differ or 'text differs in layout only'}"


def verify_dir(directory: str | Path) -> list[str]:
    """Re-run an experiment directory and re-check its artifacts.

    Reproduces every seed from the stored config as run_experiment does
    (_collect_records), compares the regenerated CSV bytes with the stored
    files and each seed's summary.json entry, then the aggregate, with
    seed_summary's, and for testbed runs compares each stored certificate
    file with the text of the recomputed certificate.  summary.json's "csv"
    must list the config's seeds in order.  Returns
    human-readable per-seed lines; raises VerificationError on any mismatch,
    missing file or failed certificate.
    """
    directory = Path(directory)
    summary_path = directory / "summary.json"
    if not summary_path.exists():
        raise ConfigError(f"{directory}: no summary.json to verify against")
    summary = json.loads(summary_path.read_text())
    cfg = parse_config(summary["config"])
    running = {"apdual": __version__, "numpy": np.__version__, "blas": blas_version()}
    stored = {name: summary.get(f"{name}_version", v) for name, v in running.items()}
    differ = [name for name in running if stored[name] != running[name]]
    versions = ""
    if differ:
        old = " and ".join(f"{name} {stored[name]}" for name in differ)
        new = " and ".join(f"{name} {running[name]}" for name in differ)
        versions = f" (stored under {old}, regenerated under {new})"

    lines, failures, entries = [], [], []
    listed, expected = summary.get("csv"), [f"seed_{s}.csv" for s in cfg.seeds]
    if listed != expected:
        failures.append(f"summary.json key csv: stored {listed}, expected {expected}")
    for seed, record in zip(cfg.seeds, _collect_records(cfg)):
        stored = directory / "runs" / f"seed_{seed}.csv"
        if not stored.exists():
            failures.append(f"seed {seed}: missing {stored}")
            continue
        regenerated = record_to_csv(record)
        mismatch = _first_csv_difference(stored.read_text(), regenerated)
        if mismatch:
            failures.append(
                f"seed {seed}: stored CSV differs from regenerated run{versions} "
                f"at {mismatch}"
            )
            continue
        entry, cert = seed_summary(cfg, record)
        entries.append(entry)
        stored_entry = summary.get("per_seed", {}).get(str(seed), {})
        differ = _first_key_difference(stored_entry, entry)
        if differ:
            failures.append(f"seed {seed}: summary.json {differ}")
            continue
        cert_path = directory / "certificates" / f"seed_{seed}.json"
        differ = None if cert is None else _certificate_difference(cert_path, cert)
        if differ:
            failures.append(f"seed {seed}: certificate {differ}")
            continue
        if cert is not None and not cert.passed:
            worst = cert.worst
            failures.append(f"seed {seed}: certificate failed, worst slacks {worst}")
            continue
        passed = "" if cert is None else ", certificate passed"
        lines.append(f"seed {seed}: reproduced ({record.iterations} rows){passed}")
    if not failures:
        differ = _first_key_difference(
            summary.get("aggregate", {}), seed_aggregate(entries)
        )
        if differ:
            failures.append(f"summary.json aggregate {differ}")
    if failures:
        raise VerificationError("; ".join(failures))
    return lines
