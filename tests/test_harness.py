"""Experiment harness and CLI.

Config validation, lossless CSV round-trips, across-seed aggregation against
hand-built records, reproducibility of stored artifacts, sweeps, and CLI
exit codes.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import pickle
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import apdual
from apdual import harness
from apdual.cli import main
from apdual.cmdp import NonFiniteError
from apdual.envs import policy_state_values
from apdual.harness import (
    CSV_COLUMNS,
    OUTPUT_ROOT_ENV,
    ConfigError,
    VerificationError,
    aggregate_dir,
    build_gridworld_spec,
    load_config,
    parse_config,
    parse_grid,
    read_record_csv,
    record_to_csv,
    run_experiment,
    sweep,
    verify_dir,
)
from apdual.policy import _block_means, softmax_table
from apdual.solver import RunRecord, cycle_index, feasibility_check

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_testbed_raw(**over):
    raw = {
        "schema_version": 1,
        "task": "testbed",
        "algorithm": "apd",
        "iterations": 400,
        "seeds": [0, 1],
        "cost_limit": 0.5,
        "schedule": {"variant": "invlin-exact"},
        "dual": {"variant": "ascent", "zeta": 0.05},
        "output_dir": "testbed_out",
    }
    raw.update(over)
    return raw


def make_grid_raw(**over):
    raw = {
        "schema_version": 1,
        "task": "gridworld",
        "algorithm": "papd-reinforce",
        "iterations": 12,
        "seeds": [0],
        "cost_limit": 10.0,
        "gamma": 0.99,
        "schedule": {"variant": "invlin-practical", "h1": 0.003, "h2": 3.0},
        "dual": {"variant": "pid", "kp": 0.05, "ki": 0.0005, "kd": 0.1},
        "sampling": {"n_traj": 4, "horizon": 12},
        "output_dir": "grid_out",
    }
    raw.update(over)
    return raw


def synthetic_record(returns, costs, lam_final=0.25):
    k = len(returns)
    lambdas = np.zeros((k + 1, 1))
    lambdas[-1, 0] = lam_final
    return RunRecord(
        thetas=np.zeros((k + 1, 2)),
        lambdas=lambdas,
        etas=np.full(k, 0.1),
        returns=np.asarray(returns, dtype=float),
        costs=np.asarray(costs, dtype=float).reshape(k, 1),
        meta={"kind": "synthetic"},
    )


def rowwise_csv(rec):
    """The reference CSV text of a record: one f-string per row, every
    value through float() and repr, the rows of a cycle included."""
    return ",".join(CSV_COLUMNS) + "\n" + "".join(
        f"{k},{float(rec.returns[k])!r},{float(rec.costs[k, 0])!r},"
        f"{float(rec.etas[k])!r},{float(rec.lambdas[k, 0])!r}\n"
        for k in range(rec.iterations)
    )


def assert_same_bytes(got, want):
    """got and want are the same bytes; a failure names the first line
    that differs, not a diff of two long texts."""
    if got.encode() != want.encode():
        got, want = got.splitlines(), want.splitlines()
        first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
        pytest.fail(f"{len(got)} vs {len(want)} lines, first differing line {first}")


def cycled_record(iterations, cycle):
    """A record of random rows, those from the cycle's start on repeating
    the cycle's rows (cycle_index), that carries the cycle."""
    rng = np.random.default_rng(iterations)
    rows, _ = cycle_index(iterations + 1, cycle)
    returns, costs, etas, lambdas = rng.normal(size=(4, iterations + 1))[:, rows]
    return RunRecord(
        thetas=np.zeros((iterations + 1, 2)),
        lambdas=np.abs(lambdas).reshape(-1, 1),
        etas=etas[:-1],
        returns=returns[:-1],
        costs=costs[:-1].reshape(-1, 1),
        meta={"kind": "synthetic"},
        cycle=cycle,
    )


def aggregate_records(directory, records):
    """aggregate_dir over the records stored as the CSVs of one results
    directory: every aggregate.csv column, by header name, as an array."""
    names = [f"seed_{i}.csv" for i in range(len(records))]
    (directory / "runs").mkdir(parents=True)
    for name, rec in zip(names, records):
        (directory / "runs" / name).write_text(record_to_csv(rec))
    (directory / "summary.json").write_text(json.dumps({"csv": names}))
    with open(aggregate_dir(directory), newline="") as fh:
        header, *rows = csv.reader(fh)
    columns = np.array(rows, dtype=float).reshape(len(rows), len(header)).T
    return dict(zip(header, columns))


def summary_cost_se(rec, window):
    """The cost_window_se that the summary of a sampled run records for rec."""
    entry, _ = harness.seed_summary(parse_config(make_grid_raw(window=window)), rec)
    return entry["cost_window_se"]


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(make_testbed_raw())
        assert cfg.gamma == 0.99
        assert cfg.window == 0.2
        assert cfg.workers == 1
        assert cfg.seeds == (0, 1)
        assert parse_config(make_testbed_raw(seeds=[2**32 - 1])).seeds == (2**32 - 1,)

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"schema_version": 2}, "schema_version"),
            ({"task": "cartpole"}, "task:"),
            ({"algorithm": "papd-reinforce"}, "testbed task uses apd"),
            ({"iterations": 0}, "iterations"),
            ({"seeds": []}, "seeds"),
            ({"seeds": [1, 1]}, "duplicates"),
            ({"seeds": [0, "a"]}, "seeds"),
            ({"cost_limit": "low"}, "cost_limit"),
            ({"gamma": 1.0}, "gamma"),
            ({"schedule": {"variant": "cosine"}}, "schedule:"),
            ({"dual": {"variant": "ascent"}}, "zeta"),
            ({"dual": {"variant": "pid"}}, "ascent"),
            ({"window": 0.0}, "window"),
            ({"output_dir": ""}, "output_dir"),
            ({"dual": {"variant": "ascent", "zeta": 0.05, "zetta": 0.1}},
             r"dual: unknown keys \['zetta'\]"),
            ({"cost_limit": 0.0}, "cost_limit: the testbed needs a positive limit"),
            ({"cost_limit": -0.5}, "no Slater point"),
        ],
    )
    def test_testbed_errors_name_the_field(self, patch, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(make_testbed_raw(**patch))

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"iterations": True}, "iterations"),
            ({"seeds": [True]}, "seeds"),
            ({"seeds": [3, False]}, "seeds"),
            ({"seeds": [-1]}, "seeds"),
            ({"cost_limit": True}, "cost_limit"),
            ({"gamma": True}, "gamma"),
            ({"workers": True}, "workers"),
            ({"window": True}, "window"),
            ({"sampling": {"n_traj": True, "horizon": 12}}, "sampling.n_traj"),
            ({"sampling": {"n_traj": 4, "horizon": True}}, "sampling.horizon"),
            ({"sampling": {"n_traj": "4", "horizon": 12}}, "sampling: n_traj"),
            ({"sampling": {"n_traj": 4, "horizon": 12.0}}, "sampling: horizon"),
            ({"schedule": {"variant": "invlin-practical", "h1": True, "h2": 3}},
             "schedule.h1"),
            ({"dual": {"variant": "pid", "kp": 0.05, "ki": False, "kd": 0.1}},
             "dual.ki"),
            ({"ppol": {"epochs": True}}, "ppol.epochs"),
            ({"task_params": {"slip_prob": False}}, "task_params.slip_prob"),
            ({"schema_version": True}, "schema_version"),
            ({"seeds": [0, 2**32]}, r"seeds: .* in \[0, 2\^32\)"),
            ({"windw": 0.5}, r"top level: unknown keys \['windw'\]"),
            ({"dual": {"variant": "pid", "k_p": 0.9, "Ki": 0.2}},
             r"dual: unknown keys \['Ki', 'k_p'\]"),
            ({"schedule": {"variant": "invlin-practical", "h1": 0.003, "h2": 3,
                           "eta": 0.1}}, r"schedule: unknown keys \['eta'\]"),
            ({"sampling": {"n_traj": 4, "horizon": 12, "n_trajs": 8}},
             r"sampling: unknown keys \['n_trajs'\]"),
            ({"ppol": {"epochs": 2, "lr": 0.1}}, r"ppol: unknown keys \['lr'\]"),
            ({"dual": {"variant": "pid", "kp": "0.1"}},
             "dual: kp must be a finite number, got '0.1'"),
            ({"dual": {"variant": "pid", "kd": float("inf")}},
             "dual: kd must be a finite number"),
        ],
    )
    def test_booleans_and_negative_seeds_rejected(self, patch, fragment):
        # JSON true/false parse as bool, a subclass of int
        with pytest.raises(ConfigError, match=fragment):
            parse_config(make_grid_raw(**patch))

    def test_sampled_task_errors(self):
        with pytest.raises(ConfigError, match="papd"):
            parse_config(make_grid_raw(algorithm="apd"))
        with pytest.raises(ConfigError, match="sampling"):
            parse_config(make_grid_raw(sampling=None))
        with pytest.raises(ConfigError, match="pid"):
            parse_config(make_grid_raw(dual={"variant": "ascent", "zeta": 0.1}))
        with pytest.raises(ConfigError, match="ppol"):
            parse_config(make_grid_raw(ppol={"clip": -1.0}))

    @pytest.mark.parametrize("variant", ["invlin-exact", "invqua-exact"])
    @pytest.mark.parametrize("task", ["gridworld", "point-run", "point-circle"])
    def test_exact_schedule_needs_the_testbed(self, task, variant):
        # L_R, L_C and mu, which the exact step sizes need, exist only on
        # the quadratic testbed
        raw = make_grid_raw(task=task, schedule={"variant": variant})
        want = f"schedule: the {task} task needs a practical or constant schedule"
        with pytest.raises(ConfigError, match=want):
            parse_config(raw)
        assert parse_config(make_testbed_raw(schedule={"variant": variant}))

    def test_parsed_config_holds_the_solver_config(self):
        cfg = parse_config(make_grid_raw(algorithm="papd-ppol", ppol={"epochs": 2}))
        solver = cfg.solver
        assert cfg.iterations == solver.iterations == 12
        assert (solver.schedule.h1, solver.schedule.h2) == (0.003, 3.0)
        assert (solver.gains.k_p, solver.gains.k_i) == (0.05, 0.0005)
        assert (solver.sampling.n_traj, solver.sampling.horizon) == (4, 12)
        assert solver.ppol.epochs == 2 and solver.ppol.clip_ratio == 0.2
        assert solver.seed == 0 and solver.theta0 is None
        testbed = parse_config(make_testbed_raw()).solver
        assert (testbed.zeta, testbed.sampling, testbed.ppol) == (0.05, None, None)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_pickle(self, path):
        # a config goes to each worker process of a workers > 1 run
        cfg = load_config(path)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    @pytest.mark.parametrize(
        "section, raw",
        [
            ("ppol", make_grid_raw(ppol={"epochs": 2})),
            ("sampling", make_testbed_raw(sampling={"n_traj": 4, "horizon": 12})),
            ("task_params", make_testbed_raw(task_params={"noise_std": 0.1})),
        ],
        ids=["ppol-on-reinforce", "sampling-on-apd", "task_params-on-testbed"],
    )
    def test_unread_sections_rejected(self, section, raw):
        with pytest.raises(ConfigError, match=f"^{section}: .* does not read"):
            parse_config(raw)

    def test_gamma_and_empty_sections_accepted_where_unread(self):
        # the shipped testbed configs set gamma and an empty task_params
        cfg = parse_config(make_testbed_raw(gamma=0.9, task_params={}))
        assert cfg.gamma == 0.9
        assert parse_config(make_grid_raw(ppol={})).solver.ppol is None

    def test_gridworld_param_whitelist(self):
        spec = build_gridworld_spec({"slip_prob": 0.2})
        assert spec.slip_prob == 0.2
        with pytest.raises(ConfigError, match="teleporters"):
            build_gridworld_spec({"teleporters": [3]})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_load_config_reports_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "task": testbed\n}\n')
        with pytest.raises(ConfigError, match=r"line 2 column"):
            load_config(path)


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        rec = synthetic_record(
            [0.1 + 1e-17, -2.5, 1.0 / 3.0], [9.007199254740993, 0.0, 1e-308]
        )
        path = tmp_path / "run.csv"
        path.write_text(record_to_csv(rec))
        cols = read_record_csv(path)
        np.testing.assert_array_equal(cols["step"], [0, 1, 2])
        np.testing.assert_array_equal(cols["return"], rec.returns)
        np.testing.assert_array_equal(cols["cost"], rec.costs[:, 0])
        np.testing.assert_array_equal(cols["lr"], rec.etas)
        np.testing.assert_array_equal(cols["lambda"], rec.lambdas[:-1, 0])

    def test_no_numpy_reprs_in_text(self):
        text = record_to_csv(synthetic_record([1.5], [2.5]))
        assert "np." not in text
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,reward,cost,lr,lambda\n0,1.0,2.0,0.1,0.0\n")
        with pytest.raises(VerificationError, match="header"):
            read_record_csv(path)

    @pytest.mark.parametrize(
        "kind",
        [
            "edge-values",
            "empty",
            "testbed",
            "testbed-period-2",
            "equal-rows-apart",
            "signed-zero",
            "gridworld",
            "point-run",
        ],
    )
    def test_text_equals_per_row_formula(self, kind):
        if kind == "edge-values":
            values = [-0.0, 1e-300, 1e22, 2.0, 0.1 + 1e-17]
            rec = synthetic_record(values, values[::-1])
            rec.etas[:] = values
            rec.lambdas[:, 0] = [*values, 5.0]
        elif kind == "empty":
            rec = synthetic_record([], [])
        elif kind == "testbed":  # 2500 rows filled from a cycle of one
            raw = make_testbed_raw(iterations=2500)
            rec = harness._run_single(parse_config(raw), 0)
        elif kind == "testbed-period-2":  # rows filled from a cycle of two
            raw = make_testbed_raw(iterations=1000, cost_limit=0.95)
            rec = harness._run_single(parse_config(raw), 0)
        elif kind == "equal-rows-apart":  # rows 0, 2, 5 equal, and rows 1, 4
            rec = synthetic_record([1.5, 2.5, 1.5, 3.5, 2.5, 1.5], [0.25] * 6)
        elif kind == "signed-zero":  # each row differs from row 0 in one sign
            rec = synthetic_record([0.0, -0.0, 0.0, 0.0, 0.0], [0.0] * 5)
            rec.costs[2, 0] = -0.0
            rec.etas[:] = [0.0, 0.0, 0.0, -0.0, 0.0]
            rec.lambdas[:, 0] = [0.0, 0.0, 0.0, 0.0, -0.0, 1.0]
        else:  # a sampled record: every row distinct
            raw = make_grid_raw(task=kind, iterations=100 if kind == "gridworld" else 5)
            rec = harness._run_single(parse_config(raw), 0)
        if kind.startswith("testbed"):
            assert rec.cycle is not None
        assert_same_bytes(record_to_csv(rec), rowwise_csv(rec))

    @pytest.mark.parametrize("cycle", [None, (0, 1), (0, 2), (3, 1), (4, 2)])
    @pytest.mark.parametrize("iterations", [9, 10, 99, 100, 1000, 10**4, 10**5])
    def test_text_equals_rowwise_reference(self, iterations, cycle):
        # step numbers across every digit boundary, with rows from a cycle
        # of one or two, from row 0 on or later, or with no cycle
        rec = cycled_record(iterations, cycle)
        assert_same_bytes(record_to_csv(rec), rowwise_csv(rec))

    def test_step_texts_equal_str(self):
        want = [str(k) for k in range(10**5 + 1)]
        for n in (0, 1, 9, 10, 11, 99, 100, 101, 9999, 10**4, 10**4 + 1, 10**5 + 1):
            assert harness._step_texts(n) == want[:n], n

    def test_multi_constraint_rejected(self):
        # a record, and so its CSV, has one lambda and one cost column
        for lambdas, costs in (((2, 2), (1, 2)), ((2, 1), (1, 2)), ((2,), (1, 1))):
            with pytest.raises(ValueError, match="single-constraint"):
                RunRecord(
                    thetas=np.zeros((2, 2)),
                    lambdas=np.zeros(lambdas),
                    etas=np.zeros(1),
                    returns=np.zeros(1),
                    costs=np.zeros(costs),
                    meta={"kind": "synthetic"},
                )


class TestAggregation:
    def test_identical_records_collapse(self, tmp_path):
        rec = synthetic_record([1.0, 2.0], [3.0, 4.0])
        stats = aggregate_records(tmp_path, [rec, rec])
        for name in ("return", "cost", "lr", "lambda"):
            np.testing.assert_array_equal(stats[f"{name}_mean"], stats[f"{name}_min"])
            np.testing.assert_array_equal(stats[f"{name}_mean"], stats[f"{name}_max"])
        assert stats["step"].size == 2

    def test_hand_computed_envelope(self, tmp_path):
        a = synthetic_record([1.0, 5.0], [0.0, 2.0])
        b = synthetic_record([3.0, 1.0], [4.0, 0.0])
        stats = aggregate_records(tmp_path, [a, b])
        np.testing.assert_array_equal(stats["return_mean"], [2.0, 3.0])
        np.testing.assert_array_equal(stats["return_min"], [1.0, 1.0])
        np.testing.assert_array_equal(stats["return_max"], [3.0, 5.0])
        np.testing.assert_array_equal(stats["cost_mean"], [2.0, 1.0])

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(VerificationError, match="iteration count"):
            aggregate_records(
                tmp_path / "a",
                [synthetic_record([1.0], [1.0]), synthetic_record([1.0, 2.0], [1, 2])],
            )
        with pytest.raises(VerificationError, match="no records"):
            aggregate_records(tmp_path / "b", [])

    def test_final_window(self):
        rec = synthetic_record(np.arange(10.0), np.arange(10.0) * 2, lam_final=0.7)
        stats, _ = harness.seed_summary(parse_config(make_grid_raw(window=0.2)), rec)
        assert stats["return_mean"] == pytest.approx(8.5)
        assert stats["cost_mean"] == pytest.approx(17.0)
        assert stats["lambda_final"] == pytest.approx(0.7)
        # window rounding never drops to zero rows
        tiny, _ = harness.seed_summary(parse_config(make_grid_raw(window=0.01)), rec)
        assert tiny["return_mean"] == pytest.approx(9.0)

    def test_only_the_runs_in_the_summary(self, tmp_path, monkeypatch):
        # a 1-seed run over a 3-seed run's directory leaves two stale CSVs
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        run_experiment(parse_config(make_testbed_raw(seeds=[0, 1, 2], output_dir="a")))
        rerun = dict(seeds=[1], cost_limit=0.8)
        run_experiment(parse_config(make_testbed_raw(output_dir="a", **rerun)))
        run_experiment(parse_config(make_testbed_raw(output_dir="b", **rerun)))
        assert (tmp_path / "a" / "runs" / "seed_2.csv").exists()
        for name in ("a", "b"):
            assert main(["aggregate", str(tmp_path / name)]) == 0
        got, want = (tmp_path / "a" / "aggregate.csv", tmp_path / "b" / "aggregate.csv")
        assert got.read_bytes() == want.read_bytes()

    def test_missing_listed_csv_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_testbed_raw(iterations=20)))
        result.csv_paths[1].unlink()
        assert main(["aggregate", str(result.output_dir)]) == 3
        assert str(result.csv_paths[1]) in capsys.readouterr().err


class TestWindowCostSe:
    def test_known_batch_means(self):
        # 100 iterations, window 0.45: 45 window costs, 20 batches of 2 from
        # its last 40; batch j holds j - 0.5 and j + 0.5, so its mean is j.
        tail = np.repeat(np.arange(20.0), 2) + np.tile([-0.5, 0.5], 20)
        costs = np.concatenate([np.full(55, 1e6), np.full(5, -1e6), tail])
        rec = synthetic_record(np.zeros(100), costs)
        want = np.arange(20.0).std(ddof=1) / np.sqrt(20)  # sqrt(35 / 20)
        assert summary_cost_se(rec, 0.45) == pytest.approx(want, rel=1e-14)

    def test_short_window_uses_single_iterations(self):
        costs = np.array([9.0, 9.0, 9.0, 9.0, 1.0, 2.0, 4.0, 8.0])
        rec = synthetic_record(np.zeros(8), costs)
        want = np.array([1.0, 2.0, 4.0, 8.0]).std(ddof=1) / 2.0
        assert summary_cost_se(rec, 0.5) == pytest.approx(want, rel=1e-14)

    def test_none_without_two_batches_or_spread(self):
        rec = synthetic_record(np.zeros(10), np.arange(10.0))
        assert summary_cost_se(rec, 0.01) is None  # a 1-iteration window
        assert summary_cost_se(synthetic_record(np.zeros(10), np.ones(10)), 0.5) is None

    def test_summary_reports_se_and_margin(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(iterations=40, window=0.5)
        result = run_experiment(parse_config(raw))
        entry = json.loads(result.summary_path.read_text())["per_seed"]["0"]
        se = feasibility_check(result.records[0], raw["cost_limit"], 0.5).window_se
        assert se > 0.0 and entry["cost_window_se"] == se
        margin = (entry["cost_window_avg"] - raw["cost_limit"]) / se
        assert entry["cost_window_margin"] == margin

    def test_summary_writes_null_for_a_zero_se(self, tmp_path, monkeypatch):
        # no hazard cost: every sampled cost is 0, so is the SE
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(task_params={"hazard_cost": 0.0})
        result = run_experiment(parse_config(raw))
        text = result.summary_path.read_text()
        entry = json.loads(text)["per_seed"]["0"]
        assert entry["cost_window_se"] is None and entry["cost_window_margin"] is None
        assert '"cost_window_se": null' in text
        assert entry["feasible"] is True


# SHA-256 of record_to_csv for seed 0 of short runs of every sampled path.
PINNED_CSV = {
    "grid-reinforce": (
        "55b45b5b3453a13d470ed61e8b0409afb3434b4f3090ce5c538069532848a6fa"
    ),
    "grid-reinforce-slip": (
        "aaa70cff9d9871b9f5bcbaaab5811637d5425ff8ba130e5a657aa6c30aa6e1a4"
    ),
    "grid-ppol-exact-values": (
        "d903fd71d9c1552e7356ef437024cc902b89d02f0b62f46ae1b58851cc65c4ba"
    ),
    "point-run-ppol": (
        "094bfd9f8c4d3be535cf19b7959e48357cf16210418d0d6b433b44409ac0d7c6"
    ),
    "point-run-reinforce": (
        "5fcad96a7a24e37482915a3a7de37a6300aaffb5b2c737ab0f2f78296e79f806"
    ),
}
PINNED_NUMPY = "2.4.6"


def pinned_run_raw(name):
    ppol = {"clip_ratio": 0.2, "gae_lambda": 0.95, "minibatch_size": 64, "epochs": 2}
    grid = make_grid_raw(iterations=200, sampling={"n_traj": 16, "horizon": 24})
    # the shipped point-run config with Gaussian REINFORCE in place of PPO
    point = json.loads((CONFIGS / "point_run_ppol.json").read_text())
    del point["ppol"]
    point.update(algorithm="papd-reinforce", iterations=60)
    return {
        "grid-reinforce": grid,
        "grid-reinforce-slip": dict(grid, task_params={"slip_prob": 0.2}),
        "grid-ppol-exact-values": dict(
            grid, algorithm="papd-ppol", iterations=40, ppol=ppol
        ),
        "point-run-ppol": dict(
            grid,
            task="point-run",
            algorithm="papd-ppol",
            iterations=5,
            cost_limit=2.0,
            sampling={"n_traj": 8, "horizon": 64},
            ppol=dict(ppol, minibatch_size=256),
            task_params={"noise_std": 0.05},
        ),
        "point-run-reinforce": point,
    }[name]


@pytest.mark.parametrize("name", list(PINNED_CSV))
def test_sampled_csv_digest_pinned(name):
    """The CSV of each sampled path is byte-identical to the one pinned under
    numpy 2.4.6: sampling, gradients, duals and the CSV text all feed it."""
    text = record_to_csv(harness._run_single(parse_config(pinned_run_raw(name)), 0))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_CSV[name], (
        f"{name}: CSV digest {digest} under numpy {np.__version__} differs from "
        f"the one pinned under numpy {PINNED_NUMPY}"
    )


# SHA-256 of the seed-0 CSV and certificate JSON of the shipped testbed
# configs (d = 0.5, 10^4 iterations of the exact loop).
PINNED_TESTBED = {
    "testbed-invlin": {
        "csv": "fc63e55bfd99c244acfe6562e607ab86dd87414cd3439eacdc7905547a4bf38a",
        "certificate": (
            "61d2d3c1c3ba59f69efc6ee8c0315361368209100e97176772f3d346348a2c33"
        ),
    },
    "testbed-invqua": {
        "csv": "b2460ac6a5f50bab69be37d8d04ec1b404019204b04ecab20e9e4b24474cd653",
        "certificate": (
            "e4e0b5aa855806dd90ceeca2fbaeb042c36e7160442f10e9ab70e963304a7a81"
        ),
    },
}


@pytest.mark.parametrize("name", list(PINNED_TESTBED))
def test_testbed_artifact_digests_pinned(name):
    """The shipped testbed CSV and certificate are byte-identical to the
    pinned ones: the exact loop, the schedules, the dual ascent, the bound
    checks and the CSV and JSON text all feed them."""
    cfg = load_config(CONFIGS / f"{name.replace('-', '_')}.json")
    record = harness._run_single(cfg, 0)
    _, cert = harness.seed_summary(cfg, record)
    texts = {
        "csv": record_to_csv(record),
        "certificate": harness.certificate_json(cert),
    }
    for kind, text in texts.items():
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_TESTBED[name][kind], f"{name}: {kind} digest {digest}"


# Kernel choices of a CPU without AVX-512, forced per process: the OpenBLAS
# kernel, and numpy's SIMD dispatch without its AVX-512 loops.
CPU_VARIANTS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
    "openblas-prescott-numpy-baseline": {
        "OPENBLAS_CORETYPE": "Prescott",
        "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR,X86_V3",
    },
}
ON_X86_64 = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the kernel settings are x86-64 ones",
)


def variant_env(variant, **extra):
    """os.environ with the variant's kernel settings, this source tree on
    PYTHONPATH and extra; skips the test if numpy does not import."""
    src = str(Path(apdual.__file__).resolve().parents[1])
    env = dict(os.environ, **CPU_VARIANTS[variant], **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True
    )
    if probe.returncode:
        pytest.skip(f"numpy does not import under {variant}: {probe.stderr[-300:]}")
    return env


@ON_X86_64
@pytest.mark.parametrize("variant", list(CPU_VARIANTS))
def test_testbed_artifact_digests_independent_of_cpu_kernels(variant, tmp_path):
    """`apdual run` of the shipped testbed configs, in a subprocess under
    each kernel setting, writes the pinned CSV and certificate bytes."""
    env = variant_env(variant, **{OUTPUT_ROOT_ENV: str(tmp_path)})
    for name, pinned in PINNED_TESTBED.items():
        config = name.replace("-", "_")
        proc = subprocess.run(
            [sys.executable, "-m", "apdual.cli", "run", str(CONFIGS / f"{config}.json")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "out" / config
        files = {"csv": out / "runs" / "seed_0.csv",
                 "certificate": out / "certificates" / "seed_0.json"}
        for kind, path in files.items():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == pinned[kind], f"{variant}, {name}: {kind} digest {digest}"


# SHA-256 of policy._gaussian_means over 10^5 random rows, F = 4, A = 2.
PINNED_GAUSSIAN_MEANS = (
    "0511a10c425db155b874534afea60f3ba28df15df4a78905a0084e927b438f8f"
)
GAUSSIAN_MEANS_PROBE = """
import hashlib
import numpy as np
from apdual.policy import _gaussian_means
rng = np.random.default_rng(20)
w, x = rng.standard_normal((1, 2, 4)), rng.standard_normal((100_000, 4))
print(hashlib.sha256(_gaussian_means(w, x).tobytes()).hexdigest())
"""


def test_gaussian_means_order_and_digest():
    """Each Gaussian mean is (x0 w0 + x2 w2) + (x1 w1 + x3 w3), the order
    behind the pinned digest."""
    names = {}
    exec(GAUSSIAN_MEANS_PROBE, names)  # the subprocesses' inputs; prints the digest
    x, w = names["x"], names["w"][0]
    means = names["_gaussian_means"](names["w"], x)
    for a in range(2):
        pairs = (x[:, 0] * w[a, 0] + x[:, 2] * w[a, 2]) + (
            x[:, 1] * w[a, 1] + x[:, 3] * w[a, 3]
        )
        assert np.array_equal(means[:, a], pairs), a
    assert hashlib.sha256(means.tobytes()).hexdigest() == PINNED_GAUSSIAN_MEANS
    # the feature-major kernel adds the same products in the same order
    assert np.array_equal(_block_means(w, x.T).T, means)


@ON_X86_64
@pytest.mark.parametrize("variant", list(CPU_VARIANTS))
def test_gaussian_means_digest_independent_of_cpu_kernels(variant):
    """The Gaussian means, in a subprocess under each kernel setting, give
    the pinned digest."""
    proc = subprocess.run(
        [sys.executable, "-c", GAUSSIAN_MEANS_PROBE],
        env=variant_env(variant), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == PINNED_GAUSSIAN_MEANS, variant


SAMPLED_CSV_PROBE = """
import hashlib, json, sys
from apdual import harness
for name, raw in json.load(sys.stdin).items():
    record = harness._run_single(harness.parse_config(raw), 0)
    text = harness.record_to_csv(record)
    print(name, hashlib.sha256(text.encode()).hexdigest())
"""


@ON_X86_64
@pytest.mark.parametrize("variant", list(CPU_VARIANTS))
def test_sampled_csv_digest_independent_of_cpu_kernels(variant):
    """Every PINNED_CSV run, in a subprocess under each kernel setting,
    gives its pinned CSV digest."""
    raws = {name: pinned_run_raw(name) for name in PINNED_CSV}
    proc = subprocess.run(
        [sys.executable, "-c", SAMPLED_CSV_PROBE], input=json.dumps(raws),
        env=variant_env(variant), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split() for line in proc.stdout.splitlines())
    assert got == PINNED_CSV, variant


# SHA-256 of 10^5 uniforms, 10^5 normals and a permutation of 10^4 from
# three Philox addresses under key (7, 3).
PINNED_PHILOX_STREAMS = (
    "c49d11b38442b2b95e75f6a509c9d0012b965e701318077f496aa42252464c4b"
)
PHILOX_STREAMS_PROBE = """
import hashlib
from apdual.cmdp import SHUFFLE_COUNTER, philox
digest = hashlib.sha256()
digest.update(philox((7, 3)).random(100_000).tobytes())
digest.update(philox((7, 3), (0, 5, 0, 0)).standard_normal(100_000).tobytes())
digest.update(philox((7, 3), SHUFFLE_COUNTER).permutation(10_000).tobytes())
print(digest.hexdigest())
"""


def test_philox_stream_digest_pinned(capsys):
    exec(PHILOX_STREAMS_PROBE, {})  # the subprocesses' probe; prints the digest
    assert capsys.readouterr().out.strip() == PINNED_PHILOX_STREAMS


@ON_X86_64
@pytest.mark.parametrize("variant", list(CPU_VARIANTS))
def test_philox_stream_digest_independent_of_cpu_kernels(variant):
    """The Philox streams, in a subprocess under each kernel setting, give
    the pinned digest."""
    proc = subprocess.run(
        [sys.executable, "-c", PHILOX_STREAMS_PROBE],
        env=variant_env(variant), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == PINNED_PHILOX_STREAMS, variant


class TestRunExperiment:
    def test_testbed_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_testbed_raw()
        result = run_experiment(parse_config(raw))
        assert result.output_dir == tmp_path / "testbed_out"
        for seed in (0, 1):
            assert (result.output_dir / "runs" / f"seed_{seed}.csv").exists()
            assert (result.output_dir / "certificates" / f"seed_{seed}.json").exists()
        assert result.certificates_passed
        summary = json.loads(result.summary_path.read_text())
        assert summary["config"] == raw
        assert summary["per_seed"]["0"]["certificate_passed"] is True
        assert set(summary["aggregate"]) == {
            "return_mean", "return_std", "cost_mean", "cost_std",
        }

    def test_reruns_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        first = run_experiment(parse_config(make_testbed_raw(output_dir="a")))
        second = run_experiment(parse_config(make_testbed_raw(output_dir="b")))
        for p1, p2 in zip(first.csv_paths, second.csv_paths):
            assert p1.read_bytes() == p2.read_bytes()

    def test_gridworld_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_grid_raw()))
        assert result.certificate_paths == []
        cols = read_record_csv(result.csv_paths[0])
        assert cols["step"].size == 12
        np.testing.assert_array_equal(
            cols["return"], result.records[0].returns
        )

    def test_sampled_runs_record_feasibility(self, tmp_path, monkeypatch):
        # sampled costs of this short run lie between about 3 and 14
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        for limit, want in ((100.0, True), (0.0, False)):
            raw = make_grid_raw(cost_limit=limit, output_dir=f"grid_{limit:g}")
            result = run_experiment(parse_config(raw))
            summary = json.loads(result.summary_path.read_text())
            assert summary["per_seed"]["0"]["feasible"] is want

    def test_sampled_runs_record_the_compared_averages(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(iterations=20, window=0.25)
        result = run_experiment(parse_config(raw))
        entry = json.loads(result.summary_path.read_text())["per_seed"]["0"]
        costs = result.records[0].costs[:, 0]
        assert entry["cost_full_avg"] == float(np.cumsum(costs)[-1] / 20)
        assert entry["cost_window_avg"] == float(costs[-5:].mean())
        # the verdict compares exactly these two numbers with d + 0.01
        limit = raw["cost_limit"] + 1e-2
        assert entry["feasible"] is (
            entry["cost_full_avg"] <= limit and entry["cost_window_avg"] <= limit
        )

    def test_verify_dir_reproduces(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_testbed_raw(seeds=[3])))
        lines = verify_dir(result.output_dir)
        assert len(lines) == 1
        assert "reproduced" in lines[0] and "certificate passed" in lines[0]

    def test_verify_dir_detects_tampering(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_grid_raw()))
        target = result.csv_paths[0]
        lines = target.read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[1], "0.123", 1)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(VerificationError, match="differs"):
            verify_dir(result.output_dir)

    def test_verify_dir_names_first_differing_cell(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_testbed_raw(seeds=[3])))
        target = result.csv_paths[0]
        lines = target.read_text().splitlines()
        cells = lines[8].split(",")  # data row 7
        original = cells[4]  # the lambda column
        cells[4] = "0.125"
        lines[8] = ",".join(cells)
        target.write_text("\n".join(lines) + "\n")
        want = (
            f"seed 3: stored CSV differs from regenerated run at row 7, "
            f"column lambda: stored 0.125, regenerated {original}"
        )
        with pytest.raises(VerificationError) as info:
            verify_dir(result.output_dir)
        assert str(info.value) == want

    def test_verify_dir_checks_the_verdict(self, tmp_path, monkeypatch, capsys):
        # the CSV bytes do not cover the feasibility verdict
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(cost_limit=0.0, seeds=[0, 4])
        result = run_experiment(parse_config(raw))
        summary = json.loads(result.summary_path.read_text())
        assert summary["per_seed"]["4"]["feasible"] is False
        summary["per_seed"]["4"]["feasible"] = True
        result.summary_path.write_text(json.dumps(summary))
        assert main(["verify", str(result.output_dir)]) == 3
        want = "seed 4: summary.json key feasible: stored True, regenerated False"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value, want",
        [
            (("per_seed", "0", "lambda_final"), 0.125, "seed 0: summary.json key "
             "lambda_final: stored 0.125, regenerated "),
            (("per_seed", "0", "cost_window_se"), None, "seed 0: summary.json key "
             "cost_window_se: stored None, regenerated "),
            (("per_seed", "0", "cost_full_avg"), "<drop>", "seed 0: summary.json key "
             "cost_full_avg: stored <missing>, regenerated "),
            (("aggregate", "cost_mean"), 1.5, "summary.json aggregate key "
             "cost_mean: stored 1.5, regenerated "),
            (("per_seed", "0", "wall_clock_s"), 1e9, None),
            (("wall_clock_s",), 1e9, None),
        ],
    )
    def test_verify_dir_compares_summary_keys(
        self, tmp_path, monkeypatch, keys, value, want
    ):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_grid_raw(iterations=20)))
        summary = json.loads(result.summary_path.read_text())
        *path, last = keys
        target = summary
        for key in path:
            target = target[key]
        if value == "<drop>":
            del target[last]
        else:
            target[last] = value
        result.summary_path.write_text(json.dumps(summary))
        if want is None:  # wall-clock times are not reproducible
            verify_dir(result.output_dir)
            return
        with pytest.raises(VerificationError) as info:
            verify_dir(result.output_dir)
        assert str(info.value).startswith(want)

    def test_verify_dir_checks_each_certificate_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_testbed_raw(iterations=50)))
        summary = json.loads(result.summary_path.read_text())
        calls = []
        check = harness.verify_bounds
        monkeypatch.setattr(
            harness, "verify_bounds", lambda *a: calls.append(1) or check(*a)
        )
        assert len(verify_dir(result.output_dir)) == 2
        assert len(calls) == 2
        summary["per_seed"]["1"]["certificate_passed"] = False
        result.summary_path.write_text(json.dumps(summary))
        with pytest.raises(VerificationError, match="seed 1: summary.json key "
                           "certificate_passed: stored False, regenerated True"):
            verify_dir(result.output_dir)

    @pytest.mark.parametrize(
        "edit, want",
        [
            ("passed", "seed 0: certificate seed_0.json key passed: "
             "stored False, regenerated True"),
            ("dual-gap", "seed 0: certificate seed_0.json key "
             "worst_slack.dual-gap: stored -5.0, regenerated "),
            ("layout", "seed 0: certificate seed_0.json text differs in layout only"),
            ("not-json", "seed_0.json is not a JSON object"),
            ("missing", "seed 0: certificate missing "),
        ],
        ids=["passed", "dual-gap", "layout", "not-json", "missing"],
    )
    def test_verify_dir_checks_stored_certificates(
        self, tmp_path, monkeypatch, capsys, edit, want
    ):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_testbed_raw()))
        assert main(["verify", str(result.output_dir)]) == 0
        path = result.output_dir / "certificates" / "seed_0.json"
        cert = json.loads(path.read_text())
        text = json.dumps(cert, indent=4, sort_keys=True)  # "layout"
        if edit == "passed":
            cert["passed"] = False
        elif edit == "dual-gap":
            cert["worst_slack"]["dual-gap"] = -5.0
        if edit in ("passed", "dual-gap"):
            text = json.dumps(cert, indent=2, sort_keys=True)
        elif edit == "not-json":
            text = "[]"
        if edit == "missing":
            path.unlink()
        else:
            path.write_text(text)
        assert main(["verify", str(result.output_dir)]) == 3
        assert want in capsys.readouterr().err

    def test_verify_dir_checks_the_csv_list(self, tmp_path, monkeypatch, capsys):
        # aggregate_dir reads exactly the CSVs that summary.json lists
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_testbed_raw()))
        summary = json.loads(result.summary_path.read_text())
        assert summary["csv"] == ["seed_0.csv", "seed_1.csv"]
        summary["csv"] = ["seed_0.csv"]
        result.summary_path.write_text(json.dumps(summary))
        assert main(["verify", str(result.output_dir)]) == 3
        want = (
            "summary.json key csv: stored ['seed_0.csv'], "
            "expected ['seed_0.csv', 'seed_1.csv']"
        )
        assert want in capsys.readouterr().err

    def test_summary_records_versions(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_grid_raw(iterations=3, seeds=[0])))
        summary = json.loads(result.summary_path.read_text())
        assert summary["apdual_version"] == apdual.__version__
        assert summary["numpy_version"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert summary["blas_version"] == f"{blas['name']} {blas['version']}"

    def test_verify_dir_names_numpy_version_mismatch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_grid_raw(iterations=6, seeds=[2])))
        target = result.csv_paths[0]
        stored_csv = target.read_text()
        summary = json.loads(result.summary_path.read_text())
        ours = f"apdual {apdual.__version__}"
        theirs = f"numpy {np.__version__}"
        blas = f"blas {harness.blas_version()}"
        doctored = [
            ({"numpy_version": "1.26.4"}, "numpy 1.26.4", theirs),
            ({"blas_version": "openblas 0.3.21"}, "blas openblas 0.3.21", blas),
            ({"apdual_version": "0.1.0"}, "apdual 0.1.0", ours),
            (
                {"apdual_version": "0.1.0", "numpy_version": "1.26.4"},
                "apdual 0.1.0 and numpy 1.26.4",
                f"{ours} and {theirs}",
            ),
        ]
        for versions, stored_under, regenerated_under in doctored:
            result.summary_path.write_text(json.dumps({**summary, **versions}))
            target.write_text(stored_csv)
            verify_dir(result.output_dir)  # equal bytes: the version alone passes
            lines = stored_csv.splitlines()
            cells = lines[4].split(",")  # data row 3
            original = cells[2]  # the cost column
            cells[2] = "0.5"
            lines[4] = ",".join(cells)
            target.write_text("\n".join(lines) + "\n")
            want = (
                f"seed 2: stored CSV differs from regenerated run (stored under "
                f"{stored_under}, regenerated under {regenerated_under}) at row 3, "
                f"column cost: stored 0.5, regenerated {original}"
            )
            with pytest.raises(VerificationError) as info:
                verify_dir(result.output_dir)
            assert str(info.value) == want

    def test_grid_ppol_exact_values_equal_per_rollout_lookup(self, monkeypatch):
        # the harness's exact-values callback indexes v_R and v_C by the
        # batch's states; a per-rollout lookup gives the same run
        cfg = parse_config(
            make_grid_raw(algorithm="papd-ppol", iterations=5, seeds=[1])
        )
        got = harness._run_single(cfg, 1)
        assert got.meta["algorithm"] == "ppol"
        grid = harness.build_gridworld_spec({})
        calls = []

        def per_rollout(params, batch):
            calls.append(1)
            v_r, v_c = policy_state_values(grid, softmax_table(params), 0.99, 12)
            return np.stack(
                [np.stack([v_r[row], v_c[row]], axis=1) for row in batch.states]
            )

        papd_run = harness.papd_run
        monkeypatch.setattr(
            harness,
            "papd_run",
            lambda cmdp, limit, solver: papd_run(
                cmdp, limit, dataclasses.replace(solver, values_fn=per_rollout)
            ),
        )
        want = harness._run_single(cfg, 1)
        assert len(calls) == 5
        for name in ("thetas", "lambdas", "etas", "returns", "costs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_verify_dir_names_row_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        result = run_experiment(parse_config(make_testbed_raw(seeds=[0])))
        target = result.csv_paths[0]
        target.write_text("".join(target.read_text().splitlines(True)[:-1]))
        want = "row count: stored 399, regenerated 400"
        with pytest.raises(VerificationError, match=want):
            verify_dir(result.output_dir)

    def test_verify_dir_needs_summary(self, tmp_path):
        with pytest.raises(ConfigError, match="summary.json"):
            verify_dir(tmp_path)

    def test_parallel_workers_match_serial(self, tmp_path, monkeypatch):
        collect_records = harness._collect_records
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        serial = run_experiment(
            parse_config(make_testbed_raw(output_dir="s", iterations=100))
        )
        parallel = run_experiment(
            parse_config(make_testbed_raw(output_dir="p", iterations=100, workers=2))
        )
        for p1, p2 in zip(serial.csv_paths, parallel.csv_paths):
            assert p1.read_bytes() == p2.read_bytes()
        # verify_dir reproduces the seeds the way the run fanned them out
        calls = []
        monkeypatch.setattr(
            harness, "_collect_records",
            lambda cfg: calls.append(cfg.workers) or collect_records(cfg),
        )
        assert len(verify_dir(parallel.output_dir)) == 2
        assert calls == [2]


class TestSweep:
    def test_parse_grid(self):
        assert parse_grid("eta:0.5,1,2") == ("eta", [0.5, 1.0, 2.0])
        for bad in ("lr:1,2", "eta", "eta:", "eta:0,-1", "h1:a,b"):
            with pytest.raises(ConfigError):
                parse_grid(bad)
        # factors that format alike would share one cell directory
        for bad, pair in (
            ("h1:1,1.0000001", "1.0 and 1.0000001"),
            ("eta:2,0.5,2", "2.0 and 2.0"),
            ("h2:1e-7,1.00000001e-7", "1e-07 and 1.00000001e-07"),
        ):
            with pytest.raises(ConfigError, match=f"factors {pair} share cell_"):
                parse_grid(bad)

    def test_sweep_table(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        table = sweep(parse_config(make_grid_raw()), "h1:0.5,2")
        assert table.name == "sweep_h1.csv"
        text = table.read_text().splitlines()
        assert text[0] == "param,factor,value,return_mean,return_std,cost_mean,cost_std"
        rows = [line.split(",") for line in text[1:]]
        assert [r[0] for r in rows] == ["h1", "h1"]
        assert [float(r[2]) for r in rows] == [0.003 * 0.5, 0.003 * 2]
        for factor in ("0.5", "2"):
            cell = tmp_path / "grid_out" / f"cell_h1_{factor}"
            assert (cell / "summary.json").exists()

    def test_grid_variant_mismatch(self):
        with pytest.raises(ConfigError, match="constant"):
            sweep(parse_config(make_grid_raw()), "eta:1.0")
        raw = make_grid_raw(schedule={"variant": "constant", "eta": 1e-3})
        with pytest.raises(ConfigError, match="practical"):
            sweep(parse_config(raw), "h1:1.0")


class TestCli:
    def write_cfg(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_run_ok(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        code = main(["run", self.write_cfg(tmp_path, make_testbed_raw(seeds=[0]))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("wrote") == 3  # csv, summary, certificate
        assert "final window" in out

    def test_run_config_error(self, tmp_path, capsys):
        code = main(["run", self.write_cfg(tmp_path, make_testbed_raw(seeds=[]))])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_run_boolean_seed_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        code = main(["run", self.write_cfg(tmp_path, make_grid_raw(seeds=[True]))])
        assert code == 2
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "grid_out").exists()

    @pytest.mark.parametrize(
        "params",
        [{"goal_cell": 99}, {"slip_prob": 1.5}, {"width": "5"},
         {"start_cell": 0.0}, {"hazard_cells": 3}],
        ids=lambda params: next(iter(params)),
    )
    def test_bad_gridworld_task_params_exit_2(
        self, tmp_path, monkeypatch, capsys, params
    ):
        # the task is built and checked before any output is written
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        code = main(["run", self.write_cfg(tmp_path, make_grid_raw(task_params=params))])
        assert code == 2
        assert "config error: task_params: " in capsys.readouterr().err
        assert not (tmp_path / "grid_out").exists()

    @pytest.mark.parametrize(
        "task, params",
        [("point-run", {"y_lim": 0.0}), ("point-run", {"goal": 3.0}),
         ("point-circle", {"dt": 2.0})],
        ids=["y_lim", "goal", "dt"],
    )
    def test_bad_point_task_params_exit_2(
        self, tmp_path, monkeypatch, capsys, task, params
    ):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(task=task, task_params=params)
        code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 2
        assert "config error: task_params: " in capsys.readouterr().err
        assert not (tmp_path / "grid_out").exists()

    @pytest.mark.parametrize("limit", [0.0, -0.25])
    def test_testbed_limit_without_slater_point_exit_2(
        self, tmp_path, monkeypatch, capsys, limit
    ):
        # J_C = 1/2 |theta|^2 >= 0 on the testbed: no theta is strictly
        # feasible for d <= 0, so the config is rejected before any run
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_testbed_raw(cost_limit=limit)
        code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 2
        assert "config error: cost_limit: " in capsys.readouterr().err
        assert not (tmp_path / "testbed_out").exists()
        # a sampled task's cost may be 0 on average: d = 0 is accepted
        assert parse_config(make_grid_raw(cost_limit=0.0)).cost_limit == 0.0

    @pytest.mark.parametrize("limit", [-1.0, -1e-9])
    @pytest.mark.parametrize("task", ["gridworld", "point-run"])
    def test_sampled_limit_below_zero_exit_2(
        self, tmp_path, monkeypatch, capsys, task, limit
    ):
        # every sampled step cost is >= 0 (an indicator on the point tasks,
        # 0 or hazard_cost >= 0 on the grid), so J_C >= 0 and no policy
        # meets d < 0: the config is rejected before any run
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(task=task, cost_limit=limit)
        code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 2
        assert "config error: cost_limit: " in capsys.readouterr().err
        assert not (tmp_path / "grid_out").exists()

    def test_exact_schedule_on_a_sampled_task_exit_2(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = json.loads((CONFIGS / "gridworld_papd.json").read_text())
        raw.update(schedule={"variant": "invlin-exact"}, output_dir="grid_out")
        code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 2
        want = "config error: schedule: the gridworld task needs a practical"
        assert want in capsys.readouterr().err
        assert not (tmp_path / "grid_out").exists()

    def test_unknown_point_task_param_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(task="point-run", task_params={"goal": [1, 0], "radius": 2})
        code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 2
        want = "config error: task_params: unknown point-run fields ['radius']"
        assert want in capsys.readouterr().err
        assert not (tmp_path / "grid_out").exists()

    def test_negative_hazard_cost_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(task_params={"hazard_cost": -4.0})
        code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 2
        assert "config error: task_params: hazard_cost" in capsys.readouterr().err
        assert not (tmp_path / "grid_out").exists()

    @pytest.mark.parametrize(
        "params",
        [
            {"step_reward": math.nan},
            {"goal_reward": math.inf},
            {"step_reward": 1e308, "goal_reward": 1e308},
        ],
        ids=["nan-step", "inf-goal", "sum-overflows"],
    )
    def test_non_finite_reward_exit_2(self, tmp_path, monkeypatch, capsys, params):
        # once exit 3 at seed 0, iteration 0, or a bare overflow warning
        # under -W error; now rejected before any output is written
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_grid_raw(task_params=params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: task_params: step_reward" in err and "must be finite" in err
        assert not (tmp_path / "grid_out").exists()

    def test_run_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_verify_roundtrip_and_tamper(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = self.write_cfg(tmp_path, make_grid_raw())
        assert main(["run", cfg]) == 0
        out_dir = str(tmp_path / "grid_out")
        assert main(["verify", out_dir]) == 0
        csv_path = tmp_path / "grid_out" / "runs" / "seed_0.csv"
        csv_path.write_text(csv_path.read_text().replace("0,", "9,", 1))
        assert main(["verify", out_dir]) == 3
        assert "verification failed" in capsys.readouterr().err

    def test_aggregate_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = self.write_cfg(tmp_path, make_testbed_raw(iterations=50))
        assert main(["run", cfg]) == 0
        out_dir = tmp_path / "testbed_out"
        assert main(["aggregate", str(out_dir)]) == 0
        lines = (out_dir / "aggregate.csv").read_text().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("step,return_mean,return_min,return_max")

    def test_divergent_run_fails_loudly(self, tmp_path, monkeypatch, capsys):
        # configs/point_circle_reinforce.json goes non-finite at iteration 11
        # on seed 0; the run must exit 3 and leave no output directory
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = json.loads((CONFIGS / "point_circle_reinforce.json").read_text())
        raw.update(iterations=25, seeds=[0], output_dir="circle_out")
        with np.errstate(all="ignore"):
            code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 3
        assert "seed 0, iteration 11: non-finite rewards" in capsys.readouterr().err
        assert not (tmp_path / "circle_out").exists()

    def test_divergence_under_warnings_as_errors_exits_3(self, tmp_path):
        # `python -W error`: the batch's overflow stays silenced inside its
        # np.errstate block, so the run still stops at the finiteness check
        raw = json.loads((CONFIGS / "point_circle_reinforce.json").read_text())
        raw.update(iterations=25, seeds=[0], output_dir="circle_out")
        src = str(Path(apdual.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, **{OUTPUT_ROOT_ENV: str(tmp_path)})
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "apdual.cli", "run",
             self.write_cfg(tmp_path, raw)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 3, proc.stderr
        assert "seed 0, iteration 11: non-finite rewards" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "circle_out").exists()

    def test_divergence_emits_no_runtime_warning(self):
        raw = json.loads((CONFIGS / "point_circle_reinforce.json").read_text())
        raw.update(iterations=25, seeds=[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="seed 0, iteration 11: "):
                harness._run_single(parse_config(raw), 0)

    @pytest.mark.parametrize("promote", ["warnings", "errstate"])
    def test_promoted_warning_names_seed_and_iteration(self, promote):
        # with h1 = 1000 the point-run policy's log-std overflows np.exp at
        # iteration 1; promoted to a RuntimeWarning (warnings as errors) or
        # a FloatingPointError (np.errstate), the overflow must still leave
        # as a NonFiniteError naming the seed and the iteration
        raw = json.loads((CONFIGS / "point_run_ppol.json").read_text())
        raw["schedule"]["h1"] = 1000
        raw.update(iterations=30, seeds=[0])
        want = "seed 0, iteration 1: overflow encountered in exp"

        def cause():
            with pytest.raises(NonFiniteError, match=want) as info:
                harness._run_single(parse_config(raw), 0)
            return info.value.__cause__

        if promote == "warnings":
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert isinstance(cause(), RuntimeWarning)
        else:
            with np.errstate(over="raise"):
                assert isinstance(cause(), FloatingPointError)

    def test_divergent_testbed_run_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_testbed_raw(seeds=[7], schedule={"variant": "constant", "eta": 5.0})
        with np.errstate(all="ignore"):
            code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 3
        assert "seed 7, iteration 6: non-finite theta" in capsys.readouterr().err
        assert not (tmp_path / "testbed_out").exists()

    def test_nan_never_written_to_summary(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        monkeypatch.setattr(
            harness, "_run_single",
            lambda cfg, seed: synthetic_record([1.0, float("nan")], [0.0, 0.0]),
        )
        with pytest.raises(ValueError, match="JSON"):
            run_experiment(parse_config(make_grid_raw(iterations=2)))

    def test_aggregate_empty_dir(self, tmp_path, capsys):
        assert main(["aggregate", str(tmp_path)]) == 2

    def test_sweep_subcommand(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = self.write_cfg(tmp_path, make_grid_raw(iterations=6))
        assert main(["sweep", cfg, "--grid", "h1:1"]) == 0
        assert "sweep_h1.csv" in capsys.readouterr().out
        assert main(["sweep", cfg, "--grid", "bogus:1"]) == 2

    def test_failing_sweep_cell_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        # eta 0.1 runs clean and eta 10 diverges; as with a failing seed of
        # `run`, the sweep exits 3 before it writes any cell
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_testbed_raw(seeds=[0], schedule={"variant": "constant", "eta": 0.1})
        cfg = self.write_cfg(tmp_path, raw)
        with np.errstate(all="ignore"):
            assert main(["sweep", cfg, "--grid", "eta:1,100"]) == 3
        assert "seed 0, iteration" in capsys.readouterr().err
        assert not (tmp_path / "testbed_out").exists()
        assert main(["sweep", cfg, "--grid", "eta:1"]) == 0
        assert (tmp_path / "testbed_out" / "cell_eta_1" / "summary.json").exists()
