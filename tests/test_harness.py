"""Experiment harness and CLI.

Config validation, lossless CSV round-trips, across-seed aggregation against
hand-built records, reproducibility of stored artifacts, sweeps, and CLI
exit codes.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from apdual import harness
from apdual.cli import main
from apdual.cmdp import NonFiniteError
from apdual.harness import (
    CSV_COLUMNS,
    OUTPUT_ROOT_ENV,
    ConfigError,
    VerificationError,
    aggregate_seeds,
    build_gridworld_spec,
    final_window_stats,
    load_config,
    parse_config,
    parse_grid,
    read_record_csv,
    record_to_csv,
    run_experiment,
    sweep,
    verify_dir,
)
from apdual.solver import RunRecord

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


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(make_testbed_raw())
        assert cfg.gamma == 0.99
        assert cfg.window == 0.2
        assert cfg.workers == 1
        assert cfg.seeds == (0, 1)

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
        ],
    )
    def test_testbed_errors_name_the_field(self, patch, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(make_testbed_raw(**patch))

    def test_sampled_task_errors(self):
        with pytest.raises(ConfigError, match="papd"):
            parse_config(make_grid_raw(algorithm="apd"))
        with pytest.raises(ConfigError, match="sampling"):
            parse_config(make_grid_raw(sampling=None))
        with pytest.raises(ConfigError, match="pid"):
            parse_config(make_grid_raw(dual={"variant": "ascent", "zeta": 0.1}))
        with pytest.raises(ConfigError, match="ppol"):
            parse_config(make_grid_raw(ppol={"clip": -1.0}))

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

    def test_multi_constraint_rejected(self):
        rec = RunRecord(
            thetas=np.zeros((2, 2)),
            lambdas=np.zeros((2, 2)),
            etas=np.zeros(1),
            returns=np.zeros(1),
            costs=np.zeros((1, 2)),
            meta={"kind": "synthetic"},
        )
        with pytest.raises(ValueError, match="single-constraint"):
            record_to_csv(rec)


class TestAggregation:
    def test_identical_records_collapse(self):
        rec = synthetic_record([1.0, 2.0], [3.0, 4.0])
        stats = aggregate_seeds([rec, rec])
        for name in ("return", "cost", "lr", "lambda"):
            np.testing.assert_array_equal(stats.mean[name], stats.low[name])
            np.testing.assert_array_equal(stats.mean[name], stats.high[name])
        assert stats.n_steps() == 2

    def test_hand_computed_envelope(self):
        a = synthetic_record([1.0, 5.0], [0.0, 2.0])
        b = synthetic_record([3.0, 1.0], [4.0, 0.0])
        stats = aggregate_seeds([a, b])
        np.testing.assert_array_equal(stats.mean["return"], [2.0, 3.0])
        np.testing.assert_array_equal(stats.low["return"], [1.0, 1.0])
        np.testing.assert_array_equal(stats.high["return"], [3.0, 5.0])
        np.testing.assert_array_equal(stats.mean["cost"], [2.0, 1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="iteration count"):
            aggregate_seeds(
                [synthetic_record([1.0], [1.0]), synthetic_record([1.0, 2.0], [1, 2])]
            )
        with pytest.raises(ValueError, match="no records"):
            aggregate_seeds([])

    def test_final_window(self):
        rec = synthetic_record(np.arange(10.0), np.arange(10.0) * 2, lam_final=0.7)
        stats = final_window_stats(rec, 0.2)
        assert stats["return_mean"] == pytest.approx(8.5)
        assert stats["cost_mean"] == pytest.approx(17.0)
        assert stats["lambda_final"] == pytest.approx(0.7)
        # window rounding never drops to zero rows
        tiny = final_window_stats(rec, 0.01)
        assert tiny["return_mean"] == pytest.approx(9.0)


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
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        serial = run_experiment(
            parse_config(make_testbed_raw(output_dir="s", iterations=100))
        )
        parallel = run_experiment(
            parse_config(make_testbed_raw(output_dir="p", iterations=100, workers=2))
        )
        for p1, p2 in zip(serial.csv_paths, parallel.csv_paths):
            assert p1.read_bytes() == p2.read_bytes()


class TestSweep:
    def test_parse_grid(self):
        assert parse_grid("eta:0.5,1,2") == ("eta", [0.5, 1.0, 2.0])
        for bad in ("lr:1,2", "eta", "eta:", "eta:0,-1", "h1:a,b"):
            with pytest.raises(ConfigError):
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
        # configs/point_circle_reinforce.json goes non-finite at iteration 19
        # on seed 0; the run must exit 3 and write no summary
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = json.loads((CONFIGS / "point_circle_reinforce.json").read_text())
        raw.update(iterations=25, seeds=[0], output_dir="circle_out")
        with np.errstate(all="ignore"):
            code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 3
        assert "seed 0, iteration 19: non-finite rewards" in capsys.readouterr().err
        assert not (tmp_path / "circle_out" / "summary.json").exists()

    def test_divergence_emits_no_runtime_warning(self):
        raw = json.loads((CONFIGS / "point_circle_reinforce.json").read_text())
        raw.update(iterations=25, seeds=[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="seed 0, iteration 19: "):
                harness._run_single(parse_config(raw), 0)

    def test_divergent_testbed_run_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        raw = make_testbed_raw(seeds=[7], schedule={"variant": "constant", "eta": 5.0})
        with np.errstate(all="ignore"):
            code = main(["run", self.write_cfg(tmp_path, raw)])
        assert code == 3
        assert "seed 7, iteration 6: non-finite theta" in capsys.readouterr().err
        assert not (tmp_path / "testbed_out" / "summary.json").exists()

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
