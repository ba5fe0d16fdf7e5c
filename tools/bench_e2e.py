"""Paired end-to-end wall times of two checkouts, appended to BENCH_e2e.json.

    python3 tools/bench_e2e.py PARENT_DIR CHANGE_DIR --pairs 10 \
        --parent-commit abc1234 --change-commit def5678 --out BENCH_e2e.json

Each pair times, once from the root of each checkout and one process at a
time, ``python -m apdual.cli run`` and then ``verify`` of every config in
``configs/`` (a run that exits nonzero is timed and not verified), and
``python -m pytest tests/test_acceptance.py`` on the criterion-8 gridworld
study; the parent goes first in even pairs and the change in odd ones.
Each process gets ``src/`` of its checkout on PYTHONPATH and a fresh
APDUAL_OUTPUT_ROOT.  Per case the entry appended to ``runs`` holds each
side's median and quartiles (linear interpolation) of ``run_s``,
``verify_s`` and ``ms_per_iter`` (the summed per-seed ``wall_clock_s`` of
summary.json over seeds x iterations), the per-pair values,
``change_better_in_pairs`` (lower wins, ties count for neither side), the
run's exit codes and ``artifacts_equal``: whether every pair's run CSVs and
certificates are byte-identical between the two sides.  A new file also
gets a ``what`` line and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, quartiles

CRITERION_8 = "tests/test_acceptance.py::test_criterion_8_papd_matches_best_constant"
METRICS = ("run_s", "verify_s", "ms_per_iter")


def timed(cmd: list[str], checkout: Path, root: Path, check: bool = True) -> tuple[float, int]:
    """(wall seconds, exit code) of one command run from ``checkout``; a
    nonzero exit ends the benchmark when ``check`` is set."""
    env = dict(os.environ, APDUAL_OUTPUT_ROOT=str(root))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - started
    if check and proc.returncode:
        raise SystemExit(f"bench_e2e: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return seconds, proc.returncode


def artifacts(out: Path) -> dict[str, bytes]:
    """The run CSVs and certificates under one output directory, by path."""
    files = [*out.glob("runs/*.csv"), *out.glob("certificates/*.json")]
    return {str(f.relative_to(out)): f.read_bytes() for f in sorted(files)}


def time_config(name: str, checkout: Path, root: Path) -> tuple[dict, dict[str, bytes]]:
    """Times of ``apdual run`` and ``verify`` of configs/NAME.json, and its artifacts."""
    config = json.loads((checkout / "configs" / f"{name}.json").read_text())
    run_s, code = timed([sys.executable, "-m", "apdual.cli", "run", f"configs/{name}.json"],
                        checkout, root, check=False)
    sample = {"run_s": run_s, "verify_s": None, "ms_per_iter": None, "exit": code}
    out = root / config["output_dir"]
    if code:
        return sample, {}
    sample["verify_s"], _ = timed([sys.executable, "-m", "apdual.cli", "verify", str(out)],
                                  checkout, root)
    summary = json.loads((out / "summary.json").read_text())
    wall = sum(seed["wall_clock_s"] for seed in summary["per_seed"].values())
    sample["ms_per_iter"] = 1e3 * wall / (len(summary["per_seed"]) * config["iterations"])
    return sample, artifacts(out)


def time_criterion_8(checkout: Path, root: Path) -> tuple[dict, dict]:
    run_s, code = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         CRITERION_8], checkout, root)
    return {"run_s": run_s, "verify_s": None, "ms_per_iter": None, "exit": code}, {}


def summarize(samples: dict[str, list[dict]], equal: bool) -> dict:
    """Per-metric quartiles, per-pair values and pairs won by the change."""
    case = {"exit": {side: sorted({s["exit"] for s in samples[side]}) for side in SIDES},
            "artifacts_equal": equal}
    for metric in METRICS:
        values = {side: [s[metric] for s in samples[side]] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            continue
        won = sum(c < p for p, c in zip(values["parent"], values["change"]))
        case[metric] = {
            **{side: quartiles(values[side]) for side in SIDES},
            "change_better_in_pairs": won,
            **{f"{side}_runs": [round(v, 6) for v in values[side]] for side in SIDES},
        }
    return case


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--parent-commit", required=True, help="label stored for the parent")
    p.add_argument("--change-commit", required=True, help="label stored for the change")
    p.add_argument("--out", type=Path, required=True, help="BENCH_*.json file to append to")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = sorted(f.stem for f in (checkouts["change"] / "configs").glob("*.json"))
    cases = {name: partial(time_config, name) for name in names}
    cases["criterion-8"] = time_criterion_8
    samples = {case: {side: [] for side in SIDES} for case in cases}
    equal = dict.fromkeys(cases, True)
    for pair in range(args.pairs):
        for case, measure in cases.items():
            files = {}
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                with tempfile.TemporaryDirectory(prefix="bench_e2e_") as root:
                    sample, files[side] = measure(checkouts[side], Path(root))
                samples[case][side].append(sample)
                print(f"pair {pair} {case} {side}: {json.dumps(sample)}", file=sys.stderr)
            equal[case] &= files["parent"] == files["change"]

    entry = {
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "pairs": args.pairs,
        "cases": {case: summarize(samples[case], equal[case]) for case in cases},
    }
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    else:
        doc = {
            "what": "Paired end-to-end wall times (tools/bench_e2e.py): `apdual run` and "
                    "`verify` of every shipped config and the criterion-8 pytest run, each "
                    "side from its own checkout, alternating which side runs first; each "
                    "side's median and quartiles (linear interpolation) over its runs.",
            "machine": {"machine": platform.machine(), "python": platform.python_version(),
                        "numpy": np.__version__, "cpus": os.cpu_count()},
            "runs": [],
        }
    doc["runs"].append(entry)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
