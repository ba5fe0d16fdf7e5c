"""Paired benchmark runs of two checkouts, appended to a BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload testbed-certify \
        --pairs 10 --seconds 30 --parent-commit abc1234 --change-commit def5678 \
        --out BENCH_testbed_certify.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once from the root of each checkout, one process at a time; the
parent goes first in even pairs and the change in odd ones.  Every
end-to-end metric of the change checkout's BENCHMARK.json is read from the
result line of each run.  The entry appended to ``runs`` holds, per metric,
each side's median and quartiles (linear interpolation), the per-pair runs
and ``change_better_in_pairs``, the number of pairs the change won in the
metric's direction (ties count for neither side), and the failed seed-runs
summed per side.  A new file also gets a ``what`` line and the machine
record of the first run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(report, result) of one untraced perfbench run from ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}")
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6), "q3": round(float(q3), 6)}


def summarize(metric_specs: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per-metric quartiles, per-pair values and pairs won by the change."""
    metrics = {}
    for spec in metric_specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            raise SystemExit(f"bench_pairs: {name} has no value in some run")
        sign = 1.0 if spec["better"] == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            **{side: quartiles(values[side]) for side in SIDES},
            "change_better_in_pairs": won,
            **{f"{side}_runs": [round(v, 6) for v in values[side]] for side in SIDES},
        }
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parent-commit", required=True, help="label stored for the parent")
    p.add_argument("--change-commit", required=True, help="label stored for the change")
    p.add_argument("--out", type=Path, required=True, help="BENCH_*.json file to append to")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be at least 1 and --seconds positive")

    checkouts = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    machine = None
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            report, result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            machine = machine or report["machine"]
            runs[side].append(result)
            shown = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"pair {pair} {side}: {json.dumps(shown)}", file=sys.stderr)

    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "pairs": args.pairs,
        "run_seconds": args.seconds,
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "metrics": summarize(bench["end_to_end"], runs),
    }
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    else:
        doc = {
            "what": "Paired perfbench runs (tools/bench_pairs.py), `python3 perfbench/run.py "
                    "--workload W --seed S --seconds T --trace 0`, each side from its own "
                    "checkout, alternating which side runs first; each side's median and "
                    "quartiles (linear interpolation) over its runs.",
            "machine": machine,
            "runs": [],
        }
    doc["runs"].append(entry)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
