"""apdual benchmark launcher.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-reinforce --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One process generates the load; BLAS and OpenMP are pinned to one thread
here, before numpy is imported.  The program is imported from ``src/`` of
the checkout, never from an installed copy.

Output: a report line ({"report": ...}: all eight end-to-end metrics with
unit, quartiles and sample count, or the layer shares of a traced run, the
machine record and every failure), then as the last line the result
{"correct", "attempted", "failed", "metrics"}.  ``metrics`` holds the
``end_to_end`` metrics of BENCHMARK.json with --trace 0 and its
``per_layer`` metrics with --trace 1.  ``--workload all`` runs every
workload, point-circle included, one process each, and prints their report
lines, a table and a combined last line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _result(spec: dict, metrics: dict, report: dict) -> dict:
    from measure import finite_or_none

    return {
        "correct": not report["failures"],
        "attempted": report["seed_runs"],
        "failed": len(report["failures"]),
        "metrics": {
            m["name"]: {"value": finite_or_none(metrics[m["name"]]), "unit": m["unit"]}
            for m in spec
        },
    }


def run_one(args) -> int:
    import measure

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer" if args.trace else "end_to_end"]
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        fn = measure.traced if args.trace else measure.end_to_end
        metrics, report = fn(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=measure.machine(THREAD_VARS),
    )
    _table(args.workload, report, sys.stderr)
    print(json.dumps({"report": report}, allow_nan=False))
    print(json.dumps(_result(spec, metrics, report), allow_nan=False))
    return 0


def _table(workload: str, report: dict, out) -> None:
    rows = report.get("end_to_end") or {}
    for name, m in rows.items():
        if "median" in m:
            value = m["median"]
            extra = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if m["n"] else ""
            if m.get("raw", {}).get("n"):
                extra += f"  raw median {m['raw']['median']:.6g}"
        else:
            value, extra = m["value"], ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:16s} {name:18s} {shown:>12s} {m['unit']:7s} n={m['n']}{extra}", file=out)
    for layer, share in sorted((report.get("per_layer_shares") or {}).items(), key=lambda kv: -kv[1]):
        print(f"{workload:16s} share {layer:12s} {100 * share:6.1f} %", file=out)
    for line in report["failures"]:
        print(f"{workload:16s} FAILED {line}", file=out)


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            status = proc.returncode
            continue
        report_line, result_line = proc.stdout.strip().splitlines()[-2:]
        print(report_line)
        result = json.loads(result_line)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("APDUAL_OUTPUT_ROOT", None)
    missing = [p for p in ("src/apdual/__init__.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a complete checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import apdual

    if Path(apdual.__file__).resolve().parent != ROOT / "src" / "apdual":
        print(f"perfbench: imported apdual from {apdual.__file__}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
