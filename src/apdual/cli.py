"""Command line front end.

Subcommands:
    run <config.json>            run an experiment, write CSVs + summary
    sweep <config.json> --grid p:f1,f2,...   robustness sweep over a
                                 schedule parameter (factors on eta/h1/h2)
    verify <output-dir>          re-run the stored config; check CSV bytes,
                                 summary.json and bound certificates
    aggregate <output-dir>       pointwise across-seed curves of the runs
                                 summary.json lists -> aggregate.csv

Exit codes: 0 success, 2 config error, 3 runtime or verification failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    VerificationError,
    aggregate_dir,
    load_config,
    run_experiment,
    sweep,
    verify_dir,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cmd_run(args) -> int:
    result = run_experiment(load_config(args.config))
    for path in result.csv_paths:
        print(f"wrote {path}")
    print(f"wrote {result.summary_path}")
    for path in result.certificate_paths:
        print(f"wrote {path}")
    agg = result.aggregate
    print(
        f"final window: return {agg['return_mean']:.4f} +- {agg['return_std']:.4f}, "
        f"cost {agg['cost_mean']:.4f} +- {agg['cost_std']:.4f}"
    )
    if not result.certificates_passed:
        print("bound certificate FAILED", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_sweep(args) -> int:
    table = sweep(load_config(args.config), args.grid)
    print(f"wrote {table}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    for line in verify_dir(args.directory):
        print(line)
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    print(f"wrote {aggregate_dir(args.directory)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apdual", description="Adaptive primal-dual experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid sweep over a schedule parameter")
    p.add_argument("config")
    p.add_argument("--grid", required=True, help="param:f1,f2,... (eta|h1|h2)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="re-run and check a results directory")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("aggregate", help="across-seed curves from stored CSVs")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_aggregate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failure, still a clean exit code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
