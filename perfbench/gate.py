"""Correctness gate for one seed-run.

A seed-run fails when run_experiment raises, when any RunRecord array or
summary.json value is non-finite, when a testbed certificate fails, when the
testbed's final multiplier is further than KKT_LAMBDA_TOL from the KKT
oracle's, or when verify_dir raises.  Finiteness is checked here because
verify_dir accepts a CSV of NaNs as long as the re-run reproduces it.
"""

from __future__ import annotations

import math

import numpy as np

from apdual.quadprog import quad_kkt_solve, quad_make

KKT_LAMBDA_TOL = 1e-3


def first_nonfinite_iteration(record) -> tuple[int, list[str]] | None:
    """(first iteration with a non-finite entry, the arrays affected there).

    Row k holds theta_k, lambda_k, eta_k and the (J_R, J_C) of iteration k;
    thetas and lambdas carry one terminal row K.
    """
    rows = {
        "thetas": np.isfinite(record.thetas).all(axis=1),
        "lambdas": np.isfinite(record.lambdas).all(axis=1),
        "etas": np.append(np.isfinite(record.etas), True),
        "returns": np.append(np.isfinite(record.returns), True),
        "costs": np.append(np.isfinite(record.costs).all(axis=1), True),
    }
    ok = np.logical_and.reduce(list(rows.values()))
    bad = np.flatnonzero(~ok)
    if not bad.size:
        return None
    k = int(bad[0])
    return k, [name for name, row in rows.items() if not row[k]]


def nonfinite_paths(obj, path: str = "") -> list[str]:
    """Key paths of the non-finite numbers in a parsed JSON value."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in nonfinite_paths(v, f"{path}/{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in nonfinite_paths(v, f"{path}/{i}")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    return []


def testbed_lambda_star(limit: float) -> float:
    """lambda* of the harness's testbed program (Q = P = I, b = 1, c = 0)."""
    eye = np.eye(2)
    return quad_kkt_solve(quad_make(eye, np.ones(2), eye, np.zeros(2), limit)).lambda_star


def check_run(record, summary: dict, certificates_passed: bool, task: str, limit: float):
    """Failure reason of a finished run_experiment, or None; plus the KKT
    error of a testbed run (None for sampled tasks)."""
    bad = first_nonfinite_iteration(record)
    if bad is not None:
        k, names = bad
        return f"non-finite {', '.join(names)} from iteration {k}", None
    paths = nonfinite_paths(summary)
    if paths:
        return f"non-finite summary.json values at {', '.join(paths)}", None
    if task != "testbed":
        return None, None
    if not certificates_passed:
        return "certificate failed", None
    err = abs(float(record.final_lambda[0]) - testbed_lambda_star(limit))
    if err > KKT_LAMBDA_TOL:
        return f"|lambda_K - lambda*| = {err:.3g} exceeds {KKT_LAMBDA_TOL:g}", err
    return None, err
