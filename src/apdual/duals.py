"""Dual-variable update rules: the projection onto lambda >= 0 and the PID
controller that recomputes the multiplier from the violation signal.
Projected dual ascent, lambda <- [lambda + zeta (J_C - d)]_+, runs inside
solver.apd_run on a float multiplier.

The PID rule is a replacement form, not an increment:

    I_k      = [I_{k-1} + (J_C - d)]_+
    lambda_k = [K_P (J_C - d) + K_I I_k + K_D (J_C - J_C_prev)]_+

with the derivative term zero on the first call.  With K_P = K_D = 0 it
collapses to projected integral control, i.e. dual ascent at rate K_I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lagrangian import ConstraintSpec, Multiplier


def project_nonneg(x: np.ndarray) -> np.ndarray:
    """Componentwise projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)


@dataclass(frozen=True)
class PidGains:
    k_p: float = 0.05
    k_i: float = 0.0005
    k_d: float = 0.1

    def __post_init__(self) -> None:
        if self.k_p < 0.0 or self.k_i < 0.0 or self.k_d < 0.0:
            raise ValueError("PID gains must be nonnegative")


@dataclass(frozen=True)
class PidState:
    """Controller memory: projected violation integral and last cost."""

    integral: np.ndarray
    prev_cost: np.ndarray | None = None

    @classmethod
    def zeros(cls, m: int) -> "PidState":
        return cls(np.zeros(m), None)


def pid_dual_step(
    state: PidState, gains: PidGains, j_c: np.ndarray, spec: ConstraintSpec
) -> tuple[Multiplier, PidState]:
    """One controller update; applied independently per constraint."""
    lam, state = pid_dual_values(state, gains, j_c, spec)
    return Multiplier(lam), state


def pid_dual_values(
    state: PidState, gains: PidGains, j_c: np.ndarray, spec: ConstraintSpec
) -> tuple[np.ndarray, PidState]:
    """pid_dual_step with the new multiplier as a plain nonnegative array."""
    j_c = np.atleast_1d(np.asarray(j_c, dtype=float))
    if j_c.shape != spec.limits.shape or state.integral.shape != spec.limits.shape:
        raise ValueError("cost, state, and constraint dimensions disagree")
    err = j_c - spec.limits
    integral = project_nonneg(state.integral + err)
    if state.prev_cost is None:
        deriv = np.zeros_like(err)
    else:
        deriv = j_c - state.prev_cost
    lam = project_nonneg(gains.k_p * err + gains.k_i * integral + gains.k_d * deriv)
    return lam, PidState(integral, j_c.copy())
