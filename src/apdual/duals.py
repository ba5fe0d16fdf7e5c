"""Dual-variable update rules on the one constraint's float multiplier: the
projection onto lambda >= 0 and the PID controller that recomputes the
multiplier from the violation signal.  Projected dual ascent,
lambda <- [lambda + zeta (J_C - d)]_+, runs inside solver.apd_run through
the same projection.

The PID rule (Stooke, Achiam and Abbeel 2020) is a replacement form, not
an increment:

    I_k      = [I_{k-1} + (J_C - d)]_+
    lambda_k = [K_P (J_C - d) + K_I I_k + K_D (J_C - J_C_prev)]_+

with the derivative term zero on the first call.  With K_P = K_D = 0 it
collapses to projected integral control, i.e. dual ascent at rate K_I.
"""

from __future__ import annotations

from dataclasses import dataclass


def project_nonneg(x: float) -> float:
    """[x]_+ of a float, the value np.maximum(x, 0.0) gives: +0.0 for -0.0
    and NaN for NaN.  (Python's max(x, 0.0) keeps a -0.0.)"""
    return 0.0 if x <= 0.0 else x


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

    integral: float = 0.0
    prev_cost: float | None = None


def pid_dual_step(
    state: PidState, gains: PidGains, j_c: float, limit: float
) -> tuple[float, PidState]:
    """One controller update: the new nonnegative multiplier and the new
    state."""
    err = j_c - limit
    integral = project_nonneg(state.integral + err)
    deriv = 0.0 if state.prev_cost is None else j_c - state.prev_cost
    lam = project_nonneg(gains.k_p * err + gains.k_i * integral + gains.k_d * deriv)
    return lam, PidState(integral, j_c)
