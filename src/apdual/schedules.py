"""Primal learning-rate rules.

The Lagrangian's gradient Lipschitz constant grows linearly in the
multiplier, L(lambda) = L_R + lambda . L_C, so fixed step sizes that are safe
at lambda = 0 become too large once the dual variable rises.  The exact
rules damp the step accordingly:

    invlin-exact   eta = 1 / (2 L(lambda))
    invqua-exact   eta = mu / (2 L(lambda)^2)

and the practical rules keep the same shape with free constants (single
constraint):

    invlin-practical   eta = H1 / (lambda + H2)
    invqua-practical   eta = H1 / (lambda + H2)^2

A constant variant is included as the baseline the sweeps compare against.
LrSchedule.scalar_rate gives each rule as a function of one float multiplier;
rate() and practical_lr evaluate it, and the exact loop calls it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lagrangian import Multiplier

VARIANTS = (
    "constant",
    "invlin-exact",
    "invqua-exact",
    "invlin-practical",
    "invqua-practical",
)


@dataclass(frozen=True)
class SmoothnessConstants:
    """L_R, L_C, mu from the smoothness/strong-convexity assumptions, plus
    an optional Lagrangian-value Lipschitz constant used only by the bound
    checkers."""

    l_r: float
    l_c: np.ndarray
    mu: float
    l_lip: float | None = None

    def __post_init__(self) -> None:
        l_c = np.atleast_1d(np.asarray(self.l_c, dtype=float))
        object.__setattr__(self, "l_c", l_c)
        if self.l_r < 0.0 or (l_c < 0.0).any():
            raise ValueError("Lipschitz constants must be nonnegative")
        if self.mu <= 0.0:
            raise ValueError("mu must be strictly positive")
        if self.mu > self.l_r:
            # strong convexity cannot exceed smoothness; checked at lambda=0
            raise ValueError("mu must not exceed L_R")
        if self.l_lip is not None and self.l_lip < 0.0:
            raise ValueError("l_lip must be nonnegative")


def lipschitz_of_lambda(c: SmoothnessConstants, lm: Multiplier) -> float:
    """L(lambda) = L_R + lambda . L_C."""
    if lm.values.shape != c.l_c.shape:
        raise ValueError("multiplier and L_C dimensions disagree")
    return float(c.l_r + lm.values @ c.l_c)


def _exact_eta(variant: str, mu: float, big_l: float) -> float:
    """The optimizing step size of the per-iteration error bound at L."""
    if big_l <= 0.0:
        raise ValueError("L(lambda) must be positive")
    if variant == "invlin":
        return 1.0 / (2.0 * big_l)
    if variant == "invqua":
        return mu / (2.0 * big_l * big_l)
    raise ValueError(f"unknown exact variant {variant!r}")


def exact_lr(variant: str, c: SmoothnessConstants, lm: Multiplier) -> float:
    """The optimizing step size of the per-iteration error bound."""
    return _exact_eta(variant, c.mu, lipschitz_of_lambda(c, lm))


@dataclass(frozen=True)
class LrSchedule:
    """A step-size rule; fields beyond `variant` depend on it.

    constant          -> eta
    invlin/invqua-exact     -> constants (SmoothnessConstants)
    invlin/invqua-practical -> h1, h2
    """

    variant: str
    eta: float | None = None
    constants: SmoothnessConstants | None = None
    h1: float | None = None
    h2: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown schedule variant {self.variant!r}")
        if self.variant == "constant":
            if self.eta is None or self.eta <= 0.0:
                raise ValueError("constant schedule needs eta > 0")
        elif self.variant.endswith("-exact"):
            # constants may be attached later (solvers resolve them from the
            # problem); rate() requires them
            pass
        else:
            if self.h1 is None or self.h1 <= 0.0:
                raise ValueError("practical schedule needs H1 > 0")
            if self.h2 is None or self.h2 <= 0.0:
                # H2 > 0 keeps eta finite at lambda = 0
                raise ValueError("practical schedule needs H2 > 0")

    def scalar_rate(self) -> Callable[[float], float]:
        """eta as a function of one float multiplier, for a single constraint.

        This is the one formula per variant: rate() and practical_lr call
        it, and the exact loop binds it once and calls it every iteration.
        """
        if self.variant == "constant":
            eta = float(self.eta)
            return lambda lam: eta
        if self.variant.endswith("-exact"):
            c = self.constants
            if c is None:
                raise ValueError("exact schedule has no SmoothnessConstants attached")
            if c.l_c.size != 1:
                raise ValueError("exact schedules take a single constraint's L_C")
            kind = self.variant.split("-")[0]
            l_r, l_c, mu = c.l_r, float(c.l_c[0]), c.mu
            return lambda lam: _exact_eta(kind, mu, l_r + lam * l_c)
        h1, h2 = self.h1, self.h2
        if self.variant == "invlin-practical":
            return lambda lam: h1 / (lam + h2)
        return lambda lam: h1 / (lam + h2) ** 2

    def rate(self, lm: Multiplier) -> float:
        if self.variant.endswith("-practical"):
            return practical_lr(self, lm)
        rate = self.scalar_rate()
        if self.variant.endswith("-exact") and lm.m != 1:
            raise ValueError("multiplier and L_C dimensions disagree")
        return rate(float(lm.values[0]))


def practical_lr(sched: LrSchedule, lm: Multiplier) -> float:
    """Reciprocal-in-lambda step with free constants; single constraint only."""
    if sched.variant == "constant":
        return sched.rate(lm)
    if not sched.variant.endswith("-practical"):
        raise ValueError("practical_lr applies to practical or constant variants")
    if lm.m != 1:
        raise ValueError("practical schedules are defined for a single constraint")
    return sched.scalar_rate()(float(lm.values[0]))
