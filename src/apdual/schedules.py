"""Primal learning-rate rules.

The Lagrangian's gradient Lipschitz constant grows linearly in the
multiplier, L(lambda) = L_R + lambda L_C, so fixed step sizes that are safe
at lambda = 0 become too large once the dual variable rises.  The exact
rules damp the step accordingly:

    invlin-exact   eta = 1 / (2 L(lambda))
    invqua-exact   eta = mu / (2 L(lambda)^2)

and the practical rules keep the same shape with free constants:

    invlin-practical   eta = H1 / (lambda + H2)
    invqua-practical   eta = H1 / (lambda + H2)^2

A constant variant is included as the baseline the sweeps compare against.
LrSchedule.rate gives each rule as a function of the one constraint's float
multiplier; the formula is chosen once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = (
    "constant",
    "invlin-exact",
    "invqua-exact",
    "invlin-practical",
    "invqua-practical",
)


@dataclass(frozen=True)
class SmoothnessConstants:
    """L_R, L_C, mu from the smoothness/strong-convexity assumptions."""

    l_r: float
    l_c: float
    mu: float

    def __post_init__(self) -> None:
        if self.l_r < 0.0 or self.l_c < 0.0:
            raise ValueError("Lipschitz constants must be nonnegative")
        if self.mu <= 0.0:
            raise ValueError("mu must be strictly positive")
        if self.mu > self.l_r:
            # strong convexity cannot exceed smoothness; checked at lambda=0
            raise ValueError("mu must not exceed L_R")


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
        # The formula is chosen here, once, so that rate() does not branch
        # on the variant on every call of the exact loop.
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown schedule variant {self.variant!r}")
        if self.variant == "constant":
            if self.eta is None or self.eta <= 0.0:
                raise ValueError("constant schedule needs eta > 0")
            eta = float(self.eta)
            rate = lambda lam: eta
        elif self.variant.endswith("-exact"):
            rate = self._exact_rate()
        else:
            if self.h1 is None or self.h1 <= 0.0:
                raise ValueError("practical schedule needs H1 > 0")
            if self.h2 is None or self.h2 <= 0.0:
                # H2 > 0 keeps eta finite at lambda = 0
                raise ValueError("practical schedule needs H2 > 0")
            h1, h2 = self.h1, self.h2
            if self.variant == "invlin-practical":
                rate = lambda lam: h1 / (lam + h2)
            else:
                rate = lambda lam: h1 / (lam + h2) ** 2
        object.__setattr__(self, "_rate", rate)

    def __reduce__(self):
        # _rate is a closure, which pickle cannot store: rebuild it from
        # the fields, as construction does.
        return LrSchedule, (self.variant, self.eta, self.constants, self.h1, self.h2)

    def _exact_rate(self):
        c = self.constants
        if c is None:
            # constants may be attached later (solvers resolve them from the
            # problem); rate() requires them
            def missing(lam):
                raise ValueError("exact schedule has no SmoothnessConstants attached")

            return missing
        # For lambda >= 0, L(lambda) >= L_R >= mu > 0: no division by zero.
        l_r, l_c, mu = c.l_r, c.l_c, c.mu
        if self.variant == "invlin-exact":
            return lambda lam: 1.0 / (2.0 * (l_r + lam * l_c))

        def invqua(lam):
            big_l = l_r + lam * l_c
            return mu / (2.0 * big_l * big_l)

        return invqua

    def rate(self, lam: float) -> float:
        """eta at the float multiplier lam."""
        return self._rate(lam)
