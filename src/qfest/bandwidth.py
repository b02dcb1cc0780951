"""Radius schedules n -> epsilon(n) that realize the rate-optimal decays.

Four named regimes are built in (the CLI uses the same tokens):

==========  ==============================  ==========================
regime      epsilon(n)                      validity
==========  ==============================  ==========================
thm1ii      c * n**(-2 / (4*alpha + d))     0 < alpha <= d/4
thm1iii     c * log(n) * n**(-1/d)          alpha > d/4
thm2ii      c * n**(-1 / (2*alpha + d))     0 < alpha <= d/2
thm2iii     c * log(n) * n**(-1/2)          d == 1 and alpha > 1/2
==========  ==============================  ==========================

The slowly varying factor is fixed to the natural log: one concrete choice is
needed for reproducibility, and the reference experiments use it.  The decay
laws are implemented as exact equalities (an asymptotic-equivalence class
cannot be executed).  The incomplete estimators run on the thm1* regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _check_integer

REGIMES = ("thm1ii", "thm1iii", "thm2ii", "thm2iii")

# MSE decay exponent each regime targets, as a function of (alpha, d).
_SUB_SMOOTH = {"thm1ii": lambda a, d: -8.0 * a / (4.0 * a + d),
               "thm2ii": lambda a, d: -4.0 * a / (2.0 * a + d)}


@dataclass(frozen=True)
class EpsilonSchedule:
    """A validated (regime, alpha, d, c) radius rule."""

    regime: str
    d: int
    alpha: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        object.__setattr__(self, "d", _check_integer(self.d, "dimension"))
        if self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be finite and > 0, got {self.c!r}")
        a, d = self.alpha, self.d
        if self.regime == "thm1ii" and a > d / 4.0:
            raise ValueError(f"thm1ii requires alpha <= d/4, got alpha={a}, d={d}")
        if self.regime == "thm1iii" and a <= d / 4.0:
            raise ValueError(f"thm1iii requires alpha > d/4, got alpha={a}, d={d}")
        if self.regime == "thm2ii" and a > d / 2.0:
            raise ValueError(f"thm2ii requires alpha <= d/2, got alpha={a}, d={d}")
        if self.regime == "thm2iii" and (d != 1 or a <= 0.5):
            raise ValueError(f"thm2iii requires d=1 and alpha > 1/2, got alpha={a}, d={d}")

    def epsilon_at(self, n: int) -> float:
        """Radius for sample size n; requires n >= 2 (log n must be positive)."""
        if _check_integer(n, "sample size") < 2:
            raise ValueError(f"sample size must be an integer >= 2, got {n!r}")
        n = float(n)
        if self.regime == "thm1ii":
            return self.c * n ** (-2.0 / (4.0 * self.alpha + self.d))
        if self.regime == "thm1iii":
            return self.c * math.log(n) * n ** (-1.0 / self.d)
        if self.regime == "thm2ii":
            return self.c * n ** (-1.0 / (2.0 * self.alpha + self.d))
        return self.c * math.log(n) / math.sqrt(n)

    def mse_exponent(self) -> float:
        """Theoretical log-log slope of the mean squared error under this rule."""
        rule = _SUB_SMOOTH.get(self.regime)
        if rule is not None:
            return rule(self.alpha, self.d)
        return -1.0
