"""Daily urgency-weight distributions, in units of their mean.

Each traveler draws an i.i.d. sensitivity ``s`` every day.  The decision
rule weighs today's discomfort, scaled by s, against the rest of the
horizon, scaled by the population mean; so every decision and every
reported number depends on s only through s over its mean.  `sample`
therefore returns s in units of the mean, so the mean is 1, and the
mesoscopic chain reads `cdf` at thresholds in the same unit.  The uniform
law on [low, high] reads both bounds, the exponential on [0, inf) neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXPONENTIAL = "exponential"
UNIFORM = "uniform"


@dataclass(frozen=True)
class SensitivitySpec:
    """Descriptor of the common sensitivity distribution."""

    kind: str = EXPONENTIAL
    low: float = 0.0
    high: float = 2.0

    def __post_init__(self):
        if self.kind not in (EXPONENTIAL, UNIFORM):
            raise ValueError(f"unknown sensitivity kind: {self.kind!r}")
        # the exponential law reads no bound: each keeps its default, not NaN
        for name in ("low", "high") if self.kind == EXPONENTIAL else ():
            value, default = getattr(self, name), getattr(SensitivitySpec, name)
            if value != default:
                raise ValueError(f"{name} = {value!r} is not read under the "
                                 "exponential sensitivity kind; leave it at "
                                 f"its default {default!r}")
        # chained comparisons, so NaN fails each of them
        if self.kind == UNIFORM and not (0 <= self.low < self.high < np.inf
                                         and 0 < self._mean()):
            raise ValueError("uniform sensitivity needs 0 <= low < high < inf "
                             "and a mean (low + high) / 2 > 0")

    @classmethod
    def exponential(cls) -> "SensitivitySpec":
        return cls(kind=EXPONENTIAL)

    @classmethod
    def uniform(cls, low: float, high: float) -> "SensitivitySpec":
        return cls(kind=UNIFORM, low=low, high=high)

    def _mean(self) -> float:
        """The uniform mean; halving first cannot overflow, and where
        0.5 * (low + high) is finite it has the same bits."""
        return 0.5 * self.low + 0.5 * self.high

    @property
    def draw_bound(self) -> float:
        """A draw's bound in means: uniform high/mean <= 2, numpy exponential < 45."""
        return 2.0 if self.kind == UNIFORM else 1024.0

    def cdf(self, value):
        """P(s < value), s in units of the mean; exact, vectorized.  cdf(0)
        is 0 for both families."""
        v = np.asarray(value, dtype=float)
        if self.kind == EXPONENTIAL:
            return -np.expm1(-np.maximum(v, 0.0))
        return np.clip((v * self._mean() - self.low) / (self.high - self.low),
                       0.0, 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws in units of the mean: the same stream as
        ``rng.standard_exponential(size)``, or ``rng.uniform(low, high,
        size)`` divided by its mean."""
        if self.kind == EXPONENTIAL:
            return rng.standard_exponential(size)
        s = rng.uniform(self.low, self.high, size)
        s /= self._mean()
        return s
