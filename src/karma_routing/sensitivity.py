"""Daily urgency-weight distributions.

Each traveler draws an i.i.d. sensitivity ``s`` every day; the decision rule
compares ``s`` against thresholds expressed in units of the population mean
``s_bar``, and the mesoscopic chain needs exact CDF values at those
thresholds.  Two families are supported: exponential on [0, inf) and uniform
on [low, high].
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
    mean: float = 1.0
    low: float = 0.0
    high: float = 2.0

    def __post_init__(self):
        if self.kind not in (EXPONENTIAL, UNIFORM):
            raise ValueError(f"unknown sensitivity kind: {self.kind!r}")
        # chained comparisons, so NaN fails each of them
        if self.kind == EXPONENTIAL and not 0 < self.mean < np.inf:
            raise ValueError("exponential sensitivity needs a finite mean > 0")
        if self.kind == UNIFORM and not 0 <= self.low < self.high < np.inf:
            raise ValueError("uniform sensitivity needs 0 <= low < high < inf")

    @classmethod
    def exponential(cls, mean: float = 1.0) -> "SensitivitySpec":
        return cls(kind=EXPONENTIAL, mean=mean)

    @classmethod
    def uniform(cls, low: float, high: float) -> "SensitivitySpec":
        return cls(kind=UNIFORM, low=low, high=high)

    @property
    def s_bar(self) -> float:
        """Population-mean sensitivity."""
        if self.kind == EXPONENTIAL:
            return self.mean
        return 0.5 * (self.low + self.high)

    def cdf(self, value):
        """P(s < value); exact, vectorized.  cdf(0) is 0 for both families."""
        v = np.asarray(value, dtype=float)
        if self.kind == EXPONENTIAL:
            return -np.expm1(-np.maximum(v, 0.0) / self.mean)
        return np.clip((v - self.low) / (self.high - self.low), 0.0, 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws; the same stream and values as
        ``rng.exponential(mean, size)`` or ``rng.uniform(low, high, size)``."""
        if self.kind == EXPONENTIAL:
            # exponential(mean) is mean * standard_exponential, value for
            # value; at the unit mean that product is the draw itself
            s = rng.standard_exponential(size)
            if self.mean != 1.0:
                s *= self.mean
            return s
        return rng.uniform(self.low, self.high, size)
