"""Daily urgency-weight distributions, in units of their mean.

Each traveler draws an i.i.d. sensitivity ``s`` every day.  The decision
rule weighs today's discomfort, scaled by s, against the rest of the
horizon, scaled by the population mean; so every decision and every
reported number depends on s only through s over its mean.  `sample`
therefore returns s in units of the mean, so the mean is 1, and the
mesoscopic chain reads `cdf` at thresholds in the same unit.  The uniform
law is U[1 - spread, 1 + spread] with 1e-12 <= spread <= 1, drawn by
`draw_uniform`, the one uniform draw, which also draws the set-up's karma.
Below the floor 1e-12 the draws fall on a grid of a few floats near 1 and
no longer follow `cdf` (at 1e-15, 200 000 draws sit 0.05 from it).  The
exponential law on [0, inf) reads no spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXPONENTIAL = "exponential"
UNIFORM = "uniform"


def draw_uniform(rng: np.random.Generator, low: float, high: float,
                 size: int) -> np.ndarray:
    """``size`` draws uniform on [low, high), the bits and the stream
    position of numpy's ``Generator.uniform`` over the same bounds.

    numpy takes u from the same stream as ``rng.random`` and returns
    low + (high - low) * u, with the bounds as floats; the product and the
    sum, taken here as two in-place passes over u, round the same.  A width
    of -0.0, which `Generator.uniform` rejects, draws what its width 0.0
    draws: low + 0.0.
    """
    u = rng.random(size)
    u *= float(high) - float(low)
    u += low
    return u


@dataclass(frozen=True)
class SensitivitySpec:
    """Descriptor of the common sensitivity distribution."""

    kind: str = EXPONENTIAL
    spread: float = 1.0

    def __post_init__(self):
        if self.kind not in (EXPONENTIAL, UNIFORM):
            raise ValueError(f"unknown sensitivity kind: {self.kind!r}")
        # the exponential law reads no spread: it keeps its default, not NaN
        if self.kind == EXPONENTIAL and self.spread != SensitivitySpec.spread:
            raise ValueError(f"spread = {self.spread!r} is not read under the "
                             "exponential sensitivity kind; leave it at its "
                             f"default {SensitivitySpec.spread!r}")
        # a chained comparison, so NaN fails it
        if self.kind == UNIFORM and not 1e-12 <= self.spread <= 1.0:
            raise ValueError("uniform sensitivity needs 1e-12 <= spread <= 1,"
                             f" not spread = {self.spread!r}")

    @property
    def draw_bound(self) -> float:
        """A draw's bound in means: uniform 1 + spread <= 2, numpy
        exponential < 45."""
        return 2.0 if self.kind == UNIFORM else 1024.0

    def cdf(self, value):
        """P(s < value), s in units of the mean; exact, vectorized.  cdf(0)
        is 0 for both families."""
        v = np.asarray(value, dtype=float)
        if self.kind == EXPONENTIAL:
            return -np.expm1(-np.maximum(v, 0.0))
        lo, hi = 1.0 - self.spread, 1.0 + self.spread
        return np.clip((v - lo) / (hi - lo), 0.0, 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws in units of the mean: the same stream as
        ``rng.standard_exponential(size)``, or `draw_uniform` on
        [1 - spread, 1 + spread)."""
        if self.kind == EXPONENTIAL:
            return rng.standard_exponential(size)
        return draw_uniform(rng, 1.0 - self.spread, 1.0 + self.spread, size)
