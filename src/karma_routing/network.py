"""Two-route parallel network: per-route discomfort, societal cost, and the
central operator's optimal split.

Flows are expressed as fractions of the whole population per day, so a full
daily assignment satisfies ``x1 + x2 = demand`` with demand <= 1.  Route
discomfort follows the standard volume-delay form
``d_j(x) = d0_j * (1 + alpha * (x / kappa_j)**beta)``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .sensitivity import SensitivitySpec

SOCIETAL_DISCOMFORT = "discomfort"  # c(x) = d(x): cost is the sum of user costs
SOCIETAL_FLOW = "flow"              # c(x) = x:    cost is quadratic in flow

_GOLDEN = float((np.sqrt(5.0) - 1.0) / 2.0)  # a float, so the search stays on floats
_FLOW_SLACK = 1e-9  # rounding allowed outside [0, 1] on a flow component
_OPTIMUM_TOL = 1e-6  # golden-section bracket width and local sweep step
# a tight crossing, so the floored fast count keeps d1 <= d2 + 1e-9
_BALANCE_TOL = 1e-9


def check_count(name: str, value) -> None:
    """Raise ValueError unless value is an integer >= 1 (bool excluded)."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class ArcCostModel:
    """Per-route volume-delay parameters and the societal-cost family."""

    d0: tuple[float, float] = (1.0, 2.0)
    kappa: tuple[float, float] = (0.5, 2.0 / 3.0)
    alpha: float = 0.15
    beta: float = 4.0
    societal_cost_kind: str = SOCIETAL_DISCOMFORT

    def __post_init__(self):
        if len(self.d0) != 2 or len(self.kappa) != 2:
            raise ValueError("d0 and kappa must be pairs (two routes)")
        # chained comparisons, so NaN fails each of them
        if not all(0 < v < np.inf for v in (*self.d0, *self.kappa)):
            raise ValueError("d0 and kappa must be positive and finite")
        if not 0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and non-negative")
        if not 1 <= self.beta < np.inf:
            raise ValueError("beta must be finite and >= 1")
        if self.societal_cost_kind not in (SOCIETAL_DISCOMFORT, SOCIETAL_FLOW):
            raise ValueError(f"unknown societal cost kind: {self.societal_cost_kind!r}")

    def discomfort(self, x) -> np.ndarray:
        """Per-route discomfort d(x) at the flow pair x."""
        return self._discomfort(as_flow(x))

    def societal_cost(self, x) -> float:
        """Aggregate societal cost c(x)^T x."""
        x = as_flow(x)
        return self._cost(x, self._discomfort(x))

    def _discomfort(self, x: np.ndarray) -> np.ndarray:
        """d(x) for a flow pair the caller has already validated."""
        d0 = np.asarray(self.d0)
        kap = np.asarray(self.kappa)
        return d0 * (1.0 + self.alpha * (x / kap) ** self.beta)

    def _scalar_discomfort(self):
        """(d1, d2) on one Python-float flow each: the split solvers' kernel."""
        a, b = self.alpha, self.beta

        def route(d0, kappa):
            return lambda x: d0 * (1 + a * (x / kappa) ** b)
        return tuple(map(route, self.d0, self.kappa))

    def _cost(self, x: np.ndarray, d: np.ndarray) -> float:
        """c(x)^T x from a validated flow pair x and its discomfort d = d(x)."""
        if self.societal_cost_kind == SOCIETAL_DISCOMFORT:
            return float(d @ x)
        return float(x @ x)


@dataclass(frozen=True)
class Scenario:
    """Population and horizon parameters for a repeated-game run."""

    p_home: float
    horizon: int
    n_agents: int
    sensitivity: SensitivitySpec
    k_init: tuple[float, float]
    k_ref_init: tuple[float, float]
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_home <= 1.0:
            raise ValueError("p_home must lie in [0, 1]")
        check_count("horizon", self.horizon)
        check_count("n_agents", self.n_agents)
        if (not isinstance(self.seed, numbers.Integral)
                or isinstance(self.seed, bool) or self.seed < 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        for lo, hi in (self.k_init, self.k_ref_init):
            if not 0 <= lo <= hi < np.inf:
                raise ValueError(
                    "karma init ranges must satisfy 0 <= low <= high < inf")

    @property
    def p_go(self) -> float:
        return 1.0 - self.p_home


def as_flow(x) -> np.ndarray:
    """Validate and return a flow pair as a float array in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("flow must be a pair (x1, x2)")
    if np.any(x < -_FLOW_SLACK) or np.any(x > 1.0 + _FLOW_SLACK):
        raise ValueError(f"flow components must lie in [0, 1], got {x}")
    return x


def system_optimum(model: ArcCostModel, p_go: float) -> np.ndarray:
    """Minimize c(x)^T x over splits of the total demand p_go.

    Golden-section search on x1 in [0, p_go] down to a 1e-6 bracket, refined
    by a local grid sweep of that step so flat stretches of the objective
    cannot hide a better split.  The returned pair conserves demand exactly
    by construction.
    """
    if not 0.0 < p_go <= 1.0:
        raise ValueError("p_go must lie in (0, 1]")
    if model.societal_cost_kind == SOCIETAL_DISCOMFORT:
        d1, d2 = model._scalar_discomfort()

        def g(x1):
            x2 = p_go - x1
            return d1(x1) * x1 + d2(x2) * x2
    else:
        def g(x1):
            x2 = p_go - x1
            return x1 * x1 + x2 * x2

    lo, hi = 0.0, p_go
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    gc, gd = g(c), g(d)
    while hi - lo > _OPTIMUM_TOL:
        if gc < gd:
            hi, d, gd = d, c, gc
            c = hi - _GOLDEN * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _GOLDEN * (hi - lo)
            gd = g(d)

    # local sweep around the bracket midpoint guards against flat regions
    center = 0.5 * (lo + hi)
    grid = np.clip(center + _OPTIMUM_TOL * np.arange(-5, 6), 0.0, p_go).tolist()
    x1 = grid[int(np.argmin([g(t) for t in grid]))]
    return np.array([x1, p_go - x1])


def balanced_flow(model: ArcCostModel, p_go: float) -> np.ndarray | None:
    """Split of p_go where both routes have equal discomfort, or None.

    Bisection on h(x1) = d1(x1) - d2(p_go - x1), which is non-decreasing for
    monotone costs; stops once |d1 - d2| <= 1e-9 at the midpoint.  It is the
    split every uncontrolled day lands on (see `wardrop`).  Returns None when
    h keeps one sign over the whole range (no crossing).

    h runs on Python floats through the scalar kernel shared with
    `system_optimum`, whose libm ``pow`` can differ in the last bit from the
    SIMD power of `discomfort`.  That reaches a day's outputs only through
    the floored fast count, which the ``fig3-rich`` golden digest pins.
    """
    if not 0.0 < p_go <= 1.0:
        raise ValueError("p_go must lie in (0, 1]")
    d1, d2 = model._scalar_discomfort()

    def h(x1):
        return d1(x1) - d2(p_go - x1)

    lo, hi = 0.0, p_go
    # d1 < d2 even fully loaded, or route 1 never the cheaper one
    if h(hi) < 0.0 or h(lo) >= 0.0:
        return None
    mid = 0.5 * (lo + hi)
    h_mid = h(mid)
    while abs(h_mid) > _BALANCE_TOL and hi - lo > 1e-14:
        lo, hi = (mid, hi) if h_mid < 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
    return np.array([mid, p_go - mid])
