"""Steady-state price design for the two-route network.

Karma is conserved in steady state only if p^T x* = 0, i.e. the toll/reward
pair must satisfy p1 / r2 = x2* / x1*.  That fixes prices up to a common
scale, so the design carries one float rho = p1 / r2, which exists only
when both routes carry flow; `rationalize_prices` turns rho into the integer
pair the chain and the simulator work with, and `design_prices` runs the
whole design from the cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOptimumError, InfeasibleHorizonError
from .network import ArcCostModel, check_count, system_optimum


@dataclass(frozen=True)
class PriceVector:
    """Integer toll p1 on the fast route and reward r2 = -p2 on the slow one."""

    p1: int
    r2: int

    def __post_init__(self):
        check_count("p1", self.p1)
        check_count("r2", self.r2)

    @property
    def total(self) -> int:
        """p1 + r2, the karma swing of one fast/slow round trip."""
        return self.p1 + self.r2

    def feasible_for_horizon(self, horizon: int) -> bool:
        """Whether r2/p1 lies in [1/T, T], so karma-neutral plans exist."""
        check_count("horizon", horizon)
        ratio = self.r2 / self.p1
        return 1.0 / horizon <= ratio <= horizon


def conservation_prices(x_star) -> float:
    """The conserving ratio rho = p1 / r2 = x2* / x1*, so p^T x* = 0.

    Raises DegenerateOptimumError unless both components of x* are positive
    and finite (else no conserving ratio exists).
    """
    x = np.asarray(x_star, dtype=float)
    if x.shape != (2,):
        raise ValueError("x_star must be a pair")
    # Python floats: a two-element numpy mask costs ten times as much
    x1, x2 = x.tolist()
    if not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf):  # NaN fails
        raise DegenerateOptimumError(
            f"target flow {[x1, x2]} has a non-positive or non-finite "
            "component; conserving prices need finite x* > 0 on both routes"
        )
    return x2 / x1


def rationalize_prices(rho: float, max_price: int,
                       horizon: int) -> PriceVector:
    """Integer price pair approximating the conserving ratio rho = p1/r2.

    The larger coordinate is pinned to ``max_price`` and the other is rounded
    (to at least 1); the pair is never reduced, so an even split gives
    (max_price, max_price).  A common scale leaves the price ratio, and
    hence the stationary flow split, unchanged, but not the rest of the
    dynamics: it sets the chain's size N = (T+1)(p1+r2) and how
    finely the rich band's threshold is resolved (fig3's chain Delta-d is
    -14.230 % at (5, 7) and -14.236 % at (20, 28)).  Raises
    InfeasibleHorizonError unless r2/p1 lies in [1/T, T] for T = horizon,
    and ValueError unless max_price is an integer >= 2 and rho is positive
    and finite.
    """
    check_count("max_price", max_price, low=2)
    if not 0 < rho < np.inf:  # written so that NaN fails
        raise ValueError(
            f"price ratio p1/r2 must be positive and finite, got {rho!r}")
    if rho <= 1.0:
        pair = PriceVector(max(1, round(max_price * rho)), max_price)
    else:
        pair = PriceVector(max_price, max(1, round(max_price / rho)))
    if not pair.feasible_for_horizon(horizon):
        raise InfeasibleHorizonError(
            f"prices ({pair.p1}, -{pair.r2}) violate the feasibility band "
            f"r2/p1 in [1/{horizon}, {horizon}]"
        )
    return pair


def design_prices(model: ArcCostModel, p_go: float, max_price: int,
                  horizon: int) -> tuple[np.ndarray, float, PriceVector]:
    """The price design: the system optimum x* of demand p_go, its conserving
    ratio rho = p1/r2 and its integer prices (`rationalize_prices`)."""
    x_star = system_optimum(model, p_go)
    rho = conservation_prices(x_star)
    return x_star, rho, rationalize_prices(rho, max_price, horizon)
