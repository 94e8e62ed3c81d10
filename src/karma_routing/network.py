"""Two-route parallel network: per-route discomfort, societal cost, and the
central operator's optimal split.

Flows are expressed as fractions of the whole population per day, so a full
daily assignment satisfies ``x1 + x2 = demand`` with demand <= 1.  Route
discomfort follows the standard volume-delay form
``d_j(x) = d0_j * (1 + alpha * (x / kappa_j)**beta)``.  Both splits are one
bisection over a route pair (`_crossing`): the balanced flow where
d1 = d2, and the system optimum where the marginal costs are equal.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .sensitivity import SensitivitySpec

SOCIETAL_DISCOMFORT = "discomfort"  # c(x) = d(x): cost is the sum of user costs
SOCIETAL_FLOW = "flow"              # c(x) = x:    cost is quadratic in flow

# |f1 - f2| at which a crossing stops; it sets the last bits of x* and of
# the balanced flow
_CROSSING_TOL = 1e-9


def check_count(name: str, value, low: int = 1) -> None:
    """Raise ValueError unless value is an integer >= low (bool excluded).

    A plain int is tested by its exact type, which is about ten times
    cheaper than the `numbers.Integral` ABC check that the rest (numpy
    integers among them) take; bool is a subclass of int, not int itself.
    """
    integer = type(value) is int or (isinstance(value, numbers.Integral)
                                     and not isinstance(value, bool))
    if not integer or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_p_home(p_home) -> None:
    """Raise ValueError unless p_home lies in [0, 1), so someone travels."""
    if not 0.0 <= p_home < 1.0:  # written so that NaN fails
        raise ValueError(f"p_home must lie in [0, 1), got {p_home!r}")


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
        # the marginal cost at a full load bounds d and itself on [0, 1], so
        # one finite value there means no solver's float overflows
        for route, (d0, kappa, mc) in enumerate(
                zip(self.d0, self.kappa, self._volume_delay(marginal=True)), 1):
            try:
                value = mc(1.0)
            except OverflowError:
                value = np.inf
            if not value < np.inf:
                raise ValueError(
                    f"route {route} marginal cost at x = 1 is not finite: "
                    f"d0 = {d0}, kappa = {kappa}, alpha = {self.alpha}, "
                    f"beta = {self.beta}")

    def discomfort(self, x) -> np.ndarray:
        """d(x) as a float64 pair, for a flow pair x that `as_flow` accepts."""
        d1, d2 = self._volume_delay()
        x1, x2 = as_flow(x).tolist()
        return np.array([d1(x1), d2(x2)])

    def societal_cost(self, x) -> float:
        """Aggregate societal cost c(x)^T x, reading x as `discomfort` does;
        x is validated once."""
        d1, d2 = self._volume_delay()
        x1, x2 = as_flow(x).tolist()
        return self._cost((x1, x2), (d1(x1), d2(x2)))

    def _volume_delay(self, marginal: bool = False):
        """(d1, d2), each route's d(x) on one Python float x >= 0 (a negative
        base gives a complex power): the only volume-delay code.  With
        ``marginal``, the marginal costs d + x * d', which take the same form
        with alpha * (1 + beta) in place of alpha.

        Each pair is built on its first use and kept in the instance's
        __dict__, which the fields, __eq__, __hash__ and, through
        __getstate__, pickle and copy leave out."""
        key = "_marginal_delay" if marginal else "_delay"
        pair = self.__dict__.get(key)
        if pair is None:
            b = self.beta
            a = self.alpha * (1 + b) if marginal else self.alpha

            def route(d0, kappa):
                return lambda x: d0 * (1 + a * (x / kappa) ** b)
            pair = self.__dict__[key] = tuple(map(route, self.d0, self.kappa))
        return pair

    def __getstate__(self):
        """The fields alone: pickle cannot store the cached closures."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def _cost(self, x, d) -> float:
        """c(x)^T x from the float pairs x and d = d(x)."""
        c1, c2 = d if self.societal_cost_kind == SOCIETAL_DISCOMFORT else x
        return c1 * x[0] + c2 * x[1]


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
        check_p_home(self.p_home)
        check_count("horizon", self.horizon)
        check_count("n_agents", self.n_agents)
        check_count("seed", self.seed, low=0)
        for name, (lo, hi) in (("k_init", self.k_init),
                               ("k_ref_init", self.k_ref_init)):
            # from 2**53 on floats are 2 apart: a price of 1 moves no karma,
            # and M such balances can overflow their mean
            if not 0 <= lo <= hi < 2.0 ** 53:
                raise ValueError(
                    f"karma init range {name} must satisfy 0 <= low <= high "
                    f"< 2**53, got ({lo!r}, {hi!r})")

    @property
    def p_go(self) -> float:
        return 1.0 - self.p_home


def as_flow(x) -> np.ndarray:
    """Validate and return a flow pair as a float array in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("flow must be a pair (x1, x2)")
    # Python floats: a two-element numpy mask costs several times as much
    x1, x2 = x.tolist()
    if not (0.0 <= x1 <= 1.0 and 0.0 <= x2 <= 1.0):  # NaN fails
        raise ValueError(f"flow components must lie in [0, 1], got {x}")
    return x


def _flow_marginal_cost(x: float) -> float:
    """Either route's marginal cost in the flow family c(x) = x."""
    return 2.0 * x


def _crossing(f1, f2, p_go: float) -> tuple[float, str | None]:
    """(x1, end): x1 in [0, p_go] where f1(x1) - f2(p_go - x1) changes sign,
    and end None; or, where the gap keeps one sign, the corner and the end
    check that stopped the search.

    Bisection on the gap, which must be non-decreasing, to |gap| <= 1e-9 at
    the midpoint or a bracket 1e-14 wide.  The ends: (p_go, "route 1") when
    f1(p_go) < f2(0); else (0.0, "route 2") when f1(0) >= f2(p_go), or
    (0.0, "tie") when both end gaps are exactly 0.
    """
    if not 0.0 < p_go <= 1.0:
        raise ValueError("p_go must lie in (0, 1]")
    hi_gap = f1(p_go) - f2(0.0)
    if hi_gap < 0.0:
        return p_go, "route 1"
    lo_gap = f1(0.0) - f2(p_go)
    if lo_gap >= 0.0:
        return 0.0, "tie" if lo_gap == hi_gap == 0.0 else "route 2"
    lo, hi = 0.0, p_go
    mid = 0.5 * (lo + hi)
    gap = f1(mid) - f2(p_go - mid)
    while abs(gap) > _CROSSING_TOL and hi - lo > 1e-14:
        lo, hi = (mid, hi) if gap < 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
        gap = f1(mid) - f2(p_go - mid)
    return mid, None


def system_optimum(model: ArcCostModel, p_go: float) -> np.ndarray:
    """Minimize c(x)^T x over splits of the total demand p_go.

    The objective is convex, so its minimum is where the routes' marginal
    costs mc_j(x) = c_j(x) + x * c_j'(x) agree: the Wardrop equilibrium
    under marginal costs.  For the discomfort family mc_j(x) =
    d0_j * (1 + alpha * (1 + beta) * (x / kappa_j)**beta), the volume-delay
    form with alpha * (1 + beta); for the flow family mc_j(x) = 2x, so the
    split is exactly even.  `_crossing` searches the route pair (mc1, mc2),
    and with no crossing returns the corner: all demand on route 1 when
    mc1(p_go) < mc2(0), else all on route 2 (mc1(0) >= mc2(p_go), which
    includes an exact tie such as equal constant costs).  The returned
    pair conserves demand exactly by construction.
    """
    if model.societal_cost_kind == SOCIETAL_DISCOMFORT:
        mc1, mc2 = model._volume_delay(marginal=True)
    else:
        mc1 = mc2 = _flow_marginal_cost
    x1, _ = _crossing(mc1, mc2, p_go)
    return np.array([x1, p_go - x1])


def balanced_flow(model: ArcCostModel, p_go: float) -> np.ndarray | None:
    """Split of p_go where both routes have equal discomfort, or None.

    `_crossing` on the route pair (d1, d2), the volume-delay kernel that the
    day's equilibrium and `discomfort` read, to |d1 - d2| <= 1e-9.  An
    uncontrolled day lands on this split in whole agents, but counts them
    exactly by an integer search on the same kernel rather than from this
    float (see `wardrop`).  Returns None when the gap keeps one sign over
    the whole range (no crossing).
    """
    x1, end = _crossing(*model._volume_delay(), p_go)
    return None if end else np.array([x1, p_go - x1])
