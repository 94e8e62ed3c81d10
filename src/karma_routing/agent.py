"""Single-agent route choice under karma budgeting.

A traveling agent weighs today's discomfort (scaled by today's sensitivity s)
against the average discomfort of the remaining T days of the horizon (scaled
by the mean sensitivity s_bar), subject to ending the horizon no poorer than
its karma reference.  The resulting optimal rule is piecewise in karma with
four breakpoints; `plan_oracle` solves the underlying two-stage program by
direct enumeration and is the independent check on `best_response`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleKarmaError, InsufficientKarmaError
from .pricing import PriceVector

STAY = 0
ARC1 = 1  # fast route, pays p1
ARC2 = 2  # slow route, earns r2

D1_LESS = "d1<d2"
D1_EQUAL = "d1=d2"
D1_GREATER = "d1>d2"


@dataclass(frozen=True)
class AgentState:
    k: float       # current karma
    k_ref: float   # end-of-horizon karma floor
    s: float       # today's sensitivity draw


@dataclass(frozen=True)
class Thresholds:
    """Karma breakpoints of the best-response rule.

    Scalars for one k_ref, or per-agent arrays for an array of k_ref.
    """

    k_inf: float
    k_poor: float
    k_rich: float
    k_wealthy: float


def discomfort_order(d) -> str:
    """Classify the sign relation between the two routes' discomforts."""
    d1, d2 = float(d[0]), float(d[1])
    if d1 < d2:
        return D1_LESS
    if d1 > d2:
        return D1_GREATER
    return D1_EQUAL


# The rule's breakpoints, each for a scalar or a per-agent array of k_ref.
def k_inf(k_ref, p: PriceVector, horizon: int):
    """Feasibility floor: below it no plan restores k_ref by the horizon's end."""
    return np.maximum(0.0, k_ref - (horizon + 1) * p.r2)


def k_poor(k_ref, p: PriceVector, horizon: int):
    """Below it the agent must take the slow route (toll or reference binds)."""
    return np.maximum(float(p.p1), k_ref + p.p1 - horizon * p.r2)


def k_rich(k_ref, p: PriceVector, horizon: int):
    """Above it the urgency threshold decays from s_bar toward zero."""
    return k_ref + horizon * p.p1 - p.r2


def k_wealthy(k_ref, p: PriceVector, horizon: int):
    """At or above it the agent always takes the fast route."""
    return k_ref + (horizon + 1) * p.p1


def thresholds(k_ref, p: PriceVector, horizon: int) -> Thresholds:
    """The four karma breakpoints for a given reference level and prices."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return Thresholds(
        k_inf=k_inf(k_ref, p, horizon),
        k_poor=k_poor(k_ref, p, horizon),
        k_rich=k_rich(k_ref, p, horizon),
        k_wealthy=k_wealthy(k_ref, p, horizon),
    )


def urgency_threshold(k, th: Thresholds, s_bar: float, p: PriceVector):
    """Sensitivity above which an agent in [k_poor, k_wealthy) goes fast.

    s_bar below k_rich, then s_bar * (k_wealthy - k) / (p1 + r2), which
    decays linearly to zero at k_wealthy.
    """
    return np.where(k < th.k_rich, s_bar, s_bar * (th.k_wealthy - k) / p.total)


def best_response(state: AgentState, th: Thresholds, s_bar: float,
                  p: PriceVector, order: str) -> int:
    """Closed-form optimal route for a traveling agent.

    For d1 < d2 the rule is piecewise in karma: forced onto the slow route
    below k_poor, a sensitivity coin-flip against s_bar in the middle band,
    a linearly decaying sensitivity threshold in [k_rich, k_wealthy), and
    forced onto the fast route above.  Ties (s equal to its threshold) go to
    the slow route.  For d1 = d2 any route is optimal above k_poor; the slow
    route is returned and equilibrium-level splitting is left to the caller.
    For d1 > d2 the slow route dominates everywhere.
    """
    k = state.k
    if k < th.k_inf:
        raise InfeasibleKarmaError(
            f"karma {k} below feasibility floor {th.k_inf}"
        )
    if order != D1_LESS:
        return ARC2
    if k < th.k_poor:
        return ARC2
    if k >= th.k_wealthy:
        return ARC1
    return ARC1 if state.s > urgency_threshold(k, th, s_bar, p) else ARC2


def best_response_batch(k, k_ref, s, s_bar: float, p: PriceVector,
                        horizon: int, order: str) -> np.ndarray:
    """Vectorized `best_response` over per-agent arrays (same tie-breaking)."""
    k = np.asarray(k, dtype=float)
    k_ref = np.asarray(k_ref, dtype=float)
    s = np.asarray(s, dtype=float)
    floor = k_inf(k_ref, p, horizon)
    if np.any(k < floor):
        bad = int(np.argmax(k < floor))
        raise InfeasibleKarmaError(
            f"agent {bad}: karma {k[bad]} below feasibility floor {floor[bad]}"
        )
    if order != D1_LESS:
        return np.full(k.shape, ARC2, dtype=np.int8)
    th = Thresholds(floor, k_poor(k_ref, p, horizon), k_rich(k_ref, p, horizon),
                    k_wealthy(k_ref, p, horizon))
    thr = urgency_threshold(k, th, s_bar, p)
    fast = (k >= th.k_wealthy) | ((k >= th.k_poor) & (s > thr))
    return np.where(fast, ARC1, ARC2).astype(np.int8)


@dataclass(frozen=True)
class PlanOutcome:
    choice: int
    future_split: tuple[float, float]  # planned average split over the horizon
    objective: float


def plan_oracle(state: AgentState, d, p: PriceVector, horizon: int,
                s_bar: float) -> PlanOutcome:
    """Solve the two-stage plan by enumerating today's route.

    For each affordable route j, the karma budget caps the planned future
    share of the fast route at (k - k_ref - p_j + T*r2) / (T*(p1+r2)); the
    linear objective pushes that share to its cap when d1 < d2, to zero when
    d1 > d2.  Returns the route minimizing s*d_j + s_bar*T*d^T y_future,
    breaking exact ties toward the slow route.  Raises InfeasibleKarmaError
    when no route admits a feasible plan (exactly k < k_inf).
    """
    k, k_ref = state.k, state.k_ref
    d1, d2 = float(d[0]), float(d[1])
    t, p1, r2 = horizon, p.p1, p.r2
    denom = t * p.total

    best = None
    # slow route first so exact objective ties resolve to it
    for choice, p_today, d_today in ((ARC2, -r2, d2), (ARC1, p1, d1)):
        if p_today > k or k < 0:
            continue  # cannot afford today's toll
        cap = (k - k_ref - p_today + t * r2) / denom
        if cap < 0:
            continue  # even an all-slow future cannot restore the reference
        if d1 > d2:
            y1 = 0.0
        else:
            y1 = min(1.0, cap)  # binding cap is optimal for d1 <= d2
        objective = state.s * d_today + s_bar * t * (d1 * y1 + d2 * (1.0 - y1))
        candidate = PlanOutcome(choice, (y1, 1.0 - y1), objective)
        if best is None or objective < best.objective:
            best = candidate
    if best is None:
        raise InfeasibleKarmaError(
            f"karma {k} admits no feasible plan (below k_inf for reference {k_ref})"
        )
    return best


def apply_choice(k: float, choice: int, p: PriceVector) -> float:
    """Post-trip karma: k - p1 on the fast route, k + r2 on the slow one."""
    if choice == ARC1:
        if k < p.p1:
            raise InsufficientKarmaError(f"karma {k} cannot cover toll {p.p1}")
        return k - p.p1
    if choice == ARC2:
        return k + p.r2
    if choice == STAY:
        return k
    raise ValueError(f"unknown route choice: {choice!r}")
