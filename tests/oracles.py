"""Independent oracles for the library's core computations.

Each solves the same problem as the library by a direct method that shares
none of its algorithm:

- `plan_oracle` enumerates an agent's two-stage plan, against the
  closed-form rule of `best_response_batch` and the chain's bands;
- `stationary_distribution_dense` solves (A - I)P = 0 densely, against the
  class-cycle solve of `stationary_distribution`;
- `best_coprime_ratio` searches every co-prime price pair, against
  `rationalize_prices`;
- `day_metrics_oracle` sums the day's metrics over the gathered travelers,
  against the per-route sums of `compute_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from karma_routing import (ARC1, ARC2, InfeasibleKarmaError, KarmaChain,
                           PriceVector)
from karma_routing.network import SOCIETAL_DISCOMFORT, check_count
from karma_routing.pricing import _target_ratio


@dataclass(frozen=True)
class AgentState:
    k: float       # current karma
    k_ref: float   # end-of-horizon karma floor
    s: float       # today's sensitivity draw


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


def stationary_distribution_dense(chain: KarmaChain) -> np.ndarray:
    """Stationary distribution via a dense least-squares solve of (A - I)P = 0.

    Each of the g = gcd(p1, r2) sublattices of cells with equal index mod g
    never exchanges mass with the others, and one constraint row per
    sublattice gives it mass 1/g, the library's selection rule.  Valid at
    any p_home; the solve is unique for p_home < 1.  Intended for moderate
    sizes (a few hundred cells).
    """
    n = chain.n_states
    g = gcd(chain.prices.p1, chain.prices.r2)
    mass = (np.arange(n) % g == np.arange(g)[:, None]).astype(float)
    m = np.vstack([chain.a.toarray() - np.eye(n), mass])
    rhs = np.zeros(n + g)
    rhs[n:] = 1.0 / g
    dist, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    dist = np.maximum(dist, 0.0)
    return dist / dist.sum()


def is_coprime(p: PriceVector) -> bool:
    return gcd(p.p1, p.r2) == 1


def best_coprime_ratio(ratio: tuple[float, float], max_price: int = 20) -> PriceVector:
    """Co-prime (p1, r2) with both <= max_price minimizing |p1/r2 - target|.

    Exhaustive search; ties break toward the smaller max(p1, r2).  This is
    the canonical best rational approximation of the conserving ratio.
    Raises ValueError unless max_price is an integer >= 1, or for a ratio
    `rationalize_prices` rejects.
    """
    check_count("max_price", max_price)
    rho = _target_ratio(ratio)
    best = None
    best_err = np.inf
    for r2 in range(1, max_price + 1):
        for p1 in range(1, max_price + 1):
            if gcd(p1, r2) != 1:
                continue
            err = abs(p1 / r2 - rho)
            if err < best_err - 1e-15 or (
                abs(err - best_err) <= 1e-15
                and best is not None
                and max(p1, r2) < max(best.p1, best.r2)
            ):
                best = PriceVector(p1, r2)
                best_err = err
    return best


def day_metrics_oracle(fast, traveling, s, x, d, k, model, s_bar):
    """(delta_d, delta_s, mean_karma, cost) summed traveler by traveler.

    Gathers each traveler's sensitivity and looks its discomfort up in the
    (d2, d1) table with its fast flag as the index, then sums the
    per-traveler terms.  Takes `compute_metrics`' arguments; delta_d and
    delta_s are None on days nobody travels.  The cost is c(x)^T x from the
    two societal-cost formulas, c(x) = d(x) or c(x) = x.
    """
    x1, x2 = x
    if model.societal_cost_kind == SOCIETAL_DISCOMFORT:
        cost = float(d[0] * x1 + d[1] * x2)  # c(x) = d(x)
    else:
        cost = float(x1 * x1 + x2 * x2)  # c(x) = x
    mean_karma = float(k.mean())
    s_dev = s[traveling]
    if not s_dev.size:
        return None, None, mean_karma, cost
    s_dev -= s_bar
    d_taken = np.array(d[::-1]).take(fast[traveling].view(np.uint8))
    weight = (s_bar * d_taken).sum()
    d_taken *= s_dev
    delta_d = float(d_taken.sum() / weight)
    delta_s = float(s_dev.sum() / (k.size * s_bar))
    return delta_d, delta_s, mean_karma, cost
