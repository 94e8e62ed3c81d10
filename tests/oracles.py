"""Independent oracles for the library's core computations.

Each solves the same problem as the library by a direct method that shares
none of its algorithm:

- `plan_oracle` enumerates an agent's two-stage plan, against the
  closed-form threshold rule (`thresholds` and `fast_mask`) off its ulp
  edges and the chain's per-cell threshold theta;
- `dense_transition_matrix` lays the chain's rule out cell by cell as a
  dense A, against the diagonals `build_chain` stores;
- `stationary_distribution_dense` solves (A - I)P = 0 densely on that A,
  against the class-cycle solve of `stationary_distribution`;
- `day_metrics_oracle` sums the day's metrics over the gathered travelers,
  against the per-route sums of `compute_metrics`;
- `balanced_count_oracle` scans every fast count of an uncontrolled day,
  for `equilibrium_oracle`, where the library bisects;
- `equilibrium_oracle` builds the day by its definition from the two
  above, against `wardrop_equilibrium`.

They read the library only through its public names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fsum, gcd, inf

import numpy as np

from karma_routing import (CONTROLLED, UNCONTROLLED, InfeasibleKarmaError,
                           KarmaChain, PriceVector)
from karma_routing.network import SOCIETAL_DISCOMFORT

# `plan_oracle`'s route codes
ARC1 = 1  # fast route, pays p1
ARC2 = 2  # slow route, earns r2


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
    fast_feasible: bool  # some plan takes the fast route today: k >= k_poor


def _plan(s, s_bar, t, d1, d2, d_today, cap):
    """(y1, objective) of a route, y1 capped at ``cap``; float or Fraction."""
    y1 = 0 if d1 > d2 else min(1, cap)  # the cap binds for d1 <= d2
    return y1, s * d_today + s_bar * t * (d1 * y1 + d2 * (1 - y1))


def plan_oracle(state: AgentState, d, p: PriceVector, horizon: int,
                s_bar: float) -> PlanOutcome:
    """Solve the two-stage plan by enumerating today's route.

    For each affordable route j, the karma budget caps the planned future
    share of the fast route at (k - k_ref - p_j + T*r2) / (T*(p1+r2)); the
    linear objective pushes that share to its cap when d1 < d2, to zero when
    d1 > d2.  The budget sum is taken by `math.fsum`, correctly rounded, so
    its sign is exact: a route is affordable exactly where the real
    constraint holds, the fast one exactly from k_poor up
    (``fast_feasible``).  Returns the route minimizing
    s*d_j + s_bar*T*d^T y_future, breaking exact ties toward the slow route;
    objectives within 2**-40 of their scale are compared again exactly, in
    Fractions.  ``state.s`` and ``s_bar`` may be in any common unit; the
    library's rule takes s in units of the mean, where s_bar = 1.
    Raises InfeasibleKarmaError when no route admits a feasible plan, which
    is exactly k < k_inf, and for a NaN karma, as `check_floor` does.

    The float rule `fast_mask` differs from this plan at ulp edges: from
    k_wealthy on at s = 0 (an exact tie, sent fast) and at a tiny s, in the
    rich band where its rounded threshold crosses s, and at s = -5e-324.
    So tests/test_day_stages.py pins the mask, and the floor beside it,
    against their float expressions (`fast_mask_ref`, `floor_holds_ref`).
    """
    k, k_ref = state.k, state.k_ref
    d1, d2 = float(d[0]), float(d[1])
    t, p1, r2 = horizon, p.p1, p.r2
    denom = t * p.total

    routes = {}
    for choice, p_today, d_today in ((ARC2, -r2, d2), (ARC1, p1, d1)):
        # written so that a NaN karma fails, as it fails `check_floor`
        if not (p_today <= k and k >= 0):
            continue  # cannot afford today's toll
        budget = (k, -k_ref, -p_today, t * r2)
        cap = fsum(budget) / denom
        if not cap >= 0:
            continue  # even an all-slow future cannot restore the reference
        routes[choice] = (budget, d_today,
                          *_plan(state.s, s_bar, t, d1, d2, d_today, cap))
    if not routes:
        raise InfeasibleKarmaError(
            f"karma {k} admits no feasible plan (below k_inf for reference {k_ref})"
        )
    choice = ARC2  # affordable whenever ARC1 is; takes exact ties (d1 = d2)
    if ARC1 in routes and d1 != d2:
        fast, slow = routes[ARC1][3], routes[ARC2][3]
        scale = (abs(state.s) + abs(s_bar) * t) * (abs(d1) + abs(d2))
        if abs(fast - slow) <= 2.0 ** -40 * scale:
            # within rounding of a tie: compare over the reals
            fast, slow = (_plan(*map(Fraction, (state.s, s_bar, t, d1, d2, e)),
                                sum(map(Fraction, b)) / denom if k < inf
                                else 1)[1]  # min(1, cap) at k = inf
                          for b, e, *_ in (routes[ARC1], routes[ARC2]))
        choice = ARC1 if fast < slow else ARC2
    _, _, y1, objective = routes[choice]
    return PlanOutcome(choice, (float(y1), 1.0 - y1), objective,
                       ARC1 in routes)


def dense_transition_matrix(chain: KarmaChain) -> np.ndarray:
    """A as a dense array, from the chain's rule and never from `chain.a`.

    Column j holds p_home on the diagonal, p_go*chill_prob[j] in row j + r2
    (slow, earns r2) and p_go*(1 - chill_prob[j]) in row j - p1 (fast, pays
    p1); a move of positive probability off the lattice raises ValueError.
    """
    p1, r2, n = chain.prices.p1, chain.prices.r2, chain.n_states
    a = np.zeros((n, n))
    for j in range(n):
        a[j, j] = chain.p_home
        for row, prob in ((j + r2, chain.chill_prob[j]),
                          (j - p1, 1.0 - chain.chill_prob[j])):
            if prob > 0.0:
                if not 0 <= row < n:
                    raise ValueError(f"cell {j} moves mass off the lattice")
                a[row, j] = chain.p_go * prob
    return a


def stationary_distribution_dense(chain: KarmaChain) -> np.ndarray:
    """Stationary distribution via a dense least-squares solve of (A - I)P = 0.

    Each of the g = gcd(p1, r2) sublattices of cells with equal index mod g
    never exchanges mass with the others, and one constraint row per
    sublattice gives it mass 1/g, the library's selection rule; with
    p_home < 1, as `build_chain` requires, the solve is unique.  Intended
    for moderate sizes (a few hundred cells).
    """
    n = chain.n_states
    g = gcd(chain.prices.p1, chain.prices.r2)
    mass = (np.arange(n) % g == np.arange(g)[:, None]).astype(float)
    m = np.vstack([dense_transition_matrix(chain) - np.eye(n), mass])
    rhs = np.zeros(n + g)
    rhs[n:] = 1.0 / g
    dist, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    dist = np.maximum(dist, 0.0)
    return dist / dist.sum()


def day_metrics_oracle(fast, traveling, s, n1, n2, d, k, model,
                       s_bar: float = 1.0):
    """(delta_d, delta_s, mean_karma, cost) summed traveler by traveler.

    ``s`` is in any unit and ``s_bar`` is its mean in that unit (1 for the
    library's draws, which are in units of their mean).  Gathers each
    traveler's sensitivity and looks its discomfort up in the
    (d2, d1) table with its fast flag as the index, then sums the
    per-traveler terms.  Takes `compute_metrics`' arguments and asserts
    that the route counts ``n1``, ``n2`` are the masks' own; delta_d and
    delta_s are None on days nobody travels.  The cost is c(x)^T x at the
    flows x = (n1 / M, n2 / M) from the two societal-cost formulas,
    c(x) = d(x) or c(x) = x.
    """
    fast_count = int(np.count_nonzero(fast))
    assert (n1, n2) == (fast_count,
                        int(np.count_nonzero(traveling)) - fast_count)
    x1, x2 = n1 / k.size, n2 / k.size
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


def balanced_count_oracle(model, m: int, n_travel: int, n_sweep: int) -> int:
    """The largest fast count n in [0, n_sweep] with d1(n / m) <= d2((n_travel
    - n) / m) under ``model``, by a scan of every n; -1 if none has it."""
    best = -1
    for n in range(n_sweep + 1):
        d = model.discomfort([n / m, (n_travel - n) / m])
        if d[0] <= d[1]:
            best = n
    return best


def equilibrium_oracle(k, s, traveling, k_ref, model, p: PriceVector,
                       horizon: int):
    """`wardrop_equilibrium`'s tuple (fast, n1, n2, regime, d) by the day's
    definition, from k_ref in place of the breakpoints:

    1. Each agent's `plan_oracle` at d = (1, 2), since the route depends
       only on the sign of d1 - d2 (an agent below its floor raises).  If
       the travelers' routes keep d1 < d2, the day is controlled.
    2. Else, if d1 >= d2 on an empty fast route, all go slow: controlled.
    3. Else the lowest-index travelers with a feasible fast route take
       `balanced_count_oracle`'s count up to step 1's: uncontrolled.

    d is ``model.discomfort`` at the counts, and s in units of its mean.
    """
    m, n_travel = k.size, int(np.count_nonzero(traveling))
    plans = [plan_oracle(AgentState(*agent), (1.0, 2.0), p, horizon, 1.0)
             for agent in zip(k.tolist(), np.broadcast_to(k_ref, m).tolist(),
                              s.tolist())]
    # each traveler's route on a d1 < d2 day, and if its fast one is feasible
    fast, feasible = traveling & np.array(
        [(plan.choice == ARC1, plan.fast_feasible) for plan in plans]).T

    def day(fast, regime):
        n1 = int(np.count_nonzero(fast))
        d = model.discomfort([n1 / m, (n_travel - n1) / m])
        return fast, n1, n_travel - n1, regime, tuple(d.tolist())

    out = day(fast, CONTROLLED)
    if out[4][0] < out[4][1]:
        return out
    d_empty = model.discomfort([0.0, n_travel / m])
    if d_empty[0] >= d_empty[1]:
        return day(np.zeros(m, dtype=bool), CONTROLLED)
    n1 = balanced_count_oracle(model, m, n_travel, out[1])
    return day(feasible & (np.cumsum(feasible) <= n1), UNCONTROLLED)
