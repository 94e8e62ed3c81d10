"""Independent oracles for the library's core computations.

Each solves the same problem as the library by a direct method that shares
none of its algorithm:

- `plan_oracle` enumerates an agent's two-stage plan, against the
  closed-form threshold rule (`thresholds` and `fast_mask`) and the chain's
  per-cell threshold theta;
- `dense_transition_matrix` lays the chain's rule out cell by cell as a
  dense A, against the diagonals `build_chain` stores;
- `stationary_distribution_dense` solves (A - I)P = 0 densely on that A,
  against the class-cycle solve of `stationary_distribution`;
- `day_metrics_oracle` sums the day's metrics over the gathered travelers,
  against the per-route sums of `compute_metrics`;
- `balanced_count_oracle` scans every fast count of an uncontrolled day,
  against the integer bisection of `wardrop_equilibrium`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, gcd

import numpy as np

from karma_routing import InfeasibleKarmaError, KarmaChain, PriceVector
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


def plan_oracle(state: AgentState, d, p: PriceVector, horizon: int,
                s_bar: float) -> PlanOutcome:
    """Solve the two-stage plan by enumerating today's route.

    For each affordable route j, the karma budget caps the planned future
    share of the fast route at (k - k_ref - p_j + T*r2) / (T*(p1+r2)); the
    linear objective pushes that share to its cap when d1 < d2, to zero when
    d1 > d2.  The budget sum is taken by `math.fsum`, correctly rounded, so
    its sign is exact: a route is affordable exactly where the real
    constraint holds.  Returns the route minimizing
    s*d_j + s_bar*T*d^T y_future, breaking exact ties toward the slow route.
    ``state.s`` and ``s_bar`` may be in any common unit; the library's rule
    takes s in units of the mean, where s_bar = 1.
    Raises InfeasibleKarmaError when no route admits a feasible plan, which
    is exactly k < k_inf.
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
        cap = fsum((k, -k_ref, -p_today, t * r2)) / denom
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
