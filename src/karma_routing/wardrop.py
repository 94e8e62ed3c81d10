"""Daily route equilibrium of a finite population.

The individual rule depends on today's flows only through the sign of
d1 - d2, so the equilibrium is found in closed form rather than by
iteration:

1. A lower bound first.  The rule sends every traveler at or above
   k_wealthy fast whatever its sensitivity, and at most M - n_travel
   wealthy agents stay home, so the sweep of step 2 sends at least
   n_lb = (wealthy agents) - (M - n_travel) fast.  If n_lb > 0 and
   d1 > d2 already at n_lb, d1 < d2 fails at the sweep's count too
   (d1 - d2 rises with the count): the sweep is skipped, no sensitivity is
   read, and steps 3 and 4 take n_lb in place of the sweep's count.
2. Otherwise one sweep of the d1 < d2 rule over the travelers.  If d1 < d2
   still holds at the resulting flows, they reproduce themselves: the day
   is ``CONTROLLED``.
3. Otherwise the equilibrium sits at the balanced flow (equal discomforts)
   in whole agents: the fast count is the largest one, at most the sweep's,
   with d1 <= d2, found by bisection on the integer count (d1 - d2 rises
   with it).  From step 1 the bisection runs up to n_lb instead, and finds
   the same count, since every count from n_lb up has d1 > d2.  It is
   realized by splitting the indifferent travelers with a fixed priority by
   agent index: the day is ``UNCONTROLLED``.  The split is always feasible,
   because the travelers the d1 < d2 rule sends fast, the wealthy ones
   among them, are indifferent and already overload the fast route.
4. If no balanced flow exists (d1 >= d2 even with an empty fast route),
   every traveler takes the slow route, which is ``CONTROLLED``.  A day
   nobody travels is ``CONTROLLED`` by step 2 when d1(0) < d2(0) and by
   this step otherwise.

Selection rule: a population can admit both a controlled and a balanced-flow
equilibrium.  The controlled one is chosen whenever it exists, so the result
depends only on today's population, never on an initial guess.
"Controlled" describes the day's equilibrium, not its closeness to the
system optimum x*: the rule's flows keep d1 < d2 (or the slow route
dominates and everyone takes it), however far they sit from x*.

Split rule: at the balanced count every indifferent traveler (k >= k_poor)
is as well off on either route as whole agents allow (d1 <= d2 there, and
d1 >= d2 one fast traveler later), so any split of them is an equilibrium.
The rule is a fixed priority by agent index: the lowest-index indifferent
travelers go fast.  Agents are drawn i.i.d., so the priority is a fixed
random one, and the same agents pay p1 on every uncontrolled day until they
fall below k_poor.  That sets how long a karma-rich transient lasts:
``fig3`` at M = 1000, seed 0, k(0) ~ U[2000, 4000] has 255 uncontrolled
days in 500 under this rule and 383 under a daily lottery.  A lottery would be a declared output change and
would need an RNG stream of its own.

`wardrop_equilibrium` computes it as at most one pass of boolean masks over
all agents, read against per-agent breakpoints built beforehand by
`agent.thresholds` (`simulation.Population.breakpoints`, built once per run).
"""

from __future__ import annotations

import numpy as np

from .agent import Thresholds, check_floor, fast_mask
from .network import ArcCostModel
from .pricing import PriceVector

CONTROLLED = "controlled"      # best-response fixed point with d1 < d2
UNCONTROLLED = "uncontrolled"  # balanced-flow equilibrium (equal discomforts)


def _balanced_split(k, traveling, k_poor, n_fast: int) -> np.ndarray:
    """Fast-route mask sending exactly ``n_fast`` travelers fast.

    Travelers below their k_poor breakpoint can only take the slow route;
    the first ``n_fast`` indifferent travelers (k >= k_poor) by agent index
    go fast and the rest go slow (see the module docstring).  The mask of
    all indifferent travelers is cleared, by one slice fill, from the
    (n_fast + 1)-th of them on.  The caller keeps ``n_fast`` at most the
    indifferent travelers, so the mask holds exactly ``n_fast`` agents.
    """
    fast = traveling & (k >= k_poor)
    idx = np.flatnonzero(fast)
    if n_fast < idx.size:
        fast[idx[n_fast]:] = False
    return fast


def wardrop_equilibrium(k: np.ndarray, s: np.ndarray, traveling: np.ndarray,
                        th: Thresholds, model: ArcCostModel, p: PriceVector
                        ) -> tuple[np.ndarray, int, int, str, tuple]:
    """The day's equilibrium as at most one pass of masks over all agents.

    Controlled whenever a d1 < d2 equilibrium exists, otherwise the balanced
    flow of today's realized demand (see the module docstring).  ``k`` and
    ``s`` (in units of its mean) are float arrays and ``traveling`` a bool
    mask over all agents; ``th`` holds their breakpoints,
    ``thresholds(k_ref, p, T)``.  Returns
    (fast, n1, n2, regime, d): the fast-route mask, the fast and slow counts,
    the regime, and the float pair d = d(n1 / M, n2 / M).  On an
    uncontrolled day n1 is the largest count up to the sweep's with
    d[0] <= d[1], which the balanced split takes as its ``n_fast``; on the
    no-crossing day it is 0.  Neither recounts the mask.  Raises
    InfeasibleKarmaError if an agent is below its feasibility floor.
    """
    check_floor(k, th.k_inf)
    m = k.size
    n_travel = int(np.count_nonzero(traveling))
    wealthy = k >= th.k_wealthy
    # at most m - n_travel wealthy agents stay home, and the sweep sends
    # every wealthy traveler fast: a lower bound on its fast count
    n_lb = int(np.count_nonzero(wealthy)) - (m - n_travel)
    d1, d2 = model._delay
    if n_lb > 0 and d1(n_lb / m) > d2((n_travel - n_lb) / m):
        # they alone overload the fast route: no sweep keeps d1 < d2
        n1 = n_lb
    else:
        fast = fast_mask(k, s, traveling, th, p, wealthy)
        n1 = int(np.count_nonzero(fast))
        d = (d1(n1 / m), d2((n_travel - n1) / m))
        if d[0] < d[1]:
            return fast, n1, n_travel - n1, CONTROLLED, d

    if d1(0.0) >= d2(n_travel / m):
        # d1 >= d2 even on an empty fast route: the slow route dominates
        fast, n1, regime = np.zeros(m, dtype=bool), 0, CONTROLLED
    else:
        # the largest count in [0, n1] with d1 <= d2; d1 - d2 rises with
        # the count, 0 keeps d1 < d2 and n1, the sweep's count or its
        # bound, has d1 >= d2
        lo, hi = 0, n1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if d1(mid / m) <= d2((n_travel - mid) / m):
                lo = mid
            else:
                hi = mid - 1
        n1, regime = lo, UNCONTROLLED
        fast = _balanced_split(k, traveling, th.k_poor, n1)
    d = (d1(n1 / m), d2((n_travel - n1) / m))
    return fast, n1, n_travel - n1, regime, d

