"""Daily route equilibrium of a finite population.

The individual rule depends on today's flows only through the sign of
d1 - d2, so the equilibrium is found in closed form rather than by
iteration:

1. One sweep of the d1 < d2 rule over the travelers.  If d1 < d2 still holds
   at the resulting flows, they reproduce themselves: the day is
   ``CONTROLLED``.
2. Otherwise the equilibrium sits at the balanced flow (equal discomforts),
   realized by splitting the indifferent travelers with a fixed priority by
   agent index: the day is ``UNCONTROLLED``.  The split is always feasible,
   because the travelers the d1 < d2 rule sent fast are a subset of the
   indifferent ones and already overload the fast route.
3. If no balanced flow exists (d1 >= d2 even with an empty fast route),
   every traveler takes the slow route, which is ``CONTROLLED``.

Selection rule: a population can admit both a controlled and a balanced-flow
equilibrium.  The controlled one is chosen whenever it exists, so the result
depends only on today's population, never on an initial guess.

Split rule: at the balanced flow every indifferent traveler (k >= k_poor)
is equally well off on either route, so any split of them is an
equilibrium.  The rule is a fixed priority by agent index: the
lowest-index indifferent travelers go fast.  Agents are drawn i.i.d., so
the priority is a fixed random one, and the same agents pay p1 on every
uncontrolled day until they fall below k_poor.  That sets how long a
karma-rich transient lasts: ``fig3`` at M = 1000, seed 0, k(0) ~
U[2000, 4000] has 255 uncontrolled days in 500 under this rule and 383
under a daily lottery.  A lottery would be a declared output change and
would need an RNG stream of its own.

`wardrop_equilibrium` computes it as one pass of boolean masks over all
agents, read against per-agent breakpoints built beforehand by
`agent.thresholds` (`simulation.simulate_day` caches them on the population).
"""

from __future__ import annotations

from math import floor

import numpy as np

from .agent import Thresholds, check_floor, fast_mask
from .network import ArcCostModel, balanced_flow
from .pricing import PriceVector

CONTROLLED = "controlled"      # best-response fixed point with d1 < d2
UNCONTROLLED = "uncontrolled"  # balanced-flow equilibrium (equal discomforts)


def _balanced_split(k, traveling, k_poor, target_x1: float) -> np.ndarray | None:
    """Fast-route mask realizing the balanced flow, or None if infeasible.

    Travelers below their k_poor breakpoint can only take the slow route;
    the remaining (indifferent) travelers are sent to the fast route by a
    fixed priority by agent index up to the target share, the rest go slow
    (see the module docstring).  The fast count rounds down so the fast
    route never ends up the more congested one.  None means too few
    indifferent travelers to reach the target.
    """
    m = k.size
    indifferent = np.flatnonzero(traveling & (k >= k_poor))
    n_fast = floor(target_x1 * m + 1e-9)
    if n_fast > indifferent.size:
        return None
    fast = np.zeros(m, dtype=bool)
    fast[indifferent[:n_fast]] = True
    return fast


def wardrop_equilibrium(k: np.ndarray, s: np.ndarray, traveling: np.ndarray,
                        th: Thresholds, model: ArcCostModel, p: PriceVector,
                        s_bar: float
                        ) -> tuple[np.ndarray, int, int, str, tuple]:
    """The day's equilibrium as one pass of masks over all agents.

    Controlled whenever a d1 < d2 equilibrium exists, otherwise the balanced
    flow of today's realized demand (see the module docstring).  ``k`` and
    ``s`` are float arrays and ``traveling`` a bool mask over all agents;
    ``th`` holds their breakpoints, ``thresholds(k_ref, p, T)``.  Returns
    (fast, n1, n2, regime, d): the fast-route mask, the fast and slow counts,
    the regime, and the float pair d = d(n1 / M, n2 / M).  Raises
    InfeasibleKarmaError if an agent is below its feasibility floor.
    """
    check_floor(k, th.k_inf)
    m = k.size
    n_travel = int(np.count_nonzero(traveling))
    fast = fast_mask(k, s, traveling, th, s_bar, p)
    n1 = int(np.count_nonzero(fast))
    d1, d2 = model._volume_delay()
    d = (d1(n1 / m), d2((n_travel - n1) / m))
    if n_travel == 0 or d[0] < d[1]:
        return fast, n1, n_travel - n1, CONTROLLED, d

    x_bal = balanced_flow(model, n_travel / m)
    if x_bal is None:
        # d1 >= d2 even on an empty fast route: the slow route dominates
        fast, regime = np.zeros(m, dtype=bool), CONTROLLED
    else:
        regime = UNCONTROLLED
        fast = _balanced_split(k, traveling, th.k_poor, float(x_bal[0]))
        if fast is None:
            raise RuntimeError(
                f"internal error: the d1 < d2 sweep overloads the fast route "
                f"(x1 = {n1 / m}) but too few travelers are indifferent to "
                f"reach the balanced share {float(x_bal[0])}")
    n1 = int(np.count_nonzero(fast))
    d = (d1(n1 / m), d2((n_travel - n1) / m))
    return fast, n1, n_travel - n1, regime, d

