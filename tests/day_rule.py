"""The d1 < d2 route rule as the day runs it, for tests that pose agents
directly.

`wardrop_equilibrium` checks each agent against its feasibility floor and
then takes the rule's mask, from breakpoints that `thresholds` built once
per set of k_ref.  `fast_routes` is those two per-day steps.
"""

import numpy as np

from karma_routing.agent import check_floor, fast_mask


def fast_routes(k, s, th, s_bar, p):
    """Fast-route mask of travelers with karma k and sensitivity s.

    ``th`` is `thresholds` of the agents' k_ref (scalars or per-agent
    arrays), built once by the caller.  Raises InfeasibleKarmaError naming
    the first agent below its floor th.k_inf.
    """
    k = np.asarray(k, dtype=float)
    check_floor(k, th.k_inf)
    return fast_mask(k, np.asarray(s, dtype=float), True, th, s_bar, p)
