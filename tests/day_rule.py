"""The day as it runs, for tests that pose agents directly or need them on
the quantized chain's integer lattice.

`wardrop_equilibrium` checks each agent against its feasibility floor and
then takes the rule's mask, `fast_mask` with its wealthy mask, from
breakpoints that `thresholds` built once per set of k_ref.  `fast_routes`
is those two per-day steps, on the same rule function.  `same_day`
compares two days' (fast, n1, n2, regime, d) tuples.
`integer_histogram` runs the day loop on a floored population.
"""

from dataclasses import replace

import numpy as np

from karma_routing import init_population, quantize_population, simulate_day
from karma_routing.agent import check_floor, fast_mask
from karma_routing.simulation import run_optimum


def fast_routes(k, s, th, p):
    """Fast-route mask of travelers with karma k and sensitivity s (in
    units of the mean).

    ``th`` is `thresholds` of the agents' k_ref (scalars or per-agent
    arrays), built once by the caller.  Raises InfeasibleKarmaError naming
    the first agent below its floor th.k_inf.
    """
    k = np.asarray(k, dtype=float)
    check_floor(k, th.k_inf)
    return fast_mask(k, np.asarray(s, dtype=float), True, th, p,
                     k >= th.k_wealthy)


def same_day(got, want):
    """Two equilibrium tuples (fast, n1, n2, regime, d) agree: the same mask,
    counts and regime, and the same floats d."""
    return (np.array_equal(got[0], want[0])
            and tuple(got[1:4]) == tuple(want[1:4])
            and [float(x).hex() for x in got[4]]
            == [float(x).hex() for x in want[4]])


def integer_histogram(scenario, model, p, days):
    """Terminal karma histogram (shares per chain cell) of ``days`` days run
    from `init_population` with ``k`` and ``k_ref`` floored onto the
    integer lattice.

    A day's karma change is -p1, 0 or +r2, so the agents then stay on the
    chain's cells; the floored k stays above the floored k_inf because
    (T + 1) * r2 is an integer.
    """
    cost_star = run_optimum(scenario, model, days)[1]
    pop = init_population(scenario, p)
    pop = replace(pop, k=np.floor(pop.k), k_ref=np.floor(pop.k_ref))
    for _ in range(days):
        simulate_day(pop, model, p, cost_star)
    return quantize_population(pop.k, pop.k_ref, p, scenario.horizon)[0]
