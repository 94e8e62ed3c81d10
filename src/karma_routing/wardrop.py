"""Daily route equilibrium of a finite population.

The individual rule depends on today's flows only through the sign of
d1 - d2, so the equilibrium is found in closed form rather than by
iteration:

1. One sweep of the d1 < d2 rule over the travelers.  If d1 < d2 still holds
   at the resulting flows, they reproduce themselves: the day is
   ``CONTROLLED``.
2. Otherwise the equilibrium sits at the balanced flow (equal discomforts),
   realized by splitting the indifferent travelers deterministically by
   agent index: the day is ``UNCONTROLLED``.  The split is always feasible,
   because the travelers the d1 < d2 rule sent fast are a subset of the
   indifferent ones and already overload the fast route.
3. If no balanced flow exists (d1 >= d2 even with an empty fast route),
   every traveler takes the slow route, which is ``CONTROLLED``.

Selection rule: a population can admit both a controlled and a balanced-flow
equilibrium.  The controlled one is chosen whenever it exists, so the result
depends only on today's population, never on an initial guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .agent import (ARC1, ARC2, STAY, D1_LESS, best_response_batch,
                    discomfort_order, k_poor)
from .network import ArcCostModel, balanced_flow
from .pricing import PriceVector

CONTROLLED = "controlled"      # best-response fixed point with d1 < d2
UNCONTROLLED = "uncontrolled"  # balanced-flow equilibrium (equal discomforts)


@dataclass
class WardropResult:
    flows: np.ndarray        # population shares (x1, x2)
    choices: np.ndarray      # per-agent STAY / ARC1 / ARC2
    regime: str


def _flows_of(choices: np.ndarray) -> np.ndarray:
    m = choices.size
    return np.array([
        np.count_nonzero(choices == ARC1) / m,
        np.count_nonzero(choices == ARC2) / m,
    ])


def _sweep(k, k_ref, s, traveling, order: str, p: PriceVector, horizon: int,
           s_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Apply the closed-form rule for ``order`` to every traveler.

    Returns (flows, choices) with flows as empirical population shares.
    """
    k = np.asarray(k, dtype=float)
    traveling = np.asarray(traveling, dtype=bool)
    choices = np.full(k.shape, STAY, dtype=np.int8)
    idx = np.flatnonzero(traveling)
    if idx.size:
        choices[idx] = best_response_batch(
            k[idx], np.asarray(k_ref, dtype=float)[idx],
            np.asarray(s, dtype=float)[idx], s_bar, p, horizon, order,
        )
    return _flows_of(choices), choices


def aggregate_best_response(k, k_ref, s, traveling, x_assumed,
                            model: ArcCostModel, p: PriceVector, horizon: int,
                            s_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """One best-response sweep against assumed flows.

    Classifies the discomfort ordering at ``x_assumed``, applies the
    closed-form rule to every traveler, and returns (flows, choices) with
    flows as empirical population shares.
    """
    order = discomfort_order(model.discomfort(x_assumed))
    return _sweep(k, k_ref, s, traveling, order, p, horizon, s_bar)


def _balanced_split(k, k_ref, traveling, target_x1: float, p: PriceVector,
                    horizon: int) -> tuple[np.ndarray, bool]:
    """Assignment realizing the balanced flow, plus a feasibility flag.

    Travelers below their k_poor breakpoint can only take the slow route;
    the remaining (indifferent) travelers are sent to the fast route in
    agent-index order up to the target share, the rest go slow.  The fast
    count rounds down so the fast route never ends up the more congested
    one.  If there are too few indifferent travelers to reach the target,
    the flag is False.
    """
    m = k.size
    choices = np.full(m, STAY, dtype=np.int8)
    choices[traveling] = ARC2
    poor_edge = k_poor(np.asarray(k_ref, float), p, horizon)
    indifferent = np.flatnonzero(traveling & (np.asarray(k, float) >= poor_edge))
    n_fast = floor(target_x1 * m + 1e-9)
    feasible = n_fast <= indifferent.size
    choices[indifferent[:n_fast]] = ARC1
    return choices, feasible


def wardrop_equilibrium(k, k_ref, s, traveling, model: ArcCostModel,
                        p: PriceVector, horizon: int,
                        s_bar: float) -> WardropResult:
    """Daily equilibrium flows and per-agent assignments.

    Controlled whenever a d1 < d2 equilibrium exists, otherwise the balanced
    flow of today's realized demand (see the module docstring).
    """
    k = np.asarray(k, dtype=float)
    traveling = np.asarray(traveling, dtype=bool)
    m = k.size
    demand = traveling.sum() / m
    if demand == 0.0:
        return WardropResult(np.zeros(2), np.full(m, STAY, dtype=np.int8),
                             CONTROLLED)

    flows, choices = _sweep(k, k_ref, s, traveling, D1_LESS, p, horizon, s_bar)
    if discomfort_order(model.discomfort(flows)) == D1_LESS:
        return WardropResult(flows, choices, CONTROLLED)

    # a tight crossing, so the floored fast count keeps d1 <= d2 + 1e-9
    x_bal = balanced_flow(model, demand, tol=1e-9)
    if x_bal is None:
        # d1 >= d2 even on an empty fast route: the slow route dominates
        choices = np.where(traveling, ARC2, STAY).astype(np.int8)
        return WardropResult(_flows_of(choices), choices, CONTROLLED)
    choices, feasible = _balanced_split(k, k_ref, traveling, float(x_bal[0]),
                                        p, horizon)
    if not feasible:
        raise RuntimeError(
            f"internal error: the d1 < d2 sweep overloads the fast route "
            f"(x1 = {flows[0]}) but too few travelers are indifferent to "
            f"reach the balanced share {float(x_bal[0])}")
    return WardropResult(_flows_of(choices), choices, UNCONTROLLED)
