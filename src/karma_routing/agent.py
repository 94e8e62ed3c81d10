"""Single-agent route choice under karma budgeting.

A traveling agent weighs today's discomfort (scaled by today's sensitivity s)
against the average discomfort of the remaining T days of the horizon (scaled
by the mean sensitivity), subject to ending the horizon no poorer than its
karma reference.  Sensitivities are in units of their mean
(`sensitivity.SensitivitySpec.sample`), so the mean is 1.  On a d1 < d2 day
the optimal rule is one threshold in karma: the agent takes the fast route
iff s > theta(k), where theta is +inf below k_poor, 1 up to k_rich, decays
linearly to 0 at k_wealthy and is -inf from there.  On a d1 > d2 day the
slow route dominates, and on a d1 = d2 day any route is optimal; `wardrop`
settles those days without the rule.  `thresholds` builds the four
breakpoints once per k_ref, `check_floor` guards the feasibility floor,
`fast_mask`, the one rule function, applies the rule for the day and for
the tests, and `settle` is the one account update.  The tests check them
against `tests/oracles.py`, which solves the underlying two-stage program
by direct enumeration.

k_poor is the least float at or above the exact boundary of the toll and
the budget constraint, and k_inf is exact, so at every float karma the
toll, the budget and the floor bind exactly where they do over the reals.
The day's stages are written for few numpy calls and no float temporary
they can do without: the decaying threshold is computed in place, and
`settle` looks each delta up by a one-byte route code instead of casting
its masks to float.  tests/test_day_stages.py pins them bit for bit
against the plain expressions, at the breakpoints, at s = 0, with nobody
traveling, on 0-d and integer input and with Python-bool masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleKarmaError
from .network import check_count
from .pricing import PriceVector


@dataclass(frozen=True)
class Thresholds:
    """Karma breakpoints of the best-response rule.

    Scalars for one k_ref, or per-agent arrays for an array of k_ref.
    """

    k_inf: float
    k_poor: float
    k_rich: float
    k_wealthy: float


# The rule's breakpoints, each for a scalar or a per-agent array of k_ref.
def k_inf(k_ref, p: PriceVector, horizon: int):
    """Feasibility floor: below it no plan restores k_ref by the horizon's end.

    Exact: k_ref below 2**53 minus the integer (T+1)*r2 is exact when it is
    not negative, and 0 otherwise.
    """
    return np.maximum(0.0, k_ref - (horizon + 1) * p.r2)


def k_poor(k_ref, p: PriceVector, horizon: int):
    """Below it the agent must take the slow route (toll or reference binds).

    The least float at or above max(p1, k_ref + p1 - T*r2), the exact
    boundary of the toll and of the budget constraint
    k - k_ref - p1 + T*r2 >= 0.  A float below 2**53 minus an integer no
    larger than it is exact, so with the integer shift = p1 - T*r2 <= 0 the
    sum k_ref + shift is exact, or negative and then below p1.  A positive
    shift can round the sum down, which the exact k - shift < k_ref
    detects, and the boundary is one ulp up; only then is it corrected.
    """
    shift = p.p1 - horizon * p.r2
    k = np.asarray(k_ref, dtype=float) + shift
    if shift > 0:
        k = np.where(k - shift < k_ref, np.nextafter(k, np.inf), k)
    return np.maximum(p.p1, k)[()]


def k_rich(k_ref, p: PriceVector, horizon: int):
    """Above it the urgency threshold decays from 1 toward zero."""
    return k_ref + horizon * p.p1 - p.r2


def k_wealthy(k_ref, p: PriceVector, horizon: int):
    """At or above it the agent always takes the fast route."""
    return k_ref + (horizon + 1) * p.p1


def thresholds(k_ref, p: PriceVector, horizon: int) -> Thresholds:
    """The four karma breakpoints for a given reference level and prices.

    Raises ValueError unless horizon is an integer >= 1 and every k_ref lies
    in [0, 2**53): below zero the rule could send an agent fast that cannot
    pay p1, and from 2**53 on `k_poor` is not exact.
    """
    check_count("horizon", horizon)
    ref = np.asarray(k_ref, dtype=float)
    bad = ~((ref >= 0) & (ref < 2.0 ** 53))
    if bad.any():
        raise ValueError(
            f"k_ref must be finite, >= 0 and < 2**53, got {ref[bad][0]}")
    return Thresholds(
        k_inf=k_inf(k_ref, p, horizon),
        k_poor=k_poor(k_ref, p, horizon),
        k_rich=k_rich(k_ref, p, horizon),
        k_wealthy=k_wealthy(k_ref, p, horizon),
    )


def _decaying_threshold(k, k_wealthy, p: PriceVector):
    """The rich band's threshold: decays linearly from 1 to 0 at k_wealthy.

    (k_wealthy - k) / (p1 + r2), computed in place in one float array
    (integer karma is taken as float).
    """
    theta = np.subtract(k_wealthy, k, dtype=float)
    theta /= p.total
    return theta


def check_floor(k: np.ndarray, floor) -> None:
    """Raise InfeasibleKarmaError naming the first agent below its floor.

    ``k`` is one agent's karma (a scalar) or an array of them; ``floor``
    broadcasts against it.  The test is k >= floor, so a NaN karma fails it
    too; an infinite one passes.  `np.greater_equal` keeps the comparison a
    numpy value, also for two Python floats, and `np.logical_and.reduce`
    is ``ok.all()`` without its method wrapper.
    """
    ok = np.greater_equal(k, floor)
    if not np.logical_and.reduce(ok, axis=None):
        bad = int(np.argmin(ok))
        k, floor = np.broadcast_arrays(k, floor)
        raise InfeasibleKarmaError(
            f"agent {bad}: karma {k.flat[bad]} below feasibility floor "
            f"{floor.flat[bad]}"
        )


def fast_mask(k, s, traveling, th: Thresholds, p: PriceVector, wealthy):
    """The d1 < d2 rule as a mask: which agents take the fast route.

    A traveler goes fast when it is wealthy, and between k_poor and
    k_wealthy when its sensitivity s (in units of the mean) exceeds its
    urgency threshold: 1 below k_rich, then (k_wealthy - k) / (p1 + r2),
    which decays linearly to zero at k_wealthy.  Ties (s equal to its
    threshold) go to the slow route, except that a wealthy traveler goes
    fast even at s = 0, where the two-stage plan is indifferent.  The caller
    builds ``wealthy``, the mask k >= th.k_wealthy: the day's
    `wardrop.wardrop_equilibrium` counts it before it applies the rule.
    ``th`` holds precomputed breakpoints (scalars or per-agent arrays);
    k_inf is not read (see `check_floor`, which also rejects a NaN karma),
    and s is not checked for finiteness.

    The threshold is split by band rather than selected per agent: each
    agent's comparison is taken in both bands and the rich mask keeps one,
    so there is no per-element branch.
    """
    rich = k >= th.k_rich
    go = s > _decaying_threshold(k, th.k_wealthy, p)
    go &= rich
    go |= np.greater(s > 1.0, rich)  # s > 1 and not rich
    go &= k >= th.k_poor
    go |= wealthy
    go &= traveling
    return go


def settle(k, fast, traveling, p: PriceVector):
    """Post-trip karma: k - p1 on the fast route, k + r2 on the slow one.

    ``fast`` and ``traveling`` are bool route masks (arrays, numpy or Python
    bools), fast a subset of traveling; agents at home keep k.  The masks'
    bytes add to a route code, 0 home, 1 slow and 2 fast, which picks each
    delta from the table (0, r2, -p1), so no mask is cast to float
    (``take`` reads the table faster than fancy indexing does).  The
    delta is exactly 0, r2 or -p1, so the result is k, k + r2 or k - p1 to
    the last bit.
    """
    route = np.add(np.asarray(traveling).view(np.uint8),
                   np.asarray(fast).view(np.uint8))
    delta = np.array([0.0, p.r2, -p.p1]).take(route)
    delta += k
    return delta
