import inspect
import warnings
from collections import defaultdict
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from karma_routing import (InfeasibleKarmaError, PriceVector, settle,
                           thresholds)
from karma_routing.agent import (Thresholds, check_floor, fast_mask, k_inf,
                                 k_rich, k_wealthy)

from conftest import examples
from day_rule import fast_routes
from oracles import ARC1, ARC2, AgentState, plan_oracle

P_FIG3 = PriceVector(10, 14)
SBAR = 1.0  # the mean sensitivity, in the unit the rule reads s in


class TestThresholds:
    def test_reference_values(self):
        th = thresholds(50.0, P_FIG3, 6)
        assert (th.k_inf, th.k_poor, th.k_rich, th.k_wealthy) == (0, 10, 96, 120)

    def test_degenerate_horizon(self):
        th = thresholds(0.0, PriceVector(1, 1), 1)
        # middle band is empty: k_rich < k_poor
        assert (th.k_inf, th.k_poor, th.k_rich, th.k_wealthy) == (0, 1, 0, 2)

    def test_rejects_non_integer_horizon(self):
        # at T = 2.5 the breakpoints came out off the karma lattice
        for horizon in (0, 2.5, True):
            with pytest.raises(ValueError, match="horizon"):
                thresholds(50.0, P_FIG3, horizon)

    def test_band_widths_match_quantization(self):
        p = PriceVector(2, 3)
        t = 3
        th = thresholds(t * p.r2, p, t)  # k_ref = T*r2 puts the rule on [0, N)
        widths = (p.p1, th.k_rich - th.k_poor, th.k_wealthy - th.k_rich, p.r2)
        assert widths == (2, 10, 5, 3)
        assert sum(widths) == (t + 1) * p.total == 20

    def test_reference_branch(self):
        # k_ref >= T*r2 activates the reference-driven poor breakpoint
        th = thresholds(100.0, PriceVector(2, 3), 5)
        assert th.k_poor == 100 + 2 - 15
        assert th.k_inf == 100 - 18

    def test_poor_breakpoint_rounding(self):
        # (k_ref + 1) - 1 rounds one ulp above k_ref, where the budget
        # constraint already holds: the agent at k = k_ref can go fast
        k_ref, p = 3.651022309110887, PriceVector(1, 1)
        assert (k_ref + 1) - 1 > k_ref
        th = thresholds(k_ref, p, 1)
        assert th.k_poor == k_ref
        d = [1.06144, 2.19683]
        state = AgentState(k_ref, k_ref, 1.2858477775042385)
        assert plan_oracle(state, d, p, 1, SBAR).choice == ARC1
        assert fast_routes(k_ref, state.s, th, p)

    def test_poor_breakpoint_is_the_exact_boundary(self):
        # k_poor is the least float at or above max(p1, k_ref + p1 - T*r2)
        # over the reals, and the rule as the day runs it agrees with the
        # oracle there and one float below.  k_ref just above T*r2 puts
        # k_poor near p1; every third group has p1 > T*r2, where the float
        # sum k_ref + p1 - T*r2 can round below the boundary
        rng = np.random.default_rng(5)
        checked = rounded = 0
        for group in range(100):
            t = int(rng.integers(1, 13))
            if group % 3:
                p = PriceVector(int(rng.integers(1, 31)),
                                int(rng.integers(1, 31)))
            else:
                t = min(t, 3)
                r2 = int(rng.integers(1, 6))
                p = PriceVector(int(rng.integers(t * r2 + 1, t * r2 + 41)), r2)
            k_ref = np.concatenate([t * p.r2 + rng.uniform(0, 3, 5),
                                    rng.uniform(0, 1e3, 5)])
            th = thresholds(k_ref, p, t)
            below = np.nextafter(th.k_poor, -np.inf)
            shift = p.p1 - t * p.r2
            if shift > 0:
                # the float sums that land below the boundary, which only
                # k_poor's one-ulp correction lifts onto it
                rounded += sum(Fraction(a) < Fraction(ref) + shift
                               for ref, a in zip(k_ref, k_ref + shift))
            for ref, k, under in zip(k_ref, th.k_poor, below):
                bound = max(Fraction(p.p1), Fraction(ref) + p.p1 - t * p.r2)
                assert Fraction(under) < bound <= Fraction(k), (p, t, ref)
            assert [thresholds(r, p, t).k_poor for r in k_ref] == list(th.k_poor)
            # s = 4 means exceeds every threshold, so only the budget decides
            for k, fast in ((th.k_poor, True), (below, False)):
                rule = fast_routes(k, 4 * SBAR, th, p)
                plans = [plan_oracle(AgentState(float(a), float(ref), 4 * SBAR),
                                     (1.0, 2.0), p, t, SBAR)
                         for a, ref in zip(k, k_ref)]
                assert rule.tolist() == [fast] * k.size
                assert [(plan.choice, plan.fast_feasible) for plan in plans] \
                    == [(ARC1 if fast else ARC2, fast)] * k.size, (p, t)
            checked += k_ref.size
        assert checked == 1000
        assert rounded > 0


class TestBestResponse:
    @staticmethod
    def rule(k, s, k_ref=50.0):
        """The rule's routes, as a list, for karma k and sensitivity s."""
        k, s = np.broadcast_arrays(np.atleast_1d(k).astype(float), s)
        th = thresholds(np.full(k.shape, k_ref), P_FIG3, 6)
        return np.where(fast_routes(k, s, th, P_FIG3), ARC1,
                        ARC2).tolist()

    def test_poor_band_forced_slow(self):
        assert self.rule(5.0, [0.01, 1.0, 50.0]) == [ARC2] * 3

    def test_middle_band_mean_threshold(self):
        assert self.rule(50.0, [2.0, 0.5]) == [ARC1, ARC2]

    def test_rich_band_decaying_threshold(self):
        # at k = 110 the threshold is (120 - 110) / 24
        assert self.rule(110.0, [0.3, 0.5]) == [ARC2, ARC1]

    def test_wealthy_forced_fast(self):
        # even at s = 0, where the plan is indifferent and the oracle goes
        # slow: the one exception to ties going slow
        assert self.rule(130.0, [0.0, 0.001]) == [ARC1, ARC1]
        assert plan_oracle(AgentState(130.0, 50.0, 0.0), (1.0, 2.0), P_FIG3,
                           6, SBAR).choice == ARC2

    def test_tie_goes_slow(self):
        assert self.rule(50.0, SBAR) == [ARC2]

    def test_infeasible_below_floor(self):
        th = thresholds(200.0, P_FIG3, 6)
        assert th.k_inf == 200 - 7 * 14
        with pytest.raises(InfeasibleKarmaError):
            self.rule(th.k_inf - 1.0, 1.0, k_ref=200.0)

    def test_rule_never_sees_discomfort_values(self):
        # the decision is independent of discomfort magnitudes by signature
        params = list(inspect.signature(fast_mask).parameters)
        assert params == ["k", "s", "traveling", "th", "p"]

    def test_batch_raises_on_infeasible(self):
        # the scalar call is one agent, 0-d, below its floor of 102
        for k, k_ref in ((np.array([0.0]), np.array([200.0])),
                         (np.array(97.0), 200.0)):
            floor = thresholds(k_ref, P_FIG3, 6).k_inf
            with pytest.raises(InfeasibleKarmaError, match="agent 0"):
                check_floor(k, floor)

    def test_floor_on_python_floats(self):
        # two plain floats compare to a plain bool, which has no .any()
        with pytest.raises(InfeasibleKarmaError,
                           match="karma 97.0 below feasibility floor 102.0"):
            check_floor(97.0, 102.0)
        check_floor(102.0, 102.0)

    def test_negative_reference_rejected(self):
        # k_wealthy = -100 + 7*10 < p1: without the check, karma 5 was sent
        # onto the toll-10 route, which plan_oracle finds unaffordable
        state = AgentState(5.0, -100.0, 0.5)
        assert plan_oracle(state, (1.0, 2.0), P_FIG3, 6, SBAR).choice == ARC2
        for k_ref in (-100.0, -1e-300, np.nan, np.inf):
            with pytest.raises(ValueError, match="k_ref"):
                thresholds([k_ref], P_FIG3, 6)
        with pytest.raises(ValueError, match="k_ref"):
            thresholds([50.0, -0.5], P_FIG3, 6)

    def test_infinite_reference_rejected(self):
        # it used to give k_poor = nan with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                thresholds(np.inf, P_FIG3, 6)
            with pytest.raises(ValueError, match="finite"):
                thresholds([50.0, np.inf], P_FIG3, 6)

    def test_reference_from_2_53_rejected(self):
        # from 2**53 on floats are 2 apart and k_poor is no longer exact
        thresholds(np.nextafter(2.0 ** 53, 0), P_FIG3, 6)
        for k_ref in (2.0 ** 53, 2.0 ** 60, 1e300):
            with pytest.raises(ValueError, match="k_ref .*finite"):
                thresholds(k_ref, P_FIG3, 6)
            with pytest.raises(ValueError, match="k_ref .*finite"):
                thresholds([50.0, k_ref], P_FIG3, 6)


def neighbours(v):
    """v and the floats one ulp either side of it, stacked on a new axis 0."""
    v = np.asarray(v, dtype=float)
    return np.stack([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


class TestBandEdges:
    """`fast_mask` against the threshold selected per agent, at the edges.

    The reference selects each agent's threshold: s against 1 (the mean)
    below k_rich and against the decaying threshold from k_rich on.
    Off-lattice references make the decaying threshold at k_rich differ from
    1 in its last bits, so either comparison taken on the wrong side of
    k_rich, or a tie sent fast, shows as a mismatch.
    """

    K_REFS = (0.0, 37.3, 101.77, 0.1)

    @staticmethod
    def reference(k, s, th, p):
        thr = np.where(k < th.k_rich, 1.0, (th.k_wealthy - k) / p.total)
        return (k >= th.k_wealthy) | ((k >= th.k_poor) & (s > thr))

    def edge_points(self, p, t):
        """(k, s, th) at every breakpoint and threshold edge, +-1 ulp.

        th holds the breakpoints of each point's k_ref.
        """
        k_ref = np.array(self.K_REFS)
        th = thresholds(k_ref, p, t)
        k = neighbours([th.k_poor, th.k_rich, th.k_wealthy])
        k = k.reshape(9, k_ref.size)
        tail = (th.k_wealthy - k) / p.total
        s = np.stack([neighbours(np.broadcast_to(v, k.shape))
                      for v in (0.0, 1.0, tail)])
        s = s.reshape(9, *k.shape)  # (s edge, k edge, k_ref)
        k, s, *th = np.broadcast_arrays(k, s, *astuple(th))
        return k.ravel(), s.ravel(), Thresholds(*(v.ravel() for v in th))

    @pytest.mark.parametrize("t", range(1, 11))
    def test_mask_matches_selected_threshold(self, t):
        mismatches = 0
        checked = 0
        for p1 in range(1, 21):
            for r2 in range(1, 21):
                p = PriceVector(p1, r2)
                k, s, th = self.edge_points(p, t)
                ref = self.reference(k, s, th, p)
                mask = fast_mask(k, s, True, th, p)
                mismatches += np.count_nonzero(mask != ref)
                checked += k.size
        assert checked == 400 * len(self.K_REFS) * 81
        assert mismatches == 0


class TestPlanOracle:
    def test_future_split_from_budget(self):
        out = plan_oracle(AgentState(50.0, 50.0, 5.0), (1.0, 2.0), P_FIG3, 6,
                          SBAR)
        # high urgency picks the fast route; its future share binds the budget
        assert out.choice == ARC1
        assert out.future_split[0] == pytest.approx(74 / 144)

    def test_objective_difference_identity(self):
        # between k_poor and k_rich: J(fast) - J(slow) = (d1 - d2)(s - s_bar)
        d = (1.3, 2.4)
        for s in (0.2, 0.9, 1.5, 4.0):
            j = {}
            for forced_s, key in ((1e9, ARC1), (1e-9, ARC2)):
                probe = plan_oracle(AgentState(60.0, 50.0, forced_s), d,
                                    P_FIG3, 6, SBAR)
                assert probe.choice == key
                # re-evaluate the probe's plan under the actual sensitivity
                d_today = d[0] if key == ARC1 else d[1]
                y1 = probe.future_split[0]
                j[key] = s * d_today + SBAR * 6 * (d[0] * y1 + d[1] * (1 - y1))
            assert j[ARC1] - j[ARC2] == pytest.approx(
                (d[0] - d[1]) * (s - SBAR), abs=1e-9)

    def test_equal_discomfort_ties(self):
        out = plan_oracle(AgentState(60.0, 50.0, 2.0), (1.7, 1.7), P_FIG3, 6,
                          SBAR)
        assert out.choice == ARC2  # ties resolve to the slow route

    @pytest.mark.parametrize("p1, r2, t, k_ref, k, route", [
        (27, 10, 5, 2.0, 127.00000000000001, ARC1),  # rich band
        (1, 29, 9, 974.7549445010461, 874.332912686133, ARC2)])  # middle
    def test_near_tie_decided_exactly(self, p1, r2, t, k_ref, k, route):
        # s one ulp below 1, within rounding of the threshold: the plan and
        # the rule agree with the threshold over the reals
        p, s = PriceVector(p1, r2), 0.9999999999999999
        th = thresholds(k_ref, p, t)
        theta = ((Fraction(k_ref) + (t + 1) * p1 - Fraction(k)) / p.total
                 if k >= th.k_rich else 1)
        fast = route == ARC1
        assert (Fraction(s) > theta) == fast == bool(fast_routes(k, s, th, p))
        assert plan_oracle(AgentState(k, k_ref, s), (1.0, 2.0), p, t,
                           SBAR).choice == route

    def test_infeasible_exactly_below_k_inf(self):
        p = PriceVector(3, 2)
        k_ref = 40.0
        t = 5
        k_inf = k_ref - (t + 1) * p.r2
        plan_oracle(AgentState(k_inf, k_ref, 1.0), (1.0, 2.0), p, t, SBAR)
        with pytest.raises(InfeasibleKarmaError):
            plan_oracle(AgentState(k_inf - 1e-6, k_ref, 1.0), (1.0, 2.0), p, t,
                        SBAR)

    def test_non_finite_karma(self):
        # a NaN karma fails every guard, as it fails `check_floor`; an
        # infinite one affords both routes, which tie exactly at s = 0
        with pytest.raises(InfeasibleKarmaError):
            plan_oracle(AgentState(np.nan, 50.0, 1.0), (1.0, 2.0), P_FIG3, 6,
                        SBAR)
        for s, route in ((1.0, ARC1), (0.0, ARC2)):
            out = plan_oracle(AgentState(np.inf, 50.0, s), (1.0, 2.0), P_FIG3,
                              6, SBAR)
            assert (out.choice, out.fast_feasible) == (route, True)

    @settings(max_examples=examples(500), deadline=None)
    @given(p1=st.integers(1, 30), r2=st.integers(1, 30), t=st.integers(1, 12),
           above=st.floats(0.0, 2.0 ** 40, exclude_min=True),
           ulps=st.integers(-8, 8))
    def test_plan_exists_at_the_library_floor(self, p1, r2, t, above, ulps):
        # within 8 ulps of k_inf the oracle finds a plan exactly when the
        # karma passes `check_floor`, at k >= k_inf
        p = PriceVector(p1, r2)
        k_ref = (t + 1) * r2 + above  # k_inf = k_ref - (T+1)*r2 > 0
        floor = float(k_inf(k_ref, p, t))
        k = floor
        for _ in range(abs(ulps)):
            k = np.nextafter(k, np.inf if ulps > 0 else -np.inf)
        state = AgentState(float(k), k_ref, 1.0)
        if k >= floor:
            check_floor(k, floor)
            plan_oracle(state, (1.0, 2.0), p, t, SBAR)
        else:
            with pytest.raises(InfeasibleKarmaError):
                check_floor(k, floor)
            with pytest.raises(InfeasibleKarmaError):
                plan_oracle(state, (1.0, 2.0), p, t, SBAR)

    def test_matches_rule_on_random_instances(self):
        # compact version of the acceptance sweep: the oracle per instance,
        # the rule once per (prices, horizon) group with d1 < d2; with
        # d1 > d2 the oracle's plan is the slow route
        rng = np.random.default_rng(11)
        groups = defaultdict(list)  # (p, t, d1 < d2) -> [(k, k_ref, s, plan)]
        checked = 0
        while checked < 10_000:
            p = PriceVector(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
            t = int(rng.integers(1, 9))
            if not p.feasible_for_horizon(t):
                continue
            k_ref = rng.uniform(0, 2 * t * p.r2)
            wealthy = k_wealthy(k_ref, p, t)
            k = rng.uniform(k_inf(k_ref, p, t), wealthy + 2 * p.total)
            s = rng.standard_exponential()
            u = rng.random()
            if u < 0.4:
                d = (1.0, 2.0)
            elif u < 0.7:
                d = (2.0, 1.0)
            else:
                continue  # d1 = d2: any split is optimal
            less = d[0] < d[1]
            rich = k >= k_rich(k_ref, p, t)
            thr = SBAR * (wealthy - k) / p.total if rich else SBAR
            if less and abs(s - thr) < 1e-9:
                continue
            plan = plan_oracle(AgentState(k, k_ref, s), d, p, t, SBAR)
            groups[p, t, less].append((k, k_ref, s, plan.choice))
            checked += 1
        for (p, t, less), rows in groups.items():
            k, k_ref, s, expected = np.array(rows).T
            if less:
                fast = fast_routes(k, s, thresholds(k_ref, p, t), p)
                rule = np.where(fast, ARC1, ARC2)
            else:
                rule = np.full(k.shape, ARC2)
            bad = np.flatnonzero(rule != expected)
            assert bad.size == 0, (p, t, less, np.array(rows)[bad[:5]])


class TestSettle:
    def settle_one(self, fast, traveling):
        return settle(np.array([50.0]), np.array([fast]),
                      np.array([traveling]), P_FIG3)[0]

    def test_fast_route_pays(self):
        assert self.settle_one(True, True) == 40.0

    def test_slow_route_earns(self):
        assert self.settle_one(False, True) == 64.0

    def test_stay_unchanged(self):
        assert self.settle_one(False, False) == 50.0

    @settings(max_examples=examples(100), deadline=None)
    @given(data=st.data(), n=st.integers(1, 50), p1=st.integers(1, 200),
           r2=st.integers(1, 200))
    def test_matches_route_reference(self, data, n, p1, r2):
        # any finite karma, on or off the integer lattice, as a float or an
        # integer array, with and without travelers; and one agent's karma
        # as a 0-d array, a numpy scalar and a Python float, with the masks
        # as Python bools
        p = PriceVector(p1, r2)
        k = data.draw(arrays(np.float64, n, elements=st.floats(
            min_value=0.0, allow_nan=False, allow_infinity=False)))
        k_int = data.draw(arrays(np.int64, n, elements=st.integers(0, 2**40)))
        traveling = data.draw(arrays(np.bool_, n))
        fast = data.draw(arrays(np.bool_, n)) & traveling
        nobody = np.zeros(n, dtype=bool)
        cases = [(kk, go, trav) for kk in (k, k_int)
                 for go, trav in ((fast, traveling), (nobody, nobody))]
        cases += [(kk, bool(fast[0]), bool(traveling[0]))
                  for kk in (np.array(k[0]), k[0], float(k[0]))]
        for kk, go, trav in cases:
            ref = np.where(go, kk - p1, np.where(trav, kk + r2, kk))
            got = settle(kk, go, trav, p)
            assert np.asarray(got).dtype == np.float64
            assert np.shape(got) == ref.shape
            assert np.array_equal(got, ref)


class TestInvariance:
    def walk(self, k0, k_ref, p, t, seq):
        """One agent's karma under the day's steps: the breakpoints once,
        then check_floor, fast_mask and settle per draw in seq."""
        th = thresholds(k_ref, p, t)
        k = np.array([k0])
        path = [k0]
        for s in seq:
            k = settle(k, fast_routes(k, s, th, p), True, p)
            path.append(k[0])
        return np.array(path), th

    def test_band_positively_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            p = PriceVector(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            t = int(rng.integers(1, 8))
            if not p.feasible_for_horizon(t):
                continue
            k_ref = float(rng.uniform(0, 60))
            th = thresholds(k_ref, p, t)
            k0 = float(rng.uniform(th.k_inf, th.k_wealthy + p.r2))
            path, th = self.walk(k0, k_ref, p, t,
                                 rng.standard_exponential(300))
            assert np.all(path >= th.k_inf)
            assert np.all(path < th.k_wealthy + p.r2)

    def test_attracted_from_above(self):
        rng = np.random.default_rng(22)
        p = PriceVector(3, 5)
        t = 4
        k_ref = 30.0
        th = thresholds(k_ref, p, t)
        k0 = th.k_wealthy + p.r2 + 200.0
        path, _ = self.walk(k0, k_ref, p, t, rng.standard_exponential(300))
        entered = np.flatnonzero(path < th.k_wealthy + p.r2)
        assert entered.size > 0
        # every step above the band pays the toll, so entry is within a bound
        assert entered[0] <= int(np.ceil(200.0 / p.p1)) + 1
        assert np.all(path[entered[0]:] >= th.k_inf)
        assert np.all(path[entered[0]:] < th.k_wealthy + p.r2)

    def test_discomfort_scale_has_no_effect_via_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            k_ref = rng.uniform(0, 100)
            th = thresholds(k_ref, P_FIG3, 6)
            k = rng.uniform(th.k_inf, th.k_wealthy + 30)
            s = rng.standard_exponential()
            state = AgentState(k, k_ref, s)
            base = plan_oracle(state, (1.0, 2.0), P_FIG3, 6, SBAR).choice
            scaled = plan_oracle(state, (10.0, 20.0), P_FIG3, 6, SBAR).choice
            assert base == scaled

    @pytest.mark.parametrize("scale", [0.3, 1.7, 1024.0])
    def test_urgency_unit_has_no_effect_via_oracle(self, scale):
        # the rule reads s in units of the mean: the oracle's plan for a
        # population of mean c, with today's sensitivity c*s, is the rule's
        # route for s; s is drawn off the rule's ties, where c*s and c*theta
        # can round to the same side
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 2000:
            p = PriceVector(int(rng.integers(1, 31)), int(rng.integers(1, 31)))
            t = int(rng.integers(1, 13))
            k_ref = float(rng.uniform(0, 2 * t * p.r2))
            th = thresholds(k_ref, p, t)
            k = float(rng.uniform(th.k_inf, th.k_wealthy + 2 * p.total))
            s = float(rng.standard_exponential())
            thr = (th.k_wealthy - k) / p.total if k >= th.k_rich else 1.0
            if abs(s - thr) < 1e-9:
                continue
            d1 = float(rng.uniform(0.1, 5.0))
            d = (d1, d1 + float(rng.uniform(1e-3, 5.0)))
            plan = plan_oracle(AgentState(k, k_ref, scale * s), d, p, t, scale)
            rule = fast_routes(k, s, th, p)
            assert (plan.choice == ARC1) == bool(rule), (p, t, k_ref, k, s)
            checked += 1
