import inspect
from dataclasses import replace
from math import floor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from karma_routing import (ArcCostModel, InfeasibleKarmaError, PriceVector,
                           SensitivitySpec, balanced_flow, build_chain,
                           equilibrium_flows, get_preset, run_scenario,
                           stationary_distribution, system_optimum,
                           thresholds, wardrop_equilibrium)
from karma_routing import simulation, wardrop
from karma_routing.wardrop import CONTROLLED, UNCONTROLLED, _balanced_split

from conftest import examples
from day_rule import fast_routes, same_day
from oracles import equilibrium_oracle

BPR = ArcCostModel()
EXP = SensitivitySpec()
P = PriceVector(10, 14)
T = 6


def population(rng, m, k_low, k_high, ref_low=0.0, ref_high=100.0):
    k_ref = rng.uniform(ref_low, ref_high, m)
    k = rng.uniform(k_low, k_high, m)
    k = np.maximum(k, np.maximum(0.0, k_ref - (T + 1) * P.r2))
    return k, k_ref


def sweep(k, k_ref, s, traveling, x_assumed):
    """One best-response sweep against assumed flows: (flows, fast mask).

    With d1 < d2 at ``x_assumed`` (under BPR) every traveler takes the
    rule's route, otherwise the slow one; flows are population shares.
    """
    d = BPR.discomfort(x_assumed)
    if d[0] < d[1]:
        fast = traveling & fast_routes(k, s, thresholds(k_ref, P, T), P)
    else:
        fast = np.zeros(np.shape(k), dtype=bool)
    n1 = np.count_nonzero(fast)
    flows = np.array([n1, np.count_nonzero(traveling) - n1]) / fast.size
    return flows, fast


def solve(k, k_ref, s, traveling, model=BPR, p=P, horizon=T):
    """The day's equilibrium from k_ref's breakpoints: (fast, flows, regime)."""
    fast, n1, n2, regime, _ = wardrop_equilibrium(
        k, s, traveling, thresholds(k_ref, p, horizon), model, p)
    return fast, np.array([n1, n2]) / k.size, regime


class TestSweep:
    """The population's best response to assumed flows (`sweep`)."""

    def test_all_poor_go_slow(self):
        m = 400
        rng = np.random.default_rng(1)
        k_ref = np.full(m, 90.0)  # k_poor = max(10, 90 + 10 - 84) = 16
        k = np.full(m, 12.0)
        s = rng.standard_exponential(m)
        traveling = rng.random(m) < 0.95
        x, fast = sweep(k, k_ref, s, traveling, [0.3, 0.65])
        assert x[0] == 0.0
        assert x[1] == pytest.approx(traveling.sum() / m)
        assert not fast.any()

    def test_all_wealthy_go_fast(self):
        m = 400
        rng = np.random.default_rng(2)
        k_ref = np.full(m, 50.0)
        k = np.full(m, 500.0)  # far above k_wealthy = 120
        s = rng.standard_exponential(m)
        traveling = np.ones(m, dtype=bool)
        x, fast = sweep(k, k_ref, s, traveling, [0.3, 0.65])
        assert x[0] == pytest.approx(1.0)
        assert fast.all()

    def test_consistent_with_chain_equilibrium(self):
        # agents sampled from the stationary cell distribution reproduce the
        # chain's flows up to sampling noise
        chain = build_chain(P, T, 0.05, EXP)
        pe = stationary_distribution(chain)
        m = 200_000
        rng = np.random.default_rng(3)
        k_ref = 200.0
        cells = rng.choice(chain.n_states, size=m, p=pe)
        k = k_ref + chain.deviation_of_cell(cells).astype(float)
        s = rng.standard_exponential(m)
        traveling = rng.random(m) >= 0.05
        x_e = equilibrium_flows(chain, pe)
        x, _ = sweep(k, np.full(m, k_ref), s, traveling, x_e)
        assert np.allclose(x, x_e, atol=5.0 / np.sqrt(m))


class TestWardropEquilibrium:
    def test_rich_population_lands_on_balanced_flow(self):
        m = 1000
        rng = np.random.default_rng(4)
        k, k_ref = population(rng, m, 300.0, 500.0)  # everyone wealthy
        s = rng.standard_exponential(m)
        traveling = rng.random(m) >= 0.05
        _, x, regime = solve(k, k_ref, s, traveling)
        assert regime == UNCONTROLLED
        demand = traveling.sum() / m
        # the days split to the same balanced flow, floored to whole agents
        xbar = balanced_flow(BPR, demand)
        assert x[0] == floor(xbar[0] * m + 1e-9) / m
        assert x[0] == pytest.approx(0.80, abs=0.02)

    @pytest.mark.parametrize("p_home", [0.0, 0.05, 0.2])
    def test_floored_balanced_count_brackets_the_crossing(self, p_home):
        # d1 <= d2 at the fast count, d1 > d2 one agent later, both from the
        # volume-delay kernel that gives the day's d; on generic data the
        # count is also the float balanced flow floored to whole agents
        m = 10_000
        rng = np.random.default_rng(12)
        k, k_ref = population(rng, m, 2000.0, 4000.0)
        s = rng.standard_exponential(m)
        traveling = rng.random(m) >= p_home
        _, n, n_slow, regime, d = wardrop_equilibrium(
            k, s, traveling, thresholds(k_ref, P, T), BPR, P)
        assert regime == UNCONTROLLED
        n_travel = n + n_slow
        assert [type(v) for v in d] == [float, float]
        assert list(d) == BPR.discomfort([n / m, n_slow / m]).tolist()
        assert d[0] <= d[1]
        if n + 1 <= n_travel:
            d_next = BPR.discomfort([(n + 1) / m, (n_slow - 1) / m])
            assert d_next[0] > d_next[1]
        assert n == floor(balanced_flow(BPR, n_travel / m)[0] * m + 1e-9)

    def test_all_poor_immediate(self):
        # the result is the single d1 < d2 sweep itself: nobody goes fast
        m = 500
        k_ref = np.full(m, 90.0)
        k = np.full(m, 12.0)
        s = np.random.default_rng(5).standard_exponential(m)
        traveling = np.ones(m, dtype=bool)
        fast, x, regime = solve(k, k_ref, s, traveling)
        assert regime == CONTROLLED
        assert x.tolist() == [0.0, 1.0] and not fast.any()

    def test_stationary_population_reaches_chain_flows(self):
        chain = build_chain(P, T, 0.05, EXP)
        pe = stationary_distribution(chain)
        m = 100_000
        rng = np.random.default_rng(6)
        k_ref = 200.0
        cells = rng.choice(chain.n_states, size=m, p=pe)
        k = k_ref + chain.deviation_of_cell(cells).astype(float)
        s = rng.standard_exponential(m)
        traveling = rng.random(m) >= 0.05
        _, x, regime = solve(k, np.full(m, k_ref), s, traveling)
        assert regime == CONTROLLED
        assert np.allclose(x, equilibrium_flows(chain, pe),
                           atol=6.0 / np.sqrt(m))

    def test_fixed_point_property(self):
        m = 2000
        rng = np.random.default_rng(7)
        k, k_ref = population(rng, m, 0.0, 200.0)
        s = rng.standard_exponential(m)
        traveling = rng.random(m) >= 0.05
        fast, x, regime = solve(k, k_ref, s, traveling)
        assert regime == CONTROLLED
        x_again, fast_again = sweep(k, k_ref, s, traveling, x)
        assert np.array_equal(x, x_again)
        assert np.array_equal(fast, fast_again)

    def test_equilibrium_never_has_fast_route_worse(self):
        # d1(x1) <= d2(x2) + tol over regimes and draws
        rng = np.random.default_rng(8)
        for lo, hi in [(0.0, 80.0), (0.0, 200.0), (200.0, 500.0)]:
            m = 1500
            k, k_ref = population(rng, m, lo, hi)
            s = rng.standard_exponential(m)
            traveling = rng.random(m) >= 0.05
            _, x, _ = solve(k, k_ref, s, traveling)
            d = BPR.discomfort(x)
            assert d[0] <= d[1]

    def test_equals_one_sweep_when_it_keeps_d1_less(self):
        # the day's definition, whose controlled days are one d1 < d2 sweep
        rng = np.random.default_rng(9)
        regimes = set()
        for lo, hi in [(0.0, 120.0), (100.0, 500.0)]:
            m = 1000
            k, k_ref = population(rng, m, lo, hi)
            s = rng.standard_exponential(m)
            traveling = rng.random(m) >= 0.05
            out = wardrop_equilibrium(k, s, traveling, thresholds(k_ref, P, T),
                                      BPR, P)
            assert same_day(out, equilibrium_oracle(k, s, traveling, k_ref,
                                                    BPR, P, T))
            regimes.add(out[3])
        assert regimes == {CONTROLLED, UNCONTROLLED}

    def test_controlled_selected_whenever_it_exists(self):
        # k = 80 sits in the middle band, so the d1 < d2 rule sends fast the
        # travelers with s > 1: that split keeps d1 < d2, a controlled
        # equilibrium.  The balanced flow (0.803, 0.197) is an equilibrium
        # too (every traveler is above k_poor), but is not selected.
        m = 1000
        k = np.full(m, 80.0)
        k_ref = np.full(m, 50.0)
        s = np.random.default_rng(0).standard_exponential(m)
        traveling = np.ones(m, dtype=bool)
        _, x, regime = solve(k, k_ref, s, traveling)
        assert regime == CONTROLLED
        assert x.tolist() == pytest.approx([0.379, 0.621], abs=1e-12)
        assert balanced_flow(BPR, 1.0)[0] == pytest.approx(0.803, abs=1e-3)

    def test_controlled_is_not_closeness_to_the_optimum(self):
        # "controlled" names the day's equilibrium, not its distance from
        # x* = (0.569, 0.431): poor travelers (k = 12 < k_poor = 16) all go
        # slow, and rich ones (k = 111, threshold 0.375) send 70.5 % fast.
        # Both days keep d1 < d2, so both are controlled, on either side of
        # x* and both far from it.
        m = 1000
        s = np.random.default_rng(0).standard_exponential(m)
        traveling = np.ones(m, dtype=bool)
        assert system_optimum(BPR, 1.0)[0] == pytest.approx(0.569, abs=1e-3)
        fast_shares = []
        for k, k_ref in ((12.0, 90.0), (111.0, 50.0)):
            _, x, regime = solve(np.full(m, k), np.full(m, k_ref), s,
                                 traveling)
            assert regime == CONTROLLED
            fast_shares.append(x[0])
        assert fast_shares == pytest.approx([0.0, 0.705], abs=1e-12)

    def test_wealthy_go_fast_at_zero_urgency(self):
        # README's one exception to "ties go slow", through the day's own
        # wealthy mask: 100 travelers exactly at k_wealthy = 50 + 7 * 10 =
        # 120 with s = 0 go fast, where the plan is indifferent and the
        # oracle's tie goes slow; 100 one ulp below it at s = 0 face a
        # positive threshold and go slow.  The rest sit below k_poor = 10.
        m = 1000
        k = np.full(m, 5.0)
        k[:100] = 120.0
        k[100:200] = np.nextafter(120.0, 0.0)
        k_ref = np.full(m, 50.0)
        s = np.where(np.arange(m) < 200, 0.0, 2.0)
        traveling = np.ones(m, dtype=bool)
        fast, x, regime = solve(k, k_ref, s, traveling)
        assert regime == CONTROLLED
        assert np.array_equal(np.flatnonzero(fast), np.arange(100))
        assert x.tolist() == [0.1, 0.9]
        oracle = equilibrium_oracle(k, s, traveling, k_ref, BPR, P, T)
        assert oracle[1] == 0 and oracle[3] == CONTROLLED

    def test_balanced_split_is_deterministic_by_index(self):
        m = 1000
        rng = np.random.default_rng(10)
        k = np.full(m, 400.0)
        k_ref = np.full(m, 50.0)
        s = rng.standard_exponential(m)
        traveling = np.ones(m, dtype=bool)
        fast, _, regime = solve(k, k_ref, s, traveling)
        assert regime == UNCONTROLLED
        n_fast = int(np.count_nonzero(fast))
        assert 0 < n_fast < m
        assert np.all(fast[:n_fast])
        assert not np.any(fast[n_fast:])

    # a nearly flat model whose d1 - d2 crosses 0 exactly at a share of
    # 0.45, where d1 = d2 to the bit; d1 - d2 is 4.0e-12 one agent later
    FLAT = ArcCostModel(d0=(1.0, 1.0 - 2e-10), kappa=(0.5, 0.5), alpha=1e-9,
                        beta=1.0)

    def flat_inputs(self, n_rich, k_rich=1000.0):
        """`wardrop_equilibrium`'s arguments for the day of 1000 travelers
        under FLAT whose first ``n_rich`` hold ``k_rich`` karma, at least
        k_wealthy = 170 (fast in the sweep), and the rest 20 (slow)."""
        p, m = PriceVector(10, 14), 1000
        k = np.where(np.arange(m) < n_rich, k_rich, 20.0)
        s = np.random.default_rng(0).standard_exponential(m)
        traveling = np.ones(m, dtype=bool)
        return k, s, traveling, thresholds(np.full(m, 100.0), p, 6), \
            self.FLAT, p

    def flat_day(self, n_rich):
        return wardrop_equilibrium(*self.flat_inputs(n_rich))

    def test_balanced_count_capped_at_the_sweep(self):
        # the sweep sends the 460 karma-rich travelers fast; the day keeps
        # the first 450 of them, where d1 = d2, and not 451, where d1 > d2
        fast, n1, _, regime, d = self.flat_day(460)
        assert regime == UNCONTROLLED
        assert n1 == np.count_nonzero(fast) == np.count_nonzero(fast[:450]) \
            == 450
        assert d[0] <= d[1]
        d1, d2 = self.FLAT._delay
        assert d1(451 / 1000) > d2(549 / 1000)

    def test_balanced_count_keeps_the_whole_sweep_at_a_tie(self):
        # the sweep sends exactly 450 travelers fast, where d1 = d2 to the
        # bit: d1 < d2 fails, so the day is uncontrolled, and the count,
        # capped at the sweep's, keeps all 450
        fast, n1, _, regime, d = self.flat_day(450)
        assert d[0] == d[1]
        assert regime == UNCONTROLLED
        assert n1 == np.count_nonzero(fast) == np.count_nonzero(fast[:450]) \
            == 450

    @pytest.mark.parametrize("n_rich, rule_calls", [(450, 1), (451, 0)])
    def test_wealthy_count_at_and_past_the_balanced_count(
            self, n_rich, rule_calls, monkeypatch):
        # the balanced count c* is 450.  With 450 wealthy travelers d1 = d2
        # at their count, not d1 > d2, so the rule runs; with 451, d1 > d2
        # there and the day skips the rule.
        # Both days keep 450 fast, as the day's definition does.  The
        # wealthy sit exactly at k_wealthy, where the rule sends them fast
        # whatever s is, also a NaN, so a NaN s gives the same day.
        calls = []

        def spy(*args):
            calls.append(n_rich)
            return rule(*args)

        rule = wardrop.fast_mask
        monkeypatch.setattr(wardrop, "fast_mask", spy)
        k, s, *rest = self.flat_inputs(n_rich, k_rich=170.0)
        day = wardrop_equilibrium(k, s, *rest)
        assert day[1] == 450 and day[3] == UNCONTROLLED
        assert same_day(day, equilibrium_oracle(k, s, rest[0], 100.0,
                                                self.FLAT, P, T))
        nan = np.full_like(s, np.nan)
        assert same_day(wardrop_equilibrium(k, nan, *rest), day)
        assert calls == [n_rich] * (2 * rule_calls)

    def test_uncontrolled_count_is_the_masks_on_a_rich_start(self,
                                                            monkeypatch):
        # n1 is returned as the split's n_fast, not recounted from the mask:
        # on every uncontrolled day of fig3 with k(0) ~ U[2000, 4000] it
        # still equals the mask's count
        days = []

        def spy(*args):
            out = wardrop_equilibrium(*args)
            fast, n1, n2, regime, _ = out
            if regime == UNCONTROLLED:
                assert n1 == np.count_nonzero(fast)
                assert n2 == np.count_nonzero(args[2]) - n1
                days.append(n1)
            return out

        monkeypatch.setattr(simulation, "wardrop_equilibrium", spy)
        cfg = replace(get_preset("fig3"), k_init_low=2000.0,
                      k_init_high=4000.0)
        run_scenario(cfg.scenario(), cfg.model(), cfg.prices(), 300)
        assert len(days) == 255  # `test_decision_digest`'s count

    def test_uncontrolled_equilibrium_drains_karma(self):
        # at the balanced flow the population pays more than it earns
        for p_go in (0.95, 1.0):
            xbar = balanced_flow(BPR, p_go)
            assert P.p1 * xbar[0] - P.r2 * xbar[1] > 0

    def test_nobody_travels(self):
        m = 10
        fast, x, regime = solve(np.full(m, 50.0), np.full(m, 50.0),
                                np.ones(m), np.zeros(m, dtype=bool))
        assert np.allclose(x, 0.0)
        assert not fast.any()
        assert regime == CONTROLLED

    def test_nobody_travels_under_a_dominant_slow_route(self):
        # d1(0) = 5 >= d2(0) = 1: the empty sweep fails d1 < d2, and the
        # no-crossing branch gives the day, with the same empty mask and d
        m = 10
        flipped = ArcCostModel(d0=(5.0, 1.0), alpha=0.0)
        k, s = np.full(m, 50.0), np.ones(m)
        traveling = np.zeros(m, dtype=bool)
        args = (k, s, traveling, thresholds(np.full(m, 50.0), P, T),
                flipped, P)
        got = wardrop_equilibrium(*args)
        assert got[0].dtype == bool and not got[0].any()
        assert got[1:4] == (0, 0, CONTROLLED)
        assert got[4] == (5.0, 1.0)
        assert same_day(got, equilibrium_oracle(k, s, traveling, 50.0,
                                                flipped, P, T))

    def test_nan_karma_raises_on_both_sides(self):
        # one NaN karma among feasible agents: the day and its oracle raise
        k, ones = np.full(10, 50.0), np.ones(10)
        k[3] = np.nan
        with pytest.raises(InfeasibleKarmaError, match="agent 3"):
            solve(k, 50.0 * ones, ones, ones > 0)
        with pytest.raises(InfeasibleKarmaError):
            equilibrium_oracle(k, ones, ones > 0, 50.0, BPR, P, T)

    def test_no_crossing_model_all_slow_fixed_point(self):
        # constant d1 > d2: everyone heads slow and that is the equilibrium
        m = 300
        flipped = ArcCostModel(d0=(5.0, 1.0), alpha=0.0)
        rng = np.random.default_rng(11)
        k, k_ref = population(rng, m, 0.0, 300.0)
        s = rng.standard_exponential(m)
        traveling = np.ones(m, dtype=bool)
        _, x, regime = solve(k, k_ref, s, traveling, model=flipped)
        assert x[1] == pytest.approx(1.0)
        assert regime == CONTROLLED

    def test_solver_knobs_rejected(self):
        # the closed form has no warm start, tolerance, budget or damping
        params = inspect.signature(wardrop_equilibrium).parameters
        assert list(params) == ["k", "s", "traveling", "th", "model", "p"]
        m = 4
        args = (np.full(m, 50.0), np.ones(m), np.ones(m, dtype=bool),
                thresholds(np.full(m, 50.0), P, T), BPR, P)
        for knob in (dict(x_init=[0.5, 0.5]), dict(tol=1e-9),
                     dict(max_iter=50), dict(damping=0.5)):
            with pytest.raises(TypeError):
                wardrop_equilibrium(*args, **knob)
        assert len(wardrop_equilibrium(*args)) == 5

def split_reference(k, traveling, k_poor, n_fast):
    """The first ``n_fast`` travelers with k >= k_poor, by index, one agent
    at a time."""
    fast = np.zeros(k.size, dtype=bool)
    for i in range(k.size):
        if n_fast and traveling[i] and k[i] >= k_poor[i]:
            fast[i] = True
            n_fast -= 1
    return fast


class TestBalancedSplit:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_loop_over_agents(self, seed):
        # non-travelers and poor agents interleave with the indifferent
        # ones; the split cuts at 0, 1, a middle and every indifferent agent
        rng = np.random.default_rng(seed)
        m = 200
        k_poor = rng.uniform(10.0, 30.0, m)
        k = k_poor + rng.uniform(-10.0, 10.0, m)
        at = rng.random(m) < 0.1
        k[at] = k_poor[at]  # on the breakpoint: indifferent
        traveling = rng.random(m) >= 0.3
        n = int(np.count_nonzero(traveling & (k >= k_poor)))
        assert 0 < n < m
        for n_fast in (0, 1, 2, n // 2, n - 1, n):
            fast = _balanced_split(k, traveling, k_poor, n_fast)
            assert np.array_equal(
                fast, split_reference(k, traveling, k_poor, n_fast)), n_fast
            assert np.count_nonzero(fast) == n_fast

    def test_every_agent_indifferent(self):
        # adjacent indifferent agents: a cut one index early or late moves
        # the count
        m = 50
        k, k_poor = np.full(m, 40.0), np.full(m, 40.0)  # k = k_poor exactly
        traveling = np.ones(m, dtype=bool)
        for n_fast in (0, 1, 17, m - 1, m):
            fast = _balanced_split(k, traveling, k_poor, n_fast)
            assert fast.tolist() == [True] * n_fast + [False] * (m - n_fast)


# crossing near x1 = 0.8, a crossing at lower demand, and no crossing
MODELS = (BPR, ArcCostModel(d0=(1.0, 1.5), kappa=(0.3, 0.7)),
          ArcCostModel(d0=(5.0, 1.0), alpha=0.0))


@st.composite
def day_inputs(draw):
    """A random feasible day: population, prices, horizon, model and p_home."""
    p = PriceVector(draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    horizon = draw(st.integers(1, 10))
    m = draw(st.integers(1, 300))
    p_home = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    k_high = draw(st.sampled_from([50.0, 200.0, 600.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_ref = rng.uniform(0.0, 100.0, m)
    k = np.maximum(rng.uniform(0.0, k_high, m),
                   np.maximum(0.0, k_ref - (horizon + 1) * p.r2))
    s = rng.standard_exponential(m)
    traveling = rng.random(m) >= p_home
    return k, k_ref, s, traveling, draw(st.sampled_from(MODELS)), p, horizon


class TestEquilibriumProperties:
    @settings(max_examples=examples(80), deadline=None)
    @given(day=day_inputs())
    def test_equilibrium_properties(self, day):
        # the day's definition, also where the wealthy travelers overload a
        # route no balanced flow exists on; it counts the mask, sends only
        # travelers and keeps d1 <= d2 when the fast route is used
        k, k_ref, s, traveling, model, p, horizon = day
        out = wardrop_equilibrium(k, s, traveling,
                                  thresholds(k_ref, p, horizon), model, p)
        assert same_day(out, equilibrium_oracle(k, s, traveling, k_ref, model,
                                                p, horizon))


@st.composite
def rich_days(draw):
    """A day whose travelers are mostly karma-rich, under a random model.

    A drawn share of the agents holds thousands of karma, the rest at most
    200, so the d1 < d2 sweep sends many or all travelers fast and most
    days are uncontrolled; the model draws d0, kappa, alpha and beta.
    """
    p = PriceVector(draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    horizon = draw(st.integers(1, 10))
    m = draw(st.integers(1, 400))
    p_home = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    rich_share = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    # route 1 is the cheaper one when empty, as on the presets
    d0_1 = draw(st.floats(0.2, 2.0))
    model = ArcCostModel(d0=(d0_1, d0_1 * draw(st.floats(1.0, 3.0))),
                         kappa=(draw(st.floats(0.1, 1.0)),
                                draw(st.floats(0.1, 1.0))),
                         alpha=draw(st.floats(0.0, 1.0)),
                         beta=draw(st.floats(1.0, 6.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_ref = rng.uniform(0.0, 100.0, m)
    k = np.where(rng.random(m) < rich_share, rng.uniform(2000.0, 4000.0, m),
                 rng.uniform(0.0, 200.0, m))
    k = np.maximum(k, np.maximum(0.0, k_ref - (horizon + 1) * p.r2))
    s = rng.standard_exponential(m)
    traveling = rng.random(m) >= p_home
    return k, k_ref, s, traveling, model, p, horizon


class TestBalancedCount:
    @settings(max_examples=examples(150), deadline=None)
    @given(day=rich_days())
    # 190 wealthy of 400 under FLAT: the count, 180, sits on d1 = d2
    @example(day=(np.repeat([1000.0, 20.0], [190, 210]), np.full(400, 100.0),
                  np.ones(400), np.ones(400, dtype=bool),
                  TestWardropEquilibrium.FLAT, P, T))
    def test_uncontrolled_count_matches_a_linear_scan(self, day):
        # mostly uncontrolled days, whose count the oracle finds by a scan
        # of every count up to the sweep's, and days on which d1 >= d2 even
        # on an empty fast route
        k, k_ref, s, traveling, model, p, horizon = day
        out = wardrop_equilibrium(k, s, traveling,
                                  thresholds(k_ref, p, horizon), model, p)
        assert same_day(out, equilibrium_oracle(k, s, traveling, k_ref, model,
                                                p, horizon))

    @settings(max_examples=examples(100), deadline=None)
    @given(day=rich_days())
    def test_overloaded_day_reads_no_sensitivity(self, day):
        # when the wealthy travelers' lower bound already has d1 > d2, a NaN
        # in place of every sensitivity changes nothing
        k, k_ref, s, traveling, model, p, horizon = day
        m = k.size
        th = thresholds(k_ref, p, horizon)
        n_travel = int(np.count_nonzero(traveling))
        n_lb = int(np.count_nonzero(k >= th.k_wealthy)) - (m - n_travel)
        assume(n_lb > 0)
        d = model.discomfort([n_lb / m, (n_travel - n_lb) / m])
        assume(d[0] > d[1])
        rest = (traveling, th, model, p)
        day = wardrop_equilibrium(k, s, *rest)
        assert same_day(day, equilibrium_oracle(k, s, traveling, k_ref, model,
                                                p, horizon))
        assert same_day(wardrop_equilibrium(k, np.full(m, np.nan), *rest),
                        day)
