import inspect
from math import floor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karma_routing import (ARC1, ARC2, ArcCostModel, PriceVector,
                           SensitivitySpec, balanced_flow, best_response_batch,
                           build_chain, equilibrium_flows,
                           stationary_distribution, thresholds,
                           wardrop_equilibrium)
from karma_routing.wardrop import CONTROLLED, UNCONTROLLED

from oracles import AgentState, plan_oracle

BPR = ArcCostModel()
EXP = SensitivitySpec.exponential(1.0)
P = PriceVector(10, 14)
T = 6
D1_LESS_FLOWS = [0.5, 0.5]  # assumed flows at which BPR has d1 < d2


def population(rng, m, k_low, k_high, ref_low=0.0, ref_high=100.0):
    k_ref = rng.uniform(ref_low, ref_high, m)
    k = rng.uniform(k_low, k_high, m)
    k = np.maximum(k, np.maximum(0.0, k_ref - (T + 1) * P.r2))
    return k, k_ref


def sweep(k, k_ref, s, traveling, x_assumed, p=P, horizon=T):
    """One best-response sweep against assumed flows: (flows, fast mask).

    With d1 < d2 at ``x_assumed`` (under BPR) every traveler takes the
    rule's route, otherwise the slow one; flows are population shares.
    """
    d = BPR.discomfort(x_assumed)
    if d[0] < d[1]:
        fast = traveling & (best_response_batch(k, k_ref, s, 1.0, p, horizon)
                            == ARC1)
    else:
        fast = np.zeros(np.shape(k), dtype=bool)
    n1 = np.count_nonzero(fast)
    flows = np.array([n1, np.count_nonzero(traveling) - n1]) / fast.size
    return flows, fast


def solve(k, k_ref, s, traveling, model=BPR, p=P, horizon=T):
    """The day's equilibrium from k_ref's breakpoints: (fast, flows, regime)."""
    fast, n1, n2, regime, _ = wardrop_equilibrium(
        k, s, traveling, thresholds(k_ref, p, horizon), model, p, 1.0)
    return fast, np.array([n1, n2]) / k.size, regime


class TestAggregateBestResponse:
    """The population's best response to assumed flows (`sweep`)."""

    def test_all_poor_go_slow(self):
        m = 400
        rng = np.random.default_rng(1)
        k_ref = np.full(m, 90.0)  # k_poor = max(10, 90 + 10 - 84) = 16
        k = np.full(m, 12.0)
        s = rng.exponential(1.0, m)
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
        s = rng.exponential(1.0, m)
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
        s = rng.exponential(1.0, m)
        traveling = rng.random(m) >= 0.05
        x_e = equilibrium_flows(chain, pe)
        x, _ = sweep(k, np.full(m, k_ref), s, traveling, x_e)
        assert np.allclose(x, x_e, atol=5.0 / np.sqrt(m))


class TestWardropEquilibrium:
    def test_rich_population_lands_on_balanced_flow(self):
        m = 1000
        rng = np.random.default_rng(4)
        k, k_ref = population(rng, m, 300.0, 500.0)  # everyone wealthy
        s = rng.exponential(1.0, m)
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
        # d1 <= d2 at the floored fast count, d1 >= d2 one agent later, both
        # from the volume-delay kernel that gives the day's d
        m = 10_000
        rng = np.random.default_rng(12)
        k, k_ref = population(rng, m, 2000.0, 4000.0)
        s = rng.exponential(1.0, m)
        traveling = rng.random(m) >= p_home
        _, n, n_slow, regime, d = wardrop_equilibrium(
            k, s, traveling, thresholds(k_ref, P, T), BPR, P, 1.0)
        assert regime == UNCONTROLLED
        n_travel = n + n_slow
        assert [type(v) for v in d] == [float, float]
        assert list(d) == BPR.discomfort([n / m, n_slow / m]).tolist()
        assert d[0] <= d[1] + 1e-9
        if n + 1 <= n_travel:
            d_next = BPR.discomfort([(n + 1) / m, (n_slow - 1) / m])
            assert d_next[0] >= d_next[1] - 1e-9
        assert n == floor(balanced_flow(BPR, n_travel / m)[0] * m + 1e-9)

    def test_all_poor_immediate(self):
        # the result is the single d1 < d2 sweep itself
        m = 500
        k_ref = np.full(m, 90.0)
        k = np.full(m, 12.0)
        s = np.random.default_rng(5).exponential(1.0, m)
        traveling = np.ones(m, dtype=bool)
        fast, x, regime = solve(k, k_ref, s, traveling)
        assert regime == CONTROLLED
        assert x[0] == 0.0
        assert x[1] == 1.0
        x_sweep, fast_sweep = sweep(k, k_ref, s, traveling, D1_LESS_FLOWS)
        assert np.array_equal(x, x_sweep)
        assert np.array_equal(fast, fast_sweep)

    def test_stationary_population_reaches_chain_flows(self):
        chain = build_chain(P, T, 0.05, EXP)
        pe = stationary_distribution(chain)
        m = 100_000
        rng = np.random.default_rng(6)
        k_ref = 200.0
        cells = rng.choice(chain.n_states, size=m, p=pe)
        k = k_ref + chain.deviation_of_cell(cells).astype(float)
        s = rng.exponential(1.0, m)
        traveling = rng.random(m) >= 0.05
        _, x, regime = solve(k, np.full(m, k_ref), s, traveling)
        assert regime == CONTROLLED
        assert np.allclose(x, equilibrium_flows(chain, pe),
                           atol=6.0 / np.sqrt(m))

    def test_fixed_point_property(self):
        m = 2000
        rng = np.random.default_rng(7)
        k, k_ref = population(rng, m, 0.0, 200.0)
        s = rng.exponential(1.0, m)
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
            s = rng.exponential(1.0, m)
            traveling = rng.random(m) >= 0.05
            _, x, _ = solve(k, k_ref, s, traveling)
            d = BPR.discomfort(x)
            assert d[0] <= d[1] + 1e-6

    def test_equals_one_sweep_when_it_keeps_d1_less(self):
        # controlled days are exactly one d1 < d2 sweep; the others are not
        rng = np.random.default_rng(9)
        regimes = set()
        for lo, hi in [(0.0, 120.0), (100.0, 500.0)]:
            m = 1000
            k, k_ref = population(rng, m, lo, hi)
            s = rng.exponential(1.0, m)
            traveling = rng.random(m) >= 0.05
            fast, x, regime = solve(k, k_ref, s, traveling)
            x_sweep, fast_sweep = sweep(k, k_ref, s, traveling, D1_LESS_FLOWS)
            d = BPR.discomfort(x_sweep)
            kept = d[0] < d[1]
            assert (regime == CONTROLLED) == kept
            if kept:
                assert np.array_equal(x, x_sweep)
                assert np.array_equal(fast, fast_sweep)
            regimes.add(regime)
        assert regimes == {CONTROLLED, UNCONTROLLED}

    def test_controlled_selected_whenever_it_exists(self):
        # k = 80 sits in the middle band, so the d1 < d2 rule sends fast the
        # travelers with s > s_bar: that split keeps d1 < d2, a controlled
        # equilibrium.  The balanced flow (0.803, 0.197) is an equilibrium
        # too (every traveler is above k_poor), but is not selected.
        m = 1000
        k = np.full(m, 80.0)
        k_ref = np.full(m, 50.0)
        s = np.random.default_rng(0).exponential(1.0, m)
        traveling = np.ones(m, dtype=bool)
        _, x, regime = solve(k, k_ref, s, traveling)
        assert regime == CONTROLLED
        assert x.tolist() == pytest.approx([0.379, 0.621], abs=1e-12)
        assert balanced_flow(BPR, 1.0)[0] == pytest.approx(0.803, abs=1e-3)

    def test_balanced_split_is_deterministic_by_index(self):
        m = 1000
        rng = np.random.default_rng(10)
        k = np.full(m, 400.0)
        k_ref = np.full(m, 50.0)
        s = rng.exponential(1.0, m)
        traveling = np.ones(m, dtype=bool)
        fast, _, regime = solve(k, k_ref, s, traveling)
        assert regime == UNCONTROLLED
        n_fast = int(np.count_nonzero(fast))
        assert 0 < n_fast < m
        assert np.all(fast[:n_fast])
        assert not np.any(fast[n_fast:])

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

    def test_no_crossing_model_all_slow_fixed_point(self):
        # constant d1 > d2: everyone heads slow and that is the equilibrium
        m = 300
        flipped = ArcCostModel(d0=(5.0, 1.0), alpha=0.0)
        rng = np.random.default_rng(11)
        k, k_ref = population(rng, m, 0.0, 300.0)
        s = rng.exponential(1.0, m)
        traveling = np.ones(m, dtype=bool)
        _, x, regime = solve(k, k_ref, s, traveling, model=flipped)
        assert x[1] == pytest.approx(1.0)
        assert regime == CONTROLLED

    def test_solver_knobs_rejected(self):
        # the closed form has no warm start, tolerance, budget or damping
        params = inspect.signature(wardrop_equilibrium).parameters
        assert list(params) == ["k", "s", "traveling", "th", "model", "p",
                                "s_bar"]
        m = 4
        args = (np.full(m, 50.0), np.ones(m), np.ones(m, dtype=bool),
                thresholds(np.full(m, 50.0), P, T), BPR, P, 1.0)
        for knob in (dict(x_init=[0.5, 0.5]), dict(tol=1e-9),
                     dict(max_iter=50), dict(damping=0.5)):
            with pytest.raises(TypeError):
                wardrop_equilibrium(*args, **knob)
        assert len(wardrop_equilibrium(*args)) == 5

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
    s = rng.exponential(1.0, m)
    traveling = rng.random(m) >= p_home
    return k, k_ref, s, traveling, draw(st.sampled_from(MODELS)), p, horizon


class TestEquilibriumProperties:
    @settings(max_examples=80, deadline=None)
    @given(day=day_inputs())
    def test_equilibrium_properties(self, day):
        k, k_ref, s, traveling, model, p, horizon = day
        m = k.size
        fast, n1, n2, regime, d_eq = wardrop_equilibrium(
            k, s, traveling, thresholds(k_ref, p, horizon), model, p, 1.0)
        # the counts are the mask's, and only travelers travel
        assert n1 == np.count_nonzero(fast)
        assert n2 == np.count_nonzero(traveling & ~fast)
        assert not np.any(fast & ~traveling)
        # the fast route, when used, is never the worse one
        x = np.array([n1, n2]) / m
        d = model.discomfort(x)
        assert np.array_equal(d_eq, d)
        assert x[0] == 0.0 or d[0] <= d[1] + 1e-9

        # regime: controlled exactly when the d1 < d2 sweep keeps d1 < d2,
        # or when no balanced flow exists (the sweep's order comes from BPR)
        x_sweep, _ = sweep(k, k_ref, s, traveling, D1_LESS_FLOWS, p, horizon)
        d = model.discomfort(x_sweep)
        kept = d[0] < d[1]
        demand = traveling.sum() / m
        crossing = demand > 0 and balanced_flow(model, demand) is not None
        assert (regime == CONTROLLED) == (kept or not crossing)

        # no traveler strictly improves by switching route
        for i in np.flatnonzero(traveling):
            state = AgentState(k[i], k_ref[i], s[i])
            if regime == CONTROLLED:
                # the two-stage plan at today's discomforts picks the route
                assert plan_oracle(state, d, p, horizon, 1.0).choice \
                    == (ARC1 if fast[i] else ARC2)
            elif fast[i]:
                # equal discomforts: any feasible route is optimal, and the
                # fast route is feasible exactly from k_poor up
                assert k[i] >= thresholds(k_ref[i], p, horizon).k_poor
