import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karma_routing import (ArcCostModel, DayRecord, InfeasibleKarmaError,
                           PriceVector, RunConfig, Scenario, SensitivitySpec,
                           compute_metrics, get_preset, init_population,
                           quantize_population, run_scenario, settle,
                           simulate_day, system_optimum, thresholds,
                           wardrop_equilibrium)
import karma_routing
from karma_routing import simulation
from karma_routing.cli import main
from karma_routing.wardrop import CONTROLLED, UNCONTROLLED

from conftest import examples
from oracles import ARC1, ARC2, day_metrics_oracle, equilibrium_oracle

BPR = ArcCostModel()
EXP = SensitivitySpec()
# cost* at the demand 0.95 of `scenario()` and fig3, whose model is BPR
COST_STAR = BPR.societal_cost(system_optimum(BPR, 0.95))
HOME = 0  # route code of an agent at home, beside ARC1 and ARC2


def scenario(**overrides):
    base = dict(p_home=0.05, horizon=6, n_agents=400, sensitivity=EXP,
                k_init=(0.0, 500.0), k_ref_init=(0.0, 100.0), seed=12)
    base.update(overrides)
    return Scenario(**base)


class TestInitPopulation:
    def test_clamps_to_feasibility_floor(self):
        sc = scenario(k_init=(0.0, 5.0), k_ref_init=(150.0, 200.0),
                      n_agents=2000)
        pop = init_population(sc, PriceVector(10, 14))
        k_inf = np.maximum(0.0, pop.k_ref - 7 * 14)
        assert pop.n_clamped_init > 0
        assert np.all(pop.k >= k_inf)

    def test_agent_on_its_floor_is_not_clamped(self):
        # k(0) = 0 sits exactly on the floor max(0, k_ref - (T+1)*r2) = 0 of
        # every agent with k_ref <= (T+1)*r2: only those above it are raised
        cfg = replace(get_preset("fig3"), k_init_low=0.0, k_init_high=0.0)
        sc, p = cfg.scenario(), cfg.prices()
        pop = init_population(sc, p)
        assert (sc.n_agents, sc.seed) == (1000, 0)
        above = np.count_nonzero(pop.k_ref > (sc.horizon + 1) * p.r2)
        assert pop.n_clamped_init == above == 22

    def test_degenerate_range_identical_agents(self):
        sc = scenario(k_init=(80.0, 80.0), k_ref_init=(30.0, 30.0))
        pop = init_population(sc, PriceVector(10, 14))
        assert np.all(pop.k == 80.0)
        assert np.all(pop.k_ref == 30.0)

    def test_floored_population_stays_feasible(self):
        # flooring k and k_ref after the draws puts the agents on the chain's
        # integer lattice; the floored k stays above the floored k_inf,
        # clamped agents included
        sc = scenario(k_init=(0.0, 60.0), k_ref_init=(100.0, 200.0))
        p = PriceVector(10, 14)
        pop = init_population(sc, p)
        k, k_ref = np.floor(pop.k), np.floor(pop.k_ref)
        floor = thresholds(k_ref, p, sc.horizon).k_inf
        assert np.all(k >= floor)
        # a clamped agent sits on its floor before flooring and after
        clamped = pop.k == thresholds(pop.k_ref, p, sc.horizon).k_inf
        assert np.count_nonzero(clamped) == pop.n_clamped_init > 0
        assert np.array_equal(k[clamped], floor[clamped])


class TestSimulateDay:
    def test_wealthy_start_is_uncontrolled(self):
        # plentiful karma floods the fast route until discomforts equalize
        sc = scenario(seed=1, n_agents=1000)
        pop = init_population(sc, PriceVector(10, 14))
        rec = simulate_day(pop, BPR, PriceVector(10, 14), COST_STAR)
        assert rec.regime == UNCONTROLLED
        assert rec.x1 == pytest.approx(0.80, abs=0.02)

    def test_flows_sum_to_travelers(self):
        sc = scenario(seed=3)
        pop = init_population(sc, PriceVector(10, 14))
        for _ in range(10):
            rec = simulate_day(pop, BPR, PriceVector(10, 14), COST_STAR)
            total = rec.x1 + rec.x2
            assert 0.0 <= total <= 1.0
            assert round(total * sc.n_agents) == pytest.approx(
                total * sc.n_agents, abs=1e-9)  # integer traveler count

    @pytest.mark.parametrize("cost_star, error", [
        (0.0, ValueError), (-1.0, ValueError), (float("nan"), ValueError),
        (float("inf"), ValueError), (-float("inf"), ValueError),
        (None, TypeError)], ids=["zero", "neg", "nan", "inf", "-inf", "none"])
    def test_bad_cost_star_rejected_before_the_draws(self, cost_star, error):
        # the check comes first, so the population, its day count and its
        # random stream are left as they were
        p = PriceVector(10, 14)
        pop = init_population(scenario(n_agents=50), p)
        simulate_day(pop, BPR, p, COST_STAR)
        k, state = pop.k, pop.rng.bit_generator.state
        with pytest.raises(error):
            simulate_day(pop, BPR, p, cost_star)
        assert pop.k is k and pop.day == 1
        assert pop.rng.bit_generator.state == state


class TestRunScenario:
    def test_deterministic_given_seed(self):
        sc = scenario(n_agents=300)
        a = run_scenario(sc, BPR, PriceVector(10, 14), 60)
        b = run_scenario(sc, BPR, PriceVector(10, 14), 60)
        assert a.records == b.records
        assert np.array_equal(a.karma_hist, b.karma_hist)
        c = run_scenario(scenario(n_agents=300, seed=13), BPR,
                         PriceVector(10, 14), 60)
        assert c.records != a.records

    def test_fast_route_always_affordable(self):
        sc = scenario(n_agents=500, seed=6)
        p = PriceVector(10, 14)
        pop = init_population(sc, p)
        rng = np.random.default_rng(99)
        th = thresholds(pop.k_ref, p, sc.horizon)
        for _ in range(80):
            stay = rng.random(sc.n_agents) < sc.p_home
            s = EXP.sample(rng, sc.n_agents)
            fast = wardrop_equilibrium(pop.k, s, ~stay, th, BPR, p)[0]
            assert np.all(pop.k[fast] >= p.p1)
            pop.k = np.where(fast, pop.k - p.p1,
                             np.where(~stay, pop.k + p.r2, pop.k))

    def test_karma_drains_while_uncontrolled(self):
        sc = scenario(seed=1, n_agents=1000, k_init=(300.0, 500.0))
        p = PriceVector(10, 14)
        res = run_scenario(sc, BPR, p, 30)
        totals = [r.mean_karma for r in res.records]
        regimes = [r.regime for r in res.records]
        assert regimes[0] == UNCONTROLLED
        for i, regime in enumerate(regimes[:-1]):
            if regime == UNCONTROLLED:
                assert totals[i + 1] < totals[i]

    def test_converges_to_price_implied_flows(self):
        cfg = get_preset("fig3")
        res = run_scenario(cfg.scenario(), cfg.model(), cfg.prices(), 400)
        tail = res.tail_records()
        x1 = np.mean([r.x1 for r in tail])
        x2 = np.mean([r.x2 for r in tail])
        assert x1 == pytest.approx(0.95 * 14 / 24, abs=0.01)
        assert x2 == pytest.approx(0.95 * 10 / 24, abs=0.01)
        assert res.summary["tail_mean_cost_opt_ratio"] < 1.01

    def test_uncontrolled_split_is_a_fixed_index_priority(self):
        # every uncontrolled day of a rich start, routes read from the karma
        # changes: no indifferent slow traveler precedes a fast one by index
        cfg = replace(get_preset("fig3"), n_agents=300, k_init_low=2000.0,
                      k_init_high=4000.0)
        p = cfg.prices()
        pop = init_population(cfg.scenario(), p)
        k_poor = pop.breakpoints.k_poor
        uncontrolled, regimes = 0, []
        for _ in range(400):
            k_before = pop.k.copy()
            rec = simulate_day(pop, cfg.model(), p, COST_STAR)
            regimes.append(rec.regime)
            if rec.regime != UNCONTROLLED:
                continue
            uncontrolled += 1
            dk = pop.k - k_before
            fast, slow = np.flatnonzero(dk < 0), np.flatnonzero(dk > 0)
            indifferent_slow = slow[k_before[slow] >= k_poor[slow]]
            assert fast.size and indifferent_slow.size
            assert fast.max() < indifferent_slow.min()
        assert uncontrolled >= 200
        # the run's summary names the first day whose regime is controlled
        res = run_scenario(cfg.scenario(), cfg.model(), p, 400)
        assert [r.regime for r in res.records] == regimes
        first = res.summary["first_controlled_day"]
        assert 0 < first == regimes.index(CONTROLLED)
        assert set(regimes[:first]) == {UNCONTROLLED}

    def test_rich_start_summary(self):
        # 20 days of a rich start: no day is controlled, and the final
        # histogram clamps the agents whose karma has not drained into the
        # chain's range; the clamp count is the one of the final population
        cfg = replace(get_preset("fig3"), n_agents=300, k_init_low=2000.0,
                      k_init_high=4000.0)
        p = cfg.prices()
        res = run_scenario(cfg.scenario(), cfg.model(), p, 20)
        assert {r.regime for r in res.records} == {UNCONTROLLED}
        assert res.summary["first_controlled_day"] is None
        pop = init_population(cfg.scenario(), p)
        for _ in range(20):
            simulate_day(pop, cfg.model(), p, res.cost_star)
        clamped = quantize_population(pop.k, pop.k_ref, p, cfg.horizon)[1]
        assert res.n_clamped_final == res.summary["n_clamped_final"] \
            == clamped > 0

    def test_day_count_and_summary(self):
        sc = scenario(n_agents=100)
        res = run_scenario(sc, BPR, PriceVector(10, 14), 25)
        assert len(res.records) == 25
        assert [r.day for r in res.records] == list(range(25))
        assert res.summary["days"] == 25
        assert res.summary["tail_days"] == 5
        assert res.karma_hist.sum() == pytest.approx(100)

    def test_rejects_zero_days(self):
        for days in (0, 2.5, True):
            with pytest.raises(ValueError, match="days"):
                run_scenario(scenario(), BPR, PriceVector(10, 14), days)


# sha256 of the (day, x1, x2, regime) rows and the final histogram counts.
# The flows are counts / M and the regimes are strings, so the digest pins the
# agents' decisions without depending on the last bits of libm.
GOLDEN_DIGESTS = {
    "fig3": "c60c3476da3bf3a2cbec5067844dc0c443a50c035f51585d324569d9f8900e6e",
    "fig5": "4586521d8844a368bb80d72dbd7e9f040d8b754b8f7ec52eeff01d2b9dbda0a9",
    "fig6": "306d98d81df417c984e1983f8202f03010667e58d33716694aeba96e79844854",
    "fig3-rich": "a6888ad80f73f67397dc17e730fd24fcfe40ba16de11dcd7361ce1d5495feb66",
}
# sha256 of the repr of every DayRecord field, one row per day: this also
# pins cost, cost_opt_ratio, delta_d, delta_s and mean_karma to the last bit.
# Discomfort and cost are Python-float arithmetic, so those bits depend on the
# C library's ``pow`` and on numpy's pairwise ``sum`` (the masked sensitivity
# sums and the mean karma), but not on the SIMD loops numpy dispatches to.
RECORD_DIGESTS = {
    "fig3": "670c33ef4fb02424a7ea97e41c50c30e3585a02b7805e49c61be33c692deae16",
    "fig5": "26b5e547a5a12d6cc9fb5831505137c3536ce17f415b78ac4431855dc83093bf",
    "fig6": "a06ade275913d066325c33ab2f2202d605664af0f63b887f6b615d12d80fcb0c",
    "fig3-rich": "d45d90ebd199e3578389d68af2cd806b65aba1574f52a0f6a2d2dcbf9e03ab67",
}
# run with numpy's dispatchable CPU features disabled (the first argument)
DISPATCH_RUN = """
import sys
from test_simulation import numpy_cpu_features, preset_run, record_digest
features = numpy_cpu_features()[0]
assert not any(features[f] for f in sys.argv[1].split()), "not disabled"
print(record_digest(preset_run("fig3-rich", 300)))
"""


def preset_run(case, days):
    """`run_scenario` on a preset; ``fig3-rich`` is fig3 with k(0) ~
    U[2000, 4000], which floods the fast route and pins the balanced split."""
    cfg = get_preset(case.split("-")[0])
    if case == "fig3-rich":
        cfg = replace(cfg, k_init_low=2000.0, k_init_high=4000.0)
    return run_scenario(cfg.scenario(), cfg.model(), cfg.prices(), days)


def record_digest(res):
    """sha256 of the repr of every `DayRecord` field of a run, row by row."""
    h = hashlib.sha256()
    for r in res.records:
        h.update((",".join(repr(getattr(r, f.name))
                           for f in fields(DayRecord)) + "\n").encode())
    return h.hexdigest()


def numpy_cpu_features():
    """(features, dispatch, baseline): the CPU features numpy found on this
    machine, and the ones it dispatches to at run time or was built for."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return (umath.__cpu_features__, umath.__cpu_dispatch__,
            umath.__cpu_baseline__)


class TestGoldenDecisions:
    @pytest.mark.parametrize("case, days, n_uncontrolled", [
        ("fig3", 500, 0), ("fig5", 500, 0), ("fig6", 500, 0),
        ("fig3-rich", 300, 255),
    ])
    def test_decision_digest(self, case, days, n_uncontrolled):
        res = preset_run(case, days)
        h = hashlib.sha256()
        for r in res.records:
            h.update(f"{r.day},{r.x1!r},{r.x2!r},{r.regime}\n".encode())
        h.update(",".join(str(int(c)) for c in res.karma_hist).encode())
        assert res.summary["uncontrolled_days"] == n_uncontrolled
        assert h.hexdigest() == GOLDEN_DIGESTS[case]
        assert record_digest(res) == RECORD_DIGESTS[case]

    def test_record_digest_ignores_simd_dispatch(self):
        # numpy picks its SIMD loops at import, so a fresh process with every
        # dispatchable, non-baseline feature disabled must match the pin
        _, dispatch, baseline = numpy_cpu_features()
        disabled = " ".join(f for f in dispatch if f not in baseline)
        here = Path(__file__).parent
        src = Path(karma_routing.__file__).parents[1]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
                   PYTHONPATH=os.pathsep.join(
                       [str(src), str(here), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", DISPATCH_RUN, disabled],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [RECORD_DIGESTS["fig3-rich"]]


@st.composite
def small_runs(draw):
    p = PriceVector(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    k_lo = draw(st.integers(0, 300))
    ref_lo = draw(st.integers(0, 200))
    sens = draw(st.sampled_from([EXP, SensitivitySpec("uniform", 2 / 3)]))
    sc = Scenario(p_home=draw(st.sampled_from([0.0, 0.05, 0.5])),
                  horizon=draw(st.integers(1, 8)),
                  n_agents=draw(st.integers(1, 60)), sensitivity=sens,
                  k_init=(k_lo, k_lo + draw(st.integers(0, 400))),
                  k_ref_init=(ref_lo, ref_lo + draw(st.integers(0, 100))),
                  seed=draw(st.integers(0, 2**16)))
    model = draw(st.sampled_from([BPR, ArcCostModel(societal_cost_kind="flow")]))
    return sc, model, p, draw(st.integers(1, 12))


class TestDayInvariants:
    @settings(max_examples=examples(60), deadline=None)
    @given(run=small_runs())
    def test_ledger_balances_and_floor_holds(self, run):
        sc, model, p, days = run
        cost_star = simulation.run_optimum(sc, model, days)[1]
        pop = init_population(sc, p)
        pop = replace(pop, k=np.floor(pop.k), k_ref=np.floor(pop.k_ref))
        floor = np.maximum(0.0, pop.k_ref - (sc.horizon + 1) * p.r2)
        m = sc.n_agents
        for _ in range(days):
            k_before = pop.k.copy()
            rec = simulate_day(pop, model, p, cost_star)
            n1, n2 = round(rec.x1 * m), round(rec.x2 * m)
            # integer karma: the sums are exact, so the ledger balances exactly
            assert pop.k.sum() - k_before.sum() == p.r2 * n2 - p.p1 * n1
            assert set(np.unique(pop.k - k_before)) <= {-p.p1, 0, p.r2}
            assert np.all(pop.k >= floor)

    @settings(max_examples=examples(60), deadline=None)
    @given(run=small_runs())
    def test_routes_match_oracle(self, run):
        # each day's routes, read from the karma changes, and its regime
        # against the day's definition
        sc, model, p, days = run
        cost_star = simulation.run_optimum(sc, model, days)[1]
        pop = init_population(sc, p)
        for _ in range(days):
            k_before = pop.k.copy()
            draws = copy.deepcopy(pop.rng)  # simulate_day's draws, replayed
            traveling = draws.random(sc.n_agents) >= sc.p_home
            s = sc.sensitivity.sample(draws, sc.n_agents)
            rec = simulate_day(pop, model, p, cost_star)
            dk = pop.k - k_before
            route = np.select([np.abs(dk + p.p1) <= 1e-9,
                               np.abs(dk - p.r2) <= 1e-9, dk == 0.0],
                              [ARC1, ARC2, HOME], default=-1)
            assert np.array_equal(route != HOME, traveling)
            fast, _, _, regime, _ = equilibrium_oracle(
                k_before, s, traveling, pop.k_ref, model, p, sc.horizon)
            assert np.array_equal(route == ARC1, fast)
            assert rec.regime == regime


def day_by_hand(pop, model, p, cost_star):
    """The expected `simulate_day` record and karma from the public stages:
    the same draws, `thresholds` built fresh (so the population's
    breakpoints are checked against a fresh build), `wardrop_equilibrium`,
    `settle` and `compute_metrics`."""
    sc = pop.scenario
    m = sc.n_agents
    draws = copy.deepcopy(pop.rng)
    traveling = draws.random(m) >= sc.p_home
    s = sc.sensitivity.sample(draws, m)
    th = thresholds(pop.k_ref, p, sc.horizon)
    fast, n1, n2, regime, d = wardrop_equilibrium(pop.k, s, traveling, th,
                                                  model, p)
    k = settle(pop.k, fast, traveling, p)
    dd, ds, mk, cost = compute_metrics(fast, traveling, s, n1, n2, d, k,
                                       model)
    record = DayRecord(pop.day, n1 / m, n2 / m, cost, cost / cost_star, dd, ds,
                       mk, regime)
    return record, k


def assert_fresh_thresholds(pop):
    """``pop.breakpoints`` equals a fresh `thresholds` of its k_ref and
    prices, array by array."""
    want = thresholds(pop.k_ref, pop.prices, pop.scenario.horizon)
    for f in fields(want):
        assert np.array_equal(getattr(pop.breakpoints, f.name),
                              getattr(want, f.name)), f.name


class TestBreakpointCache:
    def run_days(self, pop, days):
        # each day must equal the public pieces at the population's prices
        p = pop.prices
        for _ in range(days):
            expected, k = day_by_hand(pop, BPR, p, cost_star=1.5)
            assert simulate_day(pop, BPR, p, cost_star=1.5) == expected
            assert np.array_equal(pop.k, k)

    def test_replace_builds_thresholds_at_the_new_prices(self):
        p, q = PriceVector(10, 14), PriceVector(4, 30)
        pop = init_population(scenario(seed=21), p)
        self.run_days(pop, 5)
        moved = replace(pop, prices=q)
        assert moved.prices is q and pop.prices is p
        self.run_days(moved, 5)
        assert_fresh_thresholds(moved)
        assert_fresh_thresholds(pop)

    def test_rebinding_k_ref_or_prices_raises(self):
        # and the scenario, whose horizon the breakpoints read too
        p = PriceVector(10, 14)
        pop = init_population(scenario(seed=22), p)
        sc, k_ref = pop.scenario, pop.k_ref
        longer = replace(sc, horizon=8)  # a lower floor: every k stays above
        self.run_days(pop, 1)
        for name, value in (("k_ref", 0.5 * k_ref + 40.0),
                            ("prices", PriceVector(4, 30)),
                            ("scenario", longer)):
            with pytest.raises(AttributeError, match=name):
                setattr(pop, name, value)
        assert pop.scenario is sc and pop.k_ref is k_ref and pop.prices is p
        moved = replace(pop, scenario=longer)
        assert moved.scenario is longer and pop.scenario is sc
        self.run_days(moved, 2)
        assert_fresh_thresholds(moved)

    def test_k_ref_is_read_only(self):
        # an in-place edit would leave the cached breakpoints stale
        pop = init_population(scenario(seed=23), PriceVector(10, 14))
        with pytest.raises(ValueError):
            pop.k_ref[0] = 1.0

    def test_replaced_k_ref_is_read_only(self):
        # construction freezes a k_ref given to replace too, so an in-place
        # edit cannot leave the breakpoints built from it stale
        pop = init_population(scenario(seed=23), PriceVector(10, 14))
        # a new array with k_ref in [40, 90], whose floor stays at 0
        pop = replace(pop, k_ref=0.5 * pop.k_ref + 40.0)
        assert not pop.k_ref.flags.writeable
        self.run_days(pop, 5)
        with pytest.raises(ValueError):
            pop.k_ref[:] = 0.0
        assert_fresh_thresholds(pop)

    def test_other_prices_rejected_before_the_draws(self):
        # like a bad cost_star: the population, its day count and its
        # random stream are left as they were
        p = PriceVector(10, 14)
        pop = init_population(scenario(seed=25), p)
        simulate_day(pop, BPR, p, COST_STAR)
        k, state = pop.k, pop.rng.bit_generator.state
        with pytest.raises(ValueError, match="prices"):
            simulate_day(pop, BPR, PriceVector(4, 30), COST_STAR)
        assert pop.k is k and pop.day == 1
        assert pop.rng.bit_generator.state == state
        # an equal price pair is the population's own
        simulate_day(pop, BPR, PriceVector(10, 14), COST_STAR)
        assert pop.day == 2

    def test_karma_below_floor_raises(self):
        sc = scenario(k_init=(0.0, 5.0), k_ref_init=(150.0, 200.0))
        p = PriceVector(10, 14)
        pop = init_population(sc, p)
        simulate_day(pop, BPR, p, COST_STAR)  # builds the breakpoints
        floor = np.maximum(0.0, pop.k_ref - (sc.horizon + 1) * p.r2)
        pop.k = pop.k.copy()
        pop.k[7] = floor[7] - 0.5
        with pytest.raises(InfeasibleKarmaError, match="agent 7"):
            simulate_day(pop, BPR, p, COST_STAR)

    def test_nan_karma_raises(self):
        # a NaN karma used to pass the floor check, go slow and turn the
        # day's mean karma into NaN
        p = PriceVector(10, 14)
        pop = init_population(scenario(seed=24), p)
        pop.k = pop.k.copy()
        pop.k[5] = np.nan
        with pytest.raises(InfeasibleKarmaError, match="agent 5: karma nan"):
            simulate_day(pop, BPR, p, COST_STAR)


# absolute bound on delta_d and delta_s against the gathered sums of
# `day_metrics_oracle`; the largest difference measured over the presets'
# days is 3.5e-16
METRICS_TOL = 1e-14


def run_checking_metrics(run):
    """Call ``run()`` with each day's `compute_metrics` checked against
    `day_metrics_oracle` on the same inputs; returns the number of days."""
    n_days = 0

    def checked(*args):
        nonlocal n_days
        n_days += 1
        got = compute_metrics(*args)
        want = day_metrics_oracle(*args)
        assert got[2:] == want[2:]  # mean_karma and cost to the last bit
        assert (got[0] is None, got[1] is None) == (want[0] is None,) * 2
        if want[0] is not None:
            assert abs(got[0] - want[0]) <= METRICS_TOL, (got, want)
            assert abs(got[1] - want[1]) <= METRICS_TOL, (got, want)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "compute_metrics", checked)
        run()
    return n_days


class TestMetrics:
    @pytest.mark.parametrize("case, days", [
        ("fig3", 500), ("fig5", 500), ("fig6", 500), ("fig3-rich", 300)])
    def test_presets_match_gathered_oracle(self, case, days):
        assert run_checking_metrics(lambda: preset_run(case, days)) == days

    @settings(max_examples=examples(60), deadline=None)
    @given(run=small_runs())
    def test_small_runs_match_gathered_oracle(self, run):
        sc, model, p, days = run
        assert run_checking_metrics(
            lambda: run_scenario(sc, model, p, days)) == days

    def test_nobody_travels(self, tmp_path):
        # one agent at p_home = 0.9 stays home on each of the 10 days
        cfg = RunConfig(n_agents=1, p_home=0.9, days=10, seed=3)
        runs = []
        assert run_checking_metrics(lambda: runs.append(run_scenario(
            cfg.scenario(), cfg.model(), cfg.prices(), cfg.days))) == 10
        assert all(rec.x1 == rec.x2 == 0.0 and rec.delta_d is None
                   for rec in runs[0].records)
        assert runs[0].summary["tail_mean_delta_d"] is None
        cfg.to_ini(tmp_path / "c.ini")
        out = tmp_path / "o"
        assert main(["run", "--config", str(tmp_path / "c.ini"),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tail_mean_delta_d"] is None

    @pytest.mark.parametrize("scale", [0.3, 1.7, 1024.0])
    def test_urgency_unit_has_no_effect_via_oracle(self, scale):
        # delta_d and delta_s are ratios in which the mean cancels: summed
        # for a population of mean c, with sensitivities c*s, they are
        # `compute_metrics` on s, which is in units of the mean
        rng = np.random.default_rng(25)
        for m in (1, 7, 1000):
            for _ in range(20):
                traveling = rng.random(m) >= 0.05
                fast = traveling & (rng.random(m) < 0.5)
                s = rng.standard_exponential(m)
                k = rng.uniform(0.0, 500.0, m)
                n1 = int(np.count_nonzero(fast))
                n2 = int(np.count_nonzero(traveling)) - n1
                d = tuple(BPR.discomfort((n1 / m, n2 / m)).tolist())
                got = compute_metrics(fast, traveling, s, n1, n2, d, k, BPR)
                want = day_metrics_oracle(fast, traveling, scale * s, n1, n2,
                                          d, k, BPR, scale)
                assert got[2:] == want[2:]
                if want[0] is None:
                    assert got[:2] == (None, None)
                    continue
                assert abs(got[0] - want[0]) <= METRICS_TOL, (got, want)
                assert abs(got[1] - want[1]) <= METRICS_TOL, (got, want)

    def test_uniform_sensitivity_zeroes_deviations(self):
        fast = np.array([True, False, True, False])
        traveling = np.array([True, True, True, False])
        s = np.full(4, 1.0)
        k = np.full(4, 10.0)
        x = np.array([0.5, 0.25])
        dd, ds, mk, cost = compute_metrics(fast, traveling, s, 2, 1,
                                           BPR.discomfort(x), k, BPR)
        assert dd == 0.0 and ds == 0.0
        assert mk == 10.0
        assert cost == pytest.approx(BPR.societal_cost([0.5, 0.25]))

    def test_hand_computed_example(self):
        # two travelers, fast/slow, sensitivities 2 and 0.5
        fast = np.array([True, False])
        s = np.array([2.0, 0.5])
        x = np.array([0.5, 0.5])
        d = BPR.discomfort(x)
        dd, ds, _, _ = compute_metrics(fast, np.ones(2, dtype=bool), s, 1, 1,
                                       d, np.zeros(2), BPR)
        expect_dd = ((2 - 1) * d[0] + (0.5 - 1) * d[1]) / (d[0] + d[1])
        assert dd == pytest.approx(expect_dd)
        assert ds == pytest.approx((1.0 - 0.5) / 2.0)

    @pytest.mark.parametrize("route", [ARC1, ARC2])
    def test_single_route_travelers(self, route):
        # everyone who travels takes one route, so d_taken is that route's
        # discomfort for every traveler; the stay-home agent is left out
        traveling = np.array([True, True, False, True])
        fast = traveling & (route == ARC1)
        s = np.array([2.0, 0.5, 9.0, 1.25])
        x = np.array([0.75, 0.0] if route == ARC1 else [0.0, 0.75])
        d_all = BPR.discomfort(x)
        d = d_all[route - 1]
        travelers = [2.0, 0.5, 1.25]
        n1 = 3 if route == ARC1 else 0
        dd, ds, mk, cost = compute_metrics(fast, traveling, s, n1, 3 - n1,
                                           d_all, np.arange(4.0), BPR)
        expect_dd = (sum((v - 1.0) * d for v in travelers)
                     / sum(d for v in travelers))
        assert dd == pytest.approx(expect_dd, rel=1e-12)
        assert ds == pytest.approx(sum(v - 1.0 for v in travelers) / 4,
                                   rel=1e-12)
        assert mk == 1.5
        assert cost == pytest.approx(0.75 * d, rel=1e-12)

    def test_no_travelers_absent_metrics(self):
        nobody = np.zeros(3, dtype=bool)
        x = np.zeros(2)
        dd, ds, _, cost = compute_metrics(nobody, nobody, np.ones(3), 0, 0,
                                          BPR.discomfort(x), np.ones(3), BPR)
        assert dd is None and ds is None and cost == 0.0


class TestCsvOutput:
    def test_run_csv_schema_and_roundtrip(self, tmp_path):
        sc = scenario(n_agents=120)
        res = run_scenario(sc, BPR, PriceVector(10, 14), 12)
        path = tmp_path / "run.csv"
        res.write_run_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["day", "x1", "x2", "cost", "cost_opt_ratio",
                                 "delta_d", "delta_s", "mean_karma", "regime"]
        assert len(rows) == 12
        for row, rec in zip(rows, res.records):
            assert int(row["day"]) == rec.day
            assert float(row["x1"]) == rec.x1
            assert float(row["cost"]) == rec.cost
            assert row["regime"] == rec.regime

    def test_karma_hist_csv(self, tmp_path):
        sc = scenario(n_agents=120)
        res = run_scenario(sc, BPR, PriceVector(10, 14), 5)
        path = tmp_path / "hist.csv"
        res.write_karma_hist_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["index", "count"]
        assert sum(int(r["count"]) for r in rows) == 120

    def test_karma_hist_csv_counts_every_agent(self, tmp_path):
        # the counts are histogram shares times M; truncating them to ints
        # dropped agents (9 985 of 10 000 on this run)
        cfg = get_preset("fig3")
        sc = replace(cfg.scenario(), n_agents=10_000, seed=0)
        res = run_scenario(sc, cfg.model(), cfg.prices(), 20)
        path = tmp_path / "hist.csv"
        res.write_karma_hist_csv(path)
        with open(path, newline="") as fh:
            counts = [int(r["count"]) for r in csv.DictReader(fh)]
        assert sum(counts) == 10_000
        assert counts == [round(c) for c in res.karma_hist]
