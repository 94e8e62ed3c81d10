import copy
import csv
import hashlib
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karma_routing import (ARC1, ARC2, ArcCostModel, DayRecord,
                           InfeasibleKarmaError, PriceVector, Scenario,
                           SensitivitySpec, compute_metrics, get_preset,
                           init_population, run_scenario, settle, simulate_day,
                           thresholds, wardrop_equilibrium)
import karma_routing
from karma_routing import simulation
from karma_routing.simulation import RUN_CSV_COLUMNS
from karma_routing.wardrop import CONTROLLED, UNCONTROLLED

from oracles import AgentState, day_metrics_oracle, plan_oracle

BPR = ArcCostModel()
EXP = SensitivitySpec.exponential(1.0)
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

    def test_degenerate_range_identical_agents(self):
        sc = scenario(k_init=(80.0, 80.0), k_ref_init=(30.0, 30.0))
        pop = init_population(sc, PriceVector(10, 14))
        assert np.all(pop.k == 80.0)
        assert np.all(pop.k_ref == 30.0)

    def test_integer_lattice_option(self):
        sc = scenario()
        pop = init_population(sc, PriceVector(10, 14), integer_karma=True)
        assert np.all(pop.k == np.floor(pop.k))
        assert np.all(pop.k_ref == np.floor(pop.k_ref))


class TestSimulateDay:
    def test_everyone_home(self):
        sc = scenario(p_home=1.0)
        pop = init_population(sc, PriceVector(10, 14))
        k_before = pop.k.copy()
        rec = simulate_day(pop, BPR, PriceVector(10, 14))
        assert rec.x1 == 0.0 and rec.x2 == 0.0
        assert rec.cost == 0.0
        assert rec.delta_d is None and rec.delta_s is None
        assert np.array_equal(pop.k, k_before)

    def test_wealthy_start_is_uncontrolled(self):
        # plentiful karma floods the fast route until discomforts equalize
        sc = scenario(seed=1, n_agents=1000)
        pop = init_population(sc, PriceVector(10, 14))
        rec = simulate_day(pop, BPR, PriceVector(10, 14))
        assert rec.regime == UNCONTROLLED
        assert rec.x1 == pytest.approx(0.80, abs=0.02)

    def test_flows_sum_to_travelers(self):
        sc = scenario(seed=3)
        pop = init_population(sc, PriceVector(10, 14))
        for _ in range(10):
            rec = simulate_day(pop, BPR, PriceVector(10, 14))
            total = rec.x1 + rec.x2
            assert 0.0 <= total <= 1.0
            assert round(total * sc.n_agents) == pytest.approx(
                total * sc.n_agents, abs=1e-9)  # integer traveler count


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

    def test_karma_floor_never_violated(self):
        sc = scenario(n_agents=500, seed=5)
        p = PriceVector(10, 14)
        pop = init_population(sc, p)
        k_inf = np.maximum(0.0, pop.k_ref - (sc.horizon + 1) * p.r2)
        for _ in range(150):
            simulate_day(pop, BPR, p)
            assert np.all(pop.k >= k_inf - 1e-12)

    def test_fast_route_always_affordable(self):
        sc = scenario(n_agents=500, seed=6)
        p = PriceVector(10, 14)
        pop = init_population(sc, p)
        rng = np.random.default_rng(99)
        th = thresholds(pop.k_ref, p, sc.horizon)
        for _ in range(80):
            stay = rng.random(sc.n_agents) < sc.p_home
            s = EXP.sample(rng, sc.n_agents)
            fast = wardrop_equilibrium(pop.k, s, ~stay, th, BPR, p, 1.0)[0]
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
        k_poor = pop.breakpoints(p).k_poor
        uncontrolled = 0
        for _ in range(400):
            k_before = pop.k.copy()
            rec = simulate_day(pop, cfg.model(), p)
            if rec.regime != UNCONTROLLED:
                continue
            uncontrolled += 1
            dk = pop.k - k_before
            fast, slow = np.flatnonzero(dk < 0), np.flatnonzero(dk > 0)
            indifferent_slow = slow[k_before[slow] >= k_poor[slow]]
            assert fast.size and indifferent_slow.size
            assert fast.max() < indifferent_slow.min()
        assert uncontrolled >= 200

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
    "fig3": "98a07874674f3304760f6dd43b391c64d3f515021d408fb45704422139e53c0c",
    "fig5": "c9a4143f00f1df3c025c6a1786eb09499a936801e98a6698da45c3ff868f64d3",
    "fig6": "e4aebdc6f21f591f0d481aa857bd099b7d3e0b4ece3fc74f5029a15d2ec7025a",
    "fig3-rich": "ba809527fe2cae99dbcbb26b1826e89aa181c7ab7ff62433f9ef3eaff8d1f533",
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
    sens = draw(st.sampled_from([EXP, SensitivitySpec.uniform(0.5, 2.5)]))
    sc = Scenario(p_home=draw(st.sampled_from([0.0, 0.05, 0.5])),
                  horizon=draw(st.integers(1, 8)),
                  n_agents=draw(st.integers(1, 60)), sensitivity=sens,
                  k_init=(k_lo, k_lo + draw(st.integers(0, 400))),
                  k_ref_init=(ref_lo, ref_lo + draw(st.integers(0, 100))),
                  seed=draw(st.integers(0, 2**16)))
    model = draw(st.sampled_from([BPR, ArcCostModel(societal_cost_kind="flow")]))
    return sc, model, p, draw(st.integers(1, 12))


class TestDayInvariants:
    @settings(max_examples=60, deadline=None)
    @given(run=small_runs())
    def test_ledger_balances_and_floor_holds(self, run):
        sc, model, p, days = run
        pop = init_population(sc, p, integer_karma=True)
        floor = np.maximum(0.0, pop.k_ref - (sc.horizon + 1) * p.r2)
        m = sc.n_agents
        for _ in range(days):
            k_before = pop.k.copy()
            rec = simulate_day(pop, model, p)
            n1, n2 = round(rec.x1 * m), round(rec.x2 * m)
            # integer karma: the sums are exact, so the ledger balances exactly
            assert pop.k.sum() - k_before.sum() == p.r2 * n2 - p.p1 * n1
            assert set(np.unique(pop.k - k_before)) <= {-p.p1, 0, p.r2}
            assert np.all(pop.k >= floor)

    @settings(max_examples=60, deadline=None)
    @given(run=small_runs())
    def test_routes_match_oracle(self, run):
        # each day's routes, read from the karma changes, against plan_oracle
        sc, model, p, days = run
        pop = init_population(sc, p)
        s_bar = sc.sensitivity.s_bar
        for _ in range(days):
            k_before = pop.k.copy()
            draws = copy.deepcopy(pop.rng)  # simulate_day's draws, replayed
            traveling = draws.random(sc.n_agents) >= sc.p_home
            s = sc.sensitivity.sample(draws, sc.n_agents)
            rec = simulate_day(pop, model, p)
            dk = pop.k - k_before
            route = np.select([np.abs(dk + p.p1) <= 1e-9,
                               np.abs(dk - p.r2) <= 1e-9, dk == 0.0],
                              [ARC1, ARC2, HOME], default=-1)
            assert np.array_equal(route != HOME, traveling)
            d = model.discomfort([rec.x1, rec.x2])
            for i in np.flatnonzero(traveling):
                state = AgentState(k_before[i], pop.k_ref[i], s[i])
                if rec.regime == CONTROLLED:
                    assert plan_oracle(state, d, p, sc.horizon,
                                       s_bar).choice == route[i]
                elif route[i] == ARC1:
                    th = thresholds(pop.k_ref[i], p, sc.horizon)
                    assert k_before[i] >= th.k_poor


def day_by_hand(pop, model, p, cost_star=None):
    """The expected `simulate_day` record and karma from the public stages:
    the same draws, `thresholds` built fresh (so the cache is checked against
    a fresh build), `wardrop_equilibrium`, `settle` and `compute_metrics`."""
    sc = pop.scenario
    m, s_bar = sc.n_agents, sc.sensitivity.s_bar
    draws = copy.deepcopy(pop.rng)
    traveling = draws.random(m) >= sc.p_home
    s = sc.sensitivity.sample(draws, m)
    th = thresholds(pop.k_ref, p, sc.horizon)
    fast, n1, n2, regime, d = wardrop_equilibrium(pop.k, s, traveling, th,
                                                  model, p, s_bar)
    k = settle(pop.k, fast, traveling, p)
    x = np.array([n1 / m, n2 / m])
    dd, ds, mk, cost = compute_metrics(fast, traveling, s, x, d, k, model,
                                       s_bar)
    ratio = cost / cost_star if cost_star else float("nan")
    record = DayRecord(pop.day, n1 / m, n2 / m, cost, ratio, dd, ds, mk,
                       regime)
    return record, k


class TestBreakpointCache:
    def run_days(self, pop, p, days, switch):
        # each day must equal the public pieces with that day's inputs
        for day in range(days):
            if day == days // 2:
                switch(pop)
            expected, k = day_by_hand(pop, BPR, p(day), cost_star=1.5)
            assert simulate_day(pop, BPR, p(day), cost_star=1.5) == expected
            assert np.array_equal(pop.k, k)

    def test_price_switch_mid_run(self):
        pop = init_population(scenario(seed=21), PriceVector(10, 14))
        self.run_days(pop, lambda day: PriceVector(10, 14) if day < 5
                      else PriceVector(4, 30), 10, lambda pop: None)

    def test_k_ref_rebound_mid_run(self):
        pop = init_population(scenario(seed=22), PriceVector(10, 14))

        def rebind(pop):
            # a new array with k_ref in [40, 90], whose floor stays at 0
            pop.k_ref = 0.5 * pop.k_ref + 40.0
        self.run_days(pop, lambda day: PriceVector(10, 14), 10, rebind)

    def test_k_ref_is_read_only(self):
        # an in-place edit would leave the cached breakpoints stale
        pop = init_population(scenario(seed=23), PriceVector(10, 14))
        with pytest.raises(ValueError):
            pop.k_ref[0] = 1.0

    def test_karma_below_floor_raises(self):
        sc = scenario(k_init=(0.0, 5.0), k_ref_init=(150.0, 200.0))
        p = PriceVector(10, 14)
        pop = init_population(sc, p)
        simulate_day(pop, BPR, p)  # builds the cache
        floor = np.maximum(0.0, pop.k_ref - (sc.horizon + 1) * p.r2)
        pop.k = pop.k.copy()
        pop.k[7] = floor[7] - 0.5
        with pytest.raises(InfeasibleKarmaError, match="agent 7"):
            simulate_day(pop, BPR, p)


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

    @settings(max_examples=60, deadline=None)
    @given(run=small_runs())
    def test_small_runs_match_gathered_oracle(self, run):
        sc, model, p, days = run
        assert run_checking_metrics(
            lambda: run_scenario(sc, model, p, days)) == days

    def test_uniform_sensitivity_zeroes_deviations(self):
        fast = np.array([True, False, True, False])
        traveling = np.array([True, True, True, False])
        s = np.full(4, 1.0)
        k = np.full(4, 10.0)
        x = np.array([0.5, 0.25])
        dd, ds, mk, cost = compute_metrics(fast, traveling, s, x,
                                           BPR.discomfort(x), k, BPR, 1.0)
        assert dd == 0.0 and ds == 0.0
        assert mk == 10.0
        assert cost == pytest.approx(BPR.societal_cost([0.5, 0.25]))

    def test_hand_computed_example(self):
        # two travelers, fast/slow, sensitivities 2 and 0.5
        fast = np.array([True, False])
        s = np.array([2.0, 0.5])
        x = np.array([0.5, 0.5])
        d = BPR.discomfort(x)
        dd, ds, _, _ = compute_metrics(fast, np.ones(2, dtype=bool), s, x, d,
                                       np.zeros(2), BPR, 1.0)
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
        s_bar = 1.1
        x = np.array([0.75, 0.0] if route == ARC1 else [0.0, 0.75])
        d_all = BPR.discomfort(x)
        d = d_all[route - 1]
        travelers = [2.0, 0.5, 1.25]
        dd, ds, mk, cost = compute_metrics(fast, traveling, s, x, d_all,
                                           np.arange(4.0), BPR, s_bar)
        expect_dd = (sum((v - s_bar) * d for v in travelers)
                     / sum(s_bar * d for v in travelers))
        assert dd == pytest.approx(expect_dd, rel=1e-12)
        assert ds == pytest.approx(sum(v - s_bar for v in travelers)
                                   / (4 * s_bar), rel=1e-12)
        assert mk == 1.5
        assert cost == pytest.approx(0.75 * d, rel=1e-12)

    def test_no_travelers_absent_metrics(self):
        nobody = np.zeros(3, dtype=bool)
        x = np.zeros(2)
        dd, ds, _, cost = compute_metrics(nobody, nobody, np.ones(3), x,
                                          BPR.discomfort(x), np.ones(3), BPR,
                                          1.0)
        assert dd is None and ds is None and cost == 0.0


class TestCsvOutput:
    def test_run_csv_schema_and_roundtrip(self, tmp_path):
        sc = scenario(n_agents=120)
        res = run_scenario(sc, BPR, PriceVector(10, 14), 12)
        path = tmp_path / "run.csv"
        res.write_run_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == RUN_CSV_COLUMNS
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
