import csv
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karma_routing import (ARC1, ARC2, ArcCostModel, PriceVector, Scenario,
                           SensitivitySpec, compute_metrics, get_preset,
                           init_population, run_scenario, simulate_day,
                           wardrop_equilibrium)
from karma_routing.simulation import RUN_CSV_COLUMNS
from karma_routing.wardrop import UNCONTROLLED

BPR = ArcCostModel()
EXP = SensitivitySpec.exponential(1.0)


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
        for _ in range(80):
            stay = rng.random(sc.n_agents) < sc.p_home
            s = EXP.sample(rng, sc.n_agents)
            res = wardrop_equilibrium(pop.k, pop.k_ref, s, ~stay, BPR, p,
                                      sc.horizon, 1.0)
            assert np.all(pop.k[res.choices == ARC1] >= p.p1)
            pop.k = np.where(res.choices == ARC1, pop.k - p.p1,
                             np.where(res.choices == ARC2, pop.k + p.r2, pop.k))

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
        tail = res.tail_records(0.2)
        x1 = np.mean([r.x1 for r in tail])
        x2 = np.mean([r.x2 for r in tail])
        assert x1 == pytest.approx(0.95 * 14 / 24, abs=0.01)
        assert x2 == pytest.approx(0.95 * 10 / 24, abs=0.01)
        assert res.summary["tail_mean_cost_opt_ratio"] < 1.01

    def test_day_count_and_summary(self):
        sc = scenario(n_agents=100)
        res = run_scenario(sc, BPR, PriceVector(10, 14), 25)
        assert len(res.records) == 25
        assert [r.day for r in res.records] == list(range(25))
        assert res.summary["days"] == 25
        assert res.summary["tail_days"] == 5
        assert res.karma_hist.sum() == pytest.approx(100)

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            run_scenario(scenario(), BPR, PriceVector(10, 14), 0)


# sha256 of the (day, x1, x2, regime) rows and the final histogram counts.
# The flows are counts / M and the regimes are strings, so the digest pins the
# agents' decisions without depending on the last bits of libm.
GOLDEN_DIGESTS = {
    "fig3": "c60c3476da3bf3a2cbec5067844dc0c443a50c035f51585d324569d9f8900e6e",
    "fig5": "4586521d8844a368bb80d72dbd7e9f040d8b754b8f7ec52eeff01d2b9dbda0a9",
    "fig6": "306d98d81df417c984e1983f8202f03010667e58d33716694aeba96e79844854",
    "fig3-rich": "a6888ad80f73f67397dc17e730fd24fcfe40ba16de11dcd7361ce1d5495feb66",
}


class TestGoldenDecisions:
    @pytest.mark.parametrize("case, days, n_uncontrolled", [
        ("fig3", 500, 0), ("fig5", 500, 0), ("fig6", 500, 0),
        # k(0) ~ U[2000, 4000] floods the fast route, pinning the balanced split
        ("fig3-rich", 300, 255),
    ])
    def test_decision_digest(self, case, days, n_uncontrolled):
        cfg = get_preset(case.split("-")[0])
        if case == "fig3-rich":
            cfg = replace(cfg, k_init_low=2000.0, k_init_high=4000.0)
        res = run_scenario(cfg.scenario(), cfg.model(), cfg.prices(), days)
        h = hashlib.sha256()
        for r in res.records:
            h.update(f"{r.day},{r.x1!r},{r.x2!r},{r.regime}\n".encode())
        h.update(",".join(str(int(c)) for c in res.karma_hist).encode())
        assert res.summary["uncontrolled_days"] == n_uncontrolled
        assert h.hexdigest() == GOLDEN_DIGESTS[case]


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


class TestMetrics:
    def test_uniform_sensitivity_zeroes_deviations(self):
        choices = np.array([ARC1, ARC2, ARC1, 0])
        s = np.full(4, 1.0)
        k = np.full(4, 10.0)
        dd, ds, mk, cost = compute_metrics(choices, s, [0.5, 0.25], k, BPR,
                                           1.0)
        assert dd == 0.0 and ds == 0.0
        assert mk == 10.0
        assert cost == pytest.approx(BPR.societal_cost([0.5, 0.25]))

    def test_hand_computed_example(self):
        # two travelers, fast/slow, sensitivities 2 and 0.5
        choices = np.array([ARC1, ARC2])
        s = np.array([2.0, 0.5])
        x = [0.5, 0.5]
        d = BPR.discomfort(x)
        dd, ds, _, _ = compute_metrics(choices, s, x, np.zeros(2), BPR, 1.0)
        expect_dd = ((2 - 1) * d[0] + (0.5 - 1) * d[1]) / (d[0] + d[1])
        assert dd == pytest.approx(expect_dd)
        assert ds == pytest.approx((1.0 - 0.5) / 2.0)

    def test_no_travelers_absent_metrics(self):
        dd, ds, _, cost = compute_metrics(np.zeros(3), np.ones(3), [0.0, 0.0],
                                          np.ones(3), BPR, 1.0)
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
