"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
Tolerances are pinned here and nowhere else.
"""

import time
from dataclasses import replace

import numpy as np

from karma_routing import (ArcCostModel, PriceVector, Scenario,
                           SensitivitySpec, balanced_flow, build_chain,
                           conservation_prices, equilibrium_flows, get_preset,
                           init_population, rationalize_prices, run_scenario,
                           settle, simulate_day, stationary_distribution,
                           system_optimum, thresholds)
from karma_routing.agent import k_inf, k_rich, k_wealthy
from karma_routing.simulation import run_optimum
from karma_routing.wardrop import UNCONTROLLED

from day_rule import fast_routes, integer_histogram
from oracles import (ARC1, ARC2, AgentState, plan_oracle,
                     stationary_distribution_dense)

EXP = SensitivitySpec.exponential()
BPR = ArcCostModel()


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_best_response_oracle_equivalence():
    # the oracle per instance; per (prices, horizon) group, the instances are
    # drawn as arrays and one thresholds call gives the branches and the
    # rule's mask, read on the d1 < d2 rows
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n_target = 100_000
    orders = ("d1<d2", "d1>d2", "d1=d2")
    combos = [(p, horizon) for p in (PriceVector(p1, r2)
                                     for p1 in range(1, 16)
                                     for r2 in range(1, 16))
              for horizon in range(1, 11) if p.feasible_for_horizon(horizon)]
    sizes = np.bincount(rng.integers(len(combos), size=n_target),
                        minlength=len(combos))
    groups = {}  # (p, horizon) -> (k, k_ref, s, order index, oracle's plan)
    checked = 0
    for (p, horizon), n in zip(combos, sizes.tolist()):
        if not n:
            continue
        # both branches of the poor breakpoint: k_poor = p1 below T*r2
        toll = rng.random(n) < 0.5
        k_ref = rng.uniform(np.where(toll, 0.0, horizon * p.r2),
                            np.where(toll, horizon * p.r2,
                                     2 * horizon * p.r2 + 50))
        wealthy = k_wealthy(k_ref, p, horizon)
        k = rng.uniform(k_inf(k_ref, p, horizon), wealthy + 2 * p.total)
        s = rng.standard_exponential(n)
        order_of = np.digitize(rng.random(n), (0.4, 0.7))
        base = rng.uniform(0.5, 2.0, n)
        gap = rng.uniform(0.05, 2.0, n)
        tie = rng.uniform(0.5, 3.0, n)
        d1 = np.choose(order_of, (base, base + gap, tie))
        d2 = np.choose(order_of, (base + gap, base, tie))
        # redraw s off the measure-zero tie band of the d1 < d2 rule
        thr = np.where(k >= k_rich(k_ref, p, horizon),
                       (wealthy - k) / p.total, 1.0)
        while (at := (order_of == 0) & (np.abs(s - thr) < 1e-9)).any():
            s[at] = rng.standard_exponential(int(np.count_nonzero(at)))
        plan = np.array([
            plan_oracle(AgentState(*row[:3]), row[3:], p, horizon, 1.0).choice
            for row in zip(k.tolist(), k_ref.tolist(), s.tolist(),
                           d1.tolist(), d2.tolist())])
        groups[p, horizon] = (k, k_ref, s, order_of, plan)
        checked += plan.size

    mismatches = 0
    branch_counts = {"reference": 0, "toll": 0}
    order_counts = dict.fromkeys(orders, 0)
    for (p, horizon), (k, k_ref, s, order_of, plan) in groups.items():
        th = thresholds(k_ref, p, horizon)
        toll = int(np.count_nonzero(th.k_poor == p.p1))
        branch_counts["toll"] += toll
        branch_counts["reference"] += k.size - toll
        for i, order in enumerate(orders):
            at = order_of == i
            if not at.any():
                continue
            if order == "d1<d2":
                fast = fast_routes(k, s, th, p)[at]
                bad = np.where(fast, ARC1, ARC2) != plan[at]
            elif order == "d1>d2":
                bad = plan[at] != ARC2  # the slow route dominates
            else:
                # any route is optimal: the oracle's plan must be feasible
                bad = ~np.isin(plan[at], (ARC1, ARC2))
            mismatches += int(np.count_nonzero(bad))
            order_counts[order] += int(np.count_nonzero(at))
    spans = min(branch_counts.values()) > n_target // 10 and \
        min(order_counts.values()) > n_target // 10
    report(1, "best-response oracle equivalence",
           mismatches == 0 and spans and checked == n_target,
           f"{checked} instances, {mismatches} mismatches, "
           f"branches {branch_counts}, orders {order_counts}, "
           f"{time.time() - t0:.1f}s")


def test_02_system_optimum_reproduction():
    t0 = time.time()
    x95 = system_optimum(BPR, 0.95)
    x100 = system_optimum(BPR, 1.0)
    ok = (abs(x95[0] - 0.56) <= 0.01 and abs(x95[1] - 0.39) <= 0.01
          and abs(x100[0] - 0.57) <= 0.01 and abs(x100[1] - 0.43) <= 0.01)
    report(2, "system optimum reproduction", ok,
           f"x*(0.95)={np.round(x95, 4).tolist()}, "
           f"x*(1.0)={np.round(x100, 4).tolist()}, {time.time() - t0:.2f}s")


def test_03_price_design_reproduction():
    t0 = time.time()
    got = [
        rationalize_prices(conservation_prices(system_optimum(BPR, 0.95)), 14, 6),
        rationalize_prices(conservation_prices(system_optimum(BPR, 1.0)), 13, 6),
        rationalize_prices(conservation_prices([0.475, 0.475]), 10, 6),
    ]
    ok = (got[0] == PriceVector(10, 14) and got[1] == PriceVector(10, 13)
          and got[2].p1 == got[2].r2)
    report(3, "price design reproduction", ok,
           f"{[(g.p1, -g.r2) for g in got]}, {time.time() - t0:.2f}s")


def test_04_chain_stochasticity_and_stationarity_sweep():
    t0 = time.time()
    worst_col = 0.0
    worst_res = 0.0
    n_chains = 0
    for p1 in range(1, 16):
        for r2 in range(1, 31 - p1):
            p = PriceVector(p1, r2)
            for horizon in range(1, 9):
                chain = build_chain(p, horizon, 0.05, EXP)
                col_err = float(np.abs(chain.a.sum(axis=0) - 1.0).max())
                pe = stationary_distribution(chain)
                res = float(np.abs(chain.a @ pe - pe).sum())
                worst_col = max(worst_col, col_err)
                worst_res = max(worst_res, res)
                n_chains += 1
    elapsed = time.time() - t0
    ok = worst_col <= 1e-12 and worst_res <= 1e-10 and elapsed < 10.0
    report(4, "chain stochasticity + stationarity sweep", ok,
           f"{n_chains} chains, worst col err {worst_col:.2e}, "
           f"worst residual {worst_res:.2e}, {elapsed:.1f}s")


def test_05_stationary_flow_optimality_on_presets():
    t0 = time.time()
    worst = 0.0
    worst_res = 0.0
    details = []
    for name in ("fig3", "fig5", "fig6"):
        cfg = get_preset(name)
        chain = build_chain(cfg.prices(), cfg.horizon, cfg.p_home,
                            cfg.sensitivity())
        if cfg.p_home > 0:
            pe = stationary_distribution(chain)
            worst_res = max(worst_res, float(np.abs(chain.a @ pe - pe).sum()))
        else:
            pe = stationary_distribution_dense(chain)
        x = equilibrium_flows(chain, pe)
        target = chain.prices.r2 / chain.prices.p1
        ratio_err = abs(x[0] / x[1] - target)
        balance = abs(chain.prices.p1 * x[0] - chain.prices.r2 * x[1])
        worst = max(worst, ratio_err, balance / chain.p_go)
        details.append(f"{name}: ratio err {ratio_err:.1e}, "
                       f"|p.x| {balance:.1e}")
    report(5, "stationary flows split as r2:p1",
           worst <= 1e-9 and worst_res <= 1e-13,
           "; ".join(details) + f", worst residual {worst_res:.1e}, "
           f"{time.time() - t0:.2f}s")


def test_06_balanced_flow_reproduction():
    t0 = time.time()
    vals = [float(balanced_flow(BPR, p_go)[0]) for p_go in (0.95, 1.0)]
    ok = all(abs(v - 0.80) <= 0.01 for v in vals)
    report(6, "balanced flow at 0.80", ok,
           f"{[round(v, 4) for v in vals]}, {time.time() - t0:.2f}s")


def _tail_means(result, n_days=100):
    tail = result.records[-n_days:]
    dd = [r.delta_d for r in tail if r.delta_d is not None]
    return {
        "cost_ratio": float(np.mean([r.cost_opt_ratio for r in tail])),
        "delta_d": float(np.mean(dd)),
        "x1": float(np.mean([r.x1 for r in tail])),
        "x2": float(np.mean([r.x2 for r in tail])),
    }


def test_07_end_to_end_reference_run():
    t0 = time.time()
    cfg = get_preset("fig3")
    ratios, deltas = [], []
    for seed in range(5):
        sc = replace(cfg.scenario(), seed=seed)
        result = run_scenario(sc, cfg.model(), cfg.prices(), 500)
        tm = _tail_means(result)
        ratios.append(tm["cost_ratio"])
        deltas.append(tm["delta_d"])
    mean_ratio = float(np.mean(ratios))
    mean_dd = float(np.mean(deltas))
    ok = abs(mean_ratio - 1.0) <= 0.01 and -0.20 <= mean_dd <= -0.08
    report(7, "end-to-end run, 5% stay-home", ok,
           f"cost ratio {mean_ratio:.5f}, delta_d {mean_dd * 100:.1f}%, "
           f"5 seeds, {time.time() - t0:.1f}s")


def test_08_end_to_end_everyone_travels():
    t0 = time.time()
    cfg = get_preset("fig5")
    result = run_scenario(cfg.scenario(), cfg.model(), cfg.prices(), 500)
    tm = _tail_means(result)
    never_beaten = all(r.cost >= result.cost_star - 1e-9
                       for r in result.records)
    ok = (abs(tm["x1"] - 0.57) <= 0.02 and abs(tm["x2"] - 0.43) <= 0.02
          and never_beaten)
    report(8, "end-to-end run, everyone travels", ok,
           f"tail flows ({tm['x1']:.4f}, {tm['x2']:.4f}), "
           f"optimum never outperformed: {never_beaten}, "
           f"{time.time() - t0:.1f}s")


def test_09_end_to_end_flow_cost():
    t0 = time.time()
    cfg = get_preset("fig6")
    result = run_scenario(cfg.scenario(), cfg.model(), cfg.prices(), 500)
    tm = _tail_means(result)
    ok = (abs(tm["x1"] - 0.475) <= 0.02 and abs(tm["x2"] - 0.475) <= 0.02
          and -0.26 <= tm["delta_d"] <= -0.14)
    report(9, "end-to-end run, flow-quadratic cost", ok,
           f"tail flows ({tm['x1']:.4f}, {tm['x2']:.4f}), "
           f"delta_d {tm['delta_d'] * 100:.1f}%, {time.time() - t0:.1f}s")


def test_10_chain_vs_simulation_histogram():
    t0 = time.time()
    p = PriceVector(5, 7)
    horizon = 6
    k_ref = 60.0
    chain = build_chain(p, horizon, 0.05, EXP)
    pe = stationary_distribution(chain)
    residual = float(np.abs(chain.a @ pe - pe).sum())
    # constant discomforts keep the fast route cheaper at any flow, so the
    # day loop is exactly the chain's microscopic counterpart
    flat = ArcCostModel(alpha=0.0)
    sc = Scenario(p_home=0.05, horizon=horizon, n_agents=10_000,
                  sensitivity=EXP, seed=7,
                  k_init=(k_ref - horizon * p.r2,
                          k_ref + (horizon + 1) * p.p1 + p.r2),
                  k_ref_init=(k_ref, k_ref))
    hist = integer_histogram(sc, flat, p, 300)
    hist = hist / hist.sum()
    tv = 0.5 * float(np.abs(hist - pe).sum())
    report(10, "chain vs agent-simulation histogram",
           tv <= 0.05 and residual <= 1e-13,
           f"TV distance {tv:.4f} (10^4 agents, 300 days), "
           f"chain residual {residual:.1e}, {time.time() - t0:.1f}s")


def test_11_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(31)
    notes = []

    # positive invariance and attraction of the karma band
    ok_band = True
    for _ in range(40):
        p = PriceVector(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        horizon = int(rng.integers(1, 8))
        if not p.feasible_for_horizon(horizon):
            continue
        k_ref = float(rng.uniform(0, 60))
        th = thresholds(k_ref, p, horizon)
        hi = th.k_wealthy + p.r2
        k = float(rng.uniform(th.k_inf, hi))
        above = hi + float(rng.uniform(0, 150))
        # one agent inside the band and one above it, on the same draws,
        # through the day's steps on the breakpoints built above
        walk = np.array([k, above])
        for step in range(250):
            s = float(rng.standard_exponential())
            walk = settle(walk, fast_routes(walk, s, th, p), True, p)
            ok_band &= th.k_inf <= walk[0] < hi
        ok_band &= th.k_inf <= walk[1] < hi  # absorbed from above by now
    notes.append(f"band invariance {ok_band}")

    # karma floor along a full run
    cfg = get_preset("fig3")
    sc = replace(cfg.scenario(), n_agents=500, seed=3)
    pop = init_population(sc, cfg.prices())
    k_inf = np.maximum(0.0, pop.k_ref - (sc.horizon + 1) * cfg.prices().r2)
    cost_star = run_optimum(sc, cfg.model(), 200)[1]
    floor_ok = True
    for _ in range(200):
        simulate_day(pop, cfg.model(), cfg.prices(), cost_star)
        floor_ok &= bool(np.all(pop.k >= k_inf - 1e-12))
    notes.append(f"karma floor {floor_ok}")

    # determinism under a fixed seed
    a = run_scenario(sc, cfg.model(), cfg.prices(), 40)
    b = run_scenario(sc, cfg.model(), cfg.prices(), 40)
    det_ok = a.records == b.records and np.array_equal(a.karma_hist,
                                                       b.karma_hist)
    notes.append(f"determinism {det_ok}")

    # the balanced-flow equilibrium drains karma (p^T xbar > 0)
    drain_ok = True
    for name, p_go in (("fig3", 0.95), ("fig5", 1.0)):
        prices = get_preset(name).prices()
        xbar = balanced_flow(BPR, p_go)
        drain_ok &= prices.p1 * xbar[0] - prices.r2 * xbar[1] > 0
    rich = replace(cfg.scenario(), k_init=(300.0, 500.0), seed=1)
    res = run_scenario(rich, cfg.model(), cfg.prices(), 25)
    karma = [r.mean_karma for r in res.records]
    regimes = [r.regime for r in res.records]
    drain_ok &= regimes[0] == UNCONTROLLED
    drain_ok &= all(karma[i + 1] < karma[i]
                    for i in range(len(karma) - 1)
                    if regimes[i] == UNCONTROLLED)
    notes.append(f"uncontrolled drain {drain_ok}")

    ok = ok_band and floor_ok and det_ok and drain_ok
    report(11, "invariance / floor / determinism / drain properties", ok,
           "; ".join(notes) + f", {time.time() - t0:.1f}s")
