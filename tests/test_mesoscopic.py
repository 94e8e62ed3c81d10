"""The quantized karma chain against its oracles: A, whose three moves per
cell are stay, slow (+r2) and fast (-p1), against `dense_transition_matrix`
bit for bit; its rule against the agent's; its solve against the dense one.
"""
import csv
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from karma_routing import (ArcCostModel, ConvergenceError, PriceVector,
                           Scenario, SensitivitySpec, build_chain,
                           equilibrium_flows, quantize_population,
                           stationary_distribution, step_distribution,
                           thresholds)
from karma_routing import mesoscopic
from karma_routing.mesoscopic import DiagonalMatrix, save_distribution_csv

from conftest import examples, same_bits
from day_rule import integer_histogram
from oracles import (ARC1, AgentState, dense_transition_matrix as dense,
                     plan_oracle, stationary_distribution_dense)

EXP = SensitivitySpec()


def columns(a, n):
    """The matrix `a` as a dense array, one product with a unit vector per
    column."""
    return np.column_stack([a @ e for e in np.eye(n)])


def with_poor_edge(ch, edge: int):
    """``ch`` with cells [0, edge) poor, as for an agent type whose k_ref is
    below T*r2: chill 1 there and A rebuilt from the new rule, as
    `build_chain` writes it."""
    chill = ch.chill_prob.copy()
    chill[:edge] = 1.0
    data = np.stack([ch.p_go * chill, np.full(chill.size, ch.p_home),
                     ch.p_go * (1.0 - chill)])
    return replace(ch, chill_prob=chill, a=DiagonalMatrix(data, ch.a.offsets))


class TestBuildChain:
    def test_dimension_and_bands(self):
        # widths p1, (T-1)(p1+r2), p1+r2 and r2, whichever price is larger
        for p, n, want in [(PriceVector(2, 3), 20, [2, 10, 5, 3]),
                           (PriceVector(5, 3), 32, [5, 16, 8, 3])]:
            ch = build_chain(p, 3, 0.05, EXP)
            assert ch.n_states == n
            widths = np.diff(mesoscopic._band_edges(p, 3)).tolist()
            assert widths == want

    def test_columns_sum_to_one(self):
        for p, t, ph in [(PriceVector(2, 3), 3, 0.05),
                         (PriceVector(10, 14), 6, 0.05),
                         (PriceVector(10, 13), 6, 0.0),
                         (PriceVector(1, 1), 1, 0.5)]:
            ch = build_chain(p, t, ph, EXP)
            assert np.abs(dense(ch).sum(axis=0) - 1.0).max() <= 1e-12
            assert np.abs(ch.a.sum(axis=0) - 1.0).max() <= 1e-12

    @settings(max_examples=examples(40), deadline=None)
    @given(p1=st.integers(1, 16), r2=st.integers(1, 16), t=st.integers(1, 8),
           ph=st.floats(0.0, 1.0, exclude_max=True))
    def test_columns_sum_to_one_random(self, p1, r2, t, ph):
        ch = build_chain(PriceVector(p1, r2), t, ph, EXP)
        assert np.abs(dense(ch).sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(ch.a.sum(axis=0) - 1.0).max() <= 1e-12

    def test_band_edges_match_agent_thresholds(self):
        # the agent rule is the oracle of the bands: its breakpoints on the
        # reference level T*r2, including T = 1 (empty ok band), p1 = r2 and
        # p1 > r2
        for p1 in range(1, 31):
            for r2 in range(1, 31):
                p = PriceVector(p1, r2)
                for t in range(1, 13):
                    th = thresholds(t * p.r2, p, t)
                    want = [0, int(th.k_poor), int(th.k_rich),
                            int(th.k_wealthy), (t + 1) * p.total]
                    edges = mesoscopic._band_edges(p, t)
                    assert edges == want, (p, t)
                    assert all(type(e) is int for e in edges)
        _, ok, rich, _, _ = mesoscopic._band_edges(PriceVector(5, 5), 1)
        assert ok == rich == 5

    def test_diagonals_match_stacked_form(self):
        # bit for bit against the three rows stacked from temporaries
        rng = np.random.default_rng(7)
        sens = [EXP, SensitivitySpec("uniform", 0.5, 2.5)]
        for _ in range(40):
            p = PriceVector(int(rng.integers(1, 25)), int(rng.integers(1, 49)))
            t = int(rng.integers(1, 13))
            spec = sens[rng.integers(len(sens))]
            for ph in (0.0, 0.05, 0.2):
                ch = build_chain(p, t, ph, spec)
                chill, n, p_go = ch.chill_prob, ch.n_states, 1.0 - ph
                assert ch.a.data.shape == (3, n)
                assert np.array_equal(ch.a.data[0], p_go * chill)
                assert np.array_equal(ch.a.data[1], np.full(n, ph))
                assert np.array_equal(ch.a.data[2], p_go * (1.0 - chill))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_chain(PriceVector(2, 3), 0, 0.05, EXP)
        with pytest.raises(ValueError):
            build_chain(PriceVector(2, 3), 3, 1.5, EXP)
        for horizon in (2.5, 3.0):
            with pytest.raises(ValueError, match="horizon"):
                build_chain(PriceVector(2, 3), horizon, 0.05, EXP)
        with pytest.raises(ValueError, match="horizon"):
            build_chain(PriceVector(2, 3), True, 0.05, EXP)
        assert build_chain(PriceVector(2, 3), np.int64(3), 0.05, EXP).n_states == 20

    @pytest.mark.parametrize("p", [(2, 3), (10, 14), (78, 78)])
    @pytest.mark.parametrize("t", [1, 3, 6])
    @pytest.mark.parametrize("ph", [0.0, 0.05])
    def test_matrices_match_loop_construction(self, p, t, ph):
        ch = build_chain(PriceVector(*p), t, ph, EXP)
        n = ch.n_states
        a = dense(ch)
        assert np.array_equal(columns(ch.a, n), a)

        # each row's nonzero terms added from 0.0 in column order, bit for bit
        rows, cols = np.nonzero(a)
        v = np.random.default_rng(0).random(n)
        v /= v.sum()
        out = np.zeros(n)
        for r, c in zip(rows, cols):
            out[r] += a[r, c] * v[c]
        assert np.array_equal(ch.a @ v, out)

        # the route shares are the masses the two moves carry: down by p1
        # above the diagonal, up by r2 below it
        expect = np.array([(np.triu(a, 1) @ v).sum(), (np.tril(a, -1) @ v).sum()])
        assert np.abs(equilibrium_flows(ch, v) - expect).max() <= 1e-15


class TestDiagonalMatrix:
    def test_sums_columns_only(self):
        m = build_chain(PriceVector(2, 3), 3, 0.05, EXP).a
        for axis in (1, -1, None):
            with pytest.raises(ValueError, match="axis"):
                m.sum(axis=axis)


def selected_chill(p, horizon, sens):
    """P(slow | travel) per cell with the threshold selected per cell: 1 (the
    mean) below k_rich and the decaying threshold from there, then the poor
    and wealthy bands forced."""
    th = thresholds(horizon * p.r2, p, horizon)
    cell = np.arange((horizon + 1) * p.total)
    decaying = (th.k_wealthy - cell) / p.total
    chill = sens.cdf(np.where(cell < th.k_rich, 1.0, decaying))
    chill[cell < th.k_poor] = 1.0
    chill[cell >= th.k_wealthy] = 0.0
    return chill


@pytest.mark.parametrize("sens", [SensitivitySpec(),
                                  SensitivitySpec("uniform", 0.5, 2.5)],
                         ids=["exp1", "uni"])
def test_chill_prob_band_by_band_matches_selection(sens):
    # bit for bit, on every price pair up to 20 and T up to 8; the
    # chain's theta is exact on the poor, ok and wealthy bands, and its CDF
    # is the chain's chill_prob
    checked = 0
    for p1 in range(1, 21):
        for r2 in range(1, 21):
            p = PriceVector(p1, r2)
            for t in range(1, 9):
                ch = build_chain(p, t, 0.05, sens)
                got = ch.chill_prob
                assert got.tobytes() == selected_chill(p, t, sens).tobytes()
                theta = ch.theta
                _, ok, rich, wealthy, _ = mesoscopic._band_edges(p, t)
                assert np.all(theta[:ok] == np.inf)
                assert np.all(theta[ok:rich] == 1.0)
                assert np.all(theta[wealthy:] == -np.inf)
                assert sens.cdf(theta).tobytes() == got.tobytes()
                checked += 1
    assert checked == 400 * 8


def oracle_switch(karma, p, horizon, s_bar, hi, steps=36):
    """Sensitivity at which `plan_oracle` sends karma ``karma`` (with
    k_ref = T*r2) from the slow to the fast route under d = (1, 2), by
    bisection on [0, hi]; inf if it stays slow up to hi."""
    def fast(s):
        state = AgentState(float(karma), float(horizon * p.r2), s)
        return plan_oracle(state, (1.0, 2.0), p, horizon, s_bar).choice == ARC1

    if not fast(hi):
        return np.inf
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if fast(mid) else (mid, hi)
    return hi


class TestChainMatchesOracle:
    # the oracle weighs s against a mean of `scale`; the chain reads s in
    # units of the mean, so its switch is the oracle's over the scale.
    # uniform(0.5, 2.5) has the mean 1.5 in the unit of its bounds
    @pytest.mark.parametrize("sens, scale",
                             [(SensitivitySpec(), 1.0),
                              (SensitivitySpec(), 1.7),
                              (SensitivitySpec("uniform", 0.5, 2.5), 1.5)],
                             ids=["exp1", "exp1.7", "uni"])
    @pytest.mark.parametrize("p, t", [(PriceVector(2, 3), 3),
                                      (PriceVector(10, 14), 6),
                                      (PriceVector(1, 1), 1),
                                      (PriceVector(3, 7), 4),
                                      (PriceVector(3, 2), 3),
                                      (PriceVector(14, 7), 6)],
                             ids=["2-3-T3", "10-14-T6", "1-1-T1", "3-7-T4",
                                  "3-2-T3", "14-7-T6"])
    def test_chill_prob_is_cdf_of_oracle_switch(self, sens, scale, p, t):
        # cell i of the chain holds karma i on the reference level T*r2
        ch = build_chain(p, t, 0.05, sens)
        hi = 4.0 * scale  # above every threshold of the rule
        switch = np.array([oracle_switch(i, p, t, scale, hi)
                           for i in range(ch.n_states)]) / scale
        assert np.abs(ch.chill_prob - sens.cdf(switch)).max() <= 1e-9
        # the rich band's theta is the oracle's switch itself
        _, _, rich, wealthy, _ = mesoscopic._band_edges(p, t)
        assert np.abs(ch.theta[rich:wealthy]
                      - switch[rich:wealthy]).max() <= 1e-9


@pytest.mark.parametrize("p, t", [(PriceVector(14, 10), 6),
                                  (PriceVector(7, 5), 3)],
                         ids=["14-10-T6", "7-5-T3"])
def test_day_loop_histogram_matches_chain_with_toll_above_reward(p, t):
    # acceptance 10's set-up with p1 > r2: constant discomforts keep the fast
    # route cheaper at any flow, so the integer day loop is the chain's
    # microscopic counterpart; at (14, 10), T = 6 (N = 168) the sampling
    # noise of 10^4 agents alone is near 0.05 TV, so the bound is the 99th
    # percentile of the TV of 400 i.i.d. multinomial histograms drawn from pi
    m, k_ref = 10_000, 60.0
    assert k_ref >= t * p.r2
    pe = stationary_distribution(build_chain(p, t, 0.05, EXP))
    draws = np.random.default_rng(0).multinomial(m, pe, size=400) / m
    iid_p99 = np.percentile(0.5 * np.abs(draws - pe).sum(axis=1), 99)
    for seed in (7, 8, 9):
        sc = Scenario(p_home=0.05, horizon=t, n_agents=m, sensitivity=EXP,
                      seed=seed,
                      k_init=(k_ref - t * p.r2, k_ref + (t + 1) * p.p1 + p.r2),
                      k_ref_init=(k_ref, k_ref))
        hist = integer_histogram(sc, ArcCostModel(alpha=0.0), p, 300)
        hist = hist / hist.sum()
        tv = 0.5 * np.abs(hist - pe).sum()
        assert tv <= iid_p99, (seed, tv, iid_p99)


class TestStepDistribution:
    def test_mass_preserved(self):
        ch = build_chain(PriceVector(2, 3), 3, 0.05, EXP)
        rng = np.random.default_rng(0)
        dist = rng.random(ch.n_states)
        dist /= dist.sum()
        out = step_distribution(ch, dist)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0)

    def test_top_cell_forced_payment(self):
        # with everyone traveling, mass at the very top can only pay the toll
        ch = build_chain(PriceVector(2, 3), 3, 0.0, EXP)
        dist = np.zeros(ch.n_states)
        dist[-1] = 1.0
        out = step_distribution(ch, dist)
        expect = np.zeros(ch.n_states)
        expect[-1 - ch.prices.p1] = 1.0
        assert np.allclose(out, expect)

    def test_stationary_point_is_fixed(self):
        ch = build_chain(PriceVector(2, 3), 3, 0.05, EXP)
        pe = stationary_distribution(ch)
        assert np.abs(step_distribution(ch, pe) - pe).sum() <= 1e-12

    def test_rejects_bad_distribution(self):
        ch = build_chain(PriceVector(2, 3), 3, 0.05, EXP)
        with pytest.raises(ValueError):
            step_distribution(ch, np.ones(ch.n_states))
        with pytest.raises(ValueError):
            step_distribution(ch, np.ones(3) / 3)

    @pytest.mark.parametrize("call", ["step", "flows", "csv"])
    def test_rejects_nan(self, call, tmp_path):
        # NaN compares False both ways, so each check must be written to fail
        # it; equilibrium_flows and save_distribution_csv share the check
        ch = build_chain(PriceVector(2, 3), 3, 0.05, EXP)
        dist = np.full(ch.n_states, 1 / ch.n_states)
        dist[4] = np.nan
        path = tmp_path / "pe.csv"
        calls = {"step": lambda: step_distribution(ch, dist),
                 "flows": lambda: equilibrium_flows(ch, dist),
                 "csv": lambda: save_distribution_csv(ch, dist, path)}
        with pytest.raises(ValueError, match="NaN"):
            calls[call]()
        assert not path.exists()


class TestStationary:
    def test_tiny_chain_against_dense_eigensolve(self):
        ch = build_chain(PriceVector(1, 1), 1, 0.5, EXP)
        assert ch.n_states == 4
        pe = stationary_distribution(ch)
        w, v = np.linalg.eig(dense(ch))
        lead = np.argmin(np.abs(w - 1.0))
        ref = np.real(v[:, lead])
        ref = ref / ref.sum()
        assert np.allclose(pe, ref, atol=1e-10)

    def test_matches_dense_solver(self):
        for p, t in [(PriceVector(2, 3), 3), (PriceVector(10, 13), 6)]:
            ch = build_chain(p, t, 0.05, EXP)
            a = stationary_distribution(ch)
            b = stationary_distribution_dense(ch)
            assert np.abs(a - b).max() <= 1e-9

    @pytest.mark.parametrize("sens", [SensitivitySpec(),
                                      SensitivitySpec("uniform", 0.5, 2.5)],
                             ids=["exp1", "unif0.5-2.5"])
    @pytest.mark.parametrize("t", [1, 3, 6], ids="T{}".format)
    @pytest.mark.parametrize("p", [(1, 1), (2, 3), (3, 7), (10, 13), (7, 19)],
                             ids="{0[0]}:{0[1]}".format)
    def test_everyone_traveling_matches_dense(self, p, t, sens):
        # at p_home = 0 the chain can be periodic; the start vector gives
        # every residue class mass 1/q, so it has no periodic component
        ch = build_chain(PriceVector(*p), t, 0.0, sens)
        pe = stationary_distribution(ch)
        assert np.abs(pe - stationary_distribution_dense(ch)).sum() <= 1e-10

    @pytest.mark.parametrize("p", [(2, 4), (6, 9), (10, 10)],
                             ids="{0[0]}:{0[1]}".format)
    def test_sublattices_share_mass_equally(self, p):
        # gcd(p1, r2) = g > 1: the fixed point is not unique; the selection
        # rule gives each of the g closed sublattices mass 1/g
        price = PriceVector(*p)
        g = np.gcd(price.p1, price.r2)
        for ph in (0.0, 0.05):
            pe = stationary_distribution(build_chain(price, 6, ph, EXP))
            for j in range(g):
                assert pe[j::g].sum() == pytest.approx(1 / g, abs=1e-12)

    def test_fixed_point_independent_of_p_home(self):
        p = PriceVector(10, 13)
        a = stationary_distribution(build_chain(p, 6, 0.0, EXP))
        b = stationary_distribution(build_chain(p, 6, 0.3, EXP))
        assert np.abs(a - b).sum() <= 1e-9

    @pytest.mark.parametrize("p, t, ph", [((199, 200), 12, 0.05),
                                          ((78, 78), 6, 0.05),
                                          ((10, 14), 6, 0.0),
                                          ((593, 832), 6, 0.05)],
                             ids=["199:200-T12", "78:78-T6", "10:14-T6-periodic",
                                  "593:832-T6"])
    def test_start_is_the_fixed_point(self, p, t, ph, monkeypatch):
        # the class-cycle solve is certified by its one step at 1e-14, and
        # the returned vector is as close to fixed
        monkeypatch.setattr(mesoscopic, "CERTIFY_TOL", 1e-14)
        price = PriceVector(*p)
        ch = build_chain(price, t, ph, EXP)
        pe = stationary_distribution(ch)
        assert np.abs(ch.a @ pe - pe).sum() <= 1e-14
        g = np.gcd(price.p1, price.r2)
        for j in range(g):
            assert pe[j::g].sum() == pytest.approx(1 / g, abs=1e-12)

    @settings(max_examples=examples(12), deadline=None)
    # p1 = r2 takes the closed form, every other pair the product tree
    @given(p=st.lists(st.integers(1, 40), min_size=2, max_size=2),
           t=st.integers(1, 8), ph=st.sampled_from([0.0, 0.05, 0.5]),
           sens=st.sampled_from([EXP, SensitivitySpec("uniform", 0.5, 2.5)]))
    # cycle lengths L = 7, 15, 31 carry a node up from the bottom level,
    # and L = 17, 33 carry one up through every level but the last pair
    # (the level below the top always holds two nodes)
    @example(p=[3, 4], t=3, ph=0.05, sens=EXP)
    @example(p=[7, 8], t=2, ph=0.05, sens=EXP)
    @example(p=[15, 16], t=4, ph=0.05, sens=EXP)
    @example(p=[8, 9], t=3, ph=0.05, sens=EXP)
    @example(p=[16, 17], t=2, ph=0.05, sens=EXP)
    @example(p=[5, 5], t=8, ph=0.5, sens=SensitivitySpec("uniform", 0.5, 2.5))
    def test_product_tree_matches_dense(self, p, t, ph, sens):
        price = PriceVector(*p)
        ch = build_chain(price, t, ph, sens)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesoscopic, "CERTIFY_TOL", 1e-14)
            pe = stationary_distribution(ch)
        assert np.abs(pe - stationary_distribution_dense(ch)).sum() <= 1e-10
        by_class = pe.reshape(t + 1, price.total).sum(axis=0)
        assert np.abs(by_class - 1 / price.total).max() <= 1e-12

    @pytest.mark.parametrize("sens", [EXP,
                                      SensitivitySpec("uniform", 0.5, 2.5)],
                             ids=["exp1", "unif0.5-2.5"])
    @pytest.mark.parametrize("ph", [0.0, 0.05])
    @pytest.mark.parametrize("p, t", [(1, 6), (10, 6), (25, 6), (12, 12)],
                             ids=["1:1-T6", "10:10-T6", "25:25-T6", "12:12-T12"])
    def test_closed_form_matches_dense(self, p, t, ph, sens):
        # p1 = r2 = p: each of the p sublattices is a birth-death chain,
        # solved by detailed balance instead of the product tree
        ch = build_chain(PriceVector(p, p), t, ph, sens)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesoscopic, "CERTIFY_TOL", 1e-14)
            pe = stationary_distribution(ch)
        assert np.abs(pe - stationary_distribution_dense(ch)).sum() <= 1e-10
        for j in range(p):
            assert abs(pe[j::p].sum() - 1 / p) <= 1e-12
        tree = mesoscopic._product_tree_levels(ch)
        tree = (tree / (2 * p * tree.sum(axis=0))).ravel()
        assert np.abs(mesoscopic._cycle_fixed_point(ch) - tree).sum() <= 1e-14
        # a uniform law leaves the top rich cells of a fine lattice no
        # chance of the slow route, so the cells above them hold no mass
        assert (pe == 0).any() == (sens.kind == "uniform" and p > 1)

    def test_closed_form_long_horizon(self):
        # the detailed-balance product grows like (e - 1)^(2T) under EXP and
        # would overflow a float near T = 657 if it were not taken in logs
        ch = build_chain(PriceVector(1, 1), 700, 0.05, EXP)
        pe = stationary_distribution(ch)
        tree = mesoscopic._product_tree_levels(ch)
        tree = (tree / (2 * tree.sum(axis=0))).ravel()
        assert np.abs(pe - tree).sum() <= 1e-12

    @pytest.mark.parametrize("sens", [EXP,
                                      SensitivitySpec("uniform", 0.5, 2.5)],
                             ids=["exp1", "unif0.5-2.5"])
    @pytest.mark.parametrize("t", [1, 6])
    @pytest.mark.parametrize("edge", ["p1", "2p1", "3p1+2"])
    @pytest.mark.parametrize("p", [(5, 5), (5, 7)], ids="{0[0]}:{0[1]}".format)
    def test_poor_edge_above_p1(self, p, edge, t, sens):
        # rows above the first that never pay give the closed form (5:5) a
        # step of log(1/0); the product tree (5:7) is the control.  A poor
        # edge in the top r2 cells moves mass off the lattice, for the
        # library and the oracle alike
        p1, r2 = p
        e = {"p1": p1, "2p1": 2 * p1, "3p1+2": 3 * p1 + 2}[edge]
        ch = with_poor_edge(build_chain(PriceVector(p1, r2), t, 0.05, sens), e)
        if e > ch.n_states - r2:
            for solve in (stationary_distribution,
                          stationary_distribution_dense):
                with pytest.raises(ValueError, match="lattice"):
                    solve(ch)
            return
        pe = stationary_distribution(ch)
        assert np.abs(pe - stationary_distribution_dense(ch)).sum() <= 1e-12
        by_class = pe.reshape(t + 1, p1 + r2).sum(axis=0)
        assert np.abs(by_class - 1 / (p1 + r2)).max() <= 1e-12
        if p1 == r2:
            # no mass below the last row that never pays
            assert not pe[:e - p1].any()

    @pytest.mark.parametrize("p", [(10, 14), (10, 10)],
                             ids="{0[0]}:{0[1]}".format)
    @pytest.mark.parametrize("nan_in", ["a", "chill_prob"])
    def test_nan_is_not_certified(self, p, nan_in):
        # NaN in A or in the chain's rule must fail the certification
        ch = build_chain(PriceVector(*p), 6, 0.05, EXP)
        if nan_in == "a":
            bad = replace(ch, a=replace(ch.a, data=ch.a.data * np.nan))
        else:
            chill = ch.chill_prob.copy()
            chill[ch.n_states // 2] = np.nan
            bad = replace(ch, chill_prob=chill)
        with pytest.raises(ConvergenceError, match="moves it by nan"):
            stationary_distribution(bad)

    def test_nonconvergence_budget(self):
        # a matrix that loses half the mass each step has no fixed point the
        # certifying step accepts; the error names the residual it left
        ch = build_chain(PriceVector(10, 14), 6, 0.05, EXP)
        with pytest.raises(ConvergenceError, match="above 1e-12") as err:
            stationary_distribution(
                replace(ch, a=replace(ch.a, data=0.5 * ch.a.data)))
        residual = re.search(r"moves it by (\S+) in L1", str(err.value))
        assert float(residual.group(1)) == pytest.approx(0.5)

    def test_rejects_mass_leaving_the_lattice(self):
        # any of the top r2 cells that could still earn r2, or of the bottom
        # p1 cells that could still pay p1, would step off the lattice; on
        # the product tree (2, 3) and (3, 2) and on the closed form (3, 3)
        for p1, r2 in [(2, 3), (3, 2), (3, 3)]:
            ch = build_chain(PriceVector(p1, r2), 3, 0.05, EXP)
            top = [(cell, 0.25) for cell in range(-r2, 0)]
            for cell, value in top + [(cell, 0.75) for cell in range(p1)]:
                chill = ch.chill_prob.copy()
                chill[cell] = value
                leaky = replace(ch, chill_prob=chill)
                with pytest.raises(ValueError, match="lattice"):
                    stationary_distribution(leaky)

    def test_geometric_decay_towards_equilibrium(self):
        # second eigenvalue strictly inside the unit circle when p_home > 0
        ch = build_chain(PriceVector(10, 13), 6, 0.05, EXP)
        moduli = np.sort(np.abs(np.linalg.eigvals(dense(ch))))
        assert moduli[-1] == pytest.approx(1.0, abs=1e-9)
        assert moduli[-2] < 1.0 - 1e-6
        pe = stationary_distribution(ch)
        rng = np.random.default_rng(5)
        for _ in range(10):
            dist = rng.random(ch.n_states)
            dist /= dist.sum()
            gaps = []
            for _ in range(3000):
                dist = ch.a @ dist
                gaps.append(np.abs(dist - pe).sum())
            assert gaps[-1] < 1e-3 * gaps[0]
            assert gaps[-1] <= gaps[len(gaps) // 2] <= gaps[0]

    def test_long_run_shape(self):
        # interior bulk with decaying tails at the band edges
        p = PriceVector(10, 14)
        ch = build_chain(p, 6, 0.05, EXP)
        pe = stationary_distribution(ch)
        _, ok, rich, wealthy, _ = mesoscopic._band_edges(p, 6)
        assert pe[ok:rich].sum() + pe[rich:wealthy].sum() > 0.7
        assert pe[:3].sum() < 0.01 and pe[-3:].sum() < 0.05
        assert pe.max() < 0.2


class TestEquilibriumFlows:
    def test_flow_ratio_and_conservation(self):
        for p, t, ph in [(PriceVector(10, 14), 6, 0.05),
                         (PriceVector(3, 7), 4, 0.2),
                         (PriceVector(10, 10), 6, 0.05)]:
            ch = build_chain(p, t, ph, EXP)
            pe = stationary_distribution(ch)
            x = equilibrium_flows(ch, pe)
            assert x.sum() == pytest.approx(1 - ph, abs=1e-12)
            assert x[0] / x[1] == pytest.approx(p.r2 / p.p1, abs=1e-9)
            assert abs(p.p1 * x[0] - p.r2 * x[1]) <= 1e-9 * (1 - ph)


class TestQuantize:
    def test_bottom_and_top_cells(self):
        p = PriceVector(10, 14)
        t = 6
        n = (t + 1) * p.total
        k_ref = 200.0
        hist, clamped = quantize_population([k_ref - t * p.r2], [k_ref], p, t)
        assert clamped == 0
        assert hist[0] == 1.0
        top = k_ref + (t + 1) * p.p1 + p.r2 - 1
        hist, clamped = quantize_population([top], [k_ref], p, t)
        assert clamped == 0
        assert hist[n - 1] == 1.0

    def test_point_mass(self):
        hist, clamped = quantize_population(np.full(50, 27.0),
                                            np.full(50, 20.0),
                                            PriceVector(2, 3), 3)
        assert clamped == 0
        assert hist.max() == 1.0
        assert hist.sum() == pytest.approx(1.0)

    def test_out_of_band_clamping(self):
        p = PriceVector(2, 3)
        hist, clamped = quantize_population([0.0, 1000.0], [500.0, 0.0], p, 3)
        assert clamped == 2
        assert hist[0] == 0.5 and hist[-1] == 0.5

    def test_karma_off_the_chain(self):
        # +inf and 1e300 lie above the top cell, -inf below the bottom one;
        # check_floor lets infinite karma through, so a day loop can reach
        # this
        p, t = PriceVector(10, 14), 6
        k_ref = np.full(5, 200.0)
        k = np.array([np.inf, 1e300, -np.inf, 200.0, 1e300])
        hist, clamped = quantize_population(k, k_ref, p, t)
        assert clamped == 4
        assert hist.tolist() == [0.2] + [0.0] * (t * p.r2 - 1) + [0.2] \
            + [0.0] * ((t + 1) * p.total - t * p.r2 - 2) + [0.6]

    def test_nan_deviation_rejected(self):
        p = PriceVector(10, 14)
        k_ref = [100.0, 100.0, 100.0, np.nan]
        with pytest.raises(ValueError, match="agent 2 has a NaN"):
            quantize_population([1e300, -np.inf, np.nan, 100.0], k_ref, p, 6)
        with pytest.raises(ValueError, match="agent 3 has a NaN"):
            quantize_population([100.0] * 4, k_ref, p, 6)
        # inf - inf is NaN too; numpy warns on the subtraction itself
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="agent 0 has a NaN"):
            quantize_population([np.inf], [np.inf], p, 6)

    @pytest.mark.parametrize("k, k_ref, horizon, match", [
        ([100.0], [100.0], 0, "horizon must be an integer >= 1, got 0"),
        ([100.0], [100.0], True, "horizon .* got True"),
        ([100.0], [100.0], -1, "horizon .* got -1"),
        ([100.0], [100.0], 1.5, "horizon .* got 1.5"),
        ([], [], 3, "population is empty"),
        (np.empty(0), np.empty(0), 3, "population is empty"),
        ([100.0, 200.0, 300.0], [50.0], 3,
         r"k has shape \(3,\) but k_ref has shape \(1,\)"),
        ([100.0], [50.0, 60.0, 70.0], 3,
         r"k has shape \(1,\) but k_ref has shape \(3,\)"),
        (np.full((2, 2), 100.0), [50.0, 60.0], 3,
         r"k has shape \(2, 2\) but k_ref has shape \(2,\)"),
    ], ids=["zero", "bool", "negative", "float", "list", "array",
            "more-k", "more-k_ref", "2d-k"])
    def test_bad_horizon_or_empty_population_rejected(self, k, k_ref,
                                                      horizon, match):
        # horizon 0 used to give a 5-cell histogram and True one of
        # horizon 1; -1 and 1.5 failed inside numpy, and no agents gave a
        # NaN histogram; mismatched shapes used to broadcast, so one
        # balance counted as three agents and a (2, 2) k as four
        with pytest.raises(ValueError, match=match):
            quantize_population(k, k_ref, PriceVector(2, 3), horizon)

    @given(dev=st.integers(-9, 10))
    def test_cell_index_map(self, dev):
        # i = (k - k_ref) + T*r2 with integer deviations, 0-based; two
        # scalars are a one-agent population
        p = PriceVector(2, 3)
        cell = np.eye((3 + 1) * p.total)[dev + 9]
        for k, k_ref in ((100.0 + dev, 100.0), ([100.0 + dev], [100.0])):
            hist, clamped = quantize_population(k, k_ref, p, 3)
            assert clamped == 0 and hist.tolist() == cell.tolist()


class TestDumps:
    def test_matrix_and_distribution_files(self, tmp_path):
        # the file states the rule: bands of widths p1, (T-1)(p1+r2), p1+r2
        # and r2, theta, P and a p_slow that rebuilds A, all bit for bit
        ch = build_chain(PriceVector(2, 3), 3, 0.05, EXP)
        pe = stationary_distribution(ch)
        path = tmp_path / "pe.csv"
        save_distribution_csv(ch, pe, path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert ",".join(rows[0]) == (
            "index,karma_deviation,probability,band,theta,p_slow")
        assert [r["band"] for r in rows] == (
            ["poor"] * 2 + ["ok"] * 10 + ["rich"] * 5 + ["wealthy"] * 3)
        theta, probs, chill = (np.array([float(r[key]) for r in rows])
                               for key in ("theta", "probability", "p_slow"))
        assert same_bits(theta, ch.theta) and same_bits(probs, pe)
        assert same_bits(dense(replace(ch, chill_prob=chill)), dense(ch))


def test_sensitivity_cdf_edges():
    assert EXP.cdf(0.0) == 0.0
    assert EXP.cdf(-1.0) == 0.0
    assert EXP.cdf(1.0) == pytest.approx(1 - np.exp(-1))
    uni = SensitivitySpec("uniform", 0.0, 2.0)
    assert uni.cdf(0.0) == 0.0
    assert uni.cdf(1.0) == 0.5
    assert uni.cdf(5.0) == 1.0
    # in units of the mean: uniform(0.5, 2.5) has the mean 1.5
    uni = SensitivitySpec("uniform", 0.5, 2.5)
    assert uni.cdf(1.0) == 0.5
    assert uni.cdf(1 / 3) == 0.0 and uni.cdf(2.0) == 1.0


@pytest.mark.parametrize("n", [0, 1, 7, 10_000])
@pytest.mark.parametrize("sens, scale",
                         [(SensitivitySpec(), 1.0),
                          (SensitivitySpec(), 1.3),
                          (SensitivitySpec(), 0.7),
                          (SensitivitySpec("uniform", 0.5, 2.5), 1.5)],
                         ids=["exp1.0", "exp1.3", "exp0.7", "uni0.5-2.5"])
def test_sensitivity_sample_stream(sens, scale, n):
    # the draws are numpy's own stream in units of the mean, bit for bit,
    # and leave the generator where numpy's leave it: exponential(c, n) is
    # c times the unit draws, value for value, so a population of mean c
    # loses nothing when drawn in units of its mean; uniform(low, high, n)
    # is divided by its mean 1.5
    for seed in (0, 12345):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = sens.sample(rng, n)
        if sens.kind == "exponential":
            got, expect = scale * draws, ref.exponential(scale, n)
        else:
            got, expect = draws, ref.uniform(sens.low, sens.high, n) / scale
        assert draws.dtype == np.float64 and draws.shape == (n,)
        assert got.tobytes() == expect.tobytes()
        assert rng.random() == ref.random()
