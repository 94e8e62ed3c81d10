from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from karma_routing import (ARC1, AgentState, ConvergenceError, PriceVector,
                           SensitivitySpec, build_chain, equilibrium_flows,
                           karma_cell, plan_oracle, quantize_population,
                           stationary_distribution,
                           stationary_distribution_dense, step_distribution)
from karma_routing.mesoscopic import save_distribution_csv, save_matrix_coo

EXP = SensitivitySpec.exponential(1.0)


def dense(chain):
    return chain.a.toarray()


class TestBuildChain:
    def test_dimension_and_bands(self):
        ch = build_chain(PriceVector(2, 3), 3, 0.05, EXP)
        assert ch.n_states == 20
        bands = ch.band_slices()
        widths = [bands[b].stop - bands[b].start
                  for b in ("poor", "ok", "rich", "wealthy")]
        assert widths == [2, 10, 5, 3]

    def test_sparsity_pattern(self):
        # mass moves only up by r2 (slow) or down by p1 (fast)
        ch = build_chain(PriceVector(2, 3), 3, 0.0, EXP)
        chill = ch.a_chill.tocoo()
        assert np.all(chill.row - chill.col == ch.prices.r2)
        rush = ch.a_rush.tocoo()
        assert np.all(rush.row - rush.col == -ch.prices.p1)

    def test_entry_values_by_band(self):
        p = PriceVector(2, 3)
        t = 3
        ch = build_chain(p, t, 0.0, EXP)
        f_mean = EXP.cdf(1.0)  # probability of a below-mean sensitivity draw
        bands = ch.band_slices()
        assert np.all(ch.chill_prob[bands["poor"]] == 1.0)
        assert np.all(ch.rush_prob[bands["poor"]] == 0.0)
        assert np.allclose(ch.chill_prob[bands["ok"]], f_mean)
        assert np.all(ch.chill_prob[bands["wealthy"]] == 0.0)
        # rich band: threshold decays linearly from s_bar to 0 toward the top
        rich = np.arange(bands["rich"].start, bands["rich"].stop)
        gap = t * p.total + p.p1 - rich  # karma distance to the wealthy line
        assert np.allclose(ch.chill_prob[rich], EXP.cdf(gap / p.total))
        assert ch.chill_prob[bands["rich"]][0] == pytest.approx(f_mean)

    def test_columns_sum_to_one(self):
        for p, t, ph in [(PriceVector(2, 3), 3, 0.05),
                         (PriceVector(10, 14), 6, 0.05),
                         (PriceVector(10, 13), 6, 0.0),
                         (PriceVector(1, 1), 1, 0.5)]:
            ch = build_chain(p, t, ph, EXP)
            assert np.abs(dense(ch).sum(axis=0) - 1.0).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(p1=st.integers(1, 8), extra=st.integers(0, 8), t=st.integers(1, 8),
           ph=st.floats(0.0, 1.0))
    def test_columns_sum_to_one_random(self, p1, extra, t, ph):
        ch = build_chain(PriceVector(p1, p1 + extra), t, ph, EXP)
        assert np.abs(dense(ch).sum(axis=0) - 1.0).max() <= 1e-12

    def test_everyone_home_is_identity(self):
        ch = build_chain(PriceVector(2, 3), 3, 1.0, EXP)
        assert np.allclose(dense(ch), np.eye(ch.n_states))

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            build_chain(PriceVector(5, 3), 3, 0.05, EXP)
        with pytest.raises(ValueError):
            build_chain(PriceVector(2, 3), 0, 0.05, EXP)
        with pytest.raises(ValueError):
            build_chain(PriceVector(2, 3), 3, 1.5, EXP)
        for horizon in (2.5, 3.0):
            with pytest.raises(ValueError, match="horizon"):
                build_chain(PriceVector(2, 3), horizon, 0.05, EXP)
        assert build_chain(PriceVector(2, 3), np.int64(3), 0.05, EXP).n_states == 20

    @pytest.mark.parametrize("p", [(2, 3), (10, 14), (78, 78)])
    @pytest.mark.parametrize("t", [1, 6])
    @pytest.mark.parametrize("ph", [0.0, 0.05])
    def test_matrices_match_loop_construction(self, p, t, ph, tmp_path):
        ch = build_chain(PriceVector(*p), t, ph, EXP)
        p1, r2 = p
        n = ch.n_states
        chill = np.zeros((n, n))
        rush = np.zeros((n, n))
        a = np.zeros((n, n))
        for j in range(n):
            a[j, j] = ph
            if ch.chill_prob[j] > 0.0:
                chill[j + r2, j] = ch.chill_prob[j]
                a[j + r2, j] = (1.0 - ph) * ch.chill_prob[j]
            if ch.rush_prob[j] > 0.0:
                rush[j - p1, j] = ch.rush_prob[j]
                a[j - p1, j] = (1.0 - ph) * ch.rush_prob[j]
        assert np.array_equal(ch.a_chill.toarray(), chill)
        assert np.array_equal(ch.a_rush.toarray(), rush)
        assert np.array_equal(ch.a.toarray(), a)

        # the same products as CSR from the same coordinates, bit for bit
        rows, cols = np.nonzero(a)
        csr = sp.csr_array((a[rows, cols], (rows, cols)), shape=(n, n))
        v = np.random.default_rng(0).random(n)
        v /= v.sum()
        assert np.array_equal(ch.a @ v, csr @ v)

        # one line per positive entry in (row, column) order; at p_home = 0
        # there is no diagonal line although the diagonal is stored
        path = tmp_path / "a.txt"
        save_matrix_coo(ch, path)
        written = [line.split() for line in path.read_text().splitlines()]
        assert [(int(r) - 1, int(c) - 1) for r, c, _ in written] == list(zip(rows, cols))
        assert all(float(val) > 0.0 for _, _, val in written)
        assert any(r == c for r, c, _ in written) == (ph > 0.0)


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
    @pytest.mark.parametrize("sens", [SensitivitySpec.exponential(1.0),
                                      SensitivitySpec.exponential(1.7),
                                      SensitivitySpec.uniform(0.5, 2.5)],
                             ids=["exp1", "exp1.7", "uni"])
    @pytest.mark.parametrize("p, t", [(PriceVector(2, 3), 3),
                                      (PriceVector(10, 14), 6),
                                      (PriceVector(1, 1), 1),
                                      (PriceVector(3, 7), 4)],
                             ids=["2-3-T3", "10-14-T6", "1-1-T1", "3-7-T4"])
    def test_chill_prob_is_cdf_of_oracle_switch(self, sens, p, t):
        # cell i of the chain holds karma i on the reference level T*r2
        ch = build_chain(p, t, 0.05, sens)
        hi = 4.0 * sens.s_bar  # above every threshold of the rule
        expect = [sens.cdf(oracle_switch(i, p, t, sens.s_bar, hi))
                  for i in range(ch.n_states)]
        assert np.abs(ch.chill_prob - np.array(expect)).max() <= 1e-9
        assert np.array_equal(ch.rush_prob, 1.0 - ch.chill_prob)


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

    def test_residual_contract_on_presets(self):
        for p, t, ph in [(PriceVector(10, 14), 6, 0.05),
                         (PriceVector(10, 10), 6, 0.05)]:
            ch = build_chain(p, t, ph, EXP)
            pe = stationary_distribution(ch, tol=1e-12)
            assert np.abs(ch.a @ pe - pe).sum() <= 1e-10

    @pytest.mark.parametrize("sens", [SensitivitySpec.exponential(1.0),
                                      SensitivitySpec.uniform(0.5, 2.5)],
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
                                          ((10, 14), 6, 0.0)],
                             ids=["199:200-T12", "78:78-T6", "10:14-T6-periodic"])
    def test_start_is_the_fixed_point(self, p, t, ph):
        # the class-cycle solve leaves a single polishing step to certify it
        price = PriceVector(*p)
        ch = build_chain(price, t, ph, EXP)
        pe = stationary_distribution(ch, max_iter=2)
        assert np.abs(ch.a @ pe - pe).sum() <= 1e-14
        g = np.gcd(price.p1, price.r2)
        for j in range(g):
            assert pe[j::g].sum() == pytest.approx(1 / g, abs=1e-12)

    def test_nonconvergence_budget(self):
        ch = build_chain(PriceVector(10, 14), 6, 0.05, EXP)
        with pytest.raises(ConvergenceError):
            stationary_distribution(ch, tol=0.0, max_iter=3)

    def test_rejects_everyone_home(self):
        # A = I: every distribution is stationary, so there is none to pick
        ch = build_chain(PriceVector(2, 3), 3, 1.0, EXP)
        with pytest.raises(ValueError, match="p_home"):
            stationary_distribution(ch)

    def test_rejects_mass_leaving_the_lattice(self):
        # a top cell that could still earn r2 would step off the lattice
        ch = build_chain(PriceVector(2, 3), 3, 0.05, EXP)
        chill = ch.chill_prob.copy()
        chill[-1] = 0.25
        leaky = replace(ch, chill_prob=chill, rush_prob=1.0 - chill)
        with pytest.raises(ValueError, match="lattice"):
            stationary_distribution(leaky)

    def test_rejects_negative_or_nan_tol(self):
        ch = build_chain(PriceVector(10, 14), 6, 0.05, EXP)
        for tol in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                stationary_distribution(ch, tol=tol)
        # an exact fixed point is reachable on fig3
        pe = stationary_distribution(ch, tol=0.0)
        assert np.abs(ch.a @ pe - pe).sum() == 0.0

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
        ch = build_chain(PriceVector(10, 14), 6, 0.05, EXP)
        pe = stationary_distribution(ch)
        bands = ch.band_slices()
        assert pe[bands["ok"]].sum() + pe[bands["rich"]].sum() > 0.7
        assert pe[:3].sum() < 0.01 and pe[-3:].sum() < 0.05
        assert pe.max() < 0.2


class TestEquilibriumFlows:
    def test_price_implied_split(self):
        ch = build_chain(PriceVector(10, 14), 6, 0.05, EXP)
        pe = stationary_distribution(ch)
        flows = equilibrium_flows(ch, pe)
        assert flows[0] == pytest.approx(0.95 * 14 / 24, abs=1e-9)
        assert flows[1] == pytest.approx(0.95 * 10 / 24, abs=1e-9)

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

    def test_everyone_home_no_flow(self):
        ch = build_chain(PriceVector(2, 3), 3, 1.0, EXP)
        dist = np.full(ch.n_states, 1 / ch.n_states)
        assert np.allclose(equilibrium_flows(ch, dist), [0.0, 0.0])


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

    @given(dev=st.integers(-9, 10))
    def test_cell_index_map(self, dev):
        # i = (k - k_ref) + T*r2 with integer deviations, 0-based
        p = PriceVector(2, 3)
        assert karma_cell(100.0 + dev, 100.0, p, 3)[()] == dev + 9


class TestDumps:
    def test_matrix_and_distribution_files(self, tmp_path):
        ch = build_chain(PriceVector(2, 3), 3, 0.05, EXP)
        pe = stationary_distribution(ch)
        mpath = tmp_path / "a.txt"
        save_matrix_coo(ch, mpath)
        rows = [line.split() for line in mpath.read_text().splitlines()]
        assert len(rows) == ch.a.nnz
        rebuilt = np.zeros((ch.n_states, ch.n_states))
        for r, c, v in rows:
            rebuilt[int(r) - 1, int(c) - 1] = float(v)
        assert np.allclose(rebuilt, dense(ch))

        dpath = tmp_path / "pe.csv"
        save_distribution_csv(ch, pe, dpath)
        lines = dpath.read_text().splitlines()
        assert lines[0] == "index,karma_deviation,probability"
        assert len(lines) == ch.n_states + 1
        probs = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert np.allclose(probs, pe)


def test_sensitivity_cdf_edges():
    assert EXP.cdf(0.0) == 0.0
    assert EXP.cdf(-1.0) == 0.0
    assert EXP.cdf(1.0) == pytest.approx(1 - np.exp(-1))
    uni = SensitivitySpec.uniform(0.0, 2.0)
    assert uni.cdf(0.0) == 0.0
    assert uni.cdf(1.0) == 0.5
    assert uni.cdf(5.0) == 1.0
    assert uni.s_bar == 1.0
