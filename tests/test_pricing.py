import numpy as np
import pytest

from karma_routing import (DegenerateOptimumError, InfeasibleHorizonError,
                           PriceVector, SensitivitySpec, build_chain,
                           conservation_prices, equilibrium_flows, get_preset,
                           rationalize_prices, stationary_distribution,
                           thresholds)
from karma_routing.pricing import design_prices

from day_rule import fast_routes

BAD_RATIOS = [float("nan"), -1.0, 0.0, float("inf")]


class TestConservationPrices:
    def test_symmetric_flow_gives_unit_ratio(self):
        assert conservation_prices([0.5, 0.5]) == 1.0

    def test_ratio_value(self):
        rho = conservation_prices([0.56, 0.39])
        assert type(rho) is float and rho == pytest.approx(0.39 / 0.56)

    def test_exact_conservation(self):
        # (p1, r2) = (rho, 1) moves no karma at x
        x = np.array([0.61, 0.34])
        rho = conservation_prices(x)
        assert rho * x[0] - x[1] == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_flow_rejected(self):
        with pytest.raises(DegenerateOptimumError):
            conservation_prices([0.95, 0.0])
        with pytest.raises(DegenerateOptimumError):
            conservation_prices([0.0, 0.95])
        # the mask is Python comparisons, so NaN, negatives and -inf fail
        for bad in ([float("nan"), 0.5], [0.5, float("nan")],
                    [float("inf"), 0.5], [-0.5, 0.5], [0.5, -float("inf")],
                    [-0.0, 0.5]):
            with pytest.raises(DegenerateOptimumError):
                conservation_prices(bad)
        for bad in ([0.5], [0.3, 0.3, 0.3], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="x_star must be a pair"):
                conservation_prices(bad)


class TestRationalizePrices:
    def test_reference_scenarios(self):
        assert rationalize_prices(conservation_prices([0.56, 0.39]), 14, 6) \
            == PriceVector(10, 14)
        assert rationalize_prices(conservation_prices([0.57, 0.43]), 13, 6) \
            == PriceVector(10, 13)
        assert rationalize_prices(conservation_prices([0.475, 0.475]), 10, 6) \
            == PriceVector(10, 10)

    def test_exact_ratio_keeps_the_max_price_scale(self):
        pv = rationalize_prices(0.5, 10, 6)  # p1/r2 = 1/2 exactly
        assert (pv.p1, pv.r2) == (5, 10)

    def test_slow_route_majority_pins_toll(self):
        # more flow on route 2 than route 1 makes the toll the larger price
        pv = rationalize_prices(conservation_prices([0.3, 0.6]), 10, 6)
        assert (pv.p1, pv.r2) == (10, 5)
        pv = rationalize_prices(conservation_prices([0.35, 0.6]), 12, 6)
        assert pv.p1 == 12 and pv.r2 == 7

    def test_infeasible_horizon_band(self):
        # a 9:1 split needs r2/p1 = 9 > T for any short horizon
        with pytest.raises(InfeasibleHorizonError):
            rationalize_prices(conservation_prices([0.9, 0.1]), 18, horizon=6)
        pv = rationalize_prices(conservation_prices([0.9, 0.1]), 18, horizon=9)
        assert pv.feasible_for_horizon(9)

    def test_max_price_validation(self):
        # a float max_price is rejected by name, not later as a price
        for max_price in (1, 20.0, True):
            with pytest.raises(ValueError,
                               match="max_price must be an integer >= 2"):
                rationalize_prices(1.0, max_price, 6)

    @pytest.mark.parametrize("ratio", BAD_RATIOS,
                             ids=[f"ratio{i}" for i in range(len(BAD_RATIOS))])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="p1/r2"):
            rationalize_prices(ratio, 10, 6)

    def test_horizon_validated(self):
        for horizon in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="horizon"):
                rationalize_prices(1.0, 10, horizon)


class TestPriceVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriceVector(0, 5)
        with pytest.raises(ValueError):
            PriceVector(3, -1)
        with pytest.raises(ValueError):
            PriceVector(2.5, 5)
        # an integral float or a bool is not an integer price
        with pytest.raises(ValueError, match="p1 must be an integer >= 1"):
            PriceVector(2.0, 3)
        with pytest.raises(ValueError, match="p1 must be an integer >= 1"):
            PriceVector(True, 5)
        with pytest.raises(ValueError, match="r2 must be an integer >= 1"):
            PriceVector(3, 0)
        assert PriceVector(np.int64(3), 5).total == 8

    def test_accessors(self):
        pv = PriceVector(10, 14)
        assert pv.total == 24

    def test_horizon_band(self):
        assert PriceVector(10, 14).feasible_for_horizon(6)
        assert not PriceVector(1, 10).feasible_for_horizon(6)
        assert PriceVector(1, 10).feasible_for_horizon(10)
        for horizon in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="horizon"):
                PriceVector(10, 14).feasible_for_horizon(horizon)


class TestDesignPrices:
    def test_flow_cost_optimum_is_not_reduced(self):
        # c(x) = x splits the demand exactly evenly; the ratio is exactly 1
        # and the designed prices stay (m, m)
        cfg = get_preset("fig6")
        _, rho, prices = design_prices(cfg.model(), 0.95, 177, 12)
        assert rho == 1.0 and prices == PriceVector(177, 177)

    @pytest.mark.parametrize("p_go", [0.4, 0.8, 0.95])
    def test_flow_cost_design_keeps_max_price(self, p_go):
        # an exact even split keeps the max_price scale, never (1, 1)
        _, _, prices = design_prices(get_preset("fig6").model(), p_go, 10, 6)
        assert prices == PriceVector(10, 10)


class TestScalingInvariance:
    def test_best_response_invariant_under_common_scale(self):
        rng = np.random.default_rng(7)
        base = PriceVector(2, 3)
        horizon = 4
        for lam in (2, 5):
            scaled = PriceVector(base.p1 * lam, base.r2 * lam)
            rows = []
            for _ in range(500):
                k_ref = rng.uniform(0, 40)
                th = thresholds(k_ref, base, horizon)
                k = rng.uniform(th.k_inf, th.k_wealthy + 2 * base.total)
                rows.append((k, k_ref, rng.standard_exponential()))
            k, k_ref, s = np.array(rows).T
            a = fast_routes(k, s, thresholds(k_ref, base, horizon), base)
            b = fast_routes(k * lam, s, thresholds(k_ref * lam, scaled,
                                                   horizon), scaled)
            assert np.array_equal(a, b)

    def test_chain_flows_invariant_under_common_scale(self):
        sens = SensitivitySpec.exponential()
        base = build_chain(PriceVector(1, 2), 3, 0.1, sens)
        scaled = build_chain(PriceVector(3, 6), 3, 0.1, sens)
        fb = equilibrium_flows(base, stationary_distribution(base))
        fs = equilibrium_flows(scaled, stationary_distribution(scaled))
        assert np.allclose(fb, fs, atol=1e-11)
