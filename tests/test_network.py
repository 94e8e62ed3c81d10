from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karma_routing import (ArcCostModel, PriceVector, RunConfig, Scenario,
                           SensitivitySpec, balanced_flow, build_chain,
                           system_optimum)
from karma_routing.network import SOCIETAL_FLOW, as_flow

from conftest import examples

BPR = ArcCostModel()  # d0=(1,2), kappa=(1/2,2/3), alpha=0.15, beta=4

PARAM = st.floats(1.0, 6.0)
MODELS = st.builds(lambda d01, d02, k1, k2, alpha, beta: ArcCostModel(
    d0=(d01, d02), kappa=(k1, k2), alpha=alpha, beta=beta),
    PARAM, PARAM, PARAM, PARAM, PARAM, PARAM)


def grid_minimum(model, p_go, n=10_001):
    """Independent brute-force minimizer over an even grid."""
    x1 = np.linspace(0.0, p_go, n)
    x2 = p_go - x1
    d1 = model.d0[0] * (1 + model.alpha * (x1 / model.kappa[0]) ** model.beta)
    d2 = model.d0[1] * (1 + model.alpha * (x2 / model.kappa[1]) ** model.beta)
    if model.societal_cost_kind == SOCIETAL_FLOW:
        obj = x1 * x1 + x2 * x2
    else:
        obj = d1 * x1 + d2 * x2
    i = int(np.argmin(obj))
    return x1[i], obj[i]


def marginal_costs(model, x1, x2):
    """(mc1, mc2), each route's d/dx (c(x) * x), written out by hand."""
    if model.societal_cost_kind == SOCIETAL_FLOW:
        return 2.0 * x1, 2.0 * x2
    a, b = model.alpha, model.beta
    return tuple(d0 * (1 + a * (1 + b) * (x / kappa) ** b)
                 for d0, kappa, x in zip(model.d0, model.kappa, (x1, x2)))


class TestDiscomfort:
    def test_free_flow_equals_d0(self):
        assert np.allclose(BPR.discomfort([0.0, 0.0]), [1.0, 2.0])

    def test_formula_value(self):
        # direct evaluation: 1 + 0.15 * (0.56/0.5)**4
        d = BPR.discomfort([0.56, 0.39])
        assert d[0] == pytest.approx(1.0 + 0.15 * 1.12 ** 4, abs=1e-12)
        assert d[0] == pytest.approx(1.236027904, abs=1e-9)
        assert d[1] == pytest.approx(2.0 * (1 + 0.15 * (0.39 * 1.5) ** 4), abs=1e-12)

    def test_near_balanced_point(self):
        # at the balanced split of demand 0.95 both routes agree within 2%
        d = BPR.discomfort([0.80, 0.15])
        assert abs(d[0] - d[1]) / d[1] < 0.02

    @given(
        x=st.floats(0.0, 0.99),
        bump=st.floats(1e-6, 0.01),
        arc=st.integers(0, 1),
    )
    def test_non_decreasing_in_flow(self, x, bump, arc):
        lo = [0.0, 0.0]
        hi = [0.0, 0.0]
        lo[arc] = x
        hi[arc] = min(x + bump, 1.0)
        assert BPR.discomfort(hi)[arc] >= BPR.discomfort(lo)[arc]

    @given(
        x=st.floats(0.05, 0.98),
        bump=st.floats(1e-4, 0.01),
        arc=st.integers(0, 1),
    )
    def test_strictly_increasing_at_representable_scale(self, x, bump, arc):
        lo = [0.0, 0.0]
        hi = [0.0, 0.0]
        lo[arc] = x
        hi[arc] = min(x + bump, 1.0)
        assert BPR.discomfort(hi)[arc] > BPR.discomfort(lo)[arc]

    def test_non_decreasing_when_alpha_zero(self):
        flat = ArcCostModel(alpha=0.0)
        assert np.allclose(flat.discomfort([0.2, 0.9]), flat.discomfort([0.7, 0.1]))

    @given(model=MODELS | st.just(BPR), x1=st.floats(0.0, 1.0),
           x2=st.floats(0.0, 1.0))
    def test_discomfort_is_the_kernel(self, model, x1, x2):
        # the public pair holds the day's and the solvers' values exactly
        d = model.discomfort([x1, x2])
        assert d.dtype == np.float64 and d.shape == (2,)
        d1, d2 = model._volume_delay()
        assert type(d1(x1)) is float and type(d2(x2)) is float
        assert d.tolist() == [d1(x1), d2(x2)]


class TestSocietalCost:
    def test_linear_flow_kind(self):
        m = ArcCostModel(societal_cost_kind=SOCIETAL_FLOW)
        assert m.societal_cost([0.5, 0.5]) == pytest.approx(0.5)

    def test_zero_flow(self):
        assert BPR.societal_cost([0.0, 0.0]) == 0.0

    def test_discomfort_kind_inner_product(self):
        x = np.array([0.56, 0.39])
        assert BPR.societal_cost(x) == pytest.approx(float(BPR.discomfort(x) @ x))


class TestSystemOptimum:
    def test_demand_095(self):
        x = system_optimum(BPR, 0.95)
        assert x[0] == pytest.approx(0.56, abs=0.01)
        assert x[1] == pytest.approx(0.39, abs=0.01)

    def test_demand_full(self):
        x = system_optimum(BPR, 1.0)
        assert x[0] == pytest.approx(0.57, abs=0.01)
        assert x[1] == pytest.approx(0.43, abs=0.01)

    def test_quadratic_cost_splits_evenly(self):
        m = ArcCostModel(societal_cost_kind=SOCIETAL_FLOW)
        for p_go in (0.3, 0.95, 1.0):
            assert system_optimum(m, p_go).tolist() == [p_go / 2, p_go / 2]

    @pytest.mark.parametrize("p_go", [0.2, 0.5, 0.95, 1.0])
    def test_beats_brute_force_grid(self, p_go):
        x = system_optimum(BPR, p_go)
        _, best = grid_minimum(BPR, p_go)
        assert BPR.societal_cost(x) <= best + 1e-9

    def test_conserves_demand(self):
        # at 1e-8, route 1 is marginally cheaper even fully loaded: a corner
        for p_go in (1e-8, 0.31, 0.95, 1.0):
            x = system_optimum(BPR, p_go)
            assert abs(x.sum() - p_go) < 1e-15
        assert system_optimum(BPR, 1e-8).tolist() == [1e-8, 0.0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            system_optimum(BPR, 0.0)

    @settings(max_examples=examples(200), deadline=None)
    @given(model=MODELS, flow=st.booleans(),
           p_go=st.floats(0.0, 1.0, exclude_min=True))
    def test_marginal_costs_cross_at_the_optimum(self, model, flow, p_go):
        if flow:
            model = replace(model, societal_cost_kind=SOCIETAL_FLOW)
        x1, x2 = system_optimum(model, p_go).tolist()
        assert model.societal_cost([x1, x2]) <= grid_minimum(model, p_go)[1] + 1e-9
        mc1, mc2 = marginal_costs(model, x1, x2)
        if x2 == 0.0:  # route 1 is marginally cheaper even fully loaded
            assert x1 == p_go and mc1 < mc2
        elif x1 == 0.0 and mc1 >= mc2:  # route 1 never marginally cheaper, ties included
            assert x2 == p_go
        else:
            assert abs(mc1 - mc2) <= 1e-9
        # equal constant costs tie everywhere: all on route 2
        flat = ArcCostModel(d0=(model.d0[0],) * 2, alpha=0.0)
        assert system_optimum(flat, p_go).tolist() == [0.0, p_go]


class TestBalancedFlow:
    def test_crossing_near_080(self):
        for p_go in (0.95, 1.0):
            x = balanced_flow(BPR, p_go)
            assert x is not None
            assert x[0] == pytest.approx(0.80, abs=0.01)
            d = BPR.discomfort(x)
            assert abs(d[0] - d[1]) <= 1e-6

    def test_no_crossing_returns_none(self):
        m = ArcCostModel(d0=(1.0, 10.0), alpha=0.0)
        assert balanced_flow(m, 0.95) is None
        assert balanced_flow(m, 0.3) is None

    def test_reversed_constant_costs_return_none(self):
        m = ArcCostModel(d0=(10.0, 1.0), alpha=0.0)
        assert balanced_flow(m, 0.95) is None

    @settings(max_examples=examples(200), deadline=None)
    @given(model=MODELS, p_go=st.floats(0.0, 1.0, exclude_min=True))
    def test_crossing_balances_the_discomforts(self, model, p_go):
        # the bisection's split, checked with the public discomfort pair
        x = balanced_flow(model, p_go)
        if x is not None:
            d = model.discomfort(x)
            assert abs(d[0] - d[1]) <= 1e-9 + 1e-12
        else:
            h = [np.subtract(*model.discomfort([t, p_go - t]))
                 for t in np.linspace(0.0, p_go, 33)]
            assert all(v >= 0.0 for v in h) or all(v < 0.0 for v in h)

    def test_crossing_right_of_optimum(self):
        # whenever d1 < d2 at the optimum, the crossing lies further right
        for p_go in (0.95, 1.0):
            x_star = system_optimum(BPR, p_go)
            d = BPR.discomfort(x_star)
            assert d[0] < d[1]
            assert balanced_flow(BPR, p_go)[0] > x_star[0]


class TestValidation:
    def test_model_invariants(self):
        nan, inf = float("nan"), float("inf")
        # min((1.0, nan)) is 1.0: a NaN in either pair must still fail
        for pair in ((0.0, 2.0), (nan, 2.0), (1.0, nan), (1.0, inf)):
            with pytest.raises(ValueError):
                ArcCostModel(d0=pair)
        for pair in ((0.5, -1.0), (nan, 0.5), (0.5, nan)):
            with pytest.raises(ValueError):
                ArcCostModel(kappa=pair)
        for alpha in (-0.1, nan, inf):
            with pytest.raises(ValueError):
                ArcCostModel(alpha=alpha)
        for beta in (0.5, nan, inf):
            with pytest.raises(ValueError):
                ArcCostModel(beta=beta)
        with pytest.raises(ValueError):
            ArcCostModel(societal_cost_kind="mystery")
        for pairs in (dict(d0=(1.0,)), dict(kappa=(0.5, 0.5, 0.5))):
            with pytest.raises(ValueError, match="must be pairs"):
                ArcCostModel(**pairs)

    def test_overflowing_model_names_its_route(self):
        # (x / kappa)**beta overflows a float at x = 1 (an OverflowError),
        # or alpha * (1 + beta) does (inf); either is rejected at construction
        for kwargs, route, params in (
                ({"beta": 2000.0}, 1,
                 "d0 = 1.0, kappa = 0.5, alpha = 0.15, beta = 2000.0"),
                ({"beta": 1100.0}, 1,
                 "d0 = 1.0, kappa = 0.5, alpha = 0.15, beta = 1100.0"),
                ({"kappa": (0.5, 1e-300)}, 2,
                 "d0 = 2.0, kappa = 1e-300, alpha = 0.15, beta = 4.0"),
                ({"alpha": 1e308}, 1,
                 "d0 = 1.0, kappa = 0.5, alpha = 1e+308, beta = 4.0"),
                ({"d0": (1.0, 1e308)}, 2,
                 "d0 = 1e+308, kappa = 0.6666666666666666, alpha = 0.15, "
                 "beta = 4.0")):
            with pytest.raises(ValueError) as err:
                ArcCostModel(**kwargs)
            assert str(err.value) == (f"route {route} marginal cost at x = 1 "
                                      f"is not finite: {params}")
        # 2**1000 still fits: the marginal cost at a full load is finite
        steep = ArcCostModel(beta=1000.0)
        assert np.all(np.isfinite(steep.discomfort([1.0, 0.0])))
        assert np.all(np.isfinite(system_optimum(steep, 1.0)))

    def test_sensitivity_invariants(self):
        nan, inf = float("nan"), float("inf")
        # (0, 5e-324) has the mean 0, which no draw can be divided by
        for low, high in ((-0.5, 1.0), (1.0, 1.0), (nan, 1.0), (0.0, nan),
                          (0.0, inf), (0.0, 5e-324)):
            with pytest.raises(ValueError, match="uniform"):
                SensitivitySpec.uniform(low, high)
        with pytest.raises(ValueError, match="kind"):
            SensitivitySpec(kind="lognormal")
        # the mean is taken half by half, so it stays finite at the top
        top = SensitivitySpec.uniform(1e308, 1.7e308)
        assert np.all(top.sample(np.random.default_rng(0), 100) <= 2.0)
        assert SensitivitySpec.uniform(0.0, 1e-323).cdf(1.0) == 0.5

    @pytest.mark.parametrize("low, high, field", [
        (0.7, 2.0, "low = 0.7"), (0.0, 3.0, "high = 3.0"),
        (float("nan"), 2.0, "low = nan"), (0.0, float("nan"), "high = nan"),
    ], ids=["low", "high", "low-nan", "high-nan"])
    def test_exponential_rejects_unread_bounds(self, low, high, field):
        # the exponential law reads neither bound: (5.0, nan) used to
        # construct and then draw Exp(1)
        with pytest.raises(ValueError, match=f"^{field} is not read under "
                                             "the exponential"):
            SensitivitySpec("exponential", low, high)
        # -0.0 equals the default 0.0
        assert SensitivitySpec("exponential", -0.0, 2.0) == SensitivitySpec()

    def test_flow_validation(self):
        with pytest.raises(ValueError):
            as_flow([0.5, 1.5])
        with pytest.raises(ValueError):
            as_flow([-0.2, 0.5])
        with pytest.raises(ValueError):
            as_flow([0.5, 0.5, 0.0])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lie in"):
                as_flow([bad, 0.5])
        # a flow just outside [0, 1] is rejected, not clamped, also where
        # the model reads it
        for x in ([-1e-10, 0.5], [0.5, -1e-300], [1.0 + 1e-10, 0.0]):
            with pytest.raises(ValueError, match="lie in"):
                as_flow(x)
            with pytest.raises(ValueError, match="lie in"):
                BPR.discomfort(x)
            with pytest.raises(ValueError, match="lie in"):
                BPR.societal_cost(x)
        assert as_flow([0.0, 1.0]).tolist() == [0.0, 1.0]

    def test_scenario_invariants(self):
        sens = SensitivitySpec.exponential()
        with pytest.raises(ValueError):
            Scenario(p_home=-0.1, horizon=6, n_agents=10, sensitivity=sens,
                     k_init=(0, 10), k_ref_init=(0, 10))
        for horizon in (0, 2.5, True):
            with pytest.raises(ValueError, match="horizon"):
                Scenario(p_home=0.1, horizon=horizon, n_agents=10,
                         sensitivity=sens, k_init=(0, 10), k_ref_init=(0, 10))
        for n_agents in (0, 2.5, True):
            with pytest.raises(ValueError, match="n_agents"):
                Scenario(p_home=0.1, horizon=6, n_agents=n_agents,
                         sensitivity=sens, k_init=(0, 10), k_ref_init=(0, 10))
        for seed in (-1, 2.5, True):
            with pytest.raises(ValueError, match="seed"):
                Scenario(p_home=0.1, horizon=6, n_agents=10, sensitivity=sens,
                         k_init=(0, 10), k_ref_init=(0, 10), seed=seed)
        nan = float("nan")
        for bounds in ((10, 5), (nan, 10), (0, nan), (-1, 10), (0, float("inf"))):
            with pytest.raises(ValueError, match="karma init"):
                Scenario(p_home=0.1, horizon=6, n_agents=10, sensitivity=sens,
                         k_init=bounds, k_ref_init=(0, 10))
            with pytest.raises(ValueError, match="karma init"):
                Scenario(p_home=0.1, horizon=6, n_agents=10, sensitivity=sens,
                         k_init=(0, 10), k_ref_init=bounds)
        sc = Scenario(p_home=0.05, horizon=6, n_agents=10, sensitivity=sens,
                      k_init=(0, 10), k_ref_init=(0, 10))
        assert sc.p_go == pytest.approx(0.95)

    @pytest.mark.parametrize("p_home", [1.0, 1.5, float("nan"), -0.1])
    def test_demand_rule(self, p_home):
        # p_home in [0, 1): with nobody traveling there is no optimum, no
        # conserving price and no unique chain fixed point
        sens = SensitivitySpec.exponential()
        with pytest.raises(ValueError, match="p_home"):
            Scenario(p_home=p_home, horizon=6, n_agents=10, sensitivity=sens,
                     k_init=(0, 10), k_ref_init=(0, 10))
        with pytest.raises(ValueError, match="p_home"):
            build_chain(PriceVector(2, 3), 3, p_home, sens)
        with pytest.raises(ValueError, match="p_home"):
            RunConfig(p_home=p_home).validate()
        last = np.nextafter(1.0, 0.0)  # the largest p_home that passes
        assert build_chain(PriceVector(2, 3), 3, last, sens).p_go > 0
        assert RunConfig(p_home=last).validate().p_home == last
