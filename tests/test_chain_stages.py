"""The chain design's stages, bit for bit, against the plain expressions
they replace.

`conservation_prices` compares Python floats, `check_count` tests a plain
int by its type, `DiagonalMatrix` slices the chain's three diagonals
(-r2, 0, +p1), each partly on the matrix, once and multiplies them in one
product, `equilibrium_flows` scales the two dot products as floats, and
the stationary solve keeps its product tree in one buffer and builds its
steps in class order.  Each reference below is the direct numpy
expression that the stage was written from; the tree's is the
three-np.where step build with one array per level.  The stages must
return the same bits on every chain: both solver paths, g = gcd(p1, r2)
above 1, trees that carry a node up through every level but the last
pair, the uniform law, and closed forms with rows that never pay.

The population's set-up and read-out stages are pinned the same way:
`init_population` scales one `rng.random(m)` in place where its reference
calls `Generator.uniform`, `as_flow` compares Python floats where its
reference takes a numpy mask, and `quantize_population` clamps the floored
deviations as floats into the chain and two sentinel cells and casts once,
where its reference casts every deviation to a cell and clips the
integers.

`system_optimum` and `balanced_flow` hand `network._crossing` their route
pair, which evaluates f1(x1) - f2(p_go - x1) itself; the reference wraps
the pair in one closure h and bisects h.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from karma_routing import (ArcCostModel, PriceVector, Scenario,
                           SensitivitySpec, as_flow, balanced_flow,
                           build_chain, conservation_prices,
                           equilibrium_flows, init_population,
                           quantize_population, stationary_distribution,
                           system_optimum)
from karma_routing import mesoscopic
from karma_routing.agent import _decaying_threshold, k_inf
from karma_routing.mesoscopic import DiagonalMatrix
from karma_routing.network import (SOCIETAL_DISCOMFORT, SOCIETAL_FLOW,
                                   check_count)

from conftest import examples, same_bits
from test_mesoscopic import with_poor_edge

EXP = SensitivitySpec()
# "unif0.5-2.5" in test ids: U[0.5, 2.5] over its mean 1.5, spread 2/3
LAWS = [EXP, SensitivitySpec("uniform", 2 / 3),
        SensitivitySpec("uniform", 1.0)]


def matmul_ref(a: DiagonalMatrix, v) -> np.ndarray:
    """Row i adds its moves diagonal by diagonal, from 0.0: the entry of
    column i + offset times v there, where that column exists."""
    n = a.data.shape[1]
    out = np.empty(n)
    for i in range(n):
        total = 0.0
        for k, offset in enumerate(a.offsets):
            j = i + offset
            if 0 <= j < n:
                total += float(a.data[k, j]) * float(v[j])
        out[i] = total
    return out


def column_sums_ref(a: DiagonalMatrix) -> np.ndarray:
    n = a.data.shape[1]
    out = np.empty(n)
    for j in range(n):
        total = 0.0
        for k, offset in enumerate(a.offsets):
            if 0 <= j - offset < n:
                total += float(a.data[k, j])
        out[j] = total
    return out


def cell_thresholds_ref(p, t):
    _, ok, rich, wealthy, n = mesoscopic._band_edges(p, t)
    theta = np.full(n, -np.inf)
    theta[:ok] = np.inf
    theta[ok:rich] = 1.0
    theta[rich:wealthy] = _decaying_threshold(np.arange(rich, wealthy),
                                              wealthy, p)
    return theta


def product_tree_levels_ref(chain):
    """The tree as one array per level: steps from three np.where, a fresh
    product array per level, and the start vectors interleaved level by
    level."""
    p1, r2 = chain.prices.p1, chain.prices.r2
    q, g = p1 + r2, math.gcd(p1, r2)
    levels = chain.horizon + 1
    classes = (np.arange(g)[:, None] + r2 * np.arange(q // g)) % q
    climbs = classes + r2 >= q
    chill = chain.chill_prob.reshape(levels, q).T[classes]
    rush = 1.0 - chill
    w = climbs[..., None]
    flat = np.zeros(classes.shape + (levels * levels,))
    flat[..., ::levels + 1] = np.where(w, rush, chill)
    flat[..., levels::levels + 1] = np.where(w, chill, 0.0)[..., :-1]
    flat[..., 1::levels + 1] = np.where(w, 0.0, rush)[..., 1:]
    tree = [flat.reshape(classes.shape + (levels, levels))]
    while tree[-1].shape[1] > 1:
        below = tree[-1]
        n = below.shape[1]
        up = np.empty((g, (n + 1) // 2, levels, levels))
        np.matmul(below[:, 1::2], below[:, :n - 1:2], out=up[:, :n // 2])
        if n % 2:
            up[:, -1] = below[:, -1]
        tree.append(up)
    system = tree.pop()[:, 0] - np.eye(levels)
    system[:, -1, :] = 1.0
    rhs = np.zeros((g, levels, 1))
    rhs[:, -1] = 1.0
    start = np.linalg.solve(system, rhs)[:, None]
    for below in reversed(tree):
        n = below.shape[1]
        down = np.empty((g, n, levels, 1))
        down[:, 0::2] = start
        np.matmul(below[:, :n - 1:2], start[:, :n // 2], out=down[:, 1::2])
        start = down
    by_level = np.empty((levels, q))
    by_level[:, classes] = start[..., 0].transpose(2, 0, 1)
    return np.maximum(by_level, 0.0)


def cycle_fixed_point_ref(chain):
    p1, r2 = chain.prices.p1, chain.prices.r2
    q, levels = p1 + r2, chain.horizon + 1
    if p1 != r2:
        by_level = product_tree_levels_ref(chain)
    else:
        chill = chain.chill_prob.reshape(2 * levels, p1)
        rush = 1.0 - chill
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.log(chill[:-1] / rush[1:])
        stuck = rush[1:] == 0.0
        steps[stuck] = 0.0
        grid = np.zeros_like(chill)
        np.cumsum(steps, axis=0, out=grid[1:])
        grid[:-1][np.logical_or.accumulate(stuck[::-1])[::-1]] = -np.inf
        grid -= grid.max(axis=0)
        by_level = np.exp(grid, out=grid).reshape(levels, q)
    return (by_level / (q * by_level.sum(axis=0))).ravel()


def quantize_population_ref(k, k_ref, p, t):
    n = (t + 1) * p.total
    dev = np.floor(np.asarray(k, dtype=float) - np.asarray(k_ref, dtype=float))
    idx = dev.astype(np.int64) + t * p.r2
    clamped = int(np.count_nonzero((idx < 0) | (idx >= n)))
    hist = np.bincount(np.clip(idx, 0, n - 1), minlength=n).astype(float)
    return hist / hist.sum(), clamped


def init_population_ref(scenario, prices):
    """k_ref, k, the clamp count and the generator's state after the draws,
    with each draw taken by `Generator.uniform`.  Its C code rounds
    low + (high - low) * u as a product and a sum; a numpy build that
    contracted them into one fused multiply-add would draw other bits."""
    rng = np.random.default_rng(scenario.seed)
    m = scenario.n_agents
    (ref_lo, ref_hi), (k_lo, k_hi) = scenario.k_ref_init, scenario.k_init
    # high + 0.0 turns -0.0 into 0.0: numpy's uniform rejects a range whose
    # width high - low is -0.0
    k_ref = rng.uniform(ref_lo, ref_hi + 0.0, m)
    k = rng.uniform(k_lo, k_hi + 0.0, m)
    floor = k_inf(k_ref, prices, scenario.horizon)
    n_clamped = int(np.count_nonzero(k < floor))
    return k_ref, np.maximum(k, floor), n_clamped, rng.bit_generator.state


def as_flow_ref(x):
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("flow must be a pair (x1, x2)")
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"flow components must lie in [0, 1], got {x}")
    return x


def crossing_ref(h, p_go):
    """The bisection of one closure h(x1) over [0, p_go], or None."""
    lo, hi = 0.0, p_go
    if h(hi) < 0.0 or h(lo) >= 0.0:
        return None
    mid = 0.5 * (lo + hi)
    h_mid = h(mid)
    while abs(h_mid) > 1e-9 and hi - lo > 1e-14:
        lo, hi = (mid, hi) if h_mid < 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
    return mid


def system_optimum_ref(model, p_go):
    if model.societal_cost_kind == SOCIETAL_FLOW:
        mc1 = mc2 = lambda x: 2.0 * x
    else:
        mc1, mc2 = model._marginal_delay

    def h(x1):
        return mc1(x1) - mc2(p_go - x1)

    x1 = crossing_ref(h, p_go)
    if x1 is None:
        x1 = p_go if h(p_go) < 0.0 else 0.0
    return np.array([x1, p_go - x1])


def balanced_flow_ref(model, p_go):
    d1, d2 = model._delay
    x1 = crossing_ref(lambda t: d1(t) - d2(p_go - t), p_go)
    return None if x1 is None else np.array([x1, p_go - x1])


@st.composite
def cost_models(draw):
    """Either cost family; one in three has alpha = 0 (constant costs),
    and one in three of those equal free-flow costs, a tie everywhere.
    beta up to 40 makes some crossings too steep for the 1e-9 stop."""
    param = st.floats(0.25, 6.0)
    d0 = (draw(param), draw(param))
    alpha = draw(st.sampled_from([0.0, 0.15]) | st.floats(0.0, 6.0))
    if alpha == 0.0 and draw(st.integers(0, 2)) == 0:
        d0 = (d0[0], d0[0])
    return ArcCostModel(d0=d0, kappa=(draw(param), draw(param)), alpha=alpha,
                        beta=draw(st.floats(1.0, 40.0)),
                        societal_cost_kind=draw(st.sampled_from(
                            [SOCIETAL_DISCOMFORT, SOCIETAL_FLOW])))


def population(seed, p, t, m, cells):
    """m agents on whole reference levels, each with its karma in a cell
    drawn from `cells` (0-based indices, on or off the chain): on the
    cell's left edge, one ulp below it (so in the cell before) or inside."""
    rng = np.random.default_rng(seed)
    k_ref = np.floor(rng.uniform(0.0, 1000.0, m))
    k = k_ref + (rng.integers(cells.start, cells.stop, m) - t * p.r2)
    where = rng.integers(0, 3, m)
    k = np.where(where == 1, np.nextafter(k, -np.inf), k)
    return np.where(where == 2, k + rng.random(m), k), k_ref


BELOW_2_53 = math.nextafter(2.0**53, 0.0)


@st.composite
def init_ranges(draw):
    """A (low, high) pair that `Scenario` accepts, with signed zeros, zero
    widths (-0.0 among them) and bounds just below 2**53."""
    bound = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 100.0, 2.0**52,
                             BELOW_2_53 - 1.0, BELOW_2_53]) \
        | st.floats(0.0, 2.0**53, exclude_max=True)
    low = draw(bound)
    high = low if draw(st.integers(0, 3)) == 0 else draw(bound)
    # a stable sort keeps (0.0, -0.0), whose width is -0.0
    return tuple(sorted((low, high)))


@st.composite
def chains(draw):
    """A chain of either solver path; one in three has p1 = r2."""
    p1 = draw(st.integers(1, 60))
    r2 = p1 if draw(st.integers(0, 2)) == 0 else draw(st.integers(1, 60))
    return build_chain(PriceVector(p1, r2), draw(st.integers(1, 12)),
                       draw(st.sampled_from([0.0, 0.05, 0.5])),
                       draw(st.sampled_from(LAWS)))


class TestChainSolve:
    @settings(max_examples=examples(80), deadline=None)
    @given(ch=chains())
    # cycle lengths L = 7, 15, 31 carry a node up from the bottom level,
    # also with g = 2 and 3; L = 17, 33 (2**k + 1) carry one up through
    # every level but the last pair, the most odd levels a tree can have;
    # L = 5 with g = 20 at T = 12; and (1, 1), L = 2, on the tree itself
    @example(ch=build_chain(PriceVector(3, 4), 3, 0.05, EXP))
    @example(ch=build_chain(PriceVector(14, 16), 6, 0.0, EXP))
    @example(ch=build_chain(PriceVector(45, 48), 4, 0.05, LAWS[1]))
    @example(ch=build_chain(PriceVector(8, 9), 12, 0.05, EXP))
    @example(ch=build_chain(PriceVector(16, 17), 2, 0.5, LAWS[2]))
    @example(ch=build_chain(PriceVector(1, 1), 1, 0.05, EXP))
    @example(ch=build_chain(PriceVector(40, 60), 12, 0.05, EXP))
    def test_solve_matches_reference(self, ch):
        tree = mesoscopic._product_tree_levels(ch)
        assert same_bits(tree, product_tree_levels_ref(ch))
        start = mesoscopic._cycle_fixed_point(ch)
        assert same_bits(start, cycle_fixed_point_ref(ch))
        dist = stationary_distribution(ch)
        assert same_bits(dist, matmul_ref(ch.a, start))

    @pytest.mark.parametrize("sens", LAWS[:2], ids=["exp", "unif0.5-2.5"])
    @pytest.mark.parametrize("edge", [2, 3, 7])
    @pytest.mark.parametrize("p", [(5, 5), (5, 7)], ids="{0[0]}:{0[1]}".format)
    def test_rows_that_never_pay(self, p, edge, sens):
        # a poor edge above p1 gives the closed form steps of log(1/0)
        ch = with_poor_edge(build_chain(PriceVector(*p), 6, 0.05, sens),
                            edge * p[0])
        assert same_bits(mesoscopic._cycle_fixed_point(ch),
                         cycle_fixed_point_ref(ch))


class TestChainProducts:
    @settings(max_examples=examples(60), deadline=None)
    @given(ch=chains(), seed=st.integers(0, 2**32 - 1))
    def test_matrix_products_match_reference(self, ch, seed):
        # any vector: signed values, signed zeros and exact zeros, whose
        # sum from 0.0 differs in sign from a sum from the first term
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(ch.n_states)
        v[rng.random(ch.n_states) < 0.3] = -0.0
        v[rng.random(ch.n_states) < 0.1] = 0.0
        assert same_bits(ch.a @ v, matmul_ref(ch.a, v))
        assert same_bits(ch.a.sum(axis=0), column_sums_ref(ch.a))

    @settings(max_examples=examples(60), deadline=None)
    @given(ch=chains())
    def test_flows_and_thresholds_match_reference(self, ch):
        dist = stationary_distribution(ch)
        chill = ch.chill_prob
        want = ch.p_go * np.array([(1.0 - chill) @ dist, chill @ dist])
        assert same_bits(equilibrium_flows(ch, dist), want)
        assert same_bits(mesoscopic._cell_thresholds(ch.prices, ch.horizon),
                         cell_thresholds_ref(ch.prices, ch.horizon))


FLAT = ArcCostModel(d0=(2.0, 2.0), alpha=0.0)


class TestCrossing:
    @settings(max_examples=examples(300), deadline=None)
    @given(model=cost_models(),
           p_go=st.sampled_from([1.0, 1e-8])
           | st.floats(0.0, 1.0, exclude_min=True))
    # equal constant costs tie everywhere, in both families; all demand on
    # route 1 (d0 = (1, 10), and the default model at 1e-8) or on route 2
    # (d0 = (10, 1)); marginal costs that cross exactly at x1 = p_go; costs
    # steep enough that the bracket width stops the search; the default
    # model and the flow family inside
    @example(model=FLAT, p_go=0.95)
    @example(model=replace(FLAT, societal_cost_kind=SOCIETAL_FLOW), p_go=1.0)
    @example(model=ArcCostModel(d0=(1.0, 10.0), alpha=0.0), p_go=1.0)
    @example(model=ArcCostModel(d0=(10.0, 1.0), alpha=0.0), p_go=0.3)
    @example(model=ArcCostModel(d0=(1.0, 2.0), kappa=(1.0, 1.0), alpha=0.5,
                                beta=1.0), p_go=1.0)
    @example(model=ArcCostModel(d0=(1.0, 1.0), kappa=(0.25, 0.5), beta=40.0),
             p_go=1.0)
    @example(model=ArcCostModel(), p_go=1e-8)
    @example(model=ArcCostModel(), p_go=1.0)
    @example(model=ArcCostModel(societal_cost_kind=SOCIETAL_FLOW), p_go=1e-8)
    def test_splits_match_reference(self, model, p_go):
        assert same_bits(system_optimum(model, p_go),
                         system_optimum_ref(model, p_go))
        got, want = balanced_flow(model, p_go), balanced_flow_ref(model, p_go)
        assert (got is None) == (want is None)
        assert got is None or same_bits(got, want)


class TestPricingStages:
    @settings(max_examples=examples(200), deadline=None)
    @given(x=st.lists(st.floats(5e-324, 1.0), min_size=2, max_size=2))
    def test_ratio_matches_reference(self, x):
        # a tiny x1 overflows the ratio to inf, which rationalize_prices
        # rejects; numpy's division warns on the way, Python's does not
        rho = conservation_prices(x)
        with np.errstate(over="ignore"):
            want = float(np.asarray(x)[1] / np.asarray(x)[0])
        assert type(rho) is float and float.hex(rho) == float.hex(want)

    @pytest.mark.parametrize("value", [1, 7, 2**70, np.int64(3), np.int32(2),
                                       np.uint8(1)])
    def test_count_accepts_integers(self, value):
        check_count("n", value)

    @pytest.mark.parametrize("value", [0, -1, True, False, np.bool_(True),
                                       2.0, 1.5, "3", None, np.float64(2.0),
                                       np.int64(0)])
    def test_count_rejects_the_rest(self, value):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            check_count("n", value)


def outcome(check, x):
    """("ok", dtype, shape and bytes of the result) or ("error", message)."""
    try:
        got = check(x)
    except ValueError as err:
        return "error", str(err)
    return "ok", got.dtype, got.shape, got.tobytes()


def read_out_matches_reference(k, k_ref, p, t):
    hist, clamped = quantize_population(k, k_ref, p, t)
    want_hist, want_clamped = quantize_population_ref(k, k_ref, p, t)
    assert same_bits(hist, want_hist)
    assert type(clamped) is int and clamped == want_clamped
    return clamped


class TestPopulationStages:
    @settings(max_examples=examples(150), deadline=None)
    @given(ref=init_ranges(), k0=init_ranges(), m=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1), p1=st.integers(1, 40),
           r2=st.integers(1, 40), t=st.integers(1, 12))
    @example(ref=(0.0, -0.0), k0=(-0.0, -0.0), m=5, seed=0, p1=10, r2=14,
             t=6)
    @example(ref=(BELOW_2_53, BELOW_2_53), k0=(0.0, BELOW_2_53), m=200,
             seed=1, p1=40, r2=40, t=12)
    def test_draws_match_uniform(self, ref, k0, m, seed, p1, r2, t):
        sc = Scenario(p_home=0.05, horizon=t, n_agents=m, sensitivity=EXP,
                      k_init=k0, k_ref_init=ref, seed=seed)
        p = PriceVector(p1, r2)
        pop = init_population(sc, p)
        k_ref, k, n_clamped, state = init_population_ref(sc, p)
        assert same_bits(pop.k_ref, k_ref) and same_bits(pop.k, k)
        assert pop.n_clamped_init == n_clamped
        # day 0 draws from where the reference's stream stands
        assert pop.rng.bit_generator.state == state

    @settings(max_examples=examples(150), deadline=None)
    @given(p1=st.integers(1, 40), r2=st.integers(1, 40), t=st.integers(1, 12),
           m=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
    def test_histogram_matches_reference(self, p1, r2, t, m, seed):
        p = PriceVector(p1, r2)
        n = (t + 1) * p.total
        k, k_ref = population(seed, p, t, m, range(-n, 2 * n))
        read_out_matches_reference(k, k_ref, p, t)

    # every agent above the top cell, below the bottom one or next to an
    # end of the chain; one agent; a toll above T*r2; T = 1
    @pytest.mark.parametrize("p, t, m, cells, clamped", [
        ((10, 14), 6, 200, range(169, 400), 200),
        ((10, 14), 6, 200, range(-300, 0), 200),
        ((10, 14), 6, 200, range(-1, 1), None),
        ((10, 14), 6, 200, range(167, 169), None),
        ((10, 14), 6, 1, range(0, 168), None),
        ((40, 1), 6, 100, range(-50, 350), None),
        ((5, 5), 1, 100, range(-5, 25), None),
        ((1, 1), 1, 100, range(-3, 7), None),
    ])
    def test_chain_ends_match_reference(self, p, t, m, cells, clamped):
        p = PriceVector(*p)
        for seed in range(5):
            k, k_ref = population(seed, p, t, m, cells)
            got = read_out_matches_reference(k, k_ref, p, t)
            assert clamped is None or got == clamped

    # the smallest chain, T = 1 and p1 = r2 = 1, has N = 4 cells
    @pytest.mark.parametrize("p, t", [((10, 14), 6), ((1, 1), 1),
                                      ((40, 1), 6)])
    def test_sentinel_cells_match_reference(self, p, t):
        p = PriceVector(*p)
        n, shift = (t + 1) * p.total, t * p.r2
        rng = np.random.default_rng(0)
        k_ref = np.floor(rng.uniform(0.0, 1000.0, 60))
        # 20 agents below the chain and 40 above it, each on a cell's left
        # edge or inside it; the split tells the ends apart
        inside = np.where(rng.integers(0, 2, 60) == 1, rng.random(60), 0.0)
        for ends, clamped in (([-shift - 1, n - shift], 60),
                              ([-shift, n - 1 - shift], 0)):
            k = k_ref + rng.permutation(np.repeat(ends, [20, 40])) + inside
            hist = quantize_population(k, k_ref, p, t)[0]
            assert (hist[0], hist[-1]) == (1 / 3, 2 / 3)
            # one cell beyond either end: every agent is clamped; on the
            # end cells: none is
            assert read_out_matches_reference(k, k_ref, p, t) == clamped
        # far above the chain, as k(0) ~ U[2000, 4000] puts every agent
        k = rng.uniform(2000.0, 4000.0, 60)
        assert read_out_matches_reference(k, k_ref / 10.0, p, t) == 60
        assert quantize_population(k, k_ref / 10.0, p, t)[0][-1] == 1.0

    def test_nan_after_infinite_agents_named(self):
        k = [np.inf, -np.inf, 1e300, -1e300, np.nan, np.inf, np.nan]
        with pytest.raises(ValueError, match="^agent 4 has a NaN karma "
                                             "deviation k - k_ref$"):
            quantize_population(k, np.zeros(7), PriceVector(1, 1), 1)

    def test_flow_check_matches_reference(self):
        values = [-0.0, 0.0, 5e-324, 0.5, 1.0, np.nextafter(1.0, 2.0),
                  -5e-324, -1.0, math.nan, math.inf, -math.inf]
        pairs = [pair for x1 in values for x2 in values
                 for pair in ([x1, x2], (x1, x2), np.array([x1, x2]))]
        shapes = [[0.5], [0.5, 0.5, 0.0], [[0.5, 0.5]], [[0.5], [0.5]], 0.5,
                  [], np.zeros((2, 1)), (math.nan,)]
        for x in pairs + shapes:
            assert outcome(as_flow, x) == outcome(as_flow_ref, x), x
