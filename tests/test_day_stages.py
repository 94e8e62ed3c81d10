"""The day's stages, bit for bit, against the plain expressions they replace.

`fast_mask` computes the decaying threshold in place, `check_floor` and
`compute_metrics` reduce with ufuncs, and
`ArcCostModel` keeps its volume-delay closures.  Each reference below is the
direct numpy expression that the stage was written from.  The stages must
return the same bits on every input: karma exactly on a breakpoint and one
ulp either side, s = 0, nobody traveling, 0-d and integer input.  `settle`
is checked against its per-route reference in `test_agent.py`.
"""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karma_routing import (ArcCostModel, InfeasibleKarmaError, PriceVector,
                           RunConfig, compute_metrics, run_scenario,
                           thresholds)
from karma_routing.agent import check_floor, fast_mask
from karma_routing.network import SOCIETAL_DISCOMFORT, SOCIETAL_FLOW

from conftest import examples


def fast_mask_ref(k, s, traveling, th, p):
    rich = k >= th.k_rich
    go = s > (th.k_wealthy - k) / p.total
    go &= rich
    go |= np.greater(s > 1.0, rich)  # s > 1 and not rich
    go &= k >= th.k_poor
    go |= k >= th.k_wealthy
    go &= traveling
    return go


def floor_holds_ref(k, floor):
    return bool(np.greater_equal(k, floor).all())


def compute_metrics_ref(fast, traveling, s, n1, n2, d, k, model):
    cost = model._cost((n1 / k.size, n2 / k.size), d)
    mean_karma = float(k.sum()) / k.size
    n_travel = n1 + n2
    if not n_travel:
        return None, None, mean_karma, cost
    s1 = float((s * fast).sum())
    s_all = float((s * traveling).sum())
    d1, d2 = d
    delta_d = ((d1 * (s1 - n1) + d2 * (s_all - s1 - n2))
               / (d1 * n1 + d2 * n2))
    delta_s = (s_all - n_travel) / k.size
    return delta_d, delta_s, mean_karma, cost


def same_bits(got, want):
    """Equal shape, dtype and bytes (so -0.0 differs from 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def float_bits(values):
    return [None if v is None else float(v).hex() for v in values]


@st.composite
def days(draw):
    """One day's agents: prices, horizon, breakpoints, karma, draws, masks.

    Each agent's karma is one of its breakpoints, one ulp either side of
    one, or a float between its floor and past k_wealthy; its sensitivity,
    in units of the mean, is 0, a float in [0, 8], or 1 or its own decaying
    threshold (if not negative), each exactly or one ulp either side.
    """
    p = PriceVector(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    t = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    k_ref = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=n,
                                   max_size=n)))
    th = thresholds(k_ref, p, t)
    edges = np.stack([th.k_inf, th.k_poor, th.k_rich, th.k_wealthy])
    edge = edges[draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                 np.arange(n)]
    ulp = np.array(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
    k = np.where(ulp < 0, np.nextafter(edge, -np.inf),
                 np.where(ulp > 0, np.nextafter(edge, np.inf), edge))
    k = np.maximum(k, th.k_inf)  # one ulp below k_inf is infeasible
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    free = th.k_inf + u * (th.k_wealthy + 2 * p.total - th.k_inf)
    on_edge = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    k = np.where(on_edge, k, free)
    decaying = (th.k_wealthy - k) / p.total
    s_free = np.array(draw(st.lists(st.floats(0.0, 8.0), min_size=n,
                                    max_size=n)))
    ties = [np.full(n, 1.0), np.maximum(decaying, 0.0)]
    choices = [np.zeros(n), s_free] + [
        np.nextafter(v, to) for v in ties for to in (-np.inf, v, np.inf)]
    kind = draw(st.lists(st.integers(0, len(choices) - 1), min_size=n,
                         max_size=n))
    s = np.choose(kind, choices)
    traveling = np.array(draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)))
    return p, t, k_ref, th, k, s, traveling


class TestAgentStages:
    @settings(max_examples=examples(120), deadline=None)
    @given(day=days())
    def test_fast_mask_and_floor_match_reference(self, day):
        p, t, _, th, k, s, traveling = day
        fast = fast_mask(k, s, traveling, th, p)
        assert same_bits(fast, fast_mask_ref(k, s, traveling, th, p))
        check_floor(k, th.k_inf)
        assert floor_holds_ref(k, th.k_inf)
        below = np.nextafter(th.k_inf, -np.inf)
        if (below >= 0).any():
            with pytest.raises(InfeasibleKarmaError):
                check_floor(np.where(below >= 0, below, k), th.k_inf)

    @settings(max_examples=examples(50), deadline=None)
    @given(day=days())
    def test_one_agent_at_a_time(self, day):
        # 0-d arrays, numpy scalars and Python floats, with scalar
        # breakpoints and traveling as a Python bool
        p, t, k_ref, th, k, s, traveling = day
        one = thresholds(float(k_ref[0]), p, t)
        trav = bool(traveling[0])
        for kk, ss in ((np.array(k[0]), np.array(s[0])), (k[0], s[0]),
                       (float(k[0]), float(s[0]))):
            got = fast_mask(kk, ss, trav, one, p)
            want = fast_mask_ref(kk, ss, trav, one, p)
            assert got == want and got.shape == ()
            assert got == fast_mask(k, s, traveling, th, p)[0]
            check_floor(kk, one.k_inf)

    @settings(max_examples=examples(40), deadline=None)
    @given(day=days())
    def test_integer_karma(self, day):
        # karma and k_ref on the integer lattice, as integer arrays
        p, t, k_ref, th, k, s, traveling = day
        th = thresholds(np.floor(k_ref).astype(np.int64), p, t)
        k = np.maximum(np.floor(k).astype(np.int64),
                       np.ceil(th.k_inf).astype(np.int64))
        fast = fast_mask(k, s, traveling, th, p)
        assert same_bits(fast, fast_mask_ref(k, s, traveling, th, p))
        check_floor(k, th.k_inf)

    def test_floor_on_scalars(self):
        for k, floor in ((3.0, 3.0), (np.float64(3.0), 2.0),
                         (np.array(3.0), np.array([1.0, 3.0]))):
            check_floor(k, floor)
        for k, floor in ((2.0, 3.0), (np.array(2.0), 3.0), (np.nan, 0.0)):
            with pytest.raises(InfeasibleKarmaError, match="agent 0"):
                check_floor(k, floor)


class TestMetricsStage:
    @settings(max_examples=examples(60), deadline=None)
    @given(day=days(),
           kind=st.sampled_from([SOCIETAL_DISCOMFORT, SOCIETAL_FLOW]),
           integer=st.booleans())
    def test_matches_reference(self, day, kind, integer):
        p, t, _, th, k, s, traveling = day
        model = ArcCostModel(societal_cost_kind=kind)
        fast = fast_mask(k, s, traveling, th, p)
        if integer:
            k = np.floor(k).astype(np.int64)
        for mask in (traveling, np.zeros_like(traveling)):  # or nobody
            # the route counts of the day's masks, as the day passes them
            n1 = int(np.count_nonzero(fast & mask))
            n2 = int(np.count_nonzero(mask)) - n1
            d = tuple(model.discomfort((n1 / k.size, n2 / k.size)).tolist())
            args = (fast & mask, mask, s, n1, n2, d, k, model)
            assert (float_bits(compute_metrics(*args))
                    == float_bits(compute_metrics_ref(*args)))

    def test_one_agent(self):
        model = ArcCostModel()
        d = tuple(model.discomfort((1.0, 0.0)).tolist())
        for k in (np.array(7.5), np.array([7.5]), np.array([7])):
            for fast, traveling in ((True, True), (False, True),
                                    (False, False)):
                args = (np.bool_(fast), np.bool_(traveling), np.float64(0.3),
                        int(fast), int(traveling and not fast), d, k, model)
                assert (float_bits(compute_metrics(*args))
                        == float_bits(compute_metrics_ref(*args)))


class TestModelAfterARun:
    @pytest.mark.parametrize("kind", [SOCIETAL_DISCOMFORT, SOCIETAL_FLOW])
    def test_equality_hash_and_round_trips(self, kind):
        # the volume-delay closures the day builds once stay off the model's
        # identity: equal, hashable, picklable and copyable as a plain model
        model = ArcCostModel(societal_cost_kind=kind)
        fresh = ArcCostModel(societal_cost_kind=kind)
        cfg = RunConfig(n_agents=50, days=5, societal_cost=kind)
        run_scenario(cfg.scenario(), model, cfg.prices(), cfg.days)
        assert model._volume_delay() is model._volume_delay()
        assert model == fresh and hash(model) == hash(fresh)
        assert repr(model) == repr(fresh)
        for copied in (pickle.loads(pickle.dumps(model)),
                       copy.deepcopy(model), copy.copy(model),
                       replace(model)):
            assert copied == model and hash(copied) == hash(model)
            for marginal in (False, True):
                got = [f(0.3) for f in copied._volume_delay(marginal)]
                want = [f(0.3) for f in fresh._volume_delay(marginal)]
                assert got == want
        assert replace(model, alpha=0.3) != model
        assert {model: 1}[fresh] == 1
