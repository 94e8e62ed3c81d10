"""The benchmark's workloads: inputs from the seed, timed ops, output checks.

A workload runs in identical rounds.  Each round builds the workload's inputs
from the same seeds (the timed set-up), then runs the same ops in the same
order, so op i of every round is the same computation.  Output checks run
between ops, outside the op timers.

Two kinds of workload:

- `DayLoop`: populations advanced one `simulate_day` call (one op) at a time,
  exactly as `run_scenario` advances them;
- `ChainDesign`: design-and-solve points, one op each: `system_optimum` ->
  `conservation_prices` -> `rationalize_prices` -> `build_chain` ->
  `stationary_distribution` -> `equilibrium_flows`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from time import perf_counter_ns

import numpy as np

import karma_routing as kr
from karma_routing.config import PRICE_DESIGN
from karma_routing.network import SOCIETAL_DISCOMFORT, SOCIETAL_FLOW
from karma_routing.wardrop import UNCONTROLLED

CAL_SAMPLES = 10    # calibration samples per round, spread over its ops
SOLVE_TOL = 1e-12   # stationary_distribution's default residual tolerance
KARMA_TOL = 1e-9    # absolute slack on per-agent karma changes
FLOW_TOL = 1e-9     # slack on d1 <= d2 and on x1/x2 = r2/p1


def _derive(cfg: kr.RunConfig):
    return cfg.scenario(), cfg.model(), cfg.prices()


# benchmark call sites into the library: attribute -> span name when traced
CALLS = {
    "get_preset": ("presets.get_preset", kr.get_preset),
    "derive": ("config.derive", _derive),
    "init_population": ("simulation.init_population", kr.init_population),
    "system_optimum": ("network.system_optimum", kr.system_optimum),
    "quantize_population": ("mesoscopic.quantize_population",
                            kr.quantize_population),
    "simulate_day": ("simulation.simulate_day", kr.simulate_day),
    "conservation_prices": ("pricing.conservation_prices",
                            kr.conservation_prices),
    "rationalize_prices": ("pricing.rationalize_prices", kr.rationalize_prices),
    "build_chain": ("mesoscopic.build_chain", kr.build_chain),
    "stationary_distribution": ("mesoscopic.stationary_distribution",
                                kr.stationary_distribution),
    "equilibrium_flows": ("mesoscopic.equilibrium_flows", kr.equilibrium_flows),
}


class Api:
    """The library functions a workload calls, span-wrapped when traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for attr, (span, fn) in CALLS.items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(span, fn))


@dataclass
class RoundResult:
    setup_ns: np.ndarray           # per-build wall time of the set-up
    op_ns: np.ndarray              # per-op wall time, in op order
    failed: int                    # ops whose output check failed
    outputs: list                  # per-op outputs, compared across rounds
    finals: list                   # per-population end state (digest only)
    cal_ns: np.ndarray             # calibration kernel times, in round order
    clamped: int = 0               # agents outside the chain range at set-up
    setup_layers: dict | None = None
    op_layers: list | None = None  # per-op tracer totals when traced


def timed_setup(workload, api: Api, seed: int):
    """Build the inputs `workload.setups` times from the same seed.

    Returns the last build, each build's time and, when traced, the
    per-layer totals of the fastest build.
    """
    setup_ns = np.empty(workload.setups, dtype=np.int64)
    best_layers = None
    for j in range(workload.setups):
        t0 = perf_counter_ns()
        inputs = workload.setup(api, seed)
        setup_ns[j] = perf_counter_ns() - t0
        layers = api.tracer.take() if api.tracer else None
        if setup_ns[j] <= setup_ns[:j + 1].min():
            best_layers = layers
    return inputs, setup_ns, best_layers


_CAL_X = np.random.default_rng(0).random(4096)
_CAL_S = np.random.default_rng(1).random(256)


def _calibration_kernel() -> float:
    """Fixed work of the kind the ops do: numpy calls on small arrays and
    scalar Python arithmetic.  It calls nothing in the library."""
    acc = 0.0
    for i in range(40):
        y = np.where(_CAL_X < 0.5, _CAL_X * 2.0, _CAL_X + 1.0)
        z = np.minimum(_CAL_S, 0.3) + _CAL_S[i]
        acc += float(y.sum()) + float(z.max())
        for j in range(20):
            acc += j * 0.5
    return acc


class Calibration:
    """Times the calibration kernel once every `every` ops of a round.

    Its fastest times track the machine's speed, to which run.py scales the
    reported times.
    """

    def __init__(self, n_ops: int):
        self.every = max(1, n_ops // CAL_SAMPLES)
        self.ns = np.empty(-(-n_ops // self.every), dtype=np.int64)

    def between_ops(self, i: int) -> None:
        if i % self.every == 0:
            t0 = perf_counter_ns()
            _calibration_kernel()
            self.ns[i // self.every] = perf_counter_ns() - t0


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


# -- day loops ---------------------------------------------------------------


@dataclass
class _Run:
    pop: kr.Population
    model: kr.ArcCostModel
    prices: kr.PriceVector
    cost_star: float | None


@dataclass(frozen=True)
class DayLoop:
    """Populations from presets, each run for `days` days per round.

    `populations` lists (preset, config overrides, number of seeds); the
    j-th population of a preset gets scenario seed 1000 * seed + j.  A run
    times `rounds` rounds, each building its inputs `setups` times.
    """

    name: str
    populations: tuple
    days: int
    rounds: int
    setups: int
    item = "agent-days"

    def specs(self, seed: int):
        for preset, overrides, n_seeds in self.populations:
            for j in range(n_seeds):
                yield preset, dict(overrides, seed=1000 * seed + j)

    def n_ops(self, seed: int) -> int:
        return self.days * sum(1 for _ in self.specs(seed))

    def items_per_round(self, seed: int) -> int:
        return self.days * sum(replace(kr.get_preset(preset), **overrides).n_agents
                               for preset, overrides in self.specs(seed))

    def setup(self, api: Api, seed: int):
        """Build every population as `run_scenario` does before day 0."""
        runs, clamped = [], 0
        for preset, overrides in self.specs(seed):
            cfg = replace(api.get_preset(preset), **overrides)
            scenario, model, prices = api.derive(cfg)
            pop = api.init_population(scenario, prices)
            x_star = api.system_optimum(model, scenario.p_go)
            cost_star = model.societal_cost(x_star)
            pop.last_flows = x_star.copy()
            _, n_out = api.quantize_population(pop.k, pop.k_ref, prices,
                                               scenario.horizon)
            clamped += n_out
            runs.append(_Run(pop, model, prices, cost_star or None))
        return runs, clamped

    def run_round(self, api: Api, seed: int, reference=None) -> RoundResult:
        tracer = api.tracer
        (runs, clamped), setup_ns, setup_layers = timed_setup(self, api, seed)
        op_ns = np.empty(self.n_ops(seed), dtype=np.int64)
        cal = Calibration(len(op_ns))
        op_layers = [] if tracer else None
        outputs, finals, failed, i = [], [], 0, 0
        for run in runs:
            pop = run.pop
            for _ in range(self.days):
                cal.between_ops(i)
                k_before = pop.k.copy()
                t0 = perf_counter_ns()
                record = api.simulate_day(pop, run.model, run.prices, run.cost_star)
                op_ns[i] = perf_counter_ns() - t0
                if tracer:
                    op_layers.append(tracer.take())
                ok = check_day(run, k_before, record)
                if reference is not None:
                    ok = ok and record == reference.outputs[i]
                failed += not ok
                outputs.append(record)
                i += 1
            hist, _ = kr.quantize_population(pop.k, pop.k_ref, run.prices,
                                             pop.scenario.horizon)
            finals.append(hist * pop.scenario.n_agents)
        return RoundResult(setup_ns, op_ns, failed, outputs, finals, cal.ns,
                           clamped, setup_layers, op_layers)

    def digest(self, result: RoundResult) -> dict:
        return {
            "days": _sha((r.x1, r.x2, r.regime) for r in result.outputs),
            "hist": _sha(h.astype(np.int64).tobytes() for h in result.finals),
        }

    def uncontrolled_days(self, result: RoundResult) -> int:
        return sum(r.regime == UNCONTROLLED for r in result.outputs)

    def reproduces_library(self, seed: int, reference: RoundResult) -> bool:
        """Whether `run_scenario` gives the same records and histograms."""
        runs, _ = self.setup(Api(), seed)
        for j, run in enumerate(runs):
            pop = run.pop
            result = kr.run_scenario(pop.scenario, run.model, run.prices, self.days)
            ours = reference.outputs[j * self.days:(j + 1) * self.days]
            if result.records != ours or not np.array_equal(
                    result.karma_hist, reference.finals[j]):
                return False
        return True


def _discomfort(model: kr.ArcCostModel, x1: float, x2: float):
    """Volume-delay discomforts, computed here so checks stay untraced."""
    return [d0 * (1.0 + model.alpha * (x / kap) ** model.beta)
            for d0, kap, x in zip(model.d0, model.kappa, (x1, x2))]


def check_day(run: _Run, k_before: np.ndarray, record: kr.DayRecord) -> bool:
    """Per-day invariants of the repeated game.

    Every karma change is -p1, 0 or +r2; the fast/slow counts equal x1*M and
    x2*M; the karma floor max(0, k_ref - (T+1) r2) holds; d1 <= d2 at the
    day's flows.
    """
    pop, p = run.pop, run.prices
    m = k_before.size
    dk = pop.k - k_before
    fast = np.abs(dk + p.p1) <= KARMA_TOL
    slow = np.abs(dk - p.r2) <= KARMA_TOL
    if not np.all(fast | slow | (dk == 0.0)):
        return False
    if (abs(np.count_nonzero(fast) - record.x1 * m) > 1e-6
            or abs(np.count_nonzero(slow) - record.x2 * m) > 1e-6):
        return False
    floor = np.maximum(0.0, pop.k_ref - (pop.scenario.horizon + 1) * p.r2)
    if not np.all(pop.k >= floor):
        return False
    d1, d2 = _discomfort(run.model, record.x1, record.x2)
    return d1 <= d2 + FLOW_TOL


# -- chain design ------------------------------------------------------------


@dataclass(frozen=True)
class _Point:
    model: kr.ArcCostModel
    p_home: float
    horizon: int
    max_price: int


@dataclass(frozen=True)
class ChainDesign:
    """Design-and-solve points, stratified so every seed covers the grid.

    For each cost family x p_home x T, `bins` max_price values are drawn, one
    uniformly from each equal-width bin of [10, 200]; the seed moves the
    points within their bins but not the mix of chain sizes.  A run times
    `rounds` rounds, each building its inputs `setups` times.
    """

    name: str
    bins: int
    rounds: int
    setups: int
    price_range: tuple[int, int] = (10, 200)
    item = "designs"
    families = (SOCIETAL_DISCOMFORT, SOCIETAL_FLOW)
    p_homes = (0.05, 0.2)
    horizons = (4, 6, 12)

    def n_ops(self, seed: int) -> int:
        return len(self.families) * len(self.p_homes) * len(self.horizons) * self.bins

    def items_per_round(self, seed: int) -> int:
        return self.n_ops(seed)

    def setup(self, api: Api, seed: int):
        preset = api.get_preset("fig3")
        sensitivity = preset.sensitivity()
        rng = np.random.default_rng(seed)
        edges = np.linspace(*self.price_range, self.bins + 1)
        points = []
        for family in self.families:
            model = replace(preset, societal_cost=family).model()
            for p_home in self.p_homes:
                for horizon in self.horizons:
                    for lo, hi in zip(edges[:-1], edges[1:]):
                        max_price = int(rng.integers(int(lo), int(hi), endpoint=True))
                        points.append(_Point(model, p_home, horizon, max_price))
        return points, sensitivity

    def design(self, api: Api, point: _Point, sensitivity):
        x_star = api.system_optimum(point.model, 1.0 - point.p_home)
        ratio = api.conservation_prices(x_star)
        prices = api.rationalize_prices(ratio, point.max_price, point.horizon)
        chain = api.build_chain(prices, point.horizon, point.p_home, sensitivity)
        solved = chain if api.tracer is None else api.tracer.counting_chain(chain)
        dist = api.stationary_distribution(solved)
        flows = api.equilibrium_flows(chain, dist)
        return prices, chain, dist, flows

    def run_round(self, api: Api, seed: int, reference=None) -> RoundResult:
        tracer = api.tracer
        design = self.design if tracer is None else tracer.wrap(
            "chain-design.point", self.design)
        (points, sensitivity), setup_ns, setup_layers = timed_setup(
            self, api, seed)
        op_ns = np.empty(len(points), dtype=np.int64)
        cal = Calibration(len(op_ns))
        op_layers = [] if tracer else None
        outputs, finals, failed = [], [], 0
        for i, point in enumerate(points):
            cal.between_ops(i)
            t0 = perf_counter_ns()
            prices, chain, dist, flows = design(api, point, sensitivity)
            op_ns[i] = perf_counter_ns() - t0
            if tracer:
                op_layers.append(tracer.take())
            out = (prices.p1, prices.r2, chain.n_states, float(flows[0]),
                   float(flows[1]), hashlib.sha256(dist.tobytes()).digest())
            ok = check_point(point, prices, chain, dist, flows)
            if reference is not None:
                ok = ok and out == reference.outputs[i]
            failed += not ok
            outputs.append(out)
        return RoundResult(setup_ns, op_ns, failed, outputs, finals, cal.ns, 0,
                           setup_layers, op_layers)

    def digest(self, result: RoundResult) -> dict:
        return {
            "designs": _sha(out[:5] for out in result.outputs),
            "dists": _sha(out[5] for out in result.outputs),
        }

    def uncontrolled_days(self, result: RoundResult) -> int:
        return 0

    def reproduces_library(self, seed: int, reference: RoundResult) -> bool:
        """Whether `RunConfig` in design mode picks the same prices."""
        points, _ = self.setup(Api(), seed)
        base = kr.get_preset("fig3")
        for point, out in zip(points, reference.outputs):
            cfg = replace(base, price_mode=PRICE_DESIGN, p_home=point.p_home,
                          horizon=point.horizon, max_price=point.max_price,
                          societal_cost=point.model.societal_cost_kind)
            prices = cfg.prices()
            if (prices.p1, prices.r2) != out[:2]:
                return False
        return True


def check_point(point: _Point, prices, chain, dist, flows) -> bool:
    """Invariants of one designed chain.

    The columns of A sum to 1; ||A P - P||_1 is within the solve tolerance;
    the induced flows split as x1/x2 = r2/p1; the prices are feasible for T.
    """
    a = chain.a
    if np.max(np.abs(np.asarray(a.sum(axis=0)).ravel() - 1.0)) > 1e-12:
        return False
    if np.abs(a @ dist - dist).sum() > SOLVE_TOL:
        return False
    if abs(flows[0] / flows[1] - prices.r2 / prices.p1) > FLOW_TOL:
        return False
    return prices.feasible_for_horizon(point.horizon)


# -- the workloads -----------------------------------------------------------

UNCONTROLLED_INIT = {"n_agents": 10_000, "k_init_low": 2000.0, "k_init_high": 4000.0}

WORKLOADS = {
    "fig3-3e4": DayLoop("fig3-3e4", (("fig3", {"n_agents": 30_000}, 1),), days=110,
                        rounds=20, setups=10),
    "presets-1e3": DayLoop("presets-1e3", tuple(
        (preset, {}, 2) for preset in ("fig3", "fig5", "fig6")), days=55,
        rounds=80, setups=10),
    "uncontrolled-1e4": DayLoop("uncontrolled-1e4",
                                (("fig3", UNCONTROLLED_INIT, 2),), days=55,
                                rounds=75, setups=10),
    "chain-design": ChainDesign("chain-design", bins=10, rounds=16, setups=40),
}

# the same workloads at sizes small enough for the smoke test
TINY = {
    "fig3-3e4": DayLoop("fig3-3e4", (("fig3", {"n_agents": 2000}, 1),), days=12,
                        rounds=3, setups=2),
    "presets-1e3": DayLoop("presets-1e3", tuple(
        (preset, {"n_agents": 200}, 1) for preset in ("fig3", "fig5", "fig6")),
        days=6, rounds=3, setups=2),
    "uncontrolled-1e4": DayLoop("uncontrolled-1e4",
                                (("fig3", dict(UNCONTROLLED_INIT, n_agents=500), 1),),
                                days=12, rounds=3, setups=2),
    "chain-design": ChainDesign("chain-design", bins=1, rounds=3, setups=2,
                                price_range=(10, 30)),
}
