"""Day-by-day repeated game over a finite agent population.

Each day: stay-home flags and sensitivities are drawn up front in agent-index
order, the daily route equilibrium is computed, karma accounts are settled,
and per-day metrics are recorded.  Runs are deterministic given the scenario
seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .agent import Thresholds, k_inf, settle, thresholds
from .mesoscopic import quantize_population
from .network import ArcCostModel, Scenario, check_count, system_optimum
from .pricing import PriceVector
from .wardrop import UNCONTROLLED, wardrop_equilibrium

RUN_CSV_COLUMNS = ["day", "x1", "x2", "cost", "cost_opt_ratio", "delta_d",
                   "delta_s", "mean_karma", "regime"]
TAIL_FRACTION = 0.2  # share of the last days that the summary averages over


@dataclass
class Population:
    """Mutable state of the simulated agents plus the day loop's bookkeeping.

    The per-agent breakpoints of k_ref are cached on the first `simulate_day`
    and rebuilt when that day's prices differ or ``k_ref`` is rebound to
    another array; `init_population` makes ``k_ref`` read-only, so an
    in-place edit raises instead of leaving the cache stale.
    """

    scenario: Scenario
    k: np.ndarray
    k_ref: np.ndarray
    rng: np.random.Generator
    n_clamped_init: int = 0
    day: int = 0
    _breakpoints: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def breakpoints(self, p: PriceVector) -> Thresholds:
        """Per-agent breakpoints at prices p, built once and then cached."""
        horizon = self.scenario.horizon
        cached = self._breakpoints
        if (cached is None or cached[0] != p or cached[1] != horizon
                or cached[2] is not self.k_ref):
            th = thresholds(np.asarray(self.k_ref, dtype=float), p, horizon)
            cached = self._breakpoints = (p, horizon, self.k_ref, th)
        return cached[3]


@dataclass
class DayRecord:
    day: int
    x1: float
    x2: float
    cost: float
    cost_opt_ratio: float
    delta_d: float | None
    delta_s: float | None
    mean_karma: float
    regime: str


@dataclass
class RunResult:
    """Per-day records plus the run's terminal karma histogram and context."""

    records: list[DayRecord]
    karma_hist: np.ndarray              # counts per karma-deviation cell
    x_star: np.ndarray
    cost_star: float
    prices: PriceVector
    scenario: Scenario
    n_clamped_init: int = 0
    summary: dict = field(default_factory=dict)

    def tail_records(self) -> list[DayRecord]:
        n_tail = max(1, int(round(TAIL_FRACTION * len(self.records))))
        return self.records[-n_tail:]

    def compute_summary(self) -> dict:
        tail = self.tail_records()
        delta_d = [r.delta_d for r in tail if r.delta_d is not None]
        delta_s = [r.delta_s for r in tail if r.delta_s is not None]
        self.summary = {
            "days": len(self.records),
            "tail_days": len(tail),
            "x_star": [float(v) for v in self.x_star],
            "cost_star": self.cost_star,
            "prices": {"p1": self.prices.p1, "r2": self.prices.r2},
            "seed": self.scenario.seed,
            "n_agents": self.scenario.n_agents,
            "n_clamped_init": self.n_clamped_init,
            "tail_mean_flows": [float(np.mean([r.x1 for r in tail])),
                                float(np.mean([r.x2 for r in tail]))],
            "tail_mean_cost": float(np.mean([r.cost for r in tail])),
            "tail_mean_cost_opt_ratio": float(np.mean(
                [r.cost_opt_ratio for r in tail])),
            "tail_mean_delta_d": float(np.mean(delta_d)) if delta_d else None,
            "tail_mean_delta_s": float(np.mean(delta_s)) if delta_s else None,
            "final_mean_karma": self.records[-1].mean_karma,
            "uncontrolled_days": sum(r.regime == UNCONTROLLED
                                     for r in self.records),
        }
        return self.summary

    def write_run_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RUN_CSV_COLUMNS)
            for r in self.records:
                writer.writerow([
                    r.day, repr(r.x1), repr(r.x2), repr(r.cost),
                    repr(r.cost_opt_ratio),
                    "" if r.delta_d is None else repr(r.delta_d),
                    "" if r.delta_s is None else repr(r.delta_s),
                    repr(r.mean_karma), r.regime,
                ])

    def write_karma_hist_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "count"])
            for i, count in enumerate(self.karma_hist):
                writer.writerow([i + 1, int(round(count))])


def init_population(scenario: Scenario, prices: PriceVector,
                    integer_karma: bool = False) -> Population:
    """Draw initial reference levels and karma balances.

    k_ref is drawn first, then k(0); any k(0) below the agent's feasibility
    floor k_inf is clamped up to it (the clamp count is kept on the returned
    population).  ``integer_karma`` floors the draws onto the integer lattice
    used by the quantized chain.
    """
    rng = np.random.default_rng(scenario.seed)
    m = scenario.n_agents
    k_ref = rng.uniform(*scenario.k_ref_init, m)
    k = rng.uniform(*scenario.k_init, m)
    if integer_karma:
        k_ref = np.floor(k_ref)
        k = np.floor(k)
    floor = k_inf(k_ref, prices, scenario.horizon)
    n_clamped = int(np.count_nonzero(k < floor))
    k = np.maximum(k, floor)
    k_ref.flags.writeable = False
    return Population(scenario=scenario, k=k, k_ref=k_ref, rng=rng,
                      n_clamped_init=n_clamped)


def compute_metrics(fast, traveling, s, x, d, k, model: ArcCostModel,
                    s_bar: float):
    """Per-day metrics: (delta_d, delta_s, mean_karma, cost).

    ``fast`` and ``traveling`` are the day's route masks over all agents
    (``fast`` a subset of ``traveling``), ``s`` their sensitivities, ``x``
    and ``d`` = d(x) float pairs, and ``k`` the karma after settlement.
    delta_d compares the realized sensitivity-weighted discomfort against a
    sensitivity-unaware random assignment to the same flows,
    sum_i (s_i - s_bar) d_ji / sum_i s_bar d_ji over travelers; delta_s is
    the relative deviation of the travelers' mean sensitivity,
    sum_i (s_i - s_bar) / (M s_bar).  Both are None on days nobody travels.

    Both come from per-route sums: with n_j the count of route j's travelers
    and S_j the sum of their sensitivities (S = S1 + S2),

        delta_d = (d1 (S1 - s_bar n1) + d2 (S2 - s_bar n2))
                  / (s_bar (d1 n1 + d2 n2)),
        delta_s = (S - s_bar (n1 + n2)) / (M s_bar).

    S1 and S are masked products summed by numpy's pairwise ``sum``, so the
    last bits do not depend on the BLAS build.
    """
    cost = model._cost(x, d)
    # the bits of k.mean(), without the cost of numpy's wrapper around it
    mean_karma = float(k.sum()) / k.size
    n_travel = int(np.count_nonzero(traveling))
    if not n_travel:
        return None, None, mean_karma, cost
    n1 = int(np.count_nonzero(fast))
    n2 = n_travel - n1
    s1 = float((s * fast).sum())
    s_all = float((s * traveling).sum())
    d1, d2 = d
    delta_d = ((d1 * (s1 - s_bar * n1) + d2 * (s_all - s1 - s_bar * n2))
               / (s_bar * (d1 * n1 + d2 * n2)))
    delta_s = (s_all - s_bar * n_travel) / (k.size * s_bar)
    return delta_d, delta_s, mean_karma, cost


def simulate_day(pop: Population, model: ArcCostModel, p: PriceVector,
                 cost_star: float | None = None) -> DayRecord:
    """Advance the population by one day and record its metrics.

    The day runs the public stages in order: `thresholds` (cached on the
    population), `wardrop_equilibrium`, `settle` and `compute_metrics`, all
    reading the day's fast-route and traveling masks over all agents.
    """
    sc = pop.scenario
    m = sc.n_agents
    traveling = pop.rng.random(m) >= sc.p_home
    s = sc.sensitivity.sample(pop.rng, m)  # draws for all agents; travelers use theirs
    s_bar = sc.sensitivity.s_bar

    fast, n1, n2, regime, d = wardrop_equilibrium(
        pop.k, s, traveling, pop.breakpoints(p), model, p, s_bar)
    pop.k = k = settle(pop.k, fast, traveling, p)

    x = (n1 / m, n2 / m)
    delta_d, delta_s, mean_karma, cost = compute_metrics(
        fast, traveling, s, x, d, k, model, s_bar)
    ratio = cost / cost_star if cost_star else float("nan")
    record = DayRecord(day=pop.day, x1=x[0], x2=x[1], cost=cost,
                       cost_opt_ratio=ratio, delta_d=delta_d, delta_s=delta_s,
                       mean_karma=mean_karma, regime=regime)
    pop.day += 1
    return record


def run_scenario(scenario: Scenario, model: ArcCostModel, p: PriceVector,
                 days: int, integer_karma: bool = False) -> RunResult:
    """Run the repeated game for the given number of days."""
    check_count("days", days)
    pop = init_population(scenario, p, integer_karma=integer_karma)
    if scenario.p_go > 0:
        x_star = system_optimum(model, scenario.p_go)
        cost_star = model.societal_cost(x_star)
    else:
        x_star, cost_star = np.zeros(2), 0.0
    records = [simulate_day(pop, model, p, cost_star=cost_star or None)
               for _ in range(days)]
    hist, _ = quantize_population(pop.k, pop.k_ref, p, scenario.horizon)
    result = RunResult(records=records,
                       karma_hist=hist * scenario.n_agents,
                       x_star=x_star, cost_star=cost_star, prices=p,
                       scenario=scenario,
                       n_clamped_init=pop.n_clamped_init)
    result.compute_summary()
    return result
