"""Day-by-day repeated game over a finite agent population.

Each day: stay-home flags and sensitivities are drawn up front in agent-index
order, the daily route equilibrium is computed, karma accounts are settled,
and per-day metrics are recorded.  Runs are deterministic given the scenario
seed.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from functools import cached_property

import numpy as np

from .agent import Thresholds, k_inf, settle, thresholds
from .mesoscopic import quantize_population
from .network import ArcCostModel, Scenario, check_count, system_optimum
from .pricing import PriceVector
from .wardrop import CONTROLLED, UNCONTROLLED, wardrop_equilibrium

TAIL_FRACTION = 0.2  # share of the last days that the summary averages over


def _tail_days(days: int) -> int:
    """How many of ``days`` the summary averages over (at least one)."""
    return max(1, int(round(TAIL_FRACTION * days)))


@dataclass
class Population:
    """Mutable state of the simulated agents plus the day loop's bookkeeping.

    Rebinding ``k_ref`` (read-only) or ``prices`` raises, so ``breakpoints``
    cannot go stale; `dataclasses.replace` builds another population.
    """

    scenario: Scenario
    k: np.ndarray
    k_ref: np.ndarray
    rng: np.random.Generator
    prices: PriceVector
    n_clamped_init: int = 0
    day: int = 0

    def __post_init__(self):
        self.k_ref.flags.writeable = False

    def __setattr__(self, name, value):
        if name in ("k_ref", "prices") and name in self.__dict__:
            raise AttributeError(f"{name} is fixed; use dataclasses.replace")
        object.__setattr__(self, name, value)

    @cached_property
    def breakpoints(self) -> Thresholds:
        """The agents' `thresholds` at ``prices``, built on the first read."""
        return thresholds(self.k_ref, self.prices, self.scenario.horizon)


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
    """Per-day records plus the run's terminal karma histogram and context;
    ``summary`` derives the run's figures from them.

    ``n_clamped_init`` counts the agents whose k(0) was raised to the
    feasibility floor, ``n_clamped_final`` those whose final karma lies
    outside the chain's range and sits in a boundary cell of ``karma_hist``.
    """

    records: list[DayRecord]
    karma_hist: np.ndarray              # counts per karma-deviation cell
    x_star: np.ndarray
    cost_star: float
    prices: PriceVector
    scenario: Scenario
    n_clamped_init: int = 0
    n_clamped_final: int = 0

    def tail_records(self) -> list[DayRecord]:
        return self.records[-_tail_days(len(self.records)):]

    @property
    def summary(self) -> dict:
        """The run's figures as a new dict, the keys of `summary.json`;
        the tail means average the last `_tail_days` records."""
        tail = self.tail_records()
        delta_d = [r.delta_d for r in tail if r.delta_d is not None]
        delta_s = [r.delta_s for r in tail if r.delta_s is not None]
        return {
            "days": len(self.records),
            "tail_days": len(tail),
            "x_star": [float(v) for v in self.x_star],
            "cost_star": self.cost_star,
            "prices": {"p1": self.prices.p1, "r2": self.prices.r2},
            "seed": self.scenario.seed,
            "n_agents": self.scenario.n_agents,
            "n_clamped_init": self.n_clamped_init,
            "n_clamped_final": self.n_clamped_final,
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
            "first_controlled_day": next((r.day for r in self.records
                                          if r.regime == CONTROLLED), None),
        }

    def write_run_csv(self, path) -> None:
        """One column per `DayRecord` field; floats by `repr`, None empty."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(DayRecord)])
            for r in self.records:
                writer.writerow([
                    "" if v is None else repr(v) if isinstance(v, float) else v
                    for v in astuple(r)])

    def write_karma_hist_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "count"])
            for i, count in enumerate(self.karma_hist):
                writer.writerow([i + 1, int(round(count))])


def _uniform(rng: np.random.Generator, low: float, high: float,
             m: int) -> np.ndarray:
    """m draws uniform on [low, high), the bits and stream of
    ``rng.uniform(low, high, m)``.

    numpy takes u from the same stream as ``rng.random`` and returns
    low + (high - low) * u, with the bounds as floats; the product and the
    sum, taken here as two in-place passes over u, round the same.  A width
    of -0.0, which `Generator.uniform` rejects, draws what its width 0.0
    draws: low + 0.0.
    """
    u = rng.random(m)
    u *= float(high) - float(low)
    u += low
    return u


def init_population(scenario: Scenario, prices: PriceVector) -> Population:
    """Draw initial reference levels and karma balances.

    k_ref is drawn first, then k(0), both uniform on the scenario's ranges
    and both ``rng.uniform(low, high, m)`` bit for bit: one ``rng.random(m)``
    scaled in place (`_uniform`).  Any k(0) below the agent's feasibility
    floor k_inf is clamped up to it (the clamp count is kept on the
    returned population).  Flooring the returned ``k`` and ``k_ref``
    puts the agents on the quantized chain's integer lattice; the floored
    ``k`` stays above the floored k_inf, since (T + 1) * r2 is an integer.
    """
    rng = np.random.default_rng(scenario.seed)
    m = scenario.n_agents
    # glibc hands the free top of its heap back to the OS once it exceeds
    # twice the mmap threshold, and each day's m-float arrays then fault in
    # again; freeing one mapped block of 4m floats raises the threshold to
    # its size (mallopt(3)).  Under other allocators it is a spare allocation.
    np.empty(4 * m)
    k_ref = _uniform(rng, *scenario.k_ref_init, m)
    k = _uniform(rng, *scenario.k_init, m)
    floor = k_inf(k_ref, prices, scenario.horizon)
    n_clamped = int(np.count_nonzero(k < floor))
    # a new array, not k clamped in place: with one block fewer on the heap,
    # freeing a previous build's populations leaves more than glibc's trim
    # threshold free at its top, and the next build faults those pages in
    k = np.maximum(k, floor)
    return Population(scenario=scenario, k=k, k_ref=k_ref, rng=rng,
                      prices=prices, n_clamped_init=n_clamped)


def compute_metrics(fast, traveling, s, n1, n2, d, k, model: ArcCostModel):
    """Per-day metrics: (delta_d, delta_s, mean_karma, cost).

    ``fast`` and ``traveling`` are the day's route masks over all agents
    (``fast`` a subset of ``traveling``), ``s`` their sensitivities in units
    of the mean, ``n1`` and ``n2`` the counts of the two routes' travelers,
    ``d`` = d(x) at the flows x = (n1 / M, n2 / M), and ``k`` the karma
    after settlement.  delta_d compares the realized sensitivity-weighted
    discomfort against a sensitivity-unaware random assignment to the same
    flows, sum_i (s_i - 1) d_ji / sum_i d_ji over travelers; delta_s is the
    relative deviation of the travelers' mean sensitivity,
    sum_i (s_i - 1) / M.  Both are None on days nobody travels.

    Both come from per-route sums: with S_j the sum of route j's travelers'
    sensitivities (S = S1 + S2),

        delta_d = (d1 (S1 - n1) + d2 (S2 - n2)) / (d1 n1 + d2 n2),
        delta_s = (S - (n1 + n2)) / M.

    S1 and S are masked products summed by numpy's pairwise summation, so
    the last bits do not depend on the BLAS build.  Each sum is
    ``np.add.reduce``, the reduction that ``ndarray.sum`` wraps.
    """
    m = k.size
    cost = model._cost((n1 / m, n2 / m), d)
    # the bits of k.mean(), without the cost of numpy's wrapper around it
    mean_karma = float(np.add.reduce(k, axis=None)) / m
    n_travel = n1 + n2
    if not n_travel:
        return None, None, mean_karma, cost
    s1 = float(np.add.reduce(s * fast, axis=None))
    s_all = float(np.add.reduce(s * traveling, axis=None))
    d1, d2 = d
    delta_d = ((d1 * (s1 - n1) + d2 * (s_all - s1 - n2))
               / (d1 * n1 + d2 * n2))
    delta_s = (s_all - n_travel) / m
    return delta_d, delta_s, mean_karma, cost


def simulate_day(pop: Population, model: ArcCostModel, p: PriceVector,
                 cost_star: float) -> DayRecord:
    """Advance the population by one day and record its metrics.

    The day runs the public stages in order: `thresholds` (the population's
    ``breakpoints``), `wardrop_equilibrium`, `settle` and `compute_metrics`,
    all reading the day's fast-route and traveling masks over all agents;
    the cost ratio reads against the optimal cost ``cost_star``.

    Raises ValueError unless 0 < cost_star < inf, so NaN too, and unless
    ``p`` equals ``pop.prices``, both before the day draws: a rejected call
    leaves ``pop`` as it was.
    """
    if not 0.0 < cost_star < np.inf:
        raise ValueError(f"cost_star = {cost_star!r} must be finite and > 0")
    if p is not pop.prices and p != pop.prices:
        raise ValueError(f"prices {p} are not the population's {pop.prices}")
    sc = pop.scenario
    m = sc.n_agents
    rng, sens = pop.rng, sc.sensitivity
    traveling = rng.random(m) >= sc.p_home
    s = sens.sample(rng, m)  # draws for all agents; travelers use theirs

    fast, n1, n2, regime, d = wardrop_equilibrium(
        pop.k, s, traveling, pop.breakpoints, model, p)
    pop.k = k = settle(pop.k, fast, traveling, p)

    delta_d, delta_s, mean_karma, cost = compute_metrics(
        fast, traveling, s, n1, n2, d, k, model)
    record = DayRecord(day=pop.day, x1=n1 / m, x2=n2 / m, cost=cost,
                       cost_opt_ratio=cost / cost_star, delta_d=delta_d,
                       delta_s=delta_s, mean_karma=mean_karma, regime=regime)
    pop.day += 1
    return record


def run_optimum(scenario: Scenario, model: ArcCostModel, days: int):
    """The system optimum (x*, cost*) that a run of ``days`` days reads its
    cost ratios against; cost* > 0.

    Raises ValueError when a day's numbers could leave the float range:
    when cost* is so small against the model's largest cost that the tail's
    sum of daily cost ratios would not be finite (a d0 near the float
    range's bottom), or when `compute_metrics`' sums over the agents could
    overflow, each draw being at most `SensitivitySpec.draw_bound` means.
    Its delta_d denominator is at least min(d0) > 0 on a day anyone travels.
    """
    d1, d2 = model._delay
    d_hi = max(d1(1.0), d2(1.0))
    s_hi = scenario.sensitivity.draw_bound
    # numerator terms reach d_hi * M * s_hi
    if not 2 * scenario.n_agents * s_hi * max(1.0, d_hi) < np.inf:
        raise ValueError(
            f"sensitivities up to {s_hi!r} times their mean and discomforts "
            f"up to {d_hi!r} put a day's metric sums over "
            f"{scenario.n_agents} agents out of the float range")
    x_star = system_optimum(model, scenario.p_go)
    cost_star = model.societal_cost(x_star)
    # a convex cost on {x >= 0, x1 + x2 <= 1} peaks at (1, 0) or (0, 1),
    # so this bounds every day's ratio and the tail's sum of them
    worst = max(model.societal_cost((1.0, 0.0)),
                model.societal_cost((0.0, 1.0)))
    tail = _tail_days(days)
    if not (cost_star > 0 and tail * worst / cost_star < np.inf):
        raise ValueError(
            f"d0 = {model.d0} puts the optimal cost cost* at "
            f"{cost_star!r}: the sum of {tail} daily cost ratios, each "
            f"up to {worst!r} / cost*, overflows")
    return x_star, cost_star


def run_scenario(scenario: Scenario, model: ArcCostModel, p: PriceVector,
                 days: int) -> RunResult:
    """Run the repeated game for the given number of days.

    Raises ValueError before day 0 when `run_optimum` does.
    """
    check_count("days", days)
    pop = init_population(scenario, p)
    x_star, cost_star = run_optimum(scenario, model, days)
    records = [simulate_day(pop, model, p, cost_star) for _ in range(days)]
    hist, n_clamped = quantize_population(pop.k, pop.k_ref, p,
                                          scenario.horizon)
    return RunResult(records=records, karma_hist=hist * scenario.n_agents,
                     x_star=x_star, cost_star=cost_star, prices=p,
                     scenario=scenario, n_clamped_init=pop.n_clamped_init,
                     n_clamped_final=n_clamped)
