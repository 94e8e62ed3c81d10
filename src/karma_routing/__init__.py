"""Artificial-currency routing for a two-route commute network.

Design conserving prices for a target flow split, derive the closed-form
daily route choice of budget-constrained agents, analyze the induced
karma-distribution dynamics, and simulate the repeated game for finite
populations.
"""

from .agent import Thresholds, settle, thresholds
from .config import PRESETS, RunConfig, get_preset
from .errors import (ConvergenceError, DegenerateOptimumError,
                     InfeasibleHorizonError, InfeasibleKarmaError,
                     KarmaRoutingError)
from .mesoscopic import (KarmaChain, build_chain, equilibrium_flows,
                         quantize_population, stationary_distribution,
                         step_distribution)
from .network import (ArcCostModel, Scenario, as_flow, balanced_flow,
                      system_optimum)
from .pricing import PriceVector, conservation_prices, rationalize_prices
from .sensitivity import SensitivitySpec
from .simulation import (DayRecord, Population, RunResult, compute_metrics,
                         init_population, run_scenario, simulate_day)
from .wardrop import CONTROLLED, UNCONTROLLED, wardrop_equilibrium

__version__ = "0.1.0"

__all__ = [
    "CONTROLLED", "UNCONTROLLED", "ArcCostModel", "ConvergenceError",
    "DayRecord", "DegenerateOptimumError", "InfeasibleHorizonError",
    "InfeasibleKarmaError", "KarmaChain", "KarmaRoutingError", "Population",
    "PriceVector", "PRESETS", "RunConfig", "RunResult", "Scenario",
    "SensitivitySpec", "Thresholds", "as_flow", "balanced_flow",
    "build_chain", "compute_metrics", "conservation_prices",
    "equilibrium_flows", "get_preset", "init_population",
    "quantize_population", "rationalize_prices", "run_scenario", "settle",
    "simulate_day", "stationary_distribution", "step_distribution",
    "system_optimum", "thresholds", "wardrop_equilibrium",
]
