"""Built-in scenario presets.

All three use the same two-route volume-delay model (d0 = (1, 2),
kappa = (1/2, 2/3), alpha = 0.15, beta = 4), M = 1000 agents, a weekly
horizon T = 6, and unit-mean exponential sensitivities.  They differ in the
stay-home probability, the societal-cost family, the karma initialization,
and the (pinned) integer prices:

    fig3  p_home = 5%, cost = discomfort, k(0) ~ U[0,500], p = (10, -14)
    fig5  p_home = 0,  cost = discomfort, k(0) ~ U[0,100], p = (10, -13)
    fig6  p_home = 5%, cost = flow,       k(0) ~ U[0,500], p = (10, -10)

k_ref ~ U[0,100] in all presets.  Every value the presets share is a
`RunConfig` default (fixed prices, 500 days, seed 0).
"""

from __future__ import annotations

from dataclasses import replace

from .config import RunConfig
from .network import SOCIETAL_DISCOMFORT, SOCIETAL_FLOW

PRESETS: dict[str, RunConfig] = {
    "fig3": RunConfig(
        preset="fig3", p_home=0.05, societal_cost=SOCIETAL_DISCOMFORT,
        k_init_low=0.0, k_init_high=500.0, p1=10, r2=14, max_price=14,
    ),
    "fig5": RunConfig(
        preset="fig5", p_home=0.0, societal_cost=SOCIETAL_DISCOMFORT,
        k_init_low=0.0, k_init_high=100.0, p1=10, r2=13, max_price=13,
    ),
    "fig6": RunConfig(
        preset="fig6", p_home=0.05, societal_cost=SOCIETAL_FLOW,
        k_init_low=0.0, k_init_high=500.0, p1=10, r2=10, max_price=10,
    ),
}

# fields a preset pins; CLI/config values may still override the rest
PRESET_FIELDS = [
    "p_home", "horizon", "n_agents",
    "k_init_low", "k_init_high", "k_ref_low", "k_ref_high",
    "sensitivity_kind", "sensitivity_mean",
    "d0_1", "d0_2", "kappa_1", "kappa_2", "alpha", "beta", "societal_cost",
    "price_mode", "p1", "r2", "max_price",
]


def get_preset(name: str) -> RunConfig:
    try:
        return replace(PRESETS[name])
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def apply_preset(config: RunConfig, name: str) -> RunConfig:
    """Overwrite the preset-pinned fields of ``config`` with preset values."""
    preset = get_preset(name)
    updates = {key: getattr(preset, key) for key in PRESET_FIELDS}
    return replace(config, preset=name, **updates)
