"""Command-line front end.

Subcommands:
    run             repeated-game simulation; writes run.csv, karma_hist.csv,
                    summary.json and the resolved config.ini
    analyze-chain   karma-distribution chain: the stationary distribution
                    with each cell's band, threshold and slow-route
                    probability, the induced flows and the ratio check
    design-prices   conservation price ratio and its integer rounding
    system-optimum  optimal split of the daily demand, and the balanced
                    (selfish) flow with its cost ratio to the optimum

Set KARMA_LOG_LEVEL to DEBUG, INFO, WARNING (default), ERROR or CRITICAL,
in any case.

Each subcommand takes only the flags it reads, and --preset and --config
are exclusive: a run's settings come from one preset, one config file or
the defaults, and the flags set only the seed and the number of days.
Every command runs `RunConfig.validate` once its flags apply, so a config
that validates runs under every command
(tests/test_config_cli.py::test_every_config_that_validates_runs).

Exit codes (the tests named are in tests/test_config_cli.py):
    0  success.
    1  a KarmaRoutingError, ValueError or OSError, printed as one
       "error: ..." line; an OSError names its path
       (TestCli::test_analyze_chain_solves_before_writing,
       TestCli::test_run_rejects_bad_days,
       TestRunConfig::test_unusable_out_named).
    2  an argparse error, such as a flag the subcommand does not read or
       both --preset and --config (TestCli::test_unread_flags_rejected); a
       missing --config file (TestCli::test_run_missing_config_exits_2); or
       a KARMA_LOG_LEVEL that is not a level name
       (TestRunConfig::test_bad_log_level_named).

Order of work: `run` and `analyze-chain` make --out after the config
validates and before any simulation or chain work, so a rejected config
leaves no --out (TestCli::test_everyone_home_rejected) and an --out that
cannot be a directory exits 1 at once
(TestRunConfig::test_unusable_out_named).  Results are written only once
every step has succeeded, the strict JSON summary included, so a later
failure, such as a stationary solve that fails its certification, adds no
file to --out (TestCli::test_analyze_chain_solves_before_writing).

A preset run's config.ini records the preset under [run], so
``run --config out/config.ini`` replays the run and its summary.json still
names the preset (TestCli::test_run_replays_its_own_config).
`design-prices` prints ``none`` and the reason, and exits 0, when a
fixed-price config has no design: the optimum leaves a route empty or the
rounded prices fall outside the horizon's band
(TestCli::test_design_prices_without_a_design).  `system-optimum` prints
``none`` for the balanced flow when the discomforts never cross, naming the
dominant route or the tie
(TestCli::test_system_optimum_names_the_dominant_route).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import PRESETS, RunConfig, get_preset
from .errors import (DegenerateOptimumError, InfeasibleHorizonError,
                     KarmaRoutingError)
from .mesoscopic import (build_chain, equilibrium_flows, save_distribution_csv,
                         stationary_distribution, step_distribution)
from .network import _crossing, system_optimum
from .pricing import design_prices
from .simulation import run_scenario

log = logging.getLogger("karma_routing")
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _resolve_config(args) -> RunConfig:
    """The config file, the preset, or the defaults; then --days and --seed."""
    if args.config:
        path = Path(args.config)
        if not path.exists():
            print(f"error: config file not found: {path}", file=sys.stderr)
            raise SystemExit(2)
        config = RunConfig.from_ini(path)
    elif args.preset:
        config = get_preset(args.preset)
    else:
        config = RunConfig()
    overrides = {key: value for key in ("days", "seed")
                 if (value := getattr(args, key, None)) is not None}
    return replace(config, **overrides).validate()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _strict_json(summary: dict) -> str:
    """The summary as strict JSON; NaN or infinity raises ValueError, before
    the command writes any file."""
    return json.dumps(summary, indent=2, allow_nan=False)


def cmd_run(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
    prices = config.prices()
    log.info("running %d days, M=%d, seed=%d, prices=(%d, -%d)",
             config.days, config.n_agents, config.seed, prices.p1, prices.r2)
    result = run_scenario(config.scenario(), config.model(), prices,
                          config.days)
    summary = result.summary
    summary["preset"] = config.preset
    text = _strict_json(summary)
    result.write_run_csv(out / "run.csv")
    result.write_karma_hist_csv(out / "karma_hist.csv")
    config.to_ini(out / "config.ini")
    (out / "summary.json").write_text(text, encoding="utf-8")
    print(f"wrote {out / 'run.csv'}, {out / 'karma_hist.csv'}, "
          f"{out / 'summary.json'}")
    print(f"prices: ({prices.p1}, -{prices.r2});  "
          f"system optimum: ({summary['x_star'][0]:.4f}, "
          f"{summary['x_star'][1]:.4f}), cost {summary['cost_star']:.6f}")
    print(f"tail mean flows: ({summary['tail_mean_flows'][0]:.4f}, "
          f"{summary['tail_mean_flows'][1]:.4f});  "
          f"tail cost ratio: {summary['tail_mean_cost_opt_ratio']:.5f}")
    if summary["tail_mean_delta_d"] is not None:
        print(f"tail mean delta_d: {summary['tail_mean_delta_d'] * 100:.2f}%")
    return 0


def cmd_analyze_chain(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
    prices = config.prices()
    chain = build_chain(prices, config.horizon, config.p_home,
                        config.sensitivity())
    dist = stationary_distribution(chain)
    residual = float(np.abs(step_distribution(chain, dist) - dist).sum())
    flows = equilibrium_flows(chain, dist)
    ratio = float(flows[0] / flows[1])
    summary = {
        "prices": {"p1": prices.p1, "r2": prices.r2},
        "horizon": config.horizon,
        "p_home": config.p_home,
        "n_states": chain.n_states,
        "residual_l1": residual,
        "flows": [float(v) for v in flows],
        "flow_ratio": ratio,
        "price_ratio_r2_over_p1": prices.r2 / prices.p1,
        "flow_ratio_error": abs(ratio - prices.r2 / prices.p1),
    }

    text = _strict_json(summary)
    save_distribution_csv(chain, dist, out / "stationary.csv")
    (out / "chain_summary.json").write_text(text, encoding="utf-8")
    print(f"wrote {out / 'stationary.csv'}, {out / 'chain_summary.json'}")
    print(f"N = {chain.n_states}; flows = ({flows[0]:.6f}, {flows[1]:.6f}); "
          f"x1/x2 = {ratio:.9f} vs r2/p1 = {prices.r2 / prices.p1:.9f}; "
          f"residual = {residual:.2e}")
    return 0


def cmd_design_prices(args) -> int:
    config = _resolve_config(args)
    p_go = 1.0 - config.p_home
    try:
        x_star, rho, prices = design_prices(config.model(), p_go,
                                            config.max_price, config.horizon)
    except (DegenerateOptimumError, InfeasibleHorizonError) as exc:
        # with fixed prices a config validates even when no design exists
        print(f"integer prices (max_price {config.max_price}): none ({exc})")
        return 0
    print(f"system optimum: ({x_star[0]:#.6g}, {x_star[1]:#.6g})  "
          f"(demand {p_go})")
    print(f"conserving ratio p1/r2 = x2*/x1* = {rho:.9f}")
    print(f"integer prices (max_price {config.max_price}): "
          f"({prices.p1}, -{prices.r2})")
    print(f"feasibility band for horizon {config.horizon}: r2/p1 = "
          f"{prices.r2 / prices.p1:.4f} in [{1 / config.horizon:.4f}, "
          f"{config.horizon}]")
    return 0


def cmd_system_optimum(args) -> int:
    config = _resolve_config(args)
    model = config.model()
    p_go = 1.0 - config.p_home
    x_star = system_optimum(model, p_go)
    cost = model.societal_cost(x_star)
    print(f"demand: {p_go}")
    print(f"system optimum: ({x_star[0]:#.6g}, {x_star[1]:#.6g})")
    print(f"optimal societal cost: {cost:.9f}")
    # the balanced-flow search reports which end check stopped it
    x1, end = _crossing(*model._delay, p_go)
    if end == "tie":
        print("balanced flow: none (the routes tie: d1 = d2 over the whole "
              "range)")
    elif end:
        sign = "<" if end == "route 1" else ">="
        print(f"balanced flow: none ({end} dominates: d1 {sign} d2 over the "
              "whole range)")
    else:
        # selfish routing: what the balanced flow costs against the optimum
        x_bal = (x1, p_go - x1)
        cost_bal = model.societal_cost(x_bal)
        print(f"balanced flow: ({x_bal[0]:.6f}, {x_bal[1]:.6f})")
        print(f"balanced societal cost: {cost_bal:.9f} "
              f"({cost_bal / cost:.4f} x optimal)")
    return 0


def _add_common(parser: argparse.ArgumentParser):
    """--preset or --config, one of which every subcommand may read."""
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in scenario preset")
    source.add_argument("--config", help="INI config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karma-routing",
        description="Artificial-currency routing: price design, chain "
                    "analysis, and repeated-game simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate the repeated game")
    _add_common(p_run)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--days", type=int, help="number of simulated days")
    p_run.add_argument("--seed", type=int, help="RNG seed override")
    p_run.set_defaults(func=cmd_run)

    p_chain = sub.add_parser("analyze-chain",
                             help="karma-distribution chain analysis")
    _add_common(p_chain)
    p_chain.add_argument("--out", default="out", help="output directory")
    p_chain.set_defaults(func=cmd_analyze_chain)

    p_prices = sub.add_parser("design-prices",
                              help="conservation prices and their rounding")
    _add_common(p_prices)
    p_prices.set_defaults(func=cmd_design_prices)

    p_opt = sub.add_parser("system-optimum", help="optimal demand split")
    _add_common(p_opt)
    p_opt.set_defaults(func=cmd_system_optimum)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("KARMA_LOG_LEVEL", "WARNING").upper()
    if level not in LOG_LEVELS:
        print(f"error: KARMA_LOG_LEVEL = {level!r} is not a level; valid "
              f"levels: {', '.join(LOG_LEVELS)}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # config-resolution failures carry exit code 2
        return exc.code if isinstance(exc.code, int) else 2
    except (KarmaRoutingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an --out that cannot be made or written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
