"""Run configuration: a flat dataclass with INI round-trip.

The file format is plain key/value sections readable by `configparser`:

    [scenario]
    p_home = 0.05
    horizon = 6
    n_agents = 1000
    seed = 42
    k_init_low = 0.0
    k_init_high = 500.0
    k_ref_low = 0.0
    k_ref_high = 100.0
    sensitivity_kind = exponential
    # sensitivity_low / sensitivity_high for the uniform kind

    [model]
    d0_1 = 1.0
    d0_2 = 2.0
    kappa_1 = 0.5
    kappa_2 = 0.6666666666666666
    alpha = 0.15
    beta = 4.0
    societal_cost = discomfort   ; or: flow

    [pricing]
    price_mode = fixed           ; or: design
    p1 = 10
    r2 = 14
    max_price = 20               ; used when price_mode = design

    [run]
    days = 500
    preset = fig3                ; written only for a run from a preset

The presets `fig3`, `fig5`, `fig6` pin every field but the run's seed and days.

Floats are written with `repr` so a written file reloads to identical values.
A `;` starts a comment, also after a value.  An unknown section, key or
sensitivity kind is an error, so a misspelling cannot run in place of the
default; and `validate` rejects a value other than the default in a key that
the config never reads: p1 and r2 under price_mode = design here, and
sensitivity_low and sensitivity_high under the exponential kind in
`SensitivitySpec`, which `scenario` builds.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field, replace

from .errors import KarmaRoutingError
from .network import (SOCIETAL_DISCOMFORT, SOCIETAL_FLOW, ArcCostModel,
                      Scenario, check_count)
from .pricing import PriceVector, design_prices
from .sensitivity import EXPONENTIAL, SensitivitySpec
from .simulation import run_optimum

PRICE_FIXED = "fixed"
PRICE_DESIGN = "design"
# INI value parser and its name in errors, by the field's annotation
_PARSERS = {"float": (float, "a float"), "int": (int, "an int")}


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run; frozen, so ``dataclasses.replace`` makes a
    changed copy and the shared `PRESETS` cannot be edited in place."""

    # scenario
    p_home: float = 0.05
    horizon: int = 6
    n_agents: int = 1000
    seed: int = 0
    k_init_low: float = 0.0
    k_init_high: float = 500.0
    k_ref_low: float = 0.0
    k_ref_high: float = 100.0
    sensitivity_kind: str = EXPONENTIAL
    sensitivity_low: float = 0.0
    sensitivity_high: float = 2.0
    # model
    d0_1: float = 1.0
    d0_2: float = 2.0
    kappa_1: float = 0.5
    kappa_2: float = 2.0 / 3.0
    alpha: float = 0.15
    beta: float = 4.0
    societal_cost: str = SOCIETAL_DISCOMFORT
    # pricing
    price_mode: str = PRICE_FIXED
    p1: int = 10
    r2: int = 14
    max_price: int = 20
    # run
    days: int = 500
    preset: str | None = field(default=None, compare=False)

    # -- derived objects ---------------------------------------------------

    def sensitivity(self) -> SensitivitySpec:
        return SensitivitySpec(self.sensitivity_kind, self.sensitivity_low,
                               self.sensitivity_high)

    def scenario(self) -> Scenario:
        return Scenario(
            p_home=self.p_home, horizon=self.horizon, n_agents=self.n_agents,
            sensitivity=self.sensitivity(),
            k_init=(self.k_init_low, self.k_init_high),
            k_ref_init=(self.k_ref_low, self.k_ref_high),
            seed=self.seed,
        )

    def model(self) -> ArcCostModel:
        return ArcCostModel(
            d0=(self.d0_1, self.d0_2), kappa=(self.kappa_1, self.kappa_2),
            alpha=self.alpha, beta=self.beta,
            societal_cost_kind=self.societal_cost,
        )

    def prices(self) -> PriceVector:
        if self.price_mode == PRICE_FIXED:
            return PriceVector(self.p1, self.r2)
        return design_prices(self.model(), 1.0 - self.p_home, self.max_price,
                             self.horizon)[2]

    def validate(self) -> "RunConfig":
        """Instantiate every derived object so bad values fail early, and
        reject a set value that the config never reads."""
        if self.price_mode not in (PRICE_FIXED, PRICE_DESIGN):
            raise ValueError(f"unknown price mode: {self.price_mode!r}")
        check_count("days", self.days)
        self._check_preset()
        for name in ("p1", "r2") if self.price_mode == PRICE_DESIGN else ():
            if (value := getattr(self, name)) != getattr(RunConfig, name):
                raise ValueError(f"{name} = {value!r} is not read under "
                                 "price_mode = design; leave it at its "
                                 f"default {getattr(RunConfig, name)!r}")
        # the scenario's checks (p_home and the sensitivity's among them)
        # and the run's optimum, which also bounds its daily numbers
        run_optimum(self.scenario(), self.model(), self.days)
        # design-prices reads max_price in either price mode
        check_count("max_price", self.max_price, low=2)
        try:
            self.prices()
        except KarmaRoutingError as exc:
            # a run needs the designed prices to exist; fixed prices raise
            # ValueError alone
            raise ValueError(f"price_mode = design: {exc}") from exc
        return self

    def _check_preset(self) -> None:
        """A config named for a preset holds its value in every pinned field."""
        if self.preset is None:
            return
        pinned = asdict(replace(get_preset(self.preset), seed=self.seed,
                                days=self.days))
        for name, value in asdict(self).items():
            if value != pinned[name]:
                raise ValueError(f"{name} = {value!r} differs from preset "
                                 f"{self.preset}'s {pinned[name]!r}; a preset "
                                 "pins every field but seed and days")

    # -- INI round-trip ----------------------------------------------------

    _SECTIONS = {
        "scenario": ["p_home", "horizon", "n_agents", "seed",
                     "k_init_low", "k_init_high", "k_ref_low", "k_ref_high",
                     "sensitivity_kind", "sensitivity_low",
                     "sensitivity_high"],
        "model": ["d0_1", "d0_2", "kappa_1", "kappa_2", "alpha", "beta",
                  "societal_cost"],
        "pricing": ["price_mode", "p1", "r2", "max_price"],
        "run": ["days", "preset"],
    }

    def to_ini(self, path) -> None:
        parser = configparser.ConfigParser()
        values = asdict(self)
        for section, keys in self._SECTIONS.items():
            parser[section] = {key: repr(values[key]) if
                               isinstance(values[key], float)
                               else str(values[key]) for key in keys
                               if values[key] is not None}
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        """The config ``path`` holds.  Its values are checked by `validate`,
        which the CLI calls once its own flags (such as ``--days``) apply;
        `validate`'s preset rule is checked here too, naming the file."""
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            # a directory, an unreadable or non-UTF-8 file, or bad syntax
            raise ValueError(f"{path}: {exc}") from exc
        named = parser.sections()
        if parser.defaults():
            named.insert(0, parser.default_section)
        kwargs = {}
        types = cls.__dataclass_fields__
        for section in named:
            if section not in cls._SECTIONS:
                raise ValueError(
                    f"{path}: unknown section [{section}]; "
                    f"valid sections: {', '.join(cls._SECTIONS)}")
            valid = cls._SECTIONS[section]
            for key in parser.options(section):
                if key not in valid:
                    raise ValueError(
                        f"{path}: unknown key {key!r} in [{section}]; "
                        f"valid keys: {', '.join(valid)}")
                raw = parser.get(section, key)
                kind = types[key].type
                parse, what = _PARSERS.get(kind, (str, "a string"))
                try:
                    kwargs[key] = parse(raw)
                except ValueError as exc:
                    raise ValueError(f"{path}: [{section}] {key} = {raw!r} "
                                     f"is not {what}") from exc
        config = cls(**kwargs)
        try:
            config._check_preset()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        return config


# the paper's numerical study (README "Presets"); every value the three
# share, such as the model, M = 1000 and T = 6, is a RunConfig default
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


def get_preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
