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
    sensitivity_mean = 1.0
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

Floats are written with `repr` so a written file reloads to identical values.
A `;` starts a comment, also after a value.  An unknown section or key is an
error, so a misspelled name cannot silently leave its default in place.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field

from .network import SOCIETAL_DISCOMFORT, ArcCostModel, Scenario, system_optimum
from .pricing import PriceVector, conservation_prices, rationalize_prices
from .sensitivity import EXPONENTIAL, SensitivitySpec

PRICE_FIXED = "fixed"
PRICE_DESIGN = "design"


@dataclass
class RunConfig:
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
    sensitivity_mean: float = 1.0
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
        if self.sensitivity_kind == EXPONENTIAL:
            return SensitivitySpec.exponential(self.sensitivity_mean)
        return SensitivitySpec.uniform(self.sensitivity_low, self.sensitivity_high)

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
        x_star = system_optimum(self.model(), 1.0 - self.p_home)
        ratio = conservation_prices(x_star)
        return rationalize_prices(ratio, self.max_price, self.horizon)

    def validate(self) -> "RunConfig":
        """Instantiate every derived object so bad values fail early."""
        if self.price_mode not in (PRICE_FIXED, PRICE_DESIGN):
            raise ValueError(f"unknown price mode: {self.price_mode!r}")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        self.scenario()
        self.model()
        if self.price_mode == PRICE_FIXED:
            PriceVector(self.p1, self.r2)
        elif self.max_price < 2:
            raise ValueError("max_price must be >= 2")
        return self

    # -- INI round-trip ----------------------------------------------------

    _SECTIONS = {
        "scenario": ["p_home", "horizon", "n_agents", "seed",
                     "k_init_low", "k_init_high", "k_ref_low", "k_ref_high",
                     "sensitivity_kind", "sensitivity_mean",
                     "sensitivity_low", "sensitivity_high"],
        "model": ["d0_1", "d0_2", "kappa_1", "kappa_2", "alpha", "beta",
                  "societal_cost"],
        "pricing": ["price_mode", "p1", "r2", "max_price"],
        "run": ["days"],
    }

    def to_ini(self, path) -> None:
        parser = configparser.ConfigParser()
        values = asdict(self)
        for section, keys in self._SECTIONS.items():
            parser[section] = {key: repr(values[key]) if
                               isinstance(values[key], float)
                               else str(values[key]) for key in keys}
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        with open(path, encoding="utf-8") as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
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
                if kind == "float":
                    kwargs[key] = float(raw)
                elif kind == "int":
                    kwargs[key] = int(raw)
                else:
                    kwargs[key] = raw
        return cls(**kwargs).validate()
