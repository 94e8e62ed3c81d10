import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import karma_routing
from karma_routing import (PRESETS, PriceVector, RunConfig, SensitivitySpec,
                           balanced_flow, get_preset, mesoscopic)
from karma_routing import cli
from karma_routing.cli import _strict_json, main
from karma_routing.config import PRICE_DESIGN
from karma_routing.simulation import run_optimum

from conftest import examples, same_bits
from mutate import MUTANTS, mutated


README = Path(__file__).parents[1] / "README.md"
# a test id as README.md cites it: file, optional class, function
CITATION = r"tests/(\w+\.py)::(?:(\w+)::)?(\w+)"


def readme_block(lang: str) -> str:
    """The body of README.md's one ```lang block; CI's bare-install step
    extracts the ```python block by the same fences."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(),
                        re.S | re.M)
    assert len(blocks) == 1, f"README.md holds {len(blocks)} ```{lang} blocks"
    return blocks[0]


def cited_test_exists(filename: str, cls: str, name: str) -> bool:
    """Whether tests/<filename> defines test ``name``, in class ``cls``
    when given, else at module level."""
    path = Path(__file__).parent / filename
    if not path.is_file():
        return False
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    if cls:
        scope = next((node.body for node in scope
                      if isinstance(node, ast.ClassDef) and node.name == cls),
                     [])
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in scope)


class TestRunConfig:
    def test_ini_roundtrip_identical(self, tmp_path):
        cfg = RunConfig(p_home=0.07, horizon=5, n_agents=321, seed=9,
                        k_init_low=1.25, k_init_high=431.5,
                        sensitivity_kind="uniform", sensitivity_spread=0.3,
                        kappa_2=2.0 / 3.0, alpha=0.15,
                        price_mode=PRICE_DESIGN, max_price=17, days=42)
        path = tmp_path / "cfg.ini"
        cfg.to_ini(path)
        again = RunConfig.from_ini(path)
        assert again == cfg
        # a second round trip is bit-stable too
        path2 = tmp_path / "cfg2.ini"
        again.to_ini(path2)
        assert RunConfig.from_ini(path2) == again

    def test_unknown_section_or_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "typo.ini"
        path.write_text("[scenario]\np_hom = 0.5\n")
        with pytest.raises(ValueError, match=r"'p_hom'.*valid keys: p_home"):
            RunConfig.from_ini(path)
        path.write_text("[scenario]\np_home = 0.5\n[modle]\nalpha = 0.3\n")
        with pytest.raises(ValueError,
                           match=r"\[modle\].*scenario, model, pricing, run"):
            RunConfig.from_ini(path)
        path.write_text("[DEFAULT]\nseed = 1\n")
        with pytest.raises(ValueError, match=r"\[DEFAULT\]"):
            RunConfig.from_ini(path)
        path.write_text("p_home = 0.5\n[scenario]\n")
        with pytest.raises(ValueError, match="no section headers"):
            RunConfig.from_ini(path)
        # sensitivities are drawn in units of their mean, which has no key,
        # and a uniform law is set by its spread alone, not by its bounds
        for old in ("mean", "low", "high"):
            path.write_text(f"[scenario]\nsensitivity_{old} = 1.0\n")
            message = (f"unknown key 'sensitivity_{old}' in \\[scenario\\]; "
                       "valid keys: .*, sensitivity_kind, sensitivity_spread$")
            with pytest.raises(ValueError, match=message):
                RunConfig.from_ini(path)
            assert main(["system-optimum", "--config", str(path)]) == 1
            assert re.match(f"error: {re.escape(str(path))}: {message}",
                            capsys.readouterr().err)
        path.write_text("[scenario]\nhorizon = 2.5\n")
        with pytest.raises(ValueError) as err:
            RunConfig.from_ini(path)
        assert str(err.value) == f"{path}: [scenario] horizon = '2.5' is not an int"

    def test_cli_reports_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "typo.ini"
        path.write_text("[scenario]\np_hom = 0.5\n")
        code = main(["run", "--config", str(path), "--days", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "unknown key 'p_hom' in [scenario]" in capsys.readouterr().err

    def test_readme_config_example_loads(self, tmp_path):
        path = tmp_path / "readme.ini"
        path.write_text(readme_block("ini"))
        assert RunConfig.from_ini(path) == RunConfig()

    def test_readme_library_example_runs(self, capsys):
        exec(compile(readme_block("python"), "README.md", "exec"), {})
        flows, ratio = capsys.readouterr().out.splitlines()
        # the example's comments: "-> [0.5542, 0.3958]" and "~1.001"
        assert [round(float(x), 4) for x in flows.strip("[]").split()] == [
            0.5542, 0.3958]
        assert float(ratio) == pytest.approx(1.00113, abs=5e-5)

    def test_readme_cited_tests_exist(self):
        # every tests/<file>.py::[<Class>::]<name> that README.md cites
        citations = re.findall(CITATION, README.read_text())
        assert len(citations) >= 7
        missing = [c for c in citations if not cited_test_exists(*c)]
        assert missing == []

    def test_mutants_match_the_source(self):
        # `mutated` raises unless the edit's old text occurs exactly once
        assert len({m.name for m in MUTANTS}) == len(MUTANTS)
        assert all(m.old != m.new and mutated(m) for m in MUTANTS)

    def test_validation_failures(self):
        with pytest.raises(ValueError):
            RunConfig(price_mode="bogus").validate()
        for days in (0, 2.5, True):
            with pytest.raises(ValueError, match="days"):
                RunConfig(days=days).validate()
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=-1).validate()
        with pytest.raises(ValueError, match="n_agents"):
            RunConfig(n_agents=2.5).validate()
        with pytest.raises(ValueError):
            RunConfig(p1=0).validate()
        with pytest.raises(ValueError, match="unknown societal cost kind"):
            RunConfig(societal_cost="bogus").validate()
        with pytest.raises(ValueError, match="unknown preset 'fig7'"):
            RunConfig(preset="fig7").validate()
        for max_price in (1, 20.0):
            with pytest.raises(ValueError,
                               match="max_price must be an integer >= 2"):
                RunConfig(price_mode=PRICE_DESIGN,
                          max_price=max_price).validate()
        with pytest.raises(ValueError,
                           match="unknown sensitivity kind: 'bogus'"):
            RunConfig(sensitivity_kind="bogus").validate()

    @pytest.mark.parametrize("field, value", [("beta", 2000.0),
                                              ("kappa_1", 1e-300),
                                              ("alpha", 1e308)])
    def test_overflowing_cost_model_rejected(self, field, value, tmp_path,
                                             capsys):
        # these used to end run, design-prices and system-optimum in an
        # OverflowError traceback, or run at the JSON step on a NaN
        with pytest.raises(ValueError, match="route 1 marginal cost"):
            RunConfig(**{field: value}).validate()
        path = tmp_path / "steep.ini"
        path.write_text(f"[model]\n{field} = {value!r}\n")
        out = tmp_path / "o"
        for argv in (["run", "--days", "3", "--out", str(out)],
                     ["analyze-chain", "--out", str(out)],
                     ["design-prices"], ["system-optimum"]):
            assert main(argv + ["--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: route 1 marginal cost"), err
            assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("changes, message", [
        # discomforts whose sums over the agents overflow, at the largest
        # exponential and uniform draws (1024 and 2 times the mean)
        (dict(d0_1=1e305), "metric sums"),
        (dict(sensitivity_kind="uniform", d0_2=1e306), "metric sums"),
        (dict(d0_1=1e300, n_agents=10**9), "metric sums"),
        (dict(k_init_high=1e308), r"k_init must satisfy .* 2\*\*53"),
        (dict(k_ref_high=2.0**53), r"k_ref_init must satisfy .* 2\*\*53"),
        (dict(max_price=1), "max_price must be an integer >= 2"),
        (dict(price_mode=PRICE_DESIGN, d0_1=5.0, d0_2=1.0, alpha=0.0),
         "price_mode = design: target flow"),
        (dict(sensitivity_kind="uniform", sensitivity_spread=5e-324),
         "uniform sensitivity needs 1e-12 <= spread <= 1"),
        # at the uniform draw bound, 2 * M * 2 * d(1) overflows
        (dict(sensitivity_kind="uniform", d0_2=3e304), "metric sums"),
    ])
    def test_validate_rejects_what_a_command_fails_on(self, changes,
                                                       message):
        # without its check each would validate, then end a command in a
        # ZeroDivisionError traceback, in a strict-JSON error naming no
        # field after the run, or (max_price, design) in an error of
        # design-prices or run
        with pytest.raises(ValueError, match=message):
            RunConfig(**changes).validate()

    def test_metric_sums_bound_by_kind(self):
        # d0_1 = 1e302 keeps a day's sums finite at uniform draws (at most 2
        # means), not at exponential ones (bound 1024, above numpy's 45)
        RunConfig(sensitivity_kind="uniform", d0_1=1e302).validate()
        with pytest.raises(ValueError, match=r"sensitivities up to 1024\.0 "):
            RunConfig(d0_1=1e302).validate()

    @pytest.mark.parametrize("ini, field", [
        ("[pricing]\nprice_mode = design\np1 = 3\nr2 = 5\n", "p1 = 3"),
        ("[pricing]\nprice_mode = design\nr2 = 5\n", "r2 = 5"),
        # SensitivitySpec names its own field, spread
        ("[scenario]\nsensitivity_spread = 0.7\n", "spread = 0.7"),
        ("[scenario]\nsensitivity_spread = nan\n", "spread = nan"),
    ], ids=["design-p1", "design-r2", "exp-spread", "exp-nan"])
    def test_unread_field_rejected(self, ini, field, tmp_path, capsys):
        # a value that the config's own mode never reads used to be
        # accepted: a design run with p1 = 3 ran at (14, -20) and wrote
        # p1 = 3 into its config.ini
        path = tmp_path / "unread.ini"
        path.write_text(ini)
        with pytest.raises(ValueError, match=f"^{field} is not read under"):
            RunConfig.from_ini(path).validate()
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--days", "3",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} is not read under"), err
        assert not out.exists()

    def test_unknown_sensitivity_kind_rejected(self, tmp_path, capsys):
        # every kind but exponential used to draw from U[0, 2]: a run with
        # the typo "Exponential" wrote the uniform run's run.csv
        path = tmp_path / "typo.ini"
        path.write_text("[scenario]\nsensitivity_kind = Exponential\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--days", "3",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: unknown sensitivity kind: 'Exponential'"), err
        assert not out.exists()

    @pytest.mark.parametrize("changes", [
        dict(price_mode=PRICE_DESIGN, p1=10, r2=14),
        dict(sensitivity_spread=1.0),
        dict(p1=3, r2=5, sensitivity_kind="uniform", sensitivity_spread=0.6),
    ], ids=["design-defaults", "exp-defaults", "fixed-uniform"])
    def test_read_or_default_fields_accepted(self, changes):
        # each field holds its default or is read by its mode
        RunConfig(**changes).validate()

    @pytest.mark.parametrize("command", ["run", "analyze-chain"])
    def test_unusable_out_named(self, command, tmp_path, capsys,
                                monkeypatch):
        # an --out at a file used to end in a FileExistsError traceback, and
        # one below a file in NotADirectoryError, after all the work was done
        def no_work(*args):
            raise AssertionError("the work ran before --out was made")
        monkeypatch.setattr(cli, "run_scenario", no_work)
        monkeypatch.setattr(cli, "build_chain", no_work)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out, why in ((blocker, "File exists"),
                         (blocker / "sub", "Not a directory")):
            assert main([command, "--preset", "fig3", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {out}: {why}\n", err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("name", ["bogus", "notset", "warn", "fatal"])
    def test_bad_log_level_named(self, name, monkeypatch, capsys):
        # bogus used to end in a traceback; NOTSET, WARN and FATAL passed
        monkeypatch.setenv("KARMA_LOG_LEVEL", name)
        assert main(["system-optimum", "--preset", "fig3"]) == 2
        assert capsys.readouterr() == ("", (
            f"error: KARMA_LOG_LEVEL = '{name.upper()}' is not a level; "
            "valid levels: DEBUG, INFO, WARNING, ERROR, CRITICAL\n"))

    def test_unreadable_config_named(self, tmp_path, capsys):
        # a directory used to end in an IsADirectoryError traceback, and a
        # non-UTF-8 file in an error line that did not name the file
        binary = tmp_path / "latin1.ini"
        binary.write_bytes("[scenario]\n; caf\xe9\n".encode("latin-1"))
        for path in (tmp_path, binary):
            with pytest.raises(ValueError, match=re.escape(str(path))):
                RunConfig.from_ini(path)
            out = tmp_path / "o"
            assert main(["run", "--config", str(path), "--days", "3",
                         "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: "), err
            assert "Traceback" not in err
            assert not out.exists()

    def test_uniform_sensitivity(self):
        cfg = RunConfig(sensitivity_kind="uniform", sensitivity_spread=0.5)
        spec = cfg.sensitivity()
        assert spec == SensitivitySpec("uniform", 0.5)
        assert spec.cdf(1.0) == 0.5  # the mean is the unit
        assert cfg.scenario().sensitivity == spec

    def test_designed_prices_from_model(self):
        cfg = RunConfig(price_mode=PRICE_DESIGN, p_home=0.05, max_price=14)
        assert cfg.prices() == PriceVector(10, 14)
        cfg = RunConfig(price_mode=PRICE_DESIGN, p_home=0.0, max_price=13)
        assert cfg.prices() == PriceVector(10, 13)


class TestPresets:
    def test_reference_parameters_pinned(self):
        fig3 = get_preset("fig3")
        assert (fig3.p_home, fig3.n_agents, fig3.horizon) == (0.05, 1000, 6)
        assert (fig3.p1, fig3.r2) == (10, 14)
        assert (fig3.k_init_low, fig3.k_init_high) == (0.0, 500.0)
        assert (fig3.k_ref_low, fig3.k_ref_high) == (0.0, 100.0)
        assert fig3.societal_cost == "discomfort"

        fig5 = get_preset("fig5")
        assert fig5.p_home == 0.0
        assert (fig5.p1, fig5.r2) == (10, 13)
        assert (fig5.k_init_low, fig5.k_init_high) == (0.0, 100.0)

        fig6 = get_preset("fig6")
        assert fig6.societal_cost == "flow"
        assert (fig6.p1, fig6.r2) == (10, 10)
        assert fig6.p_home == 0.05

    def test_presets_are_frozen(self):
        # an edit used to change what every later get_preset returned
        fig3 = get_preset("fig3")
        with pytest.raises(FrozenInstanceError):
            fig3.p1 = 3
        with pytest.raises(FrozenInstanceError):
            karma_routing.PRESETS["fig3"].p1 = 3
        assert (get_preset("fig3").p1, get_preset("fig3").r2) == (10, 14)
        assert replace(fig3, p1=3).p1 == 3 and fig3.p1 == 10

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("fig7")


# the CLI with scipy blocked: any import of it raises ImportError
NO_SCIPY_RUN = """
import runpy, sys
sys.modules["scipy"] = None
out = sys.argv[1]
# `python -m karma_routing.cli ...`: the process exits with main's status
for status, argv in [
        (0, ["analyze-chain", "--preset", "fig3", "--out", out + "/chain"]),
        (0, ["run", "--preset", "fig3", "--days", "20", "--out", out + "/run"]),
        (0, ["system-optimum", "--preset", "fig3"]),
        (1, ["run", "--preset", "fig3", "--days", "0", "--out", out + "/d0"]),
        (2, ["system-optimum", "--config", out + "/missing.ini"]),
        (2, ["system-optimum", "--preset", "fig3", "--config", "x.ini"])]:
    sys.argv = ["karma_routing.cli", *argv]
    try:
        runpy.run_module("karma_routing.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == status, (argv, exc.code)
    else:
        raise AssertionError(f"{argv} did not exit")
"""

# `RunResult.summary`'s keys in the order `run` writes them to summary.json
SUMMARY_KEYS = [
    "days", "tail_days", "x_star", "cost_star", "prices", "seed", "n_agents",
    "n_clamped_init", "n_clamped_final", "tail_mean_flows", "tail_mean_cost",
    "tail_mean_cost_opt_ratio", "tail_mean_delta_d", "tail_mean_delta_s",
    "final_mean_karma", "uncontrolled_days", "first_controlled_day"]


def config_args(source: str, tmp_path: Path) -> list[str]:
    """``--preset source`` for a preset's name, else ``--config`` of an INI
    file in tmp_path that holds ``source``."""
    if source in PRESETS:
        return ["--preset", source]
    path = tmp_path / "c.ini"
    path.write_text(source)
    return ["--config", str(path)]


# the `run`s whose written files `test_run_files_agree` checks: name ->
# (preset name or INI text, days, the summary values and file facts it pins)
RUNS = {
    "fig3": ("fig3", 20, dict(first_controlled_day=0)),
    "fig5": ("fig5", 20, dict(first_controlled_day=0)),
    "fig6": ("fig6", 20, dict(first_controlled_day=0)),
    # a karma-rich population overloads the fast route: every day is
    # uncontrolled, and every agent ends far above the chain, in its top cell
    "rich": ("[scenario]\nk_init_low = 2000.0\nk_init_high = 4000.0\n", 20,
             dict(uncontrolled_days=20, first_controlled_day=None,
                  n_clamped_final=1000, top_cell=1000)),
    # three agents who mostly stay home: at seed 0, 21 of 30 days have no
    # traveler, each a controlled day with no delta_d
    "few": ("[scenario]\nn_agents = 3\np_home = 0.9\n", 30,
            dict(idle_days=21)),
    # fixed prices outside the horizon band, p1 = 40 > T*r2 = 6: the one
    # case where k_ref + p1 - T*r2 can round below k_poor's exact boundary
    "toll": ("[pricing]\np1 = 40\nr2 = 1\n", 20, {}),
    "uniform": ("[scenario]\nsensitivity_kind = uniform\n"
                f"sensitivity_spread = {2 / 3!r}\n", 20, {}),
    # 10 000 agents, whose histogram counts used to be truncated
    "m1e4": ("[scenario]\nn_agents = 10000\n", 5, {}),
    "small": ("[scenario]\nn_agents = 60\nhorizon = 4\nseed = 2\n"
              "[pricing]\np1 = 2\nr2 = 3\n", 4,
              dict(seed=2, prices={"p1": 2, "r2": 3})),
    # U[0, -0.0] used to end run in numpy's "high - low < 0"
    "zero": ("[scenario]\nk_init_high = -0.0\n", 3, {}),
    # (14, 20) at the default max_price = 20
    "design50": ("[pricing]\nprice_mode = design\nmax_price = 50\n", 3,
                 dict(prices={"p1": 35, "r2": 50})),
}


class TestCli:
    def test_runs_without_scipy(self, tmp_path):
        src = Path(karma_routing.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        # a cast or overflow warning fails the run, as in CI's bare install
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-c", NO_SCIPY_RUN, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "chain" / "stationary.csv").exists()
        assert (tmp_path / "run" / "summary.json").exists()

    def test_run_emits_files(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--preset", "fig3", "--days", "6", "--seed", "4",
                     "--out", str(out)])
        assert code == 0
        for name in ("run.csv", "karma_hist.csv", "summary.json", "config.ini"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["days"] == 6
        assert summary["prices"] == {"p1": 10, "r2": 14}
        assert summary["preset"] == "fig3"
        lines = (out / "run.csv").read_text().splitlines()
        assert len(lines) == 7
        assert capsys.readouterr().out.startswith("wrote")

    def test_summary_json_keys_in_order(self, tmp_path):
        # the file's schema: the library's 17 keys, in order, then preset;
        # changing it is a declared format change
        out = tmp_path / "o"
        assert main(["run", "--preset", "fig3", "--days", "6",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == SUMMARY_KEYS + ["preset"]

    def test_run_replays_its_own_config(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["run", "--preset", "fig3", "--days", "6", "--seed", "4",
                     "--out", str(first)]) == 0
        assert sorted(p.name for p in first.iterdir()) == [
            "config.ini", "karma_hist.csv", "run.csv", "summary.json"]
        assert "preset = fig3" in (first / "config.ini").read_text()
        assert main(["run", "--config", str(first / "config.ini"),
                     "--out", str(again)]) == 0
        summary = json.loads((again / "summary.json").read_text())
        assert summary["preset"] == "fig3"
        for name in ("run.csv", "summary.json", "config.ini"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("name", RUNS)
    def test_run_files_agree(self, name, tmp_path):
        # the written files of one run agree with each other and its summary
        source, days, expected = RUNS[name]
        out = tmp_path / "out"
        assert main(["run", *config_args(source, tmp_path), "--days", str(days),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                             parse_constant=reject_constant)
        with open(out / "karma_hist.csv", newline="", encoding="utf-8") as fh:
            counts = [int(row["count"]) for row in csv.DictReader(fh)]
        with open(out / "run.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == summary["days"] == days
        assert sum(counts) == summary["n_agents"]
        # agents off the chain are folded into its two end cells
        clamped = summary["n_clamped_final"]
        assert type(clamped) is int and 0 <= clamped <= counts[0] + counts[-1]
        facts = dict(summary, top_cell=counts[-1],
                     idle_days=sum(row["delta_d"] == "" for row in rows))
        assert {key: facts[key] for key in expected} == expected

    def test_edited_preset_config_rejected(self, tmp_path, capsys):
        # its summary.json would name fig3 for flows that fig3 does not give
        path = tmp_path / "edited.ini"
        path.write_text("[scenario]\np_home = 0.3\n[run]\npreset = fig3\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--days", "3",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: p_home = 0.3 differs from "
                              "preset fig3's 0.05"), err
        assert not out.exists()
        # one edited value in a preset run's own file is named
        first = tmp_path / "first"
        assert main(["run", "--preset", "fig3", "--days", "3",
                     "--out", str(first)]) == 0
        text = (first / "config.ini").read_text()
        for old, new, named in (("r2 = 14", "r2 = 13", "r2 = 13"),
                                ("alpha = 0.15", "alpha = 0.2", "alpha = 0.2"),
                                ("price_mode = fixed", "price_mode = design",
                                 "price_mode = 'design'")):
            path.write_text(text.replace(old, new))
            assert main(["run", "--config", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: {named} differs from "
                                  "preset fig3's "), err
            assert not out.exists()

    def test_edited_preset_rejected_by_validate(self, tmp_path, capsys):
        # validate() used to pass it, and a run named fig3 in its summary,
        # while from_ini refused the config.ini that to_ini wrote for it
        cfg = replace(get_preset("fig3"), p_home=0.3)
        with pytest.raises(ValueError, match="^p_home = 0.3 differs from "
                                             "preset fig3's 0.05"):
            cfg.validate()
        cfg.to_ini(tmp_path / "c.ini")
        with pytest.raises(ValueError, match="p_home = 0.3 differs"):
            RunConfig.from_ini(tmp_path / "c.ini")
        replace(cfg, preset=None).validate()
        # an edited max_price runs from a config that names no preset
        path = tmp_path / "fig3-177.ini"
        path.write_text("[pricing]\nmax_price = 177\n")
        assert main(["design-prices", "--config", str(path)]) == 0
        assert "(124, -177)" in capsys.readouterr().out

    def test_unknown_preset_in_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "fig7.ini"
        path.write_text("[run]\npreset = fig7\n")
        with pytest.raises(ValueError) as err:
            RunConfig.from_ini(path)
        assert str(err.value).startswith(f"{path}: unknown preset 'fig7'; "
                                         "available: fig3, fig5, fig6")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: unknown preset 'fig7'")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["fig3", "fig5", "fig6"])
    def test_preset_config_loads_with_its_own_seed_and_days(self, name,
                                                             tmp_path):
        cfg = replace(get_preset(name), seed=7, days=9)
        cfg.to_ini(tmp_path / "c.ini")
        loaded = RunConfig.from_ini(tmp_path / "c.ini")
        assert loaded == cfg and loaded.preset == name

    def test_run_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_run_rejects_bad_days(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig3", "--days", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "days" in capsys.readouterr().err

    @pytest.mark.parametrize("source, prices, n_states", [
        ("fig3", (10, 14), 168),
        # designed at T = 12: one cycle of 338 classes, whose product tree
        # carries odd levels up
        ("[pricing]\nprice_mode = design\nmax_price = 199\n"
         "[scenario]\nhorizon = 12\n", (139, 199), 4394),
        # designed flow-cost prices at T = 12: 177 sublattices, each a
        # birth-death chain solved in closed form
        ("[model]\nsocietal_cost = flow\n[pricing]\nprice_mode = design\n"
         "max_price = 177\n[scenario]\nhorizon = 12\n", (177, 177), 4602),
        # the uniform CDF read at the thresholds +inf (poor cells) and -inf
        # (wealthy cells)
        ("[scenario]\nsensitivity_kind = uniform\n"
         f"sensitivity_spread = {2 / 3!r}\n", (10, 14), 168),
        # T = 1 with p1 = r2: the ok band is empty and k_poor = k_rich
        ("[pricing]\np1 = 5\nr2 = 5\n[scenario]\nhorizon = 1\n", (5, 5), 20),
        # a narrow route 1: the designed toll exceeds the reward
        ("[model]\nkappa_1 = 0.25\n[pricing]\nprice_mode = design\n"
         "max_price = 14\n", (14, 7), 147),
        # everyone travels: no stay-home diagonal
        ("fig5", (10, 13), 161),
        ("[pricing]\np1 = 2\nr2 = 3\n[scenario]\nhorizon = 3\n", (2, 3), 20),
        # (14, 20) at the default max_price = 20
        ("[pricing]\nprice_mode = design\nmax_price = 50\n", (35, 50), 595),
    ], ids=["fig3", "design", "flow", "uniform", "t1", "orient", "fig5",
            "small", "design50"])
    def test_analyze_chain_ratio_check(self, source, prices, n_states,
                                       tmp_path):
        # the stationary flows split exactly r2 : p1
        out = tmp_path / "chain"
        code = main(["analyze-chain", *config_args(source, tmp_path),
                     "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "chain_summary.json", "stationary.csv"]
        summary = json.loads((out / "chain_summary.json").read_text(),
                             parse_constant=reject_constant)
        assert summary["n_states"] == n_states
        p1, r2 = prices
        assert summary["prices"] == {"p1": p1, "r2": r2}
        assert summary["flow_ratio"] == pytest.approx(r2 / p1, abs=1e-9)
        assert summary["flow_ratio_error"] <= 1e-9
        assert summary["residual_l1"] <= 1e-12
        p_home = (cfg := get_preset(source) if source in PRESETS
                  else RunConfig.from_ini(tmp_path / "c.ini")).p_home
        assert summary["p_home"] == p_home
        assert sum(summary["flows"]) == pytest.approx(1 - p_home, abs=1e-12)
        # the written files certify the chain: no move leaves the lattice,
        # and a step from p_home and p_slow moves P by at most 1e-12 in L1
        rows = list(csv.DictReader((out / "stationary.csv").read_text()
                                   .splitlines()))
        dist, slow, theta = (np.array([float(r[key]) for r in rows])
                             for key in ("probability", "p_slow", "theta"))
        assert dist.size == n_states
        assert not slow[-r2:].any() and (slow[:p1] == 1.0).all()
        step = p_home * dist
        step[r2:] += (1 - p_home) * slow[:-r2] * dist[:-r2]
        step[:-p1] += (1 - p_home) * (1.0 - slow[p1:]) * dist[p1:]
        assert np.abs(step - dist).sum() <= 1e-12
        band = np.array([r["band"] for r in rows])
        assert np.array_equal(band == "poor", theta == np.inf)
        assert np.array_equal(band == "wealthy", theta == -np.inf)
        assert same_bits(slow, cfg.sensitivity().cdf(theta))

    def test_analyze_chain_solves_before_writing(self, tmp_path, capsys,
                                                 monkeypatch):
        # a solve that fails its certification exits 1 and writes nothing
        monkeypatch.setattr(mesoscopic, "CERTIFY_TOL", -1.0)
        out = tmp_path / "c"
        out.mkdir()
        stale = out / "chain_summary.json"
        stale.write_text('{"stale": true}')
        code = main(["analyze-chain", "--preset", "fig3", "--out", str(out)])
        assert code == 1
        assert "not certified" in capsys.readouterr().err
        assert not (out / "stationary.csv").exists()
        assert stale.read_text() == '{"stale": true}'

    @pytest.mark.parametrize("command", ["run", "analyze-chain"])
    def test_everyone_home_rejected(self, command, tmp_path, capsys):
        # p_home = 1 has no optimum and no flow ratio; it used to write NaN
        path = tmp_path / "home.ini"
        path.write_text("[scenario]\np_home = 1.0\n[pricing]\np1 = 2\nr2 = 3\n")
        out = tmp_path / "o"
        code = main([command, "--config", str(path), "--days", "3",
                     "--out", str(out)] if command == "run" else
                    [command, "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "p_home" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d0, ok", [("1e-300", True), ("1e-306", True),
                                        ("1e-308", False), ("1e-310", False),
                                        ("1e-320", False)])
    def test_tiny_d0_rejected_before_day_0(self, d0, ok, tmp_path, capsys):
        # at 1e-308 and below, the 100-day tail's sum of cost ratios (up to
        # 3.5 / cost*, cost* = 2.8 * d0_1) overflows: the run used to end
        # after 500 days in a JSON error that named no field
        path = tmp_path / "tiny.ini"
        path.write_text(f"[model]\nd0_1 = {d0}\n")
        out = tmp_path / "o"
        code = main(["run", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if ok:
            assert code == 0, err
            summary = json.loads((out / "summary.json").read_text(),
                                 parse_constant=pytest.fail)
            assert summary["days"] == 500
        else:
            assert code == 1
            assert err.startswith("error: d0 = ") and "cost*" in err, err
            assert not out.exists()
        # one tail day keeps the sum finite at 1e-308
        if d0 == "1e-308":
            assert main(["run", "--config", str(path), "--days", "3",
                         "--out", str(out)]) == 0

    def test_json_outputs_are_strict(self):
        assert _strict_json({"x": 1.5}) == '{\n  "x": 1.5\n}'
        with pytest.raises(ValueError):
            _strict_json({"flow_ratio": float("nan")})

    @pytest.mark.parametrize("source, line", [
        ("fig3", "integer prices (max_price 14): (10, -14)"),
        ("fig5", "integer prices (max_price 13): (10, -13)"),
        ("fig6", "integer prices (max_price 10): (10, -10)"),
        # the flow-cost optimum splits exactly evenly; the pair keeps the
        # max_price scale and is not reduced to (1, -1)
        ("[model]\nsocietal_cost = flow\n[pricing]\nmax_price = 10\n"
         "[scenario]\np_home = 0.6\n",
         "integer prices (max_price 10): (10, -10)"),
        # a narrow route 1 puts more optimal flow on route 2, so the toll
        # exceeds the reward
        ("[model]\nkappa_1 = 0.25\n[pricing]\nprice_mode = design\n"
         "max_price = 14\n", "integer prices (max_price 14): (14, -7)"),
    ], ids=["fig3", "fig5", "fig6", "even", "orient"])
    def test_design_prices_output(self, source, line, tmp_path, capsys):
        assert main(["design-prices", *config_args(source, tmp_path)]) == 0
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("ini, reason", [
        ("[model]\nd0_1 = 5.0\nd0_2 = 1.0\nalpha = 0.0\n",
         "target flow [0.0, 0.95] has a non-positive"),
        ("[scenario]\nhorizon = 1\n",
         "prices (14, -20) violate the feasibility band"),
    ])
    def test_design_prices_without_a_design(self, ini, reason, tmp_path,
                                            capsys):
        # a fixed-price config validates, so design-prices reports that no
        # design exists instead of failing
        path = tmp_path / "c.ini"
        path.write_text(ini)
        assert main(["design-prices", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"integer prices (max_price 20): none ({reason}")
        assert out.count("\n") == 1, out

    @pytest.mark.parametrize("preset", ["fig3", "fig5", "fig6"])
    def test_design_prices_prints_the_run_prices(self, preset, tmp_path,
                                                 capsys):
        # design-prices and a designed run share one pipeline
        cfg = replace(get_preset(preset), preset=None, max_price=177)
        prices = replace(cfg, price_mode=PRICE_DESIGN).prices()
        cfg.to_ini(tmp_path / "c.ini")
        assert main(["design-prices", "--config",
                     str(tmp_path / "c.ini")]) == 0
        assert (f"integer prices (max_price 177): ({prices.p1}, -{prices.r2})"
                in capsys.readouterr().out)

    def test_system_optimum_output(self, capsys):
        assert main(["system-optimum", "--preset", "fig3"]) == 0
        out = capsys.readouterr().out
        # with neither --preset nor --config the defaults apply, which hold
        # fig3's model and demand
        assert main(["system-optimum"]) == 0
        assert capsys.readouterr().out == out
        assert "system optimum: (0.559564, 0.390436)\n" in out
        assert "balanced societal cost: 1.900663355 (1.2792 x optimal)\n" in out

    @pytest.mark.parametrize("preset, ratio", [
        ("fig3", "1.2792"), ("fig5", "1.2540"), ("fig6", "1.4785")])
    def test_system_optimum_prices_selfish_routing(self, preset, ratio,
                                                   capsys):
        # the abstract's first claim: the balanced (selfish) flow costs more
        # than the optimum, by the ratio of societal costs over cost*
        assert main(["system-optimum", "--preset", preset]) == 0
        out = capsys.readouterr().out
        assert f"({ratio} x optimal)" in out
        cfg = get_preset(preset)
        model, p_go = cfg.model(), 1.0 - cfg.p_home
        cost_star = run_optimum(cfg.scenario(), model, cfg.days)[1]
        selfish = model.societal_cost(balanced_flow(model, p_go))
        assert f"balanced societal cost: {selfish:.9f} " in out
        assert f"{selfish / cost_star:.4f}" == ratio

    def test_system_optimum_tiny_demand(self, tmp_path, capsys):
        # a tiny demand is a corner: all of it on route 1
        path = tmp_path / "tiny.ini"
        path.write_text("[scenario]\np_home = 0.99999999\n")
        assert main(["system-optimum", "--config", str(path)]) == 0
        assert ("system optimum: (1.00000e-08, 0.00000)"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("ini, verdict", [
        # constant costs never cross: one route dominates, or the two tie
        ("[model]\nd0_1 = 5.0\nd0_2 = 1.0\nalpha = 0.0\n",
         "route 2 dominates: d1 >= d2"),
        ("[model]\nd0_1 = 1.0\nd0_2 = 5.0\nalpha = 0.0\n",
         "route 1 dominates: d1 < d2"),
        ("[model]\nd0_1 = 2.0\nd0_2 = 2.0\nalpha = 0.0\n",
         "the routes tie: d1 = d2"),
        # d1(0) = d2(1) = 2 exactly, but d1(1) = 6 > d2(0) = 1: d1 >= d2
        # throughout with equality at one end only, which is no tie
        ("[scenario]\np_home = 0.0\n[model]\nd0_1 = 2.0\nd0_2 = 1.0\n"
         "kappa_2 = 1.0\nalpha = 1.0\nbeta = 1.0\n",
         "route 2 dominates: d1 >= d2"),
    ], ids=["route2", "route1", "tie", "touching"])
    def test_system_optimum_names_the_dominant_route(self, ini, verdict,
                                                     tmp_path, capsys):
        assert main(["system-optimum", *config_args(ini, tmp_path)]) == 0
        assert (f"balanced flow: none ({verdict} over the whole range)"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [
        ["design-prices", "--preset", "fig3", "--seed", "1"],
        ["design-prices", "--preset", "fig3", "--tol", "1e-6"],
        ["analyze-chain", "--preset", "fig3", "--tol", "1e-12"],
        ["system-optimum", "--preset", "fig3", "--max-price", "3"],
        ["analyze-chain", "--preset", "fig3", "--seed", "1"],
        # a preset pins max_price and p_home; a config file sets them
        ["run", "--preset", "fig3", "--max-price", "50"],
        ["analyze-chain", "--preset", "fig3", "--max-price", "50"],
        ["design-prices", "--preset", "fig3", "--max-price", "177"],
        ["system-optimum", "--preset", "fig3", "--p-go", "1e-8"],
        # a run's settings come from a preset or a file, never both
        ["run", "--preset", "fig3", "--config", "x.ini"],
        ["analyze-chain", "--preset", "fig3", "--config", "x.ini"],
        ["design-prices", "--preset", "fig3", "--config", "x.ini"],
        ["system-optimum", "--preset", "fig3", "--config", "x.ini"],
    ])
    def test_unread_flags_rejected(self, argv):
        # each subcommand takes only the flags it reads
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# the package's exports; adding or removing one means editing this set
PUBLIC_NAMES = {
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
}


def test_public_surface_is_pinned():
    names = karma_routing.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(karma_routing, n)]
    assert missing == []
    assert set(names) == PUBLIC_NAMES


# RunConfig fields for `test_every_config_that_validates_runs`: a float is
# anything a float can hold, an edge value, or one near its default; the
# prices, max_price, horizon and n_agents stay small, so no draw builds a
# chain of millions of cells or a population of millions of agents
BASE = RunConfig(n_agents=20, days=3)
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-320, 1e-308, 1e-300, 1e300, 1e308,
               math.inf, -math.inf, math.nan, -1.0]
FIELD_VALUES = {
    f.name: st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                      st.floats(0.0, 4.0 * getattr(BASE, f.name) + 1.0))
    for f in fields(RunConfig) if f.type == "float"}
FIELD_VALUES.update(
    horizon=st.integers(-1, 12), n_agents=st.integers(-1, 40),
    seed=st.integers(-1, 2**64), p1=st.integers(-1, 30),
    r2=st.integers(-1, 30), max_price=st.integers(-1, 30),
    sensitivity_kind=st.sampled_from(["exponential", "uniform", "bogus"]),
    societal_cost=st.sampled_from(["discomfort", "flow", "bogus"]),
    price_mode=st.sampled_from(["fixed", "design", "bogus"]))


@st.composite
def run_configs(draw):
    """A base config with up to six fields replaced by drawn values."""
    base = draw(st.sampled_from([
        BASE, replace(BASE, price_mode=PRICE_DESIGN),
        replace(BASE, sensitivity_kind="uniform"),
        replace(BASE, societal_cost="flow", p_home=0.0)]))
    names = draw(st.sets(st.sampled_from(sorted(FIELD_VALUES)), max_size=6))
    return replace(base, **{n: draw(FIELD_VALUES[n]) for n in sorted(names)})


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=examples(150), deadline=None)
@given(cfg=run_configs())
# five faults that this property and longer runs of it found, each of which
# used to validate and then end a command in an error; the flat model is
# pinned in both price modes, so design-prices also runs its "none" path
@example(cfg=replace(BASE, sensitivity_kind="uniform",
                     sensitivity_spread=5e-324))
@example(cfg=replace(BASE, k_init_high=1e308))
@example(cfg=replace(BASE, k_init_high=-0.0))
@example(cfg=replace(BASE, max_price=1))
@example(cfg=replace(BASE, price_mode=PRICE_DESIGN, d0_1=5.0, d0_2=1.0,
                     alpha=0.0))
@example(cfg=replace(BASE, d0_1=5.0, d0_2=1.0, alpha=0.0))
def test_every_config_that_validates_runs(cfg):
    # either validate() rejects the config, or every command runs it
    try:
        cfg.validate()
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg.to_ini(tmp / "c.ini")
        for argv in (["run", "--out", str(tmp / "run")],
                     ["analyze-chain", "--out", str(tmp / "chain")],
                     ["design-prices"], ["system-optimum"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv + ["--config", str(tmp / "c.ini")])
            assert code == 0, (argv, err.getvalue())
        for name in ("run/summary.json", "chain/chain_summary.json"):
            json.loads((tmp / name).read_text(encoding="utf-8"),
                       parse_constant=reject_constant)
