import json
import re
from pathlib import Path

import pytest

from karma_routing import PriceVector, RunConfig, get_preset, mesoscopic
from karma_routing.cli import _strict_json, main
from karma_routing.config import PRICE_DESIGN
from karma_routing.presets import apply_preset


class TestRunConfig:
    def test_ini_roundtrip_identical(self, tmp_path):
        cfg = RunConfig(p_home=0.07, horizon=5, n_agents=321, seed=9,
                        k_init_low=1.25, k_init_high=431.5,
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

    def test_unknown_section_or_key_rejected(self, tmp_path):
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
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert RunConfig.from_ini(path) == RunConfig()

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
            RunConfig(p_home=1.5).validate()
        with pytest.raises(ValueError, match="p_home"):
            RunConfig(p_home=1.0).validate()
        with pytest.raises(ValueError):
            RunConfig(p1=0).validate()
        with pytest.raises(ValueError, match="unknown societal cost kind"):
            RunConfig(societal_cost="bogus").validate()
        with pytest.raises(ValueError, match="unknown preset 'fig7'"):
            RunConfig(preset="fig7").validate()

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

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("fig7")

    def test_preset_overrides_config_fields(self):
        cfg = RunConfig(p_home=0.4, p1=3, r2=5, days=77, seed=123)
        merged = apply_preset(cfg, "fig3")
        assert merged.p_home == 0.05
        assert (merged.p1, merged.r2) == (10, 14)
        # non-preset runtime knobs survive
        assert merged.days == 77
        assert merged.seed == 123


class TestCli:
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

    def test_run_replays_its_own_config(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["run", "--preset", "fig3", "--days", "6", "--seed", "4",
                     "--out", str(first)]) == 0
        assert "preset = fig3" in (first / "config.ini").read_text()
        assert main(["run", "--config", str(first / "config.ini"),
                     "--out", str(again)]) == 0
        summary = json.loads((again / "summary.json").read_text())
        assert summary["preset"] == "fig3"
        for name in ("run.csv", "summary.json", "config.ini"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

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

    def test_analyze_chain_ratio_check(self, tmp_path, capsys):
        out = tmp_path / "chain"
        code = main(["analyze-chain", "--preset", "fig3", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "chain_summary.json").read_text())
        assert summary["n_states"] == 168
        assert summary["flow_ratio"] == pytest.approx(1.4, abs=1e-9)
        assert summary["residual_l1"] <= 1e-10
        assert (out / "a_matrix.txt").exists()
        assert (out / "stationary.csv").exists()

    def test_analyze_chain_everyone_traveling(self, tmp_path):
        out = tmp_path / "c"
        code = main(["analyze-chain", "--preset", "fig5", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "chain_summary.json").read_text())
        assert summary["p_home"] == 0.0
        assert summary["flow_ratio"] == pytest.approx(1.3, abs=1e-9)
        assert summary["residual_l1"] <= 1e-12
        assert sorted(p.name for p in out.iterdir()) == [
            "a_matrix.txt", "chain_summary.json", "stationary.csv"]

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
        assert not (out / "a_matrix.txt").exists()
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

    def test_json_outputs_are_strict(self):
        assert _strict_json({"x": 1.5}) == '{\n  "x": 1.5\n}'
        with pytest.raises(ValueError):
            _strict_json({"flow_ratio": float("nan")})

    def test_design_prices_output(self, capsys):
        assert main(["design-prices", "--preset", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "(10, -14)" in out

    def test_system_optimum_output(self, capsys):
        assert main(["system-optimum", "--preset", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "0.5595" in out or "0.56" in out

    def test_system_optimum_tiny_demand(self, capsys):
        # a demand below the search's 1e-6 bracket used to raise
        assert main(["system-optimum", "--preset", "fig3", "--p-go", "1e-8"]) == 0
        assert "system optimum: (0.000000, 0.000000)" in capsys.readouterr().out

    @pytest.mark.parametrize("d0, verdict", [
        ((5.0, 1.0), "route 2 dominates: d1 >= d2"),
        ((1.0, 5.0), "route 1 dominates: d1 < d2"),
        ((2.0, 2.0), "the routes tie: d1 = d2"),
    ], ids=["route2", "route1", "tie"])
    def test_system_optimum_names_the_dominant_route(self, d0, verdict,
                                                     tmp_path, capsys):
        # constant costs never cross: one route dominates, or the two tie
        path = tmp_path / "flat.ini"
        path.write_text(f"[model]\nd0_1 = {d0[0]}\nd0_2 = {d0[1]}\n"
                        "alpha = 0.0\n")
        assert main(["system-optimum", "--config", str(path)]) == 0
        assert (f"balanced flow: none ({verdict} over the whole range)"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [
        ["design-prices", "--preset", "fig3", "--seed", "1"],
        ["design-prices", "--preset", "fig3", "--tol", "1e-6"],
        ["analyze-chain", "--preset", "fig3", "--tol", "1e-12"],
        ["system-optimum", "--preset", "fig3", "--max-price", "3"],
        ["analyze-chain", "--preset", "fig3", "--seed", "1"],
    ])
    def test_unread_flags_rejected(self, argv):
        # each subcommand takes only the flags it reads
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run", "analyze-chain"])
    def test_max_price_needs_designed_prices(self, command, tmp_path, capsys):
        # fixed prices never read max_price; the flag used to be ignored
        out = tmp_path / "o"
        code = main([command, "--preset", "fig3", "--max-price", "50",
                     "--out", str(out)])
        assert code == 1
        assert "--max-price" in capsys.readouterr().err
        assert not out.exists()
        path = tmp_path / "design.ini"
        path.write_text("[pricing]\nprice_mode = design\n[run]\ndays = 3\n")
        assert main([command, "--config", str(path), "--max-price", "50",
                     "--out", str(out)]) == 0
        summary = "summary.json" if command == "run" else "chain_summary.json"
        # (14, 20) at the default max_price = 20
        assert json.loads((out / summary).read_text())["prices"] == {
            "p1": 35, "r2": 50}

    def test_analyze_chain_small_matrix_structure(self, tmp_path):
        cfg = RunConfig(p1=2, r2=3, horizon=3, p_home=0.05)
        path = tmp_path / "small.ini"
        cfg.to_ini(path)
        out = tmp_path / "c"
        assert main(["analyze-chain", "--config", str(path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "chain_summary.json").read_text())
        assert summary["n_states"] == 20
        # two shifted diagonals: slow +r2, fast -p1, plus the stay-home one
        entries = [line.split() for line in
                   (out / "a_matrix.txt").read_text().splitlines()]
        offsets = {int(r) - int(c) for r, c, _ in entries}
        assert offsets == {0, 3, -2}

    def test_config_file_drives_run(self, tmp_path):
        cfg = RunConfig(n_agents=60, days=4, seed=2, p1=2, r2=3, horizon=4)
        path = tmp_path / "small.ini"
        cfg.to_ini(path)
        out = tmp_path / "o"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["days"] == 4
        assert summary["prices"] == {"p1": 2, "r2": 3}
