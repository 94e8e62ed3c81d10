"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload untraced and traced and checks that each metric named in
BENCHMARK.json is printed with its unit, that the traced counts repeat
exactly at the same seed, and that the benchmark fails without the library.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def run_tiny(workload: str, trace: int, out_dir: Path) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench.main(["--workload", workload, "--seed", "0", "--seconds", "0.05",
                           "--trace", str(trace), "--tiny", "--out", str(out_dir)])
    assert code == 0
    lines = buf.getvalue().strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """First tiny run of each (workload, trace), shared by the tests below."""
    out_dir = tmp_path_factory.mktemp("spans")
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = run_tiny(workload, trace, out_dir)
        return cache[workload, trace]

    get.out_dir = out_dir
    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, tiny_runs):
    lines, result = tiny_runs(workload, trace)
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.startswith("  ")}
    assert {name: printed.get(name) for name in expected} == expected
    assert any(line.startswith("fail_ratio 0 ") for line in lines)
    assert trace or any(line.startswith("calibration kernel") for line in lines)
    if trace:
        assert (tiny_runs.out_dir / f"spans-{workload}.csv").is_file()


COUNT_UNITS = {"calls/round", "calls/op", "agents/op", "sweeps/call",
               "days/round", "agents/round", "matvecs/solve"}


@pytest.mark.parametrize("workload", ["uncontrolled-1e4", "chain-design"])
def test_traced_counts_repeat_at_same_seed(workload, tiny_runs):
    runs = [tiny_runs(workload, 1), run_tiny(workload, 1, tiny_runs.out_dir)]
    counts = []
    for lines, result in runs:
        assert "per-round counts repeat across traced rounds: yes" in lines
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]


def test_fails_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
