"""Mutation kill matrix of the tier-1 suite.

Each mutant is one source edit (name, file, old, new): ``old`` must occur
exactly once in ``file``, and the mutant puts ``new`` in its place.  The
script copies the repository to a temporary directory, runs tier-1 there
once unmutated (every test must pass) and then once per mutant, under the
``mutate`` Hypothesis profile of tests/conftest.py, which skips shrinking
so that a failing property costs one run.  It prints the kill matrix as
JSON, each mutant's name -> the ids of the tests that failed on it, and
exits 1 if a mutant survives (no test fails on it):

    python tests/mutate.py > kill_matrix.json

Progress and wall times go to stderr.  Pytest does not collect this file;
the tier-1 test `DRIFT` checks at every commit that each ``old`` still
occurs exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# the check that every edit applies fails on each mutant by design, so it
# kills nothing and is left out of the mutants' runs
DRIFT = ("tests/test_config_cli.py::TestRunConfig::"
         "test_mutants_match_the_source")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--tb=no",
         "--continue-on-collection-errors", "--deselect", DRIFT]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


SRC = "src/karma_routing/"
AGENT, MESO = SRC + "agent.py", SRC + "mesoscopic.py"
SIM, WARDROP = SRC + "simulation.py", SRC + "wardrop.py"
SENS, CLI = SRC + "sensitivity.py", SRC + "cli.py"
NETWORK, PRICING = SRC + "network.py", SRC + "pricing.py"
MUTANTS = (
    Mutant("fast-poor-edge-strict", AGENT,
           "go &= k >= th.k_poor", "go &= k > th.k_poor"),
    Mutant("k-rich-plus-one", AGENT,
           "horizon * p.p1 - p.r2", "horizon * p.p1 - p.r2 + 1"),
    Mutant("settle-toll-plus-one", AGENT,
           "-p.p1]).take", "-p.p1 - 1]).take"),
    Mutant("settle-slow-fast-swapped", AGENT,
           "[0.0, p.r2, -p.p1]", "[0.0, -p.p1, p.r2]"),
    Mutant("count-bisection-strict", WARDROP,
           "if d1(mid / m) <= d2(", "if d1(mid / m) < d2("),
    Mutant("n-lb-plus-one", WARDROP,
           "- (m - n_travel)", "- (m - n_travel) + 1"),
    Mutant("n-lb-minus-one", WARDROP,
           "- (m - n_travel)", "- (m - n_travel) - 1"),
    Mutant("balanced-split-one-later", WARDROP,
           "fast[idx[n_fast]:]", "fast[idx[n_fast] + 1:]"),
    Mutant("metrics-all-reads-fast", SIM,
           "np.copyto(masked, traveling)", "np.copyto(masked, fast)"),
    Mutant("metrics-fast-reads-traveling", SIM,
           "np.asarray(fast).astype(float)",
           "np.asarray(traveling).astype(float)"),
    Mutant("delta-s-over-m-minus-1", SIM,
           "(s_all - n_travel) / m", "(s_all - n_travel) / (m - 1)"),
    Mutant("init-clamp-count-inclusive", SIM,
           "count_nonzero(k < floor)", "count_nonzero(k <= floor)"),
    Mutant("ok-band-theta-off", MESO,
           "theta[ok:rich] = 1.0", "theta[ok:rich] = 1.0000001"),
    Mutant("csv-p-slow-from-rush", MESO,
           "chain.chill_prob.tolist()", "(1.0 - chain.chill_prob).tolist()"),
    Mutant("csv-theta-from-neighbour", MESO,
           "chain.theta.tolist()", "np.roll(chain.theta, 1).tolist()"),
    Mutant("day-wealthy-edge-strict", WARDROP,
           "wealthy = k >= th.k_wealthy", "wealthy = k > th.k_wealthy"),
    Mutant("chain-stay-as-go", MESO,
           "data[1] = p_home", "data[1] = p_go"),
    Mutant("chain-slow-fast-swapped", MESO,
           "(-p.r2, 0, p.p1)", "(p.p1, 0, -p.r2)"),
    Mutant("band-poor-edge-minus-one", MESO,
           "return [0, p.p1, ", "return [0, p.p1 - 1, "),
    Mutant("dia-span-one-short", MESO,
           "n - abs(offset)", "n - abs(offset) - 1"),
    Mutant("leak-check-skips-top-cell", MESO,
           "count_nonzero(chill[-r2:])", "count_nonzero(chill[-r2:-1])"),
    Mutant("leak-check-skips-bottom-cell", MESO,
           "count_nonzero(chill[:p1] != 1.0)",
           "count_nonzero(chill[1:p1] != 1.0)"),
    # each uniform mutant is exact at spread 1, U[0, 2], so only a law of
    # spread < 1 kills it
    Mutant("uniform-cdf-low-at-zero", SENS, "(v - lo) /", "(v - 0.0) /"),
    Mutant("uniform-cdf-width-to-two", SENS, "/ (hi - lo)", "/ (2.0 - lo)"),
    Mutant("uniform-sample-on-zero-two", SENS,
           "draw_uniform(rng, 1.0 - self.spread, 1.0 + self.spread, size)",
           "draw_uniform(rng, 0.0, 2.0, size)"),
    Mutant("uniform-passes-swapped", SENS,
           "u *= float(high) - float(low)\n    u += low",
           "u += low\n    u *= float(high) - float(low)"),
    Mutant("uniform-spread-floor-lowered", SENS,
           "not 1e-12 <= self.spread", "not 1e-16 <= self.spread"),
    Mutant("exp-cdf-unclamped", SENS,
           "-np.expm1(-np.maximum(v, 0.0))", "-np.expm1(-v)"),
    Mutant("uniform-draw-bound-low", SENS,
           "return 2.0 if self.kind == UNIFORM",
           "return 1.5 if self.kind == UNIFORM"),
    Mutant("metric-sums-bound-halved", SIM,
           "if not 2 * scenario.n_agents * s_hi",
           "if not scenario.n_agents * s_hi"),
    Mutant("main-guard-drops-status", CLI,
           "    sys.exit(main())", "    main()"),
    # the optimum and the prices.  Left out as equivalent: the constant of
    # `_flow_marginal_cost`, since any positive one keeps the even split,
    # and `rho <= 1.0` made strict, since at rho = 1 both branches give
    # (max_price, max_price)
    Mutant("crossing-route1-end-inclusive", NETWORK,
           "if hi_gap < 0.0:", "if hi_gap <= 0.0:"),
    Mutant("crossing-route2-end-strict", NETWORK,
           "if lo_gap >= 0.0:", "if lo_gap > 0.0:"),
    Mutant("crossing-bisects-wrong-side", NETWORK,
           "(mid, hi) if gap < 0.0 else (lo, mid)",
           "(lo, mid) if gap < 0.0 else (mid, hi)"),
    Mutant("marginal-cost-drops-one", NETWORK,
           "self.alpha * (1 + b)", "self.alpha * b"),
    Mutant("conservation-ratio-inverted", PRICING,
           "return x2 / x1", "return x1 / x2"),
    Mutant("rationalize-truncates", PRICING,
           "round(max_price * rho)", "int(max_price * rho)"),
    Mutant("rationalize-pins-the-other-coordinate", PRICING,
           "if rho <= 1.0:", "if rho > 1.0:"),
    Mutant("rationalize-toll-floor-dropped", PRICING,
           "max(1, round(max_price * rho))", "round(max_price * rho)"),
    Mutant("rationalize-reward-floor-dropped", PRICING,
           "max(1, round(max_price / rho))", "round(max_price / rho)"),
    Mutant("horizon-band-low-edge-strict", PRICING,
           "1.0 / horizon <= ratio", "1.0 / horizon < ratio"),
    Mutant("horizon-band-high-edge-strict", PRICING,
           "ratio <= horizon", "ratio < horizon"),
)


def mutated(mutant: Mutant, root: Path = ROOT) -> str:
    """The text of the mutant's file under ``root`` with the edit made;
    ValueError unless ``old`` occurs there exactly once."""
    text = (root / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} "
                         f"times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def failing_tests(copy: Path) -> list[str]:
    """Run tier-1 in ``copy``; the ids of the tests that failed or errored."""
    report = copy.parent / "junit.xml"
    path = os.pathsep.join(filter(None, [str(copy / "src"),
                                         os.environ.get("PYTHONPATH")]))
    # no bytecode cache, so a restored file is never read from a stale one
    env = dict(os.environ, PYTHONPATH=path, HYPOTHESIS_PROFILE="mutate",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([*TIER1, f"--junitxml={report}"], cwd=copy,
                          env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return sorted(f"{case.get('classname')}::{case.get('name')}"
                  for case in ET.parse(report).iter("testcase")
                  if case.find("failure") is not None
                  or case.find("error") is not None)


def main() -> int:
    texts = [mutated(m) for m in MUTANTS]  # every edit applies, or none runs
    start = time.perf_counter()
    matrix = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        if failed := failing_tests(copy):
            raise SystemExit(f"tier-1 fails unmutated: {failed}")
        for mutant, text in zip(MUTANTS, texts):
            target = copy / mutant.file
            original = target.read_text(encoding="utf-8")
            target.write_text(text, encoding="utf-8")
            try:
                matrix[mutant.name] = failing_tests(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{mutant.name}: {len(matrix[mutant.name])} failing "
                  f"({time.perf_counter() - start:.0f} s in)", file=sys.stderr)
    json.dump(matrix, sys.stdout, indent=2)
    print()
    survivors = [name for name, ids in matrix.items() if not ids]
    if survivors:
        print(f"survived: {', '.join(survivors)}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
