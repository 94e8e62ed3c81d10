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
MUTANTS = (
    Mutant("fast-poor-edge-strict", AGENT,
           "go &= k >= th.k_poor", "go &= k > th.k_poor"),
    Mutant("fast-wealthy-edge-strict", AGENT,
           "p, k >= th.k_wealthy)", "p, k > th.k_wealthy)"),
    Mutant("k-rich-plus-one", AGENT,
           "horizon * p.p1 - p.r2", "horizon * p.p1 - p.r2 + 1"),
    Mutant("settle-toll-plus-one", AGENT,
           "fast * float(p.total)", "fast * float(p.total + 1)"),
    Mutant("count-bisection-strict", WARDROP,
           "if d1(mid / m) <= d2(", "if d1(mid / m) < d2("),
    Mutant("n-lb-plus-one", WARDROP,
           "- (m - n_travel)", "- (m - n_travel) + 1"),
    Mutant("n-lb-minus-one", WARDROP,
           "- (m - n_travel)", "- (m - n_travel) - 1"),
    Mutant("balanced-split-one-later", WARDROP,
           "fast[idx[n_fast]:]", "fast[idx[n_fast] + 1:]"),
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
