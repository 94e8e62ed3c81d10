"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into the library's public names, either by
wrapping the benchmark's own function references (`Tracer.wrap`) or by
temporarily replacing the names that `simulation`, `wardrop` and `network`
look up at their call sites (`install_hooks`).  Nothing under `src/` is
edited, and nothing is installed unless a traced run asks for it.

Each span keeps its parent, so a layer's self time is its duration minus the
time its child spans cover.  Per-layer totals accumulate until `take()`,
which the benchmark calls once per op (and once per set-up) so that each op
gets its own per-layer breakdown.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import replace
from time import perf_counter_ns

from karma_routing import mesoscopic, network, sensitivity, simulation, wardrop

# (span name, global looked up at call sites in simulation/wardrop/network)
FUNCTION_HOOKS = [
    ("wardrop.wardrop_equilibrium", "wardrop_equilibrium"),
    ("wardrop.aggregate_best_response", "aggregate_best_response"),
    ("agent.best_response_batch", "best_response_batch"),
    ("network.balanced_flow", "balanced_flow"),
    ("network.as_flow", "as_flow"),
    ("simulation.compute_metrics", "compute_metrics"),
]
HOOK_MODULES = (simulation, wardrop, network)

# (span name, owning module, class name, method name)
METHOD_HOOKS = [
    ("network.discomfort", network, "ArcCostModel", "discomfort"),
    ("sensitivity.sample", sensitivity, "SensitivitySpec", "sample"),
]

MATVEC = "mesoscopic.matvec"  # products with a chain's transition matrix

# best_response_batch(k, ...): its first argument holds one entry per agent,
# counted as the span's units
PER_AGENT = "agent.best_response_batch"


class Tracer:
    """Span recorder with per-layer call counts, inclusive and self times."""

    def __init__(self):
        self._stack: list[list[int]] = []   # [span id, child ns] per open span
        self._next_id = 0
        self._names: dict[str, int] = {}
        self.spans = array("q")              # id, parent, name id, start, end
        self.acc: dict[str, list[int]] = {}  # name -> [calls, incl, self, units]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        per_agent = name == PER_AGENT
        name_id = self._names.setdefault(name, len(self._names))
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                acc = self.acc.get(name)
                if acc is None:
                    acc = self.acc[name] = [0, 0, 0, 0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[1]
                if per_agent:
                    acc[3] += len(args[0])
                spans.extend((span_id, parent, name_id, start, end))

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str) -> None:
        """Count one event under `name` without timing it."""
        acc = self.acc.get(name)
        if acc is None:
            acc = self.acc[name] = [0, 0, 0, 0]
        acc[0] += 1

    def take(self) -> dict[str, list[int]]:
        """Per-layer totals since the last call, then reset them."""
        acc, self.acc = self.acc, {}
        return acc

    # -- call-site hooks -------------------------------------------------------

    def install_hooks(self) -> None:
        """Wrap the library names listed above where the modules look them up.

        A name that no longer exists is recorded in `missing` and skipped.
        """
        self.missing = []
        for span, attr in FUNCTION_HOOKS:
            found = False
            for module in HOOK_MODULES:
                fn = module.__dict__.get(attr)
                if fn is not None:
                    self._patch(module, attr, self.wrap(span, fn))
                    found = True
            if not found:
                self.missing.append(span)
        for span, module, cls_name, method in METHOD_HOOKS:
            cls = getattr(module, cls_name, None)
            fn = None if cls is None else cls.__dict__.get(method)
            if fn is None:
                self.missing.append(span)
                continue
            self._patch(cls, method, self.wrap(span, fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove_hooks(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- matvec counting -------------------------------------------------------

    def counting_chain(self, chain: mesoscopic.KarmaChain) -> mesoscopic.KarmaChain:
        """Copy of `chain` whose transition matrix counts products with it."""
        return replace(chain, a=_CountingMatrix(chain.a, self))

    def write_spans(self, path) -> None:
        names = {i: n for n, i in self._names.items()}
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "name", "start_ns", "end_ns"])
            s = self.spans
            for i in range(0, len(s), 5):
                writer.writerow([s[i], s[i + 1], names[s[i + 2]], s[i + 3], s[i + 4]])


class _CountingMatrix:
    """Stand-in for a sparse matrix that counts `@` products."""

    def __init__(self, a, tracer: Tracer):
        self._a = a
        self._tracer = tracer

    def __matmul__(self, other):
        self._tracer.count(MATVEC)
        return self._a @ other

    def __getattr__(self, name):
        return getattr(self._a, name)

