"""Benchmark of the karma-routing library: the day loop and the chain design.

Run from the repository root:

    python3 perfbench/run.py --workload fig3-3e4 --seed 0 --seconds 25 --trace 0

Workloads (see bench_workloads.py and NOTES.md): fig3-3e4, presets-1e3,
uncontrolled-1e4, chain-design.  The library is imported from ./src; nothing
is installed or built.

Each workload runs in identical rounds, every round re-building the inputs
from the same seeds and re-running the same ops.  One untimed warm-up round
gives the reference outputs; then the workload's fixed number of rounds runs,
so every commit takes its statistics over the same number of repetitions.
--seconds only caps the run.  The machine's speed drifts in phases lasting
seconds, so each op's time is the fastest of its repetitions across rounds:

    op_ms.p50 / op_ms.p90  percentiles over the ops of a round of those times
    throughput             work of a round / the sum of those times
    setup_s                median over the builds of a round of those times

The machine's speed also drifts over minutes, which no repetition within a
run removes.  So a fixed calibration kernel is timed between ops in every
round, and every reported time is scaled to a reference speed: multiplied by
CAL_REF_NS over the kernel's time in the run (taken like an op's).  The
unscaled values are printed on the `calibration kernel` line.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics.  With --trace 1 half of the rounds run untraced and half traced, and
the JSON object holds the per-layer metrics instead; the spans are written to
--out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3  # rounds kept when --seconds runs out first
# Times are reported at a reference machine speed: scaled by CAL_REF_NS over
# the run's calibration kernel time (see bench_workloads.Calibration).  The
# kernel took about this long on the 2-vCPU Xeon VM the bounds were set on.
CAL_REF_NS = 700_000
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 3
IMPORT_CODE = ("import time; t = time.perf_counter(); import karma_routing; "
               "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workloads at smoke-test sizes")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out",
                        help="directory for the span file of a traced run")
    return parser.parse_args(argv)


class Measurement:
    """Timed rounds of one workload: each op's fastest time and its layers."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.best_setup_ns = None      # per build position: its fastest time
        self.best_cal_ns = None        # per calibration position: fastest time
        self.best_ns = None
        self.best_layers = None        # per op: tracer totals of its fastest run
        self.best_setup = (float("inf"), None)
        self.counts = None             # per-round op call counts, traced only
        self.counts_repeat = True      # set-up and op counts equal every round
        self._round_counts = None

    def add(self, result) -> None:
        self.rounds += 1
        self.attempted += len(result.op_ns)
        self.failed += result.failed
        if self.best_ns is None:
            self.best_cal_ns = result.cal_ns.copy()
            self.best_setup_ns = result.setup_ns.copy()
            self.best_ns = result.op_ns.copy()
            self.best_layers = result.op_layers
        else:
            faster = result.cal_ns < self.best_cal_ns
            self.best_cal_ns[faster] = result.cal_ns[faster]
            faster = result.setup_ns < self.best_setup_ns
            self.best_setup_ns[faster] = result.setup_ns[faster]
            faster = (result.op_ns < self.best_ns).nonzero()[0]
            self.best_ns[faster] = result.op_ns[faster]
            if result.op_layers is not None:
                for i in faster:
                    self.best_layers[i] = result.op_layers[i]
        if result.op_layers is None:
            return
        counts = (layer_counts([result.setup_layers]),
                  layer_counts(result.op_layers))
        if self._round_counts is None:
            self._round_counts = counts
            self.counts = counts[1]
        elif counts != self._round_counts:
            self.counts_repeat = False
        fastest = result.setup_ns.min()
        if fastest < self.best_setup[0]:
            self.best_setup = (fastest, result.setup_layers)

    def calibration_ns(self) -> float:
        """Median over positions of the calibration kernel's fastest time."""
        return statistics.median(self.best_cal_ns.tolist())

    def scale(self) -> float:
        """Factor taking this run's times to the reference machine speed."""
        return CAL_REF_NS / self.calibration_ns()

    def op_seconds(self) -> float:
        return float(self.best_ns.sum()) / 1e9

    def layer_self_seconds(self) -> float:
        """Sum of the layers' self times over each op's fastest traced run."""
        return sum(v[2] for op in self.best_layers for v in op.values()) / 1e9

    def layers(self) -> dict[str, list[int]]:
        """Tracer totals of a round built from each op's fastest run."""
        total: dict[str, list[int]] = {}
        for part in [self.best_setup[1], *self.best_layers]:
            for name, values in part.items():
                acc = total.setdefault(name, [0, 0, 0, 0])
                for j, v in enumerate(values):
                    acc[j] += v
        return total


def layer_counts(parts) -> dict[str, tuple[int, int]]:
    """Calls and units per layer, summed over tracer totals `parts`."""
    counts: dict[str, list[int]] = {}
    for part in parts:
        for name, (calls, _, _, units) in part.items():
            acc = counts.setdefault(name, [0, 0])
            acc[0] += calls
            acc[1] += units
    return {name: tuple(v) for name, v in counts.items()}


def run_round(workload, api, seed: int, reference=None):
    """One round with the garbage collector paused, as `timeit` does.

    A collection is triggered by an allocation count, so it lands on the same
    ops in every round and the fastest repetition cannot remove it; where it
    lands depends on the benchmark's own bookkeeping, not on the library.
    """
    gc.collect()
    gc.disable()
    try:
        return workload.run_round(api, seed, reference)
    finally:
        gc.enable()


def planned_rounds(workload, traced: bool) -> int:
    """Untraced rounds of a run: all of them, or half when traced."""
    return max(MIN_ROUNDS, workload.rounds // 2) if traced else workload.rounds


def measure(workload, seed: int, seconds: float, reference, tracer=None):
    """Run the workload's rounds; with a tracer, alternate traced ones.

    A traced run splits the rounds evenly between untraced and traced ones.
    Rounds stop early only if the next one would pass `seconds`.  Alternating
    keeps the untraced and traced rounds in the same phases of
    the machine's speed, so their ratio is the tracing overhead.  The call-site
    hooks are installed only for the traced rounds, and only the first traced
    round's spans are kept: every round repeats the same calls.
    """
    from bench_workloads import Api

    untraced, traced = Measurement(), Measurement()
    plain, hooked = Api(), Api(tracer) if tracer else None
    rounds = planned_rounds(workload, tracer is not None)
    start = perf_counter()
    while untraced.rounds < rounds:
        t0 = perf_counter()
        untraced.add(run_round(workload, plain, seed, reference))
        if tracer:
            kept = len(tracer.spans)
            tracer.install_hooks()
            try:
                traced.add(run_round(workload, hooked, seed, reference))
            finally:
                tracer.remove_hooks()
            if traced.rounds > 1:
                del tracer.spans[kept:]
        took = perf_counter() - t0
        if untraced.rounds >= MIN_ROUNDS and perf_counter() - start + took > seconds:
            break
    return untraced, traced


def end_to_end(workload, seed: int, m: Measurement, scale: float) -> dict:
    """The end-to-end metrics; times are multiplied by `scale`."""
    best_ms = m.best_ns * (scale / 1e6)
    return {
        "setup_s": (statistics.median(m.best_setup_ns.tolist()) * scale / 1e9, "s"),
        "throughput": (workload.items_per_round(seed) / (m.op_seconds() * scale),
                       "items/s"),
        "op_ms.p50": (float(statistics.median(best_ms)), "ms"),
        "op_ms.p90": (float(statistics.quantiles(best_ms, n=10)[-1]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
    }


def import_seconds(samples: int) -> float:
    """Median time of `import karma_routing` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def per_layer(workload, seed: int, traced: Measurement, untraced: Measurement,
              reference, import_s: float) -> dict:
    layers = traced.layers()
    counts = traced.counts
    n_ops = workload.n_ops(seed)
    scale = traced.scale()

    def ms(name, self_time=False):
        return layers.get(name, [0, 0, 0, 0])[2 if self_time else 1] * scale / 1e6

    def calls(name):
        return counts.get(name, (0, 0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    uncontrolled = workload.uncontrolled_days(reference)
    return {
        "agent.best_response_batch.calls":
            (calls("agent.best_response_batch"), "calls/round"),
        "agent.best_response_batch.ms": (ms("agent.best_response_batch"), "ms/round"),
        "agent.best_response_batch.agents":
            (counts.get("agent.best_response_batch", (0, 0))[1] / n_ops, "agents/op"),
        "wardrop.wardrop_equilibrium.self_ms":
            (ms("wardrop.wardrop_equilibrium", True), "ms/round"),
        "wardrop.aggregate_best_response.self_ms":
            (ms("wardrop.aggregate_best_response", True), "ms/round"),
        "wardrop.sweeps_per_equilibrium":
            (ratio(calls("wardrop.aggregate_best_response"),
                   calls("wardrop.wardrop_equilibrium")), "sweeps/call"),
        "wardrop.uncontrolled_days": (uncontrolled, "days/round"),
        "wardrop.uncontrolled_share": (uncontrolled / n_ops, "ratio"),
        "network.as_flow.calls_per_day": (calls("network.as_flow") / n_ops, "calls/op"),
        "network.as_flow.ms": (ms("network.as_flow"), "ms/round"),
        "network.discomfort.calls_per_day":
            (calls("network.discomfort") / n_ops, "calls/op"),
        "network.discomfort.ms": (ms("network.discomfort"), "ms/round"),
        "network.balanced_flow.calls": (calls("network.balanced_flow"), "calls/round"),
        "network.balanced_flow.ms": (ms("network.balanced_flow"), "ms/round"),
        "network.system_optimum.ms": (ms("network.system_optimum"), "ms/round"),
        "sensitivity.sample.ms": (ms("sensitivity.sample"), "ms/round"),
        "simulation.compute_metrics.ms": (ms("simulation.compute_metrics"), "ms/round"),
        "simulation.simulate_day.ms": (ms("simulation.simulate_day"), "ms/round"),
        "simulation.simulate_day.self_ms":
            (ms("simulation.simulate_day", True), "ms/round"),
        "simulation.init_population.ms": (ms("simulation.init_population"), "ms/round"),
        "mesoscopic.quantize_population.ms":
            (ms("mesoscopic.quantize_population"), "ms/round"),
        "mesoscopic.quantize_population.clamped": (reference.clamped, "agents/round"),
        "mesoscopic.build_chain.ms": (ms("mesoscopic.build_chain"), "ms/round"),
        "mesoscopic.stationary_distribution.ms":
            (ms("mesoscopic.stationary_distribution"), "ms/round"),
        "mesoscopic.matvecs_per_solve":
            (ratio(calls("mesoscopic.matvec"),
                   calls("mesoscopic.stationary_distribution")), "matvecs/solve"),
        "mesoscopic.equilibrium_flows.ms": (ms("mesoscopic.equilibrium_flows"), "ms/round"),
        "pricing.conservation_prices.ms": (ms("pricing.conservation_prices"), "ms/round"),
        "pricing.rationalize_prices.ms": (ms("pricing.rationalize_prices"), "ms/round"),
        "presets.get_preset.ms": (ms("presets.get_preset"), "ms/round"),
        "config.derive.ms": (ms("config.derive"), "ms/round"),
        "karma_routing.import_s": (import_s, "s"),
        "machine.calibration_ms": (traced.calibration_ns() / 1e6, "ms"),
        "trace.overhead_ratio":
            (traced.op_seconds() / untraced.op_seconds() - 1.0, "ratio"),
    }


def show(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "karma_routing" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import TINY, WORKLOADS, Api

    table = TINY if args.tiny else WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    seed = args.seed
    tracer = None
    if args.trace:
        from bench_trace import Tracer
        tracer = Tracer()

    reference = run_round(workload, Api(), seed)
    untraced, traced = measure(workload, seed, args.seconds, reference, tracer)
    reproduces = workload.reproduces_library(seed, reference)
    attempted = len(reference.op_ns) + untraced.attempted + traced.attempted
    failed = reference.failed + untraced.failed + traced.failed

    print(f"workload {workload.name} seed {seed}: {workload.n_ops(seed)} ops and "
          f"{workload.items_per_round(seed)} {workload.item} per round, "
          f"{untraced.rounds} untraced and {traced.rounds} traced rounds, "
          f"{workload.setups} set-ups per round")
    planned = planned_rounds(workload, tracer is not None)
    if untraced.rounds < planned:
        print(f"warning: --seconds ran out after {untraced.rounds} of {planned} "
              "rounds; the statistics are not comparable")
    print("digest " + " ".join(f"{k}={v}" for k, v in
                               workload.digest(reference).items()))
    print(f"reproduces the library's own path: {'yes' if reproduces else 'NO'}")

    if tracer:
        metrics = per_layer(workload, seed, traced, untraced, reference,
                            import_seconds(1 if args.tiny else IMPORT_SAMPLES))
        args.out.mkdir(parents=True, exist_ok=True)
        span_file = args.out / f"spans-{workload.name}.csv"
        tracer.write_spans(span_file)
        print(f"spans of the first traced round written to {span_file}")
        if tracer.missing:
            print("missing (not traced): " + ", ".join(tracer.missing))
        print("per-round counts repeat across traced rounds: "
              + ("yes" if traced.counts_repeat else "NO"))
        op_ms = untraced.op_seconds() * 1e3 / workload.n_ops(seed)
        self_ms = traced.layer_self_seconds() * 1e3 / workload.n_ops(seed)
        print(f"layer self times sum to {self_ms:.4f} ms/op against "
              f"{op_ms:.4f} ms/op untraced")
    else:
        metrics = end_to_end(workload, seed, untraced, untraced.scale())
        raw = end_to_end(workload, seed, untraced, 1.0)
        print(f"calibration kernel {untraced.calibration_ns() / 1e6:.4f} ms "
              f"(reference {CAL_REF_NS / 1e6:g} ms); unscaled: "
              + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()
                          if k != "peak_rss_mb"))
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    show(metrics)
    print(json.dumps({
        "correct": failed == 0 and reproduces,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
