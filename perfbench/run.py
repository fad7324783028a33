#!/usr/bin/env python3
"""Benchmark of the snapcheck model checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``spec.json`` for why each was chosen):

* ``explore-e``: exhaustive ``explore(client_e())``;
* ``replay-gen-x2-y2``: random complete schedules of gen-x2-y2, each
  replayed, written as a trace file, parsed back and checked by both oracle
  routes;
* ``random-two-scan``: ``run_random(prog, seed=s, runs=1)`` per seed, on a
  client whose scanner scans twice.

Inputs are made from ``--seed`` before timing.  Every operation's verdict is
checked against a known answer; a wrong verdict or any exception counts as a
failed operation.  With ``--trace 0`` the run reports the end-to-end metrics,
every time taken at reference speed (``speed.py``), because the machine is
shared and its speed drifts between runs by more than a useful regression
bound.  With ``--trace 1`` it measures untraced, then traced with a wrapper
around every layer (``tracing.py``), and reports the per-layer metrics, in
wall time, and the tracing overhead, and writes the spans to
``.perfbench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402
from tracing import LAYER_NAMES, Originals, Tracer  # noqa: E402

# Inputs per run on the schedule workloads, cycled in order.  One pass over
# them is one verdict.  The p99 is taken over the inputs, so it needs 1,010
# of them for TAIL_SAMPLES beyond it; a 30-second run still makes 5 passes
# or more, so each input's median time shrugs off stalls from load elsewhere.
POOL = 1024
SETUP_REPEATS = 7
SPAN_CAP = 200_000
TAIL_SAMPLES = 10  # a reported percentile needs this many samples beyond it

MODULES = ("harness", "oracle", "tracefile", "invariants", "aux_ops")

# Run in a fresh interpreter to time set-up: import, then build the program.
SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from snapcheck import harness, oracle, tracefile
prog = {build}
print("ready", flush=True)
"""


class SetupError(Exception):
    """The program cannot be imported or set up in this checkout."""


def load_snapcheck() -> dict:
    """Import the program from this checkout's ``src/``, never from
    anywhere else on the path."""
    if not (SRC / "snapcheck" / "__init__.py").is_file():
        raise SetupError(f"no snapcheck package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"snapcheck.{m}") for m in MODULES}
    for m in mods.values():
        if not Path(m.__file__).resolve().is_relative_to(SRC):
            raise SetupError(f"{m.__name__} imported from {m.__file__}, not {SRC}")
    return mods


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``build`` is a Python expression over ``harness``
    that makes the program; it is also what the set-up probe evaluates."""

    name: str
    build: str
    pool: int
    min_ops: int
    golden: dict = field(default_factory=dict)

    def inputs(self, mods, prog, seed: int) -> list:
        raise NotImplementedError

    def op(self, mods, prog, inp):
        raise NotImplementedError

    def verify(self, mods, result) -> list[str]:
        """Problems with one operation's verdict; empty when it is right."""
        raise NotImplementedError

    def counts(self, result) -> tuple[int, int, int, int]:
        """(states, edges, schedules, executions_checked) of one operation."""
        raise NotImplementedError


class Explore(Workload):
    def inputs(self, mods, prog, seed):
        return [None]

    def op(self, mods, prog, inp):
        return mods["harness"].explore(prog)

    def verify(self, mods, report):
        got = {
            "states": report.states,
            "edges": report.edges,
            "schedules": report.schedules,
            "executions_checked": report.executions_checked,
            "scan_results": sorted(list(r) for r in report.scan_results),
            "violations": len(report.violations),
        }
        bad = [
            f"{k}: got {got[k]}, golden {g['value']}"
            for k, g in self.golden.items()
            if got[k] != g["value"]
        ]
        return bad + [v.render() for v in report.violations[:3]]

    def counts(self, report):
        return (report.states, report.edges, report.schedules, report.executions_checked)


def random_schedule(harness, prog, rng: random.Random) -> tuple:
    """A uniformly random complete schedule, made with the harness's own
    stepping and no checks."""
    state = harness.initial_state(prog)
    sched = []
    while enabled := harness.enabled_tids(prog, state):
        tid = enabled[rng.randrange(len(enabled))]
        state, _ = harness.step_state(prog, state, tid)
        sched.append(tid)
    return tuple(sched)


class Replay(Workload):
    def inputs(self, mods, prog, seed):
        rng = random.Random(seed)
        return [random_schedule(mods["harness"], prog, rng) for _ in range(self.pool)]

    def op(self, mods, prog, schedule):
        tracefile, oracle = mods["tracefile"], mods["oracle"]
        trace = mods["harness"].run_schedule(prog, schedule)
        parsed = tracefile.parse_trace(tracefile.render_trace(trace))
        witness_ok = oracle.validate_witness(parsed)
        order = oracle.linearizable(oracle.ops_from_trace(parsed))
        return trace, parsed, witness_ok, order

    def verify(self, mods, result):
        trace, parsed, witness_ok, order = result
        bad = list(trace.violations[:3])
        if parsed != trace:
            bad.append("parse_trace(render_trace(t)) != t")
        if not witness_ok:
            bad.append("oracle.validate_witness rejected the witness order")
        if order is None:
            bad.append("oracle.linearizable found no order")
        return bad

    def counts(self, result):
        steps = len(result[0].steps)
        return (steps + 1, steps, 1, 1)


class Random(Workload):
    def inputs(self, mods, prog, seed):
        rng = random.Random(seed)
        return [rng.getrandbits(63) for _ in range(self.pool)]

    def op(self, mods, prog, run_seed):
        return mods["harness"].run_random(prog, seed=run_seed, runs=1)

    def verify(self, mods, report):
        bad = [v.render() for v in report.violations[:3]]
        if report.executions_checked != 1:
            bad.append(f"oracle ran {report.executions_checked} times, not once")
        return bad

    def counts(self, report):
        return (report.edges + 1, report.edges, report.schedules, report.executions_checked)


def workloads() -> dict[str, Workload]:
    golden = json.loads((HERE / "spec.json").read_text())["golden"]
    return {
        w.name: w
        for w in (
            Explore("explore-e", "harness.client_e()", 1, 1, golden["explore-e"]),
            Replay(
                "replay-gen-x2-y2",
                '[p for p in harness.generated_programs() if p.name == "gen-x2-y2"][0]',
                POOL,
                POOL,
            ),
            Random(
                "random-two-scan",
                'harness.parse_program("a: write x 2\\nd: write y 1\\ns: scan; scan\\n",'
                ' "two-scan")',
                POOL,
                POOL,
            ),
        )
    }


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Phase:
    """Operation times (ns) as metrics take them and on the wall clock,
    failures and per-operation counts of one timed loop, and the process's
    peak RSS (MB) once its first operation ended."""

    lat_ns: list[float] = field(default_factory=list)
    wall_ns: list[int] = field(default_factory=list)
    failures: list[tuple[int, list[str]]] = field(default_factory=list)
    counts: list[tuple[int, int, int, int]] = field(default_factory=list)
    rss_mb: float = 0.0


def measure(
    w: Workload, mods, prog, inputs, seconds: float, min_ops: int, tracer=None, probe=None
) -> Phase:
    """Closed loop, one operation at a time, cycling through ``inputs``,
    until at least ``min_ops`` have run and the next, as long as the last,
    would end past ``seconds``.  Only the operation is timed; its verdict is
    checked after the clock stops.  With a ``SpeedProbe`` the metric times
    are at reference speed, else they are wall times."""
    phase = Phase()
    spans = []
    budget = seconds * 1e9
    start = now = time.perf_counter_ns()
    prev = i = 0
    with probe or contextlib.nullcontext():
        while i < min_ops or now - start + prev < budget:
            if tracer is not None:
                tracer.op = i
            t1 = None
            t0 = time.perf_counter_ns()
            try:
                result = w.op(mods, prog, inputs[i % len(inputs)])
                t1 = time.perf_counter_ns()
                bad = w.verify(mods, result)
                phase.counts.append(w.counts(result))
            except Exception as exc:  # any exception is a failed operation
                bad = [f"{type(exc).__name__}: {exc}"]
            spans.append((t0, t1 or time.perf_counter_ns()))
            if bad:
                phase.failures.append((i, bad))
            if i == 0:
                phase.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            i += 1
            prev = spans[-1][1] - t0
            now = time.perf_counter_ns()
    phase.wall_ns = [t1 - t0 for t0, t1 in spans]
    if probe is None:
        phase.lat_ns = list(phase.wall_ns)
    else:
        phase.lat_ns = [(t1 - t0 - probe.inside_ns(t0, t1)) * probe.scale(t0, t1) for t0, t1 in spans]
    return phase


def setup_times(w: Workload, repeats: int) -> list[float]:
    """Seconds, at reference speed, from starting a fresh interpreter to its
    having imported snapcheck and built the program, ``repeats`` times after
    one warm-up.  The speed probe runs in this process meanwhile."""
    code = SETUP_PROBE.format(build=w.build)
    spans = []
    with SpeedProbe() as probe:
        for _ in range(repeats + 1):
            spans.append(spawn_setup(code))
    return [(t1 - t0) * probe.scale(t0, t1) / 1e9 for t0, t1 in spans[1:]]


def spawn_setup(code: str) -> tuple[int, int]:
    """Run the set-up probe once; return when it started and became ready."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(SRC)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    t1 = time.perf_counter_ns()
    _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return t0, t1


def percentile(sorted_vals: list, q: float):
    """Nearest-rank q-quantile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def input_medians(w: Workload, lat_ns: list[float]) -> list[float]:
    """Each input's median time over the run's passes."""
    return [statistics.median(lat_ns[k :: w.pool]) for k in range(min(w.pool, len(lat_ns)))]


def tail_ms(per_input: list[float], reps: int) -> tuple[float, str]:
    """The 99th percentile over the inputs of each one's median time, so that
    it measures the inputs that take longest, not the moments when load
    elsewhere on the machine stalled this process.  With too few inputs for
    TAIL_SAMPLES beyond the p99, the highest whole percentile that has them,
    else the median.  Returns the value and how it was taken."""
    lat = sorted(per_input)
    n = len(lat)
    for pct in range(99, 49, -1):
        value, beyond = percentile(lat, pct / 100)
        if beyond >= TAIL_SAMPLES:
            return value / 1e6, f"p{pct} of n={n} inputs, {reps}+ runs each, {beyond} beyond"
    return percentile(lat, 0.5)[0] / 1e6, f"median of n={n} inputs, too few for a tail"


def end_to_end(w: Workload, phase: Phase, setup: list[float], log) -> dict:
    n = len(phase.lat_ns)
    reps = n // min(w.pool, n)
    p50 = percentile(sorted(phase.lat_ns), 0.5)[0] / 1e6
    per_input = input_medians(w, phase.lat_ns)
    p99, how = tail_ms(per_input, reps)
    verdict = sum(per_input) / 1e9
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (verdict, "s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p99": (p99, "ms"),
        "throughput_per_s": (len(per_input) / verdict, "1/s"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
    }
    log(f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh processes)")
    log(
        f"verdict_s {verdict:.4f} s (one pass over {len(per_input)} input(s), "
        f"each at its median of {reps}+ runs)"
    )
    log(
        f"latency_ms_p50 {p50:.4f} ms (n={n}; on the wall clock "
        f"{statistics.median(phase.wall_ns) / 1e6:.4f} ms)"
    )
    log(f"latency_ms_p99 {p99:.4f} ms ({how})")
    log(f"throughput_per_s {metrics['throughput_per_s'][0]:.4f} 1/s (inputs / verdict_s)")
    log(f"peak_rss_mb {phase.rss_mb:.2f} MB (fresh process, through its first operation)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(untraced: Phase, traced: Phase, tracer: Tracer, log) -> dict:
    ops = len(traced.lat_ns)
    metrics = {}
    for i, name in enumerate(LAYER_NAMES):
        metrics[f"{name}.calls"] = (tracer.calls[i] / ops, "count")
        metrics[f"{name}.self_ms"] = (tracer.self_ns[i] / ops / 1e6, "ms")
    counts = traced.counts or [(0, 0, 0, 0)]
    states, edges, schedules, checked = (statistics.fmean(c) for c in zip(*counts))
    metrics["harness.states"] = (states, "count")
    metrics["harness.edges"] = (edges, "count")
    metrics["harness.schedules"] = (schedules, "count")
    metrics["harness.executions_checked"] = (checked, "count")
    metrics["harness.revisit_ratio"] = ((edges - states + 1) / edges if edges else 0.0, "ratio")
    plain = statistics.median(untraced.lat_ns)
    with_spans = statistics.median(traced.lat_ns)
    metrics["trace.overhead_pct"] = ((with_spans / plain - 1) * 100, "%")
    metrics["trace.spans"] = (tracer.spans / ops, "count")
    log(
        f"tracing overhead: {(with_spans - plain) / 1e6:+.4f} ms per operation "
        f"({metrics['trace.overhead_pct'][0]:+.1f}%; untraced n={len(untraced.lat_ns)}, "
        f"traced n={ops})"
    )
    total = sum(tracer.self_ns) or 1
    for i in sorted(range(len(LAYER_NAMES)), key=lambda i: -tracer.self_ns[i]):
        if tracer.calls[i]:
            log(
                f"  {LAYER_NAMES[i]:36s} calls/op {tracer.calls[i] / ops:12.1f}  "
                f"self ms/op {tracer.self_ns[i] / ops / 1e6:10.4f}  "
                f"{100 * tracer.self_ns[i] / total:5.1f}%"
            )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(
    w: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_repeats: int = SETUP_REPEATS,
    spans_path: Path | None = None,
    log=print,
) -> dict:
    """Run one workload and return the result object the last line prints."""
    mods = load_snapcheck()
    originals = Originals(mods)
    harness = mods["harness"]
    prog = eval(w.build, {"harness": harness})
    inputs = w.inputs(mods, prog, seed)
    log(f"workload {w.name} seed {seed} seconds {seconds} trace {int(trace)}")
    if trace:
        originals.check_in_place()
        untraced = measure(w, mods, prog, inputs, seconds / 2, 1)
        with Tracer(originals, SPAN_CAP) as tracer:
            traced = measure(w, mods, prog, inputs, seconds / 2, 1, tracer)
        originals.check_in_place()
        if spans_path is not None:
            tracer.write_spans(spans_path)
            log(f"spans: {tracer.spans} recorded, first {min(tracer.spans, SPAN_CAP)} written")
        phases = [untraced, traced]
        metrics = per_layer(untraced, traced, tracer, log)
    else:
        setup = setup_times(w, setup_repeats)
        originals.check_in_place()
        phase = measure(w, mods, prog, inputs, seconds, w.min_ops, probe=SpeedProbe())
        phases = [phase]
        metrics = end_to_end(w, phase, setup, log)
    attempted = sum(len(p.lat_ns) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    log(f"error_rate {failed / attempted} ({failed} failed of {attempted} operations)")
    for p in phases:
        for i, bad in p.failures[:5]:
            print(f"operation {i} failed: {'; '.join(bad)}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    table = workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(table))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    w = table[args.workload]
    try:
        result = run(
            w,
            args.seed,
            args.seconds,
            bool(args.trace),
            spans_path=OUT / f"spans-{w.name}.tsv",
        )
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
