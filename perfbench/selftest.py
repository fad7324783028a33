#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit and
no failed operation on correct code, in both modes; that the verdict gate
fires on a wrong golden value and on a tampered trace; that tracing puts
every original function back, and the speed probe its signal handler; and
that the benchmark refuses to run, with
no result line, in a directory that holds only the benchmark.  Takes a few
seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Originals, Tracer  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def quiet(*_args) -> None:
    pass


def tiny_workloads() -> dict[str, run.Workload]:
    """Each workload at a size that runs in well under a second; explore-e
    is swapped for the one-thread client e' with the answers the test suite
    asserts for it."""
    table = run.workloads()
    e_prime = {
        "schedules": {"value": 1},
        "scan_results": {"value": [[5, 0]]},
        "violations": {"value": 0},
    }
    return {
        "explore-e": replace(
            table["explore-e"], build="harness.client_e_prime()", min_ops=1, golden=e_prime
        ),
        "replay-gen-x2-y2": replace(table["replay-gen-x2-y2"], pool=4, min_ops=4),
        "random-two-scan": replace(table["random-two-scan"], pool=4, min_ops=4),
    }


def check_metrics(bench: dict, tiny: dict) -> None:
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name, w in tiny.items():
        for trace in (False, True):
            res = run.run(w, seed=7, seconds=0.01, trace=trace, setup_repeats=1, log=quiet)
            mode = f"{name} trace={int(trace)}"
            check(
                set(res) == {"correct", "attempted", "failed", "metrics"},
                f"{mode}: result has exactly correct/attempted/failed/metrics",
            )
            check(
                res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                f"{mode}: error_rate 0 ({res['failed']}/{res['attempted']})",
            )
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[trace], f"{mode}: every declared metric, with its unit")
            values = [v["value"] for v in res["metrics"].values()]
            check(
                all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                f"{mode}: every value is a finite number",
            )
            if not trace:
                check(all(v > 0 for v in values), f"{mode}: no end-to-end metric is 0")


def check_gate(tiny: dict, mods: dict) -> None:
    explore = tiny["explore-e"]
    wrong = dict(explore.golden, schedules={"value": 2})
    res = run.run(replace(explore, golden=wrong), 7, 0.01, False, setup_repeats=1, log=quiet)
    check(
        res["failed"] == res["attempted"] >= 1 and not res["correct"],
        "a wrong golden schedule count fails every operation",
    )

    replay = tiny["replay-gen-x2-y2"]
    harness, oracle = mods["harness"], mods["oracle"]
    prog = eval(replay.build, {"harness": harness})
    trace, parsed, _, _ = replay.op(mods, prog, replay.inputs(mods, prog, 7)[0])
    bent = replace(
        parsed,
        methods=tuple(
            replace(m, result=(m.result[1], m.result[0] + 1)) if m.result else m
            for m in parsed.methods
        ),
    )
    result = (
        trace,
        bent,
        oracle.validate_witness(bent),
        oracle.linearizable(oracle.ops_from_trace(bent)),
    )
    problems = replay.verify(mods, result)
    check(
        len(problems) == 3,
        "a tampered scan result fails the round trip and both oracle routes: "
        + "; ".join(problems),
    )

    rand = tiny["random-two-scan"]
    prog = eval(rand.build, {"harness": harness})
    report = rand.op(mods, prog, 1)
    report.executions_checked = 0
    check(bool(rand.verify(mods, report)), "a random run the oracle skipped fails")


def check_tracer(mods: dict) -> None:
    originals = Originals(mods)
    harness = mods["harness"]
    step_state = harness.step_state
    try:
        with Tracer(originals, span_cap=10):
            wrapped = harness.step_state is not step_state
            try:
                originals.check_in_place()
                caught = False
            except RuntimeError:
                caught = True
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    check(wrapped and caught, "while tracing, the untraced check refuses to run")
    try:
        originals.check_in_place()
        restored = harness.step_state is step_state
    except RuntimeError:
        restored = False
    check(restored, "tracing restores every original, also when an exception escapes")


def check_speed_probe(tiny: dict, mods: dict) -> None:
    w = tiny["random-two-scan"]
    prog = eval(w.build, {"harness": mods["harness"]})
    handler = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    run.measure(w, mods, prog, w.inputs(mods, prog, 7), 0.3, 1, probe=probe)
    check(len(probe.durs) > 2, f"the speed probe sampled from its timer ({len(probe.durs)} samples)")
    check(
        signal.getsignal(signal.SIGALRM) is handler
        and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
        "the speed probe stops its timer and restores the SIGALRM handler",
    )


def check_refuses_without_program() -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "explore-e",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(tmp)
    check(
        proc.returncode != 0 and "{" not in proc.stdout,
        f"without src/ the benchmark exits {proc.returncode} and prints no result",
    )


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    mods = run.load_snapcheck()
    tiny = tiny_workloads()
    check_metrics(bench, tiny)
    check_gate(tiny, mods)
    check_tracer(mods)
    check_speed_probe(tiny, mods)
    check_refuses_without_program()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
