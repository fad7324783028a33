"""CLI wiring and the exit-code contract (0 ok, 1 violation, 2 state or
oracle budget, 3 schedule, 4 parse, 5 usage)."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import snapcheck
from conftest import repeated_sigma_trace, two_scan_programs
from reference import random_schedule
from snapcheck import aux_ops, oracle
from snapcheck.aux_model import Ptr
from snapcheck.cli import main
from snapcheck.harness import (
    FIG1_SCHEDULE,
    Program,
    client_e,
    client_e_prime,
    explore,
    generated_programs,
    parse_program,
    run_schedule,
)
from snapcheck.snapshot import MethodCall
from snapcheck.tracefile import render_trace


@pytest.fixture
def sched_file(tmp_path):
    path = tmp_path / "fig1.sched"
    path.write_text("\n".join(FIG1_SCHEDULE) + "\n")
    return path


def test_demo_fig1(capsys):
    assert main(["demo-fig1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "(2,1)" in out
    assert "sigma: 5 0 2 1 3" in out


def test_demo_fig1_writes_trace(tmp_path, capsys):
    out_file = tmp_path / "demo.trace"
    assert main(["demo-fig1", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["check", "--trace", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "witness: ok" in out and "linearizable: ok" in out


def test_explore_program_file(tmp_path, capsys):
    prog = tmp_path / "tiny.prog"
    prog.write_text("a: write x 2\ns: scan\n")
    assert main(["explore", "--program", str(prog)]) == 0
    out = capsys.readouterr().out
    assert "scan results: (2,0) (5,0)" in out
    assert "violations: none" in out


def test_explore_budget_exit(capsys):
    assert main(["explore", "--client", "e", "--max-states", "10"]) == 2


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_explore_rejects_a_budget_that_is_not_positive(budget, capsys):
    """A budget below one is a bad argument, refused before any state is
    reached, and not a budget exceeded (exit 2)."""
    assert main(["explore", "--client", "e", "--max-states", budget]) == 5
    err = capsys.readouterr().err
    assert "--max-states: must be positive" in err and "exceeded" not in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["explore"],
        ["explore", "--client", "e", "--program", "p.prog"],
        ["explore", "--client", "nope"],
        ["explore", "--client", "e", "--max-states", "many"],
        ["replay", "--client", "fig1"],
        ["check"],
        ["frobnicate"],
    ],
    ids=" ".join,
)
def test_usage_errors_exit_5(argv, capsys):
    assert main(argv) == 5
    assert "usage: snapcheck" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["explore", "--help"], ["check", "-h"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage: snapcheck" in capsys.readouterr().out


def test_explore_oracle_size_exit(tmp_path, capsys):
    # seven writes and the two initializing ones: more than the oracle's 8
    prog = tmp_path / "long.prog"
    prog.write_text("a: " + "; ".join(f"write x {v}" for v in range(1, 8)) + "\n")
    assert main(["explore", "--program", str(prog)]) == 2
    assert "enumeration limit" in capsys.readouterr().err


def test_explore_deep_program_exit(tmp_path, capsys):
    # every terminal state completes every call, so explore refuses the
    # program before its first step, where it used to recurse 1,200 steps
    # deep and die of a RecursionError
    prog = tmp_path / "deep.prog"
    prog.write_text("a: " + "; ".join(["write x 2"] * 200) + "\n")
    assert main(["explore", "--program", str(prog)]) == 2
    assert "202 operations exceed the enumeration limit" in capsys.readouterr().err


def test_explore_bad_program_file(tmp_path, capsys):
    prog = tmp_path / "bad.prog"
    prog.write_text("nonsense without colon\n")
    assert main(["explore", "--program", str(prog)]) == 4


@pytest.mark.parametrize("tid", ["a b", "a,b", "a\tb"])
def test_explore_refuses_a_thread_id_no_schedule_can_name(tid, tmp_path, capsys):
    """A schedule file splits on whitespace and commas, so a thread id
    holding either could never be replayed: the program file is refused
    (exit 4), naming the line, where explore used to explore it."""
    prog = tmp_path / "split.prog"
    prog.write_text(f"s: scan\n{tid}: write x 2\n")
    assert main(["explore", "--program", str(prog)]) == 4
    assert "line 2" in capsys.readouterr().err


def test_explore_program_file_with_a_late_init_line(tmp_path, capsys):
    prog = tmp_path / "late.prog"
    prog.write_text("c: scan\ninit 2 1\n")
    assert main(["explore", "--program", str(prog)]) == 4
    assert "line 2" in capsys.readouterr().err


def test_replay_deterministic(tmp_path, sched_file, capsys):
    t1 = tmp_path / "a.trace"
    t2 = tmp_path / "b.trace"
    assert main(["replay", "--client", "fig1", "--schedule", str(sched_file), "--out", str(t1)]) == 0
    assert main(["replay", "--client", "fig1", "--schedule", str(sched_file), "--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    out = capsys.readouterr().out
    assert "scan -> (2,1)" in out


def test_replay_stdout_trace_passes_check(tmp_path, sched_file, capsys):
    # without --out the trace alone goes to stdout; the summary to stderr
    assert main(["replay", "--client", "fig1", "--schedule", str(sched_file)]) == 0
    captured = capsys.readouterr()
    assert "scan -> (2,1)" in captured.err
    piped = tmp_path / "stdout.trace"
    piped.write_text(captured.out)
    assert main(["check", "--trace", str(piped)]) == 0
    # the replay in check judges no honest trace wrong: seeded random
    # complete schedules of every swept program pass it too
    rng = random.Random(16)
    for prog in [client_e(), client_e_prime(), *generated_programs(), *two_scan_programs()]:
        for _ in range(5):
            piped.write_text(render_trace(run_schedule(prog, random_schedule(prog, rng))))
            assert main(["check", "--trace", str(piped)]) == 0, prog.name


def test_replay_truncated_schedule(tmp_path, capsys):
    sched = tmp_path / "short.sched"
    sched.write_text("\n".join(FIG1_SCHEDULE[:5]) + "\n")
    assert main(["replay", "--client", "fig1", "--schedule", str(sched)]) == 3


def test_replay_invalid_schedule(tmp_path, capsys):
    sched = tmp_path / "bad.sched"
    sched.write_text("z z z\n")
    assert main(["replay", "--client", "fig1", "--schedule", str(sched)]) == 3


def test_check_fault_injected_trace(tmp_path, capsys):
    out_file = tmp_path / "demo.trace"
    main(["demo-fig1", "--out", str(out_file)])
    capsys.readouterr()
    # corrupt the scan's recorded result
    lines = out_file.read_text().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "method" and rec["op"] == "scan":
            rec["result"] = [5, 1]
            lines[i] = json.dumps(rec, sort_keys=True)
    out_file.write_text("\n".join(lines) + "\n")
    # the replay returns (2, 1), so the file is refused before any oracle
    assert main(["check", "--trace", str(out_file)]) == 4
    captured = capsys.readouterr()
    assert "methods differ from its replay" in captured.err
    assert "witness:" not in captured.out


@pytest.mark.parametrize("mutant", [None, "junk", 99], ids=["null", "string", "int"])
def test_check_mutated_fields(tmp_path, capsys, mutant):
    """Every field of every record set to null, to a string and to an int
    beyond every index, timestamp and value in the file: check gives a
    verdict or a parse error, never a crash, and rejects every edit that
    changes a value, except of the program's name."""
    out_file = tmp_path / "demo.trace"
    main(["demo-fig1", "--out", str(out_file)])
    lines = out_file.read_text().splitlines()
    codes = {}
    for i, line in enumerate(lines):
        rec = json.loads(line)
        for key in rec:
            bent = dict(rec, **{key: mutant})
            mutated = lines[:i] + [json.dumps(bent)] + lines[i + 1 :]
            out_file.write_text("\n".join(mutated) + "\n")
            code = main(["check", "--trace", str(out_file)])
            err = capsys.readouterr().err
            assert code in (0, 1, 4) and "Traceback" not in err, (i, key, code, err)
            # a program name is the one value the replay takes as given
            if bent != rec and (rec["kind"], key) != ("header", "program"):
                assert code != 0, (i, key)
            if rec["kind"] == "method" and rec["op"] == "scan":
                codes[key] = code
    assert codes["result"] == 4


def test_check_repeated_sigma_timestamp(tmp_path, capsys):
    """A footer sigma that repeats a write's timestamp is a malformed
    file: check exits 4, naming the repeated timestamp, before any
    oracle runs."""
    forged = tmp_path / "repeated.trace"
    forged.write_text(render_trace(repeated_sigma_trace()))
    assert main(["check", "--trace", str(forged)]) == 4
    captured = capsys.readouterr()
    assert "sigma repeats timestamp 3" in captured.err
    assert "witness:" not in captured.out


def test_check_witness_order_fails(tmp_path, capsys):
    """The demo trace with its scan's witness moved to event 1, the
    initial write of x: the file parses, but the replay's scan chose
    another witness, so check refuses the file (exit 4) before either
    oracle route runs.  ``test_check_a_run_whose_witness_fails`` reaches
    the witness route's failure with a run the program makes."""
    out_file = tmp_path / "demo.trace"
    main(["demo-fig1", "--out", str(out_file)])
    capsys.readouterr()
    lines = out_file.read_text().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "method" and rec["op"] == "scan":
            lines[i] = json.dumps(dict(rec, witness=1), sort_keys=True)
    out_file.write_text("\n".join(lines) + "\n")
    assert main(["check", "--trace", str(out_file)]) == 4
    captured = capsys.readouterr()
    assert "error: the file's methods differ from its replay" in captured.err
    assert "witness:" not in captured.out


def test_check_a_run_whose_witness_fails(tmp_path, capsys, monkeypatch):
    """A relink that never pushes the missed write past the other
    pointer's event: on 8 of e's 120 kept runs the witness order fails
    while some order still linearizes the history.  Such a run, replayed
    and written out, is its own replay under the same mutant, so check
    reaches both oracle routes, prints ``witness: FAIL`` and
    ``linearizable: ok``, and exits 1."""
    monkeypatch.setattr(aux_ops, "push", lambda i, j, sigma: sigma)
    runs = explore(client_e()).executions
    failed = [ex for ex in runs if not oracle.validate_witness(ex)]
    assert (len(runs), len(failed)) == (120, 8)
    assert all(oracle.linearizable(oracle.ops_from_trace(ex)) for ex in runs)
    out_file = tmp_path / "unpushed.trace"
    out_file.write_text(render_trace(run_schedule(client_e(), failed[0].schedule)))
    assert main(["check", "--trace", str(out_file)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["witness: FAIL", "linearizable: ok"]


def test_check_a_thread_named_as_a_writer_phase(tmp_path, capsys):
    """A thread whose id equals a string that a state's key holds
    elsewhere, the writer phase ``off``: the program built in code and the
    one parsed from text give equal step records, digests included, and
    the replayed trace passes check.  A digest pickles its key, which
    writes a repeated object once, so it read which string object the tid
    was, not only its value."""
    built = Program("p", (("off", (MethodCall.write(Ptr.X, 2),)), ("s", (MethodCall.scan(),))))
    parsed = parse_program("off: write x 2\ns: scan\n", name="p")
    schedule = ["off"] * 5 + ["s"] * 11
    trace = run_schedule(built, schedule)
    assert trace.steps == run_schedule(parsed, schedule).steps
    path = tmp_path / "off.trace"
    path.write_text(render_trace(trace))
    assert main(["check", "--trace", str(path)]) == 0


def test_check_empty_trace(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    assert main(["check", "--trace", str(empty)]) == 0


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("definitely { not json\n")
    assert main(["check", "--trace", str(bad)]) == 4


def test_check_deeply_nested_line(tmp_path, capsys):
    deep = tmp_path / "deep.trace"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    assert main(["check", "--trace", str(deep)]) == 4


def test_check_truncated_trace(tmp_path, capsys):
    out_file = tmp_path / "demo.trace"
    main(["demo-fig1", "--out", str(out_file)])
    capsys.readouterr()
    lines = out_file.read_text().splitlines(keepends=True)
    out_file.write_text("".join(lines[:-1]))  # drop the footer
    assert main(["check", "--trace", str(out_file)]) == 4
    assert "witness:" not in capsys.readouterr().out


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", "--trace", str(tmp_path / "nope.trace")]) == 4


def test_explore_value_out_of_domain(tmp_path, capsys):
    prog = tmp_path / "big.prog"
    prog.write_text("a: write x 99\n")
    assert main(["explore", "--program", str(prog)]) == 4


def _run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(snapcheck.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "snapcheck.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_module_entry_point(tmp_path, sched_file):
    missing = _run_module("check", "--trace", str(tmp_path / "nope.trace"))
    assert missing.returncode == 4
    trace = tmp_path / "fig1.trace"
    replayed = _run_module(
        "replay", "--client", "fig1", "--schedule", str(sched_file), "--out", str(trace)
    )
    assert replayed.returncode == 0, replayed.stderr
    checked = _run_module("check", "--trace", str(trace))
    assert checked.returncode == 0, checked.stderr
    assert "witness: ok" in checked.stdout.splitlines()
    explored = _run_module("explore", "--client", "e-prime")
    assert explored.returncode == 0
    assert "program: e-prime" in explored.stdout.splitlines()
    assert _run_module("explore").returncode == 5
    assert _run_module("explore", "--client", "e", "--max-states", "-3").returncode == 5
    assert _run_module("explore", "--help").returncode == 0


# A check process's work: the demo written and checked, a random run and an
# explore, then the names of every module loaded, on the last line.
_FOOTPRINT = """
import sys
from snapcheck.cli import main
from snapcheck.harness import client_e, client_e_prime, explore, run_random
assert main(["demo-fig1", "--out", sys.argv[1]]) == 0
assert main(["check", "--trace", sys.argv[1]]) == 0
run_random(client_e(), seed=1, runs=5)
explore(client_e_prime())
print(*sys.modules)
"""


def test_a_check_process_loads_no_openssl(tmp_path):
    """No module under ``src`` imports ``hashlib``, whose ``_hashlib``
    maps OpenSSL's libcrypto into the process: ``snapshot`` takes
    ``blake2b`` from ``_blake2``.  Run in a fresh process under
    ``-S``, so that no site package loads ``hashlib`` first."""
    env = dict(os.environ, PYTHONPATH=str(Path(snapcheck.__file__).parents[1]))
    argv = [sys.executable, "-S", "-c", _FOOTPRINT, str(tmp_path / "demo.trace")]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.splitlines()[-1].split()
    assert "snapcheck.snapshot" in loaded and "_blake2" in loaded
    assert "_hashlib" not in loaded
