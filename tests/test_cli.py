"""CLI wiring and the exit-code contract (0 ok, 1 violation, 2 state or
oracle budget, 3 schedule, 4 parse)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snapcheck
from snapcheck.cli import main
from snapcheck.harness import FIG1_SCHEDULE


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
    assert main(["check", "--trace", str(out_file)]) == 1


@pytest.mark.parametrize("mutant", [None, "junk", 99], ids=["null", "string", "int"])
def test_check_mutated_fields(tmp_path, capsys, mutant):
    """Every field of every record set to null, to a string and to an int
    beyond every index, timestamp and value in the file: check gives a
    verdict or a parse error, never a crash."""
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
            if rec["kind"] == "method" and rec["op"] == "scan":
                codes[key] = code
    assert codes["result"] == 4


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


def test_module_entry_point(tmp_path):
    missing = _run_module("check", "--trace", str(tmp_path / "nope.trace"))
    assert missing.returncode == 4
    explored = _run_module("explore", "--client", "e-prime")
    assert explored.returncode == 0
    assert "program: e-prime" in explored.stdout.splitlines()
