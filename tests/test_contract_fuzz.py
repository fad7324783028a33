"""A seeded fuzz of the input contract.  Structural mutants of the demo
trace go through ``check``, and mutated program and schedule files through
``explore`` and ``replay``.  Every run must end in one of its command's exit
codes with no exception escaping ``main``.  A trace that ``check`` accepts
must parse back to itself through ``render_trace``, and one that it finds
in violation must be its own replay, since ``check`` replays a file before
either oracle route runs."""

import json
import random
from dataclasses import replace

from reference import random_schedule
from snapcheck.cli import main
from snapcheck.harness import client_e_prime, generated_programs, run_schedule
from snapcheck.tracefile import parse_trace, render_trace

SEED = 32
TRACE_MUTANTS = 1000
PROGRAM_MUTANTS = 200

# Each command's exit codes, as the README's contract gives them.
CHECK_EXITS = {0, 1, 2, 4}
EXPLORE_EXITS = {0, 1, 2, 4}
REPLAY_EXITS = {0, 1, 2, 3, 4}

# JSON values that a trace mutant puts in place of a field.
VALUES = (0, 1, 3, 8, -1, 2**70, True, False, None, "", "l", "scan", "write x 2", "zz")
VALUES += ([], [1], [1, 2], ["l", "c"], [[1, "red"]], {}, {"kind": "step"})

# Tokens that a program or schedule mutant puts in place of another.
TOKENS = ("write", "scan", "x", "y", "z", "init", "0", "7", "8", "-1", "2.5")
TOKENS += (";", ":", ",", "#", "a:", "a", "d", "s", "t", "true", "null", "[]", "é")


def _exit(argv, capsys, what) -> int:
    try:
        code = main(argv)
    except Exception as exc:  # an escaped exception is the fault looked for
        raise AssertionError(f"{argv[0]} raised {exc!r} on {what!r}") from exc
    capsys.readouterr()
    return code


def _bend(rec, rng):
    """The record ``rec`` with one field, at its top or inside a container,
    deleted or replaced by one of ``VALUES``."""
    rec = json.loads(json.dumps(rec))  # a copy to edit in place
    parent, node = None, rec
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.5):
        parent = node
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        node = node[key]
    if rng.random() < 0.3:
        del parent[key]
    else:
        parent[key] = rng.choice(VALUES)
    return rec


def _shuffle_lines(lines, rng):
    """``lines`` with one line deleted, duplicated, or swapped with another."""
    lines = list(lines)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    op = rng.randrange(3)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return lines


def _trace_mutant(lines, rng) -> str:
    if rng.random() < 0.25:
        lines = _shuffle_lines(lines, rng)
    else:
        i = rng.randrange(len(lines))
        lines = [*lines[:i], json.dumps(_bend(json.loads(lines[i]), rng)), *lines[i + 1 :]]
    return "\n".join(lines) + "\n"


def test_fuzzed_traces_keep_the_contract(tmp_path, capsys):
    """Mutants of the demo trace: a field deleted or replaced, or a line
    deleted, duplicated or swapped."""
    demo = tmp_path / "demo.trace"
    assert _exit(["demo-fig1", "--out", str(demo)], capsys, "demo") == 0
    lines = demo.read_text().splitlines()
    rng = random.Random(SEED)
    path = tmp_path / "mutant.trace"
    codes = []
    for _ in range(TRACE_MUTANTS):
        text = _trace_mutant(lines, rng)
        path.write_text(text)
        code = _exit(["check", "--trace", str(path)], capsys, text)
        assert code in CHECK_EXITS, (code, text)
        if code in (0, 1):
            trace = parse_trace(text)
        if code == 0:
            assert parse_trace(render_trace(trace)) == trace, text
        if code == 1:  # a verdict on a run the program makes, and no other
            want = run_schedule(trace.program, trace.schedule)
            assert replace(want, steps=want.steps if trace.steps else ()) == trace, text
        codes.append(code)
    # the fuzz reaches both a verdict and a refusal
    assert {0, 4} <= set(codes), sorted(set(codes))


def _program_lines(prog) -> list[str]:
    calls = [f"{tid}: {'; '.join(c.render() for c in cs)}" for tid, cs in prog.threads]
    return [f"init {prog.init_x} {prog.init_y}", *calls]


def _mutate_tokens(lines, pool, rng):
    """``lines`` with one whitespace-separated token deleted, replaced by
    one of ``pool``, or inserted from it."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    words = lines[i].split()
    k = rng.randrange(len(words) + 1)
    op = rng.randrange(3) if k < len(words) else 2
    if op == 0:
        del words[k]
    elif op == 1:
        words[k] = rng.choice(pool)
    else:
        words.insert(k, rng.choice(pool))
    lines[i] = " ".join(words)
    return lines


def _mutant(lines, pool, rng):
    """``lines`` after up to two token or line mutations."""
    for _ in range(rng.randrange(3)):
        if not lines:
            break
        if rng.random() < 0.6:
            lines = _mutate_tokens(lines, pool, rng)
        else:
            lines = _shuffle_lines(lines, rng)
    return lines


def test_fuzzed_programs_and_schedules_keep_the_contract(tmp_path, capsys):
    """Mutants of small programs, each explored under a small budget and
    replayed with a mutant of one of its seeded schedules, drawn with
    commas, comments and line breaks among the thread ids.  All bases but
    gen-x1-y1 explore within the budget, so that few explores run to it."""
    names = {"gen-x0-y1", "gen-x0-y2", "gen-x1-y0", "gen-x1-y1", "gen-x2-y0"}
    bases = [client_e_prime(), *(p for p in generated_programs() if p.name in names)]
    rng = random.Random(SEED)
    prog_file, sched_file = tmp_path / "fuzz.prog", tmp_path / "fuzz.sched"
    explored, replayed = [], []
    for _ in range(PROGRAM_MUTANTS):
        base = rng.choice(bases)
        prog_text = "\n".join(_mutant(_program_lines(base), TOKENS, rng)) + "\n"
        schedule = _mutant(random_schedule(base, rng), TOKENS, rng)
        seps = rng.choice([" ", ",", "\n", ", ", " # note\n"])
        sched_text = seps.join(schedule) + "\n"
        prog_file.write_text(prog_text)
        sched_file.write_text(sched_text)
        what = (prog_text, sched_text)
        argv = ["explore", "--program", str(prog_file), "--max-states", "5000"]
        code = _exit(argv, capsys, what)
        assert code in EXPLORE_EXITS, (code, what)
        explored.append(code)
        argv = ["replay", "--program", str(prog_file), "--schedule", str(sched_file)]
        code = _exit(argv, capsys, what)
        assert code in REPLAY_EXITS, (code, what)
        replayed.append(code)
    assert {0, 2, 4} <= set(explored), sorted(set(explored))
    assert {0, 3, 4} <= set(replayed), sorted(set(replayed))
