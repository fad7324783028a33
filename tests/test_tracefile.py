"""Trace file round-tripping."""

import json

import pytest

from snapcheck import tracefile
from snapcheck.cli import main
from snapcheck.errors import TraceParseError
from snapcheck.harness import (
    FIG1_SCHEDULE,
    client_e,
    client_fig1,
    explore,
    generated_programs,
    run_schedule,
)
from snapcheck.oracle import validate_witness
from snapcheck.tracefile import parse_trace, render_trace


def _check_exit(tmp_path, text):
    bent = tmp_path / "bent.trace"
    bent.write_text(text)
    return main(["check", "--trace", str(bent)])


def test_roundtrip_fig1():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    assert parse_trace(render_trace(trace)) == trace


def test_roundtrip_explore_records(tmp_path, capsys):
    prog = next(p for p in generated_programs() if p.name == "gen-x1-y0")
    report = explore(prog)
    assert report.executions
    for ex in report.executions:
        assert ex.steps == () and ex.violations == ()
        assert parse_trace(render_trace(ex)) == ex
    # check replays each kept record of e, which has no step records
    kept = explore(client_e()).executions
    assert len(kept) == 120
    for ex in kept:
        assert _check_exit(tmp_path, render_trace(ex)) == 0, ex.schedule


def test_roundtrip_is_stable_text():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    text = render_trace(trace)
    assert render_trace(parse_trace(text)) == text


def test_records_encode_as_json_dumps_does(monkeypatch):
    """render_trace encodes every record with one shared encoder, and
    writes the demo trace byte for byte as ``json.dumps(record,
    sort_keys=True)`` on each record does."""
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    text = render_trace(trace)

    class Dumps:
        def encode(self, record):
            return json.dumps(record, sort_keys=True)

    monkeypatch.setattr(tracefile, "_ENCODER", Dumps())
    assert render_trace(trace) == text


def test_parse_empty():
    trace = parse_trace("")
    assert trace.methods == () and trace.steps == () and trace.final_sigma == ()
    assert validate_witness(trace)


def test_parse_rejects_garbage():
    text = render_trace(run_schedule(client_fig1(), FIG1_SCHEDULE))
    lines = text.splitlines(keepends=True)
    header = lines[0]
    with pytest.raises(TraceParseError):
        parse_trace("not json\n")
    with pytest.raises(TraceParseError, match="unknown record kind"):
        parse_trace(header + '{"kind":"mystery"}\n')
    with pytest.raises(TraceParseError, match="line 2: missing field 'tid'"):
        parse_trace(header + '{"kind":"step","i":0}\n')  # missing fields
    with pytest.raises(TraceParseError, match="line 2: missing field 'phys'"):
        # a footer without the final state digests
        footer = '{"kind":"footer","sigma":[],"sigma_values":[],"kappa":[],"violations":[]}\n'
        parse_trace(header + footer)
    with pytest.raises(TraceParseError, match="no footer"):
        parse_trace("".join(lines[:-1]))  # truncated: the footer is lost
    with pytest.raises(TraceParseError, match="no header"):
        parse_trace("".join(lines[1:]))
    with pytest.raises(TraceParseError, match="line 1: no header"):
        parse_trace(lines[1] + text)  # a record before the header
    other = json.dumps(dict(json.loads(header), program="other")) + "\n"
    with pytest.raises(TraceParseError, match="line 2: a second header"):
        parse_trace(header + other + "".join(lines[1:]))
    with pytest.raises(TraceParseError, match="after the footer"):
        parse_trace(text + lines[1])


def test_one_record_per_line():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    lines = render_trace(trace).strip().split("\n")
    # header + one per step + one per method + footer
    assert len(lines) == 1 + len(trace.steps) + len(trace.methods) + 1
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds[0] == "header" and kinds[-1] == "footer"


FIG1_THREADS = [["l", ["write x 2", "write y 1"]], ["c", ["scan"]], ["r", ["write x 3"]]]


def _bend(kind, key, value):
    """The fig1 trace with ``key`` of its first ``kind`` record set to
    ``value``."""
    lines = render_trace(run_schedule(client_fig1(), FIG1_SCHEDULE)).splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    lines[i] = json.dumps(dict(json.loads(lines[i]), **{key: value}))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("header", "schedule", "lcr"),  # would split into ('l', 'c', 'r')
        ("header", "program", 7),
        ("step", "tid", 7),
        ("step", "label", 7),
        ("step", "phys", 7),
        ("step", "aux", 7),
        ("method", "tid", 7),
        ("method", "op", "write x 99"),  # outside the value range
        ("footer", "violations", "abc"),  # would be three violations
        ("footer", "phys", 7),
        ("footer", "aux", 7),
        ("header", "init", [99, -3]),  # outside the value range
        ("header", "threads", [["l", ["not a call"]], *FIG1_THREADS[1:]]),
        ("header", "threads", [["l", ["write x 99", "write y 1"]], *FIG1_THREADS[1:]]),
        ("header", "threads", [*FIG1_THREADS, FIG1_THREADS[0]]),  # l declared twice
    ],
)
def test_parse_rejects_wrongly_typed_fields(tmp_path, capsys, kind, key, value):
    """A string where a list of strings belongs, a non-string name, label
    or digest, an initial or written value outside the value range, a
    header call that is no method call and a thread declared twice are
    parse errors, and ``snapcheck check`` exits 4 on them."""
    text = _bend(kind, key, value)
    with pytest.raises(TraceParseError):
        parse_trace(text)
    assert _check_exit(tmp_path, text) == 4
    assert "error:" in capsys.readouterr().err


def test_check_rejects_a_spliced_trace(tmp_path, capsys):
    """The header and step records of ``FIG1_SCHEDULE`` with the methods
    and footer of another complete fig1 run: each half is a real run, so
    the file parses and both oracles pass, and only the replay tells."""
    ours = run_schedule(client_fig1(), FIG1_SCHEDULE)
    other = next(ex for ex in explore(client_fig1()).executions if ex.methods != ours.methods)
    records = render_trace(ours).splitlines()[: 1 + len(ours.steps)]
    records += render_trace(other).splitlines()[1:]  # explore's records have no steps
    text = "\n".join(records) + "\n"
    parse_trace(text)
    assert _check_exit(tmp_path, text) == 4
    captured = capsys.readouterr()
    assert "witness: ok" in captured.out and "linearizable: ok" in captured.out
    assert "methods" in captured.err


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("header", "schedule", ["q"] * len(FIG1_SCHEDULE)),  # q is no thread
        ("method", "tid", "q"),
        ("step", "tid", "q"),
        ("header", "schedule", ["c"]),  # one scheduled step, 28 step records
        ("step", "i", 99),  # the first step record is step 0
        ("step", "tid", "l"),  # the schedule's first step is c's
        ("step", "label", "scan:done"),
        ("step", "phys", "0" * 16),
        ("footer", "aux", "0" * 16),
        ("method", "wx", 1),
    ],
)
def test_check_rejects_what_the_replay_contradicts(tmp_path, capsys, kind, key, value):
    """Records that parse but are not what the header's program and
    schedule produce: a schedule the program cannot follow, a thread the
    header does not declare, step records that disagree with the schedule
    in number, position or thread, and a label, digest or witness the
    replay does not reach.  ``snapcheck check`` exits 4 on them, naming
    what differs."""
    text = _bend(kind, key, value)
    parse_trace(text)
    assert _check_exit(tmp_path, text) == 4
    err = capsys.readouterr().err
    assert "error:" in err and "replay" in err


def test_check_judges_the_header_as_the_program_it_parses_to(tmp_path, capsys):
    """The record's program is the header's calls parsed, so a call spelled
    with extra spaces is the same call, and the replay agrees with it."""
    threads = [["l", ["write  x 2", "write y 1"]], *FIG1_THREADS[1:]]
    text = _bend("header", "threads", threads)
    assert parse_trace(text).program == client_fig1()
    assert _check_exit(tmp_path, text) == 0
    assert "error:" not in capsys.readouterr().err
