"""Trace file round-tripping."""

import json

import pytest

from snapcheck.cli import main
from snapcheck.errors import TraceParseError
from snapcheck.harness import FIG1_SCHEDULE, client_fig1, explore, generated_programs, run_schedule
from snapcheck.tracefile import parse_trace, render_trace


def test_roundtrip_fig1():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    assert parse_trace(render_trace(trace)) == trace


def test_roundtrip_explore_records():
    prog = next(p for p in generated_programs() if p.name == "gen-x1-y0")
    report = explore(prog)
    assert report.executions
    for ex in report.executions:
        assert ex.steps == () and ex.violations == ()
        assert parse_trace(render_trace(ex)) == ex


def test_roundtrip_is_stable_text():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    text = render_trace(trace)
    assert render_trace(parse_trace(text)) == text


def test_parse_empty():
    trace = parse_trace("")
    assert trace.methods == () and trace.steps == () and trace.final_sigma == ()


def test_parse_rejects_garbage():
    with pytest.raises(TraceParseError):
        parse_trace("not json\n")
    with pytest.raises(TraceParseError):
        parse_trace('{"kind":"mystery"}\n')
    with pytest.raises(TraceParseError):
        parse_trace('{"kind":"step","i":0}\n')  # missing fields
    with pytest.raises(TraceParseError):
        # a footer without the final state digests
        parse_trace('{"kind":"footer","sigma":[],"sigma_values":[],"kappa":[],"violations":[]}\n')
    text = render_trace(run_schedule(client_fig1(), FIG1_SCHEDULE))
    lines = text.splitlines(keepends=True)
    with pytest.raises(TraceParseError, match="no footer"):
        parse_trace("".join(lines[:-1]))  # truncated: the footer is lost
    with pytest.raises(TraceParseError, match="no header"):
        parse_trace("".join(lines[1:]))
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
        ("header", "schedule", ["q"] * len(FIG1_SCHEDULE)),  # q is no thread
        ("method", "tid", "q"),
        ("step", "tid", "q"),
        ("header", "threads", [*FIG1_THREADS, FIG1_THREADS[0]]),  # l declared twice
        ("header", "schedule", ["c"]),  # one scheduled step, 28 step records
        ("step", "i", 99),  # the first step record is step 0
        ("step", "tid", "l"),  # the schedule's first step is c's
    ],
)
def test_parse_rejects_wrongly_typed_fields(tmp_path, capsys, kind, key, value):
    """A string where a list of strings belongs, a non-string name, label
    or digest, an initial or written value outside the value range, a
    header call that is no method call, a schedule, step or method naming
    a thread the header does not declare, a thread declared twice, and
    step records that disagree with the schedule in number, position or
    thread are parse errors, and ``snapcheck check`` exits 4 on them."""
    lines = render_trace(run_schedule(client_fig1(), FIG1_SCHEDULE)).splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    lines[i] = json.dumps(dict(json.loads(lines[i]), **{key: value}))
    text = "\n".join(lines) + "\n"
    with pytest.raises(TraceParseError):
        parse_trace(text)
    bent = tmp_path / "bent.trace"
    bent.write_text(text)
    assert main(["check", "--trace", str(bent)]) == 4
    assert "error:" in capsys.readouterr().err
