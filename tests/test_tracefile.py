"""Trace file round-tripping."""

import json
import random
from itertools import combinations, product

import pytest

from conftest import repeated_sigma_trace, two_scan_programs
from reference import random_schedule
from snapcheck import tracefile
from snapcheck.aux_model import evolve
from snapcheck.cli import main
from snapcheck.errors import TraceParseError
from snapcheck.harness import (
    FIG1_SCHEDULE,
    client_e,
    client_fig1,
    explore,
    generated_programs,
    parse_program,
    run_schedule,
)
from snapcheck.oracle import linearizable, ops_from_trace, validate_witness
from snapcheck.tracefile import parse_trace, render_trace
from test_harness import REPLAY_RECORDS


def _check_exit(tmp_path, text):
    bent = tmp_path / "bent.trace"
    bent.write_text(text, encoding="utf-8", newline="")
    return main(["check", "--trace", str(bent)])


def test_roundtrip_fig1():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    assert parse_trace(render_trace(trace)) == trace


@pytest.fixture(scope="module")
def e_records():
    """The 120 records that ``explore`` keeps of e."""
    kept = explore(client_e()).executions
    assert len(kept) == 120
    return kept


def test_roundtrip_explore_records(tmp_path, capsys, e_records):
    prog = next(p for p in generated_programs() if p.name == "gen-x1-y0")
    report = explore(prog)
    assert report.executions
    for ex in report.executions:
        assert ex.steps == () and ex.violations == ()
        assert parse_trace(render_trace(ex)) == ex
    # check replays each kept record of e, which has no step records
    for ex in e_records:
        assert _check_exit(tmp_path, render_trace(ex)) == 0, ex.schedule


def test_roundtrip_is_stable_text():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    text = render_trace(trace)
    assert render_trace(parse_trace(text)) == text


def _escaped_run():
    """A run of a program whose name and thread id need JSON escaping: a
    thread id may hold quotes, backslashes and non-ASCII characters."""
    prog = parse_program('é"\\: write x 2\ns: scan\n', name='naïve "p"')
    assert [tid for tid, _ in prog.threads] == ['é"\\', "s"]
    return run_schedule(prog, random_schedule(prog, random.Random(1)))


def test_records_encode_as_json_dumps_does(e_records):
    """render_trace writes every record of a corpus byte for byte as
    ``json.dumps(record, sort_keys=True)`` writes it, and parses each
    file back to its run: the seeded replays of ``REPLAY_RECORDS``, the
    records ``explore`` keeps of e and a run whose thread id needs JSON
    escaping."""
    progs = {p.name: p for p in [*two_scan_programs(), *generated_programs()]}
    corpus = [
        run_schedule(prog, random_schedule(prog, random.Random(seed)))
        for name, seed in REPLAY_RECORDS
        for prog in [progs[name]]
    ]
    corpus += [*e_records, _escaped_run()]
    assert sum(len(t.steps) for t in corpus) > 100 and sum(len(t.methods) for t in corpus) > 500
    for trace in corpus:
        text = render_trace(trace)
        for line in text.splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)
        assert parse_trace(text) == trace


def test_escaped_ids_replay(tmp_path, capsys):
    """check replays the run whose thread id needs JSON escaping."""
    text = render_trace(_escaped_run())
    assert '"tid": "\\u00e9\\"\\\\"' in text
    assert _check_exit(tmp_path, text) == 0


def test_step_and_method_records_bypass_the_encoder(monkeypatch):
    """Step and method records are written from their fixed layouts: of
    the demo trace, only the header and the footer reach ``_ENCODER``."""
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    text = render_trace(trace)
    encoder, encoded = tracefile._ENCODER, []

    class Counting:
        def encode(self, record):
            encoded.append(record["kind"])
            return encoder.encode(record)

    monkeypatch.setattr(tracefile, "_ENCODER", Counting())
    assert render_trace(trace) == text
    assert encoded == ["header", "footer"]


_STEP_ORDER = ("i", "tid", "label", "phys", "aux")
_MISSING = object()
_WRONG = {
    "i": [True, None, "0"],
    "tid": [7, None],
    "label": [7, None],
    "phys": [7, None],
    "aux": [7, ["a"]],
}


def _step_corruptions():
    """Every single-field and two-field corruption of a step record, as a
    dict from field to value: each field missing or of a wrong type."""
    options = {k: [_MISSING, *_WRONG[k]] for k in _STEP_ORDER}
    for n in (1, 2):
        for keys in combinations(_STEP_ORDER, n):
            for values in product(*(options[k] for k in keys)):
                yield dict(zip(keys, values))


def test_step_record_messages():
    """A corrupted step record is refused with the message of its first
    corrupted field in the order i, tid, label, phys, aux, presence
    checked before type: ``"i": true`` with ``tid`` missing names i."""
    header, step = render_trace(run_schedule(client_fig1(), FIG1_SCHEDULE)).splitlines()[:2]
    cases = 0
    for corruption in _step_corruptions():
        rec = json.loads(step)
        for key, value in corruption.items():
            if value is _MISSING:
                del rec[key]
            else:
                rec[key] = value
        first = next(k for k in _STEP_ORDER if k in corruption)
        value = corruption[first]
        kind = "an integer" if first == "i" else "a string"
        want = f"{first} must be {kind}, not {value!r}"
        if value is _MISSING:
            want = f"missing field '{first}'"
        with pytest.raises(TraceParseError) as exc:
            parse_trace(f"{header}\n{json.dumps(rec)}\n")
        assert str(exc.value) == f"line 2: {want}", corruption
        cases += 1
    assert cases == 16 + 102  # single-field and two-field corruptions


def test_parse_rejects_a_repeated_sigma_timestamp():
    """A footer sigma that names an event twice is no logical order: the
    parse names the repeated timestamp."""
    text = render_trace(repeated_sigma_trace())
    footer = len(text.splitlines())
    with pytest.raises(TraceParseError, match=f"^line {footer}: sigma repeats timestamp 3$"):
        parse_trace(text)


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


@pytest.mark.parametrize("tail", [" x", "{}", " 1", "]", ' "kind"', "/"])
def test_parse_refuses_data_after_a_record(tail):
    """Each line holds one record and nothing else, as ``json.loads``
    requires of a document: data after any record of the file is refused,
    while blank space around it is not."""
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    lines = render_trace(trace).splitlines()
    padded = "\n".join(f" \t{line} \r" for line in lines)
    assert parse_trace(padded) == trace
    for i, line in enumerate(lines):
        bent = [*lines[:i], line + tail, *lines[i + 1 :]]
        with pytest.raises(TraceParseError, match=f"line {i + 1}: data after the record"):
            parse_trace("\n".join(bent))


def test_only_a_newline_ends_a_line(tmp_path, capsys):
    """A record's line ends at ``"\n"`` alone: a header written with
    ``ensure_ascii=False`` whose program name holds a raw U+2028, which
    JSON allows inside a string, parses and ``check`` accepts it.  CRLF
    line ends still parse; bare ``"\r"`` ones leave one line of several
    records, which is refused (exit 4)."""
    trace = run_schedule(evolve(client_fig1(), name="a\u2028b"), FIG1_SCHEDULE)
    header, *lines = render_trace(trace).splitlines(keepends=True)
    assert "\u2028" not in header  # the renderer escapes it
    raw = json.dumps(json.loads(header), ensure_ascii=False) + "\n"
    assert "\u2028" in raw
    text = raw + "".join(lines)
    assert parse_trace(text) == trace
    assert _check_exit(tmp_path, text) == 0
    assert parse_trace(text.replace("\n", "\r\n")) == trace
    assert _check_exit(tmp_path, text.replace("\n", "\r\n")) == 0
    with pytest.raises(TraceParseError, match="line 1: data after the record"):
        parse_trace(text.replace("\n", "\r"))
    assert _check_exit(tmp_path, text.replace("\n", "\r")) == 4
    assert "error: line 1: data after the record" in capsys.readouterr().err


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
        ("method", "result", "ab"),  # a write returns nothing
        ("method", "result", [2, 1]),
    ],
)
def test_parse_rejects_wrongly_typed_fields(tmp_path, capsys, kind, key, value):
    """A string where a list of strings belongs, a non-string name, label
    or digest, an initial or written value outside the value range, a
    write's result that is not null, a header call that is no method call
    and a thread declared twice are parse errors, and ``snapcheck check``
    exits 4 on them."""
    text = _bend(kind, key, value)
    with pytest.raises(TraceParseError):
        parse_trace(text)
    assert _check_exit(tmp_path, text) == 4
    assert "error:" in capsys.readouterr().err


def test_check_rejects_a_spliced_trace(tmp_path, capsys):
    """The header and step records of ``FIG1_SCHEDULE`` with the methods
    and footer of another complete fig1 run: each half is a real run, so
    the file parses and both oracles pass on it, and only the replay
    tells, which check runs first."""
    ours = run_schedule(client_fig1(), FIG1_SCHEDULE)
    other = next(ex for ex in explore(client_fig1()).executions if ex.methods != ours.methods)
    records = render_trace(ours).splitlines()[: 1 + len(ours.steps)]
    records += render_trace(other).splitlines()[1:]  # explore's records have no steps
    text = "\n".join(records) + "\n"
    spliced = parse_trace(text)
    assert validate_witness(spliced)
    assert linearizable(ops_from_trace(spliced))
    assert _check_exit(tmp_path, text) == 4
    captured = capsys.readouterr()
    assert "witness:" not in captured.out
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
