"""Trace file format: JSON Lines, one kind-tagged record per line.

Header (program, init values, schedule), one record per step, one per
completed method, and a footer with the final logical order, colors, state
digests, and violation list.  ``parse_trace(render_trace(t)) == t``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import TraceParseError, ValueDomainError
from .harness import Program, StepRecord, Trace
from .oracle import MethodRecord
from .snapshot import MethodCall


# The encoder of the header and the footer: ``json.dumps`` with an argument
# builds a fresh encoder on each call.
_ENCODER = json.JSONEncoder(sort_keys=True)

# One record's decoder: the C scanner's entry, with none of ``json.loads``'
# wrapper frames and whitespace matches around it (a parsed line is stripped).
_decode = json.JSONDecoder().raw_decode


def _step_line(s: StepRecord) -> str:
    """A step record, written from its key-sorted layout as the encoder
    writes it: strings by ``encode_basestring_ascii`` and ints by
    ``int.__repr__``, which is what the encoder calls on them."""
    return (
        f'{{"aux": {_quote(s.aux_digest)}, "i": {s.index!r}, "kind": "step",'
        f' "label": {_quote(s.label)}, "phys": {_quote(s.phys_digest)},'
        f' "tid": {_quote(s.tid)}}}'
    )


def _stamp(t: int | None) -> str:
    return "null" if t is None else repr(t)


def _method_line(m: MethodRecord) -> str:
    """A method record, written as :func:`_step_line` writes a step."""
    pair = "null" if m.result is None else f"[{m.result[0]!r}, {m.result[1]!r}]"
    return (
        f'{{"inv": {m.invocation!r}, "kind": "method", "op": {_quote(m.call.render())},'
        f' "resp": {m.response!r}, "result": {pair}, "t": {_stamp(m.t)},'
        f' "tid": {_quote(m.tid)}, "witness": {_stamp(m.witness)},'
        f' "wx": {_stamp(m.witness_x)}, "wy": {_stamp(m.witness_y)}}}'
    )


def render_trace(trace: Trace) -> str:
    """The trace file of ``trace``: every record byte for byte as
    ``json.dumps(record, sort_keys=True)`` writes it, one a line.  Step
    and method records are written from their fixed layouts; the header
    and the footer go through ``_ENCODER``."""
    prog = trace.program
    header = {
        "kind": "header",
        "program": prog.name,
        "threads": [[tid, [c.render() for c in calls]] for tid, calls in prog.threads],
        "init": [prog.init_x, prog.init_y],
        "schedule": list(trace.schedule),
    }
    footer = {
        "kind": "footer",
        "sigma": list(trace.final_sigma),
        "sigma_values": list(trace.final_sigma_values),
        "kappa": [[t, c] for t, c in trace.final_kappa],
        "phys": trace.phys_digest,
        "aux": trace.aux_digest,
        "violations": list(trace.violations),
    }
    return "\n".join(
        [
            _ENCODER.encode(header),
            *map(_step_line, trace.steps),
            *map(_method_line, trace.methods),
            _ENCODER.encode(footer),
            "",
        ]
    )


def _int(value, what: str) -> int:
    if type(value) is not int:  # JSON true/false would pass isinstance(int)
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, not {value!r}")
    return tuple(_int(v, what) for v in value)


def _str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, not {value!r}")
    return value


def _strs(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list):  # a string would split into characters
        raise ValueError(f"{what} must be a list of strings, not {value!r}")
    return tuple(_str(v, what) for v in value)


def _timestamp(value, n: int, what: str) -> None:
    """Optional timestamps must name one of the footer's ``n`` events."""
    if value is not None and not (type(value) is int and 1 <= value <= n):
        raise ValueError(f"{what} {value!r} is not in 1..{n}")


def _method(rec: dict) -> MethodRecord:
    call = MethodCall.parse(_str(rec["op"], "op"))
    result = rec["result"]
    if call.kind == "scan":
        result = _ints(result, "scan result")
        if len(result) != 2:
            raise ValueError(f"scan result must be a pair, not {list(result)}")
    elif result is not None:
        raise ValueError(f"{call.kind} result must be null, not {result!r}")
    return MethodRecord(
        tid=_str(rec["tid"], "tid"),
        call=call,
        result=result,
        invocation=_int(rec["inv"], "inv"),
        response=_int(rec["resp"], "resp"),
        t=rec["t"],
        witness=rec["witness"],
        witness_x=rec["wx"],
        witness_y=rec["wy"],
    )


def parse_trace(text: str) -> Trace:
    """The run record a trace file holds, one record per line, where only
    a line feed ends a line (a carriage return before it is blank space
    around the record).  A file with no record at all is the empty record;
    any other file starts with its header, whose name, threads and initial
    values make the record's :class:`Program`, and ends with its footer.
    Values, indices and timestamps must be integers, a scan's result a
    pair of them, a write's result null and every timestamp one of the
    footer's events, each of which sigma names once; names, labels and
    digests must be strings, a schedule and a violation list lists of
    them, and every call a method call.  What makes a program or a call
    valid, :class:`Program` and :class:`MethodCall` check as they are
    made.  ``snapcheck check`` replays the header's program to judge the
    other records."""
    program = Program("", ())
    schedule: tuple = ()
    steps: list[StepRecord] = []
    methods: list[MethodRecord] = []
    final_sigma: tuple = ()
    final_sigma_values: tuple = ()
    final_kappa: tuple = ()
    phys_digest = aux_digest = ""
    violations: tuple = ()
    header = footer = False
    # not splitlines: JSON allows U+0085, U+2028 and U+2029 raw in a string
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if footer:
            raise TraceParseError(f"line {lineno}: record after the footer")
        try:
            rec, end = _decode(line)
            if end < len(line):
                raise TraceParseError(f"line {lineno}: data after the record at column {end + 1}")
            kind = rec["kind"]
            if (kind == "header") == header:
                raise TraceParseError(f"line {lineno}: {'a second' if header else 'no'} header")
            if kind == "header":
                header = True
                declared = ((_str(t, "tid"), _strs(c, "calls")) for t, c in rec["threads"])
                threads = tuple((t, tuple(map(MethodCall.parse, c))) for t, c in declared)
                init_x, init_y = _ints(rec["init"], "init")
                program = Program(_str(rec["program"], "program"), threads, init_x, init_y)
                schedule = _strs(rec["schedule"], "schedule")
            elif kind == "step":
                steps.append(
                    StepRecord(
                        _int(rec["i"], "i"),
                        _str(rec["tid"], "tid"),
                        _str(rec["label"], "label"),
                        _str(rec["phys"], "phys"),
                        _str(rec["aux"], "aux"),
                    )
                )
            elif kind == "method":
                methods.append(_method(rec))
            elif kind == "footer":
                final_sigma = _ints(rec["sigma"], "sigma")
                final_sigma_values = _ints(rec["sigma_values"], "sigma_values")
                final_kappa = tuple((t, _str(c, "color")) for t, c in rec["kappa"])
                n = len(final_sigma)
                for t in final_sigma:
                    _timestamp(t, n, "sigma entry")
                if len(set(final_sigma)) < n:
                    repeated = next(t for t in final_sigma if final_sigma.count(t) > 1)
                    raise ValueError(f"sigma repeats timestamp {repeated}")
                for t, _ in final_kappa:
                    _timestamp(_int(t, "kappa timestamp"), n, "kappa timestamp")
                for m in methods:  # the footer is the last record
                    for t in (m.t, m.witness, m.witness_x, m.witness_y):
                        _timestamp(t, n, "a method's timestamp")
                phys_digest, aux_digest = (_str(rec[k], k) for k in ("phys", "aux"))
                violations = _strs(rec["violations"], "violations")
                footer = True
            else:
                raise TraceParseError(f"line {lineno}: unknown record kind {kind!r}")
        except TraceParseError:
            raise
        except KeyError as exc:
            raise TraceParseError(f"line {lineno}: missing field {exc}") from exc
        except (ValueError, TypeError, RecursionError, ValueDomainError) as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
    if header and not footer:
        raise TraceParseError("no footer record")
    return Trace(
        program=program,
        schedule=schedule,
        steps=tuple(steps),
        methods=tuple(methods),
        final_sigma=final_sigma,
        final_sigma_values=final_sigma_values,
        final_kappa=final_kappa,
        phys_digest=phys_digest,
        aux_digest=aux_digest,
        violations=violations,
    )
