"""Command-line entry point.

Exit codes are a stable contract: 0 ok, 1 violation found, 2 state or
oracle budget exceeded, 3 invalid schedule, 4 parse error, 5 bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import oracle, tracefile
from .errors import (
    BudgetExceededError,
    OracleSizeError,
    ScheduleError,
    SnapshotModelError,
    TraceParseError,
)
from .harness import (
    DEFAULT_MAX_STATES,
    FIG1_SCHEDULE,
    Program,
    client_e,
    client_e_prime,
    client_fig1,
    explore,
    parse_program,
    run_schedule,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_SCHEDULE = 3
EXIT_PARSE = 4
EXIT_USAGE = 5

CLIENTS = {"e": client_e, "e-prime": client_e_prime, "fig1": client_fig1}


def _program_from_args(args) -> Program:
    if args.client is not None:
        return CLIENTS[args.client]()
    text = Path(args.program).read_text()
    return parse_program(text, name=Path(args.program).stem)


def parse_schedule(text: str) -> tuple[str, ...]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        out.extend(tok for tok in line.replace(",", " ").split() if tok)
    return tuple(out)


def _cmd_explore(args) -> int:
    prog = _program_from_args(args)
    report = explore(prog, max_states=args.max_states)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_replay(args) -> int:
    prog = _program_from_args(args)
    schedule = parse_schedule(Path(args.schedule).read_text())
    trace = run_schedule(prog, schedule)
    rendered = tracefile.render_trace(trace)
    summary = sys.stdout
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        # the trace owns stdout, so that it can be piped into `check`
        sys.stdout.write(rendered)
        summary = sys.stderr
    for m in trace.methods:
        if m.call.kind == "scan":
            print(f"scan -> ({m.result[0]},{m.result[1]})", file=summary)
    print("sigma: " + " ".join(str(v) for v in trace.final_sigma_values), file=summary)
    print(f"violations: {len(trace.violations) if trace.violations else 'none'}", file=summary)
    return EXIT_OK if not trace.violations else EXIT_VIOLATION


def _cmd_demo_fig1(args) -> int:
    prog = client_fig1()
    trace = run_schedule(prog, FIG1_SCHEDULE)
    scan = next(m for m in trace.methods if m.call.kind == "scan")
    print(f"({scan.result[0]},{scan.result[1]})")
    print("sigma: " + " ".join(str(v) for v in trace.final_sigma_values))
    if args.out:
        Path(args.out).write_text(tracefile.render_trace(trace))
    problems = list(trace.violations)
    if scan.result != (2, 1):
        problems.append(f"scan returned {scan.result}, expected (2, 1)")
    if trace.final_sigma_values != (5, 0, 2, 1, 3):
        problems.append(f"final sigma values {trace.final_sigma_values}, expected (5, 0, 2, 1, 3)")
    witness = oracle.linearizable(oracle.ops_from_trace(trace))
    core = [op.call.render() for op in (witness or ()) if op.tid != "init"]
    expected = ["write x 2", "write y 1", "scan", "write x 3"]
    if core != expected:
        problems.append(f"oracle witness {core} does not match the expected sequentialization")
    else:
        print("oracle: write(x,2); write(y,1); scan(); write(x,3) confirmed")
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_check(args) -> int:
    # a non-empty file that is not its replay is malformed (exit 4), whatever
    # the oracles would say: only a run that the program makes reaches them
    with open(args.trace, encoding="utf-8", newline="") as file:  # the lines as written
        text = file.read()
    trace = tracefile.parse_trace(text)
    if text.strip():  # the empty file has nothing to replay
        try:
            want = run_schedule(trace.program, trace.schedule)
        except ScheduleError as exc:
            raise TraceParseError(f"the header's schedule does not replay: {exc}") from exc
        want = replace(want, steps=want.steps if trace.steps else ())  # explore's have none
        differ = [f.name for f in fields(trace) if getattr(trace, f.name) != getattr(want, f.name)]
        if differ:
            raise TraceParseError(f"the file's {', '.join(differ)} differ from its replay")
    witness_ok = oracle.validate_witness(trace)
    lin = oracle.linearizable(oracle.ops_from_trace(trace))
    print(f"witness: {'ok' if witness_ok else 'FAIL'}")
    print(f"linearizable: {'ok' if lin is not None else 'FAIL'}")
    return EXIT_OK if witness_ok and lin is not None else EXIT_VIOLATION


def positive_int(text: str) -> int:
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapcheck",
        description="Explore, replay, and check the instrumented snapshot object.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="exhaustively explore a client program")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--client", choices=sorted(CLIENTS))
    src.add_argument("--program", help="program file (tid: write x 2; scan)")
    p.add_argument("--max-states", type=positive_int, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("replay", help="replay an explicit schedule")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--client", choices=sorted(CLIENTS))
    src.add_argument("--program")
    p.add_argument("--schedule", required=True, help="schedule file, one thread id per step")
    p.add_argument("--out", help="write the trace file here instead of stdout")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("demo-fig1", help="replay the bundled scanner-miss interleaving")
    p.add_argument("--out", help="write the trace file here")
    p.set_defaults(func=_cmd_demo_fig1)

    p = sub.add_parser("check", help="replay a trace file, then both oracle routes on it")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code and EXIT_USAGE
    try:
        return args.func(args)
    except (BudgetExceededError, OracleSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEDULE
    except (TraceParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SnapshotModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
