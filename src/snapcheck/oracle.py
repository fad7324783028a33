"""Independent brute-force validation of completed executions.

Two routes: ``linearizable`` enumerates every real-time-consistent total
order of the completed operations and replays each against a sequential
pair-register until one matches; ``validate_witness`` instead takes the
harness's constructed logical order, places each scan immediately after its
witness timestamp, and checks that the resulting single order both respects
real-time precedence and replays correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .aux_model import Ptr, Tid, Timestamp, Value
from .errors import OracleSizeError
from .snapshot import MethodCall

LINEARIZE_LIMIT = 8


@dataclass(frozen=True)
class MethodRecord:
    """One completed method: arguments, result, real-time interval, and the
    timestamps tying it to the logical order (the write's event, or the
    scan's witness and chosen per-pointer events)."""

    tid: Tid
    call: MethodCall
    result: tuple[Value, Value] | None
    invocation: int
    response: int
    t: Timestamp | None = None
    witness: Timestamp | None = None
    witness_x: Timestamp | None = None
    witness_y: Timestamp | None = None


@cache
def init_ops(init_x: Value, init_y: Value) -> tuple[MethodRecord, MethodRecord]:
    """The initializing writes, as methods of thread ``init`` with negative
    indices so that they precede everything: two immutable records, made
    once per pair of initial values."""
    return (
        MethodRecord("init", MethodCall.write(Ptr.X, init_x), None, -4, -3, t=1),
        MethodRecord("init", MethodCall.write(Ptr.Y, init_y), None, -2, -1, t=2),
    )


def ops_from_trace(trace) -> tuple[MethodRecord, ...]:
    """The run record's completed methods, after the two initializing
    writes; an empty record has none."""
    if not trace.methods and not trace.final_sigma:
        return ()
    return init_ops(trace.program.init_x, trace.program.init_y) + trace.methods


def replay_sequential(order) -> bool:
    """Replay a total order against a sequential pair-register: writes
    update it, every scan must return exactly the current pair."""
    x = y = None
    for op in order:
        call = op.call
        if call.kind == "write":
            if call.p == Ptr.X:
                x = call.v
            else:
                y = call.v
        elif (x, y) != tuple(op.result):
            return False
    return True


def check_size(n: int) -> None:
    """Raise :class:`OracleSizeError` when ``n`` operations are more than
    :func:`linearizable` enumerates: enumeration is factorial."""
    if n > LINEARIZE_LIMIT:
        raise OracleSizeError(f"{n} operations exceed the enumeration limit {LINEARIZE_LIMIT}")


def linearizable(ops):
    """Search for a total order consistent with real-time precedence that
    replays correctly; returns it, or None.  The operation count is capped
    (see :func:`check_size`)."""
    ops = tuple(ops)
    n = len(ops)
    check_size(n)
    preds = [
        [j for j in range(n) if ops[j].response < ops[i].invocation] for i in range(n)
    ]
    chosen: list[int] = []
    used = [False] * n

    def extend() -> bool:
        if len(chosen) == n:
            return replay_sequential([ops[i] for i in chosen])
        for i in range(n):
            if used[i] or any(not used[j] for j in preds[i]):
                continue
            used[i] = True
            chosen.append(i)
            if extend():
                return True
            chosen.pop()
            used[i] = False
        return False

    if extend():
        return tuple(ops[i] for i in chosen)
    return None


def witness_order(trace):
    """The constructed order: final sigma projected onto the completed
    writes, with every scan inserted right after its witness timestamp.
    Returns None unless it places each operation exactly once: a
    timestamp that sigma repeats places nothing again."""
    ops = ops_from_trace(trace)
    writes = {op.t: op for op in ops if op.call.kind == "write"}
    scans: dict[Timestamp, list[MethodRecord]] = {}
    for op in ops:
        if op.call.kind == "scan":
            scans.setdefault(op.witness, []).append(op)
    seq = []
    for ts in trace.final_sigma:
        w = writes.pop(ts, None)
        if w is not None:
            seq.append(w)
        seq += scans.pop(ts, ())
    if len(seq) != len(ops):
        return None
    return seq


def validate_witness(trace) -> bool:
    """Check the constructed witness order of a completed trace: real-time
    precedence of non-overlapping operations is respected, and the order
    replays correctly."""
    seq = witness_order(trace)
    if seq is None:
        return False
    for i, b in enumerate(seq):
        for a in seq[i + 1 :]:
            if a.response < b.invocation:
                return False
    return replay_sequential(seq)
