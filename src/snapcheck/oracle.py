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

from .errors import OracleSizeError

LINEARIZE_LIMIT = 8


@dataclass(frozen=True)
class OpRecord:
    """One completed operation with its real-time interval.

    ``timestamp`` ties the operation to the logical order: the write's own
    event, or the scan's witness event.  Initializing writes are modelled as
    operations with negative indices so they precede everything.
    """

    kind: str  # "write" | "scan"
    p: str | None
    v: int | None
    result: tuple[int, int] | None
    invocation: int
    response: int
    timestamp: int | None = None
    tid: str = ""


def init_ops(init_x: int, init_y: int) -> tuple[OpRecord, OpRecord]:
    return (
        OpRecord("write", "x", init_x, None, -4, -3, timestamp=1, tid="init"),
        OpRecord("write", "y", init_y, None, -2, -1, timestamp=2, tid="init"),
    )


def ops_from_trace(trace) -> tuple[OpRecord, ...]:
    """The run record's completed methods as operations, after the two
    initializing writes; an empty record has none."""
    if not trace.methods and not trace.final_sigma:
        return ()
    ops = list(init_ops(trace.init_x, trace.init_y))
    for m in trace.methods:
        scan = m.call.kind == "scan"
        ops.append(
            OpRecord(
                m.call.kind,
                None if scan else m.call.p,
                m.call.v,
                tuple(m.result) if scan else None,
                m.invocation,
                m.response,
                timestamp=m.witness if scan else m.t,
                tid=m.tid,
            )
        )
    return tuple(ops)


def replay_sequential(order) -> bool:
    """Replay a total order against a sequential pair-register: writes
    update it, every scan must return exactly the current pair."""
    x = y = None
    for op in order:
        if op.kind == "write":
            if op.p == "x":
                x = op.v
            else:
                y = op.v
        else:
            if (x, y) != tuple(op.result):
                return False
    return True


def linearizable(ops, limit: int = LINEARIZE_LIMIT):
    """Search for a total order consistent with real-time precedence that
    replays correctly; returns it, or None.  Enumeration is factorial, so
    the operation count is capped."""
    ops = tuple(ops)
    n = len(ops)
    if n > limit:
        raise OracleSizeError(f"{n} operations exceed the enumeration limit {limit}")
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
    Returns None when the trace's methods and sigma do not line up."""
    ops = ops_from_trace(trace)
    writes = {op.timestamp: op for op in ops if op.kind == "write"}
    scans = [op for op in ops if op.kind == "scan"]
    seq = []
    for ts in trace.final_sigma:
        w = writes.get(ts)
        if w is not None:
            seq.append(w)
        for s in scans:
            if s.timestamp == ts:
                seq.append(s)
    if len(seq) != len(ops):
        return None
    return seq


def validate_witness(trace) -> bool:
    """Check the constructed witness order of a completed trace: real-time
    precedence of non-overlapping operations is respected, and the order
    replays correctly."""
    if not trace.methods and not trace.final_sigma:
        return True
    seq = witness_order(trace)
    if seq is None:
        return False
    pos = {op: i for i, op in enumerate(seq)}
    for a in seq:
        for b in seq:
            if a.response < b.invocation and pos[a] > pos[b]:
                return False
    return replay_sequential(seq)
