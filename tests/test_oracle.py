"""Brute-force linearizability checking and witness validation."""

from dataclasses import replace

import pytest

from conftest import repeated_sigma_trace
from snapcheck.errors import OracleSizeError
from snapcheck.harness import FIG1_SCHEDULE, client_fig1, run_schedule
from snapcheck.snapshot import MethodCall
from snapcheck.oracle import (
    MethodRecord,
    init_ops,
    linearizable,
    ops_from_trace,
    replay_sequential,
    validate_witness,
    witness_order,
)


def w(p, v, inv, resp):
    return MethodRecord("", MethodCall.write(p, v), None, inv, resp)


def s(result, inv, resp):
    return MethodRecord("", MethodCall.scan(), result, inv, resp)


EQ1 = list(init_ops(5, 0)) + [
    w("x", 2, 0, 1),
    w("y", 1, 2, 3),
    s((2, 1), 4, 5),
    w("x", 3, 6, 7),
]


def test_replay_eq1_order():
    assert replay_sequential(EQ1)


def test_replay_real_time_order_fails():
    # replaying the physical completion order cannot explain the snapshot
    order = list(init_ops(5, 0)) + [
        w("x", 2, 0, 1),
        w("x", 3, 2, 3),
        w("y", 1, 4, 5),
        s((2, 1), 6, 7),
    ]
    assert not replay_sequential(order)


def test_replay_empty():
    assert replay_sequential([])


def test_linearizable_fig1_trace_matches_eq1():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    witness = linearizable(ops_from_trace(trace))
    assert witness is not None
    core = [(op.call.kind, op.call.p, op.call.v) for op in witness if op.tid != "init"]
    assert core == [
        ("write", "x", 2),
        ("write", "y", 1),
        ("scan", None, None),
        ("write", "x", 3),
    ]


def test_naive_scanner_counterexample_not_linearizable():
    # scan returns (5,1) around two non-overlapping writes: impossible
    ops = list(init_ops(5, 0)) + [
        w("x", 2, 1, 2),
        w("y", 1, 3, 4),
        s((5, 1), 0, 5),
    ]
    assert linearizable(ops) is None


def test_single_write_linearizable():
    ops = list(init_ops(5, 0)) + [w("x", 2, 0, 1)]
    order = linearizable(ops)
    assert order is not None and order[-1].call.v == 2


def test_linearizable_size_limit():
    ops = [w("x", 1, i, i) for i in range(9)]
    with pytest.raises(OracleSizeError):
        linearizable(ops)


def test_validate_witness_fig1():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    assert validate_witness(trace)
    core = [
        (op.call.kind, op.call.p, op.call.v)
        for op in witness_order(trace)
        if op.tid != "init"
    ]
    assert core == [
        ("write", "x", 2),
        ("write", "y", 1),
        ("scan", None, None),
        ("write", "x", 3),
    ]


def test_validate_witness_rejects_swapped_nonoverlapping_writes():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    # l's write of 2 (event 3) finished before r's write of 3 (event 4)
    # began; swapping them in the final order must be rejected
    sigma = list(trace.final_sigma)
    i, j = sigma.index(3), sigma.index(4)
    sigma[i], sigma[j] = sigma[j], sigma[i]
    forged = replace(trace, final_sigma=tuple(sigma))
    assert not validate_witness(forged)


def test_validate_witness_empty_trace():
    from snapcheck.tracefile import parse_trace

    assert validate_witness(parse_trace(""))


def test_validate_witness_rejects_bad_result():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    methods = tuple(
        replace(m, result=(5, 1)) if m.call.kind == "scan" else m
        for m in trace.methods
    )
    forged = replace(trace, methods=methods)
    assert not validate_witness(forged)


def test_validate_witness_places_each_operation_once():
    """A sigma that repeats a write's timestamp places that write once:
    the order then misses the initial write of y, so it does not line up
    with the methods, though it holds as many operations as they."""
    forged = repeated_sigma_trace()
    assert witness_order(forged) is None
    assert not validate_witness(forged)
