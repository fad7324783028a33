"""The instrumented algorithm: step lists, atomic step application, locks."""

import pytest

from conftest import frame_of
from snapcheck.aux_model import Color, Ptr
from snapcheck.errors import DisabledStepError, ValueDomainError
from snapcheck.harness import (
    FIG1_SCHEDULE,
    Program,
    client_fig1,
    enabled_tids,
    initial_state,
    run_schedule,
    step_state,
)
from snapcheck.invariants import check_all
from snapcheck.snapshot import (
    MethodCall,
    apply_step,
    aux_digest,
    init,
    make_frame,
)


def test_init_state():
    phys, aux = init(5, 0)
    assert (phys.x, phys.y, phys.fx, phys.fy, phys.s_bit) == (5, 0, None, None, False)
    assert aux.sigma == (1, 2)
    assert aux.kappa == (Color.GREEN, Color.GREEN)
    assert aux.tau == (2, 2)


def test_init_passes_invariant_suite():
    phys, aux = init(5, 0)
    assert not check_all(phys, aux)


def test_init_equal_values_allowed():
    phys, aux = init(3, 3)
    assert not check_all(phys, aux)


def test_init_value_domain():
    with pytest.raises(ValueDomainError):
        init(9, 0)


def test_step_lists():
    labels = [s.label for s in make_frame("a", 0, MethodCall.write(Ptr.X, 2)).steps]
    assert labels == [
        "acquire:wx",
        "register:x",
        "check:x",
        "forward:x",
        "finalize:x",
        "release:wx",
    ]
    assert len(make_frame("c", 0, MethodCall.scan()).steps) == 11


def test_uncontended_write_takes_five_steps():
    prog = Program("w", (("a", (MethodCall.write(Ptr.X, 2),)),))
    state = initial_state(prog)
    labels = []
    while enabled_tids(prog, state):
        state, before = step_state(prog, state, "a")
        labels.append(before.current_step().label)
    # scanner off throughout: the forward step is skipped
    assert labels == ["acquire:wx", "register:x", "check:x", "finalize:x", "release:wx"]


def test_write_under_scan_takes_six_steps():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    l_labels = [s.label for s in trace.steps if s.tid == "l"]
    assert l_labels[:6] == [
        "acquire:wx",
        "register:x",
        "check:x",
        "forward:x",
        "finalize:x",
        "release:wx",
    ]


def test_fig1_interleaving_layout():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    tids = [s.tid for s in trace.steps]
    # the scan brackets everything; l's first write completes before r
    # registers; r's write concludes only after the scanner bit is unset
    assert tids[:6] == ["c"] * 6
    assert tids[6:12] == ["l"] * 6
    assert trace.steps[13].label == "register:x" and trace.steps[13].tid == "r"
    assert trace.steps[20].label == "set-off"
    assert [s.label for s in trace.steps if s.tid == "r"][2:] == [
        "check:x",
        "finalize:x",
        "release:wx",
    ]


def test_read_steps_leave_aux_unchanged():
    prog = client_fig1()
    state = initial_state(prog)
    for _ in range(4):  # acquire, set-on, clear x, clear y
        state, _ = step_state(prog, state, "c")
    before = aux_digest(state.aux)
    state, frame = step_state(prog, state, "c")
    assert frame.current_step().label == "read:x"
    assert aux_digest(state.aux) == before
    assert frame_of(state, "c").vx == 5


def test_blocked_acquire_is_disabled():
    prog = Program(
        "ww",
        (
            ("a", (MethodCall.write(Ptr.X, 2),)),
            ("b", (MethodCall.write(Ptr.X, 3),)),
        ),
    )
    state = initial_state(prog)
    state, _ = step_state(prog, state, "a")  # a holds wx
    assert enabled_tids(prog, state) == ["a"]
    frame = make_frame("b", 0, MethodCall.write(Ptr.X, 3))
    with pytest.raises(DisabledStepError):
        apply_step(frame.current_step(), state.phys, state.aux, frame)


def test_scan_prefers_forwarded_values():
    trace = run_schedule(client_fig1(), FIG1_SCHEDULE)
    scan = next(m for m in trace.methods if m.call.kind == "scan")
    # forwarded 2 and 1 beat the directly read 5 and 0
    assert scan.result == (2, 1)


def test_uncontended_scan_returns_init():
    prog = Program("s", (("c", (MethodCall.scan(),)),))
    trace = run_schedule(prog, ("c",) * 11)
    scan = trace.methods[0]
    assert scan.result == (5, 0)
    assert scan.witness == 2
