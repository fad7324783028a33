import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, is_dataclass

import pytest

from snapcheck.aux_model import AuxState, Color, Ptr, ScannerState, WRITER_OFF, evolve
from snapcheck.harness import (
    FIG1_SCHEDULE,
    client_e,
    client_e_prime,
    client_fig1,
    explore,
    generated_programs,
    initial_state,
    parse_program,
    step_state,
)

# Timestamps of the scanner-miss scenario, by the value each event writes:
# 1 -> x=5 (init), 2 -> y=0 (init), 3 -> x=2, 4 -> x=3 (the missed write),
# 5 -> y=1.
TS_X5, TS_Y0, TS_X2, TS_X3, TS_Y1 = 1, 2, 3, 4, 5

# Every violation name the package emits, mapped to the acceptance criterion
# that counts it: 3 state and transition invariants with the read and chain
# lemmas, 4 method postconditions, 5 the oracle (emitted by the harness),
# 6 relink's guarantee, 7 order sanity.  An ``ast`` walk of the package keeps
# it complete (test_invariants.py).
CHECKS: dict[str, int] = {
    name: criterion
    for criterion, names in (
        (
            3,
            "wellformed overlap colors last-write joint-history terminated-events"
            " forwarded-values red-zone first-forwarding read-value chain"
            " hist-mono omega-mono scanned-mono scanned-ideal scanned-eval",
        ),
        (4, "write-post scan-post"),
        (5, "oracle-witness oracle-linearizable"),
        (6, "relink-post"),
        (7, "omega-reflexive omega-antisymmetric omega-transitive scanned-linear scanned-downward"),
    )
    for name in names.split()
}


def frame_of(state, tid):
    """The frame of thread ``tid`` in ``state``, None once its calls are
    done."""
    return state.threads[state.index(tid)][1]


def run_prefix(prog, schedule):
    """The state that a schedule prefix reaches, stepped with no checks."""
    state = initial_state(prog)
    for tid in schedule:
        state = step_state(prog, state, tid)[0]
    return state


@pytest.fixture(scope="session")
def fig2a_state():
    """The state right before the scan's relink in the bundled interleaving:
    logical order still matches real time (values 5,0,2,3,1), the missed
    write of 3 is yellow, everything else green."""
    return run_prefix(client_fig1(), FIG1_SCHEDULE[:26])


@pytest.fixture(scope="session")
def fig2a(fig2a_state):
    return fig2a_state.aux


def hand_built_fig2a() -> AuxState:
    """The same pre-relink state, constructed literally."""
    g, y = Color.GREEN, Color.YELLOW
    return AuxState(
        # events TS_X5, TS_Y0, TS_X2, TS_X3, TS_Y1 in timestamp order
        ptr=(Ptr.X, Ptr.Y, Ptr.X, Ptr.X, Ptr.Y),
        val=(5, 0, 2, 3, 1),
        kappa=(g, g, g, y, g),
        tau=(2, 2, 3, 5, 5),
        init_mask=(1 << TS_X5) | (1 << TS_Y0),
        joint_mask=0,
        self_masks=(("l", (1 << TS_X2) | (1 << TS_Y1)), ("r", 1 << TS_X3)),
        sigma=(TS_X5, TS_Y0, TS_X2, TS_X3, TS_Y1),
        wx=WRITER_OFF,
        wy=WRITER_OFF,
        scanner=ScannerState(on=False, t_off=5, sx=True, sy=True),
    )


def primitive(x):
    """Whether x is an int, str, bool or None, or a tuple of such values."""
    if type(x) is tuple:
        return all(primitive(e) for e in x)
    return x is None or type(x) in (int, str, bool)


def one_field_changed(obj):
    """obj with one field (of obj or of a record it holds) replaced by a
    value equal to nothing, for every field."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            for g in fields(value):
                yield evolve(obj, **{f.name: evolve(value, **{g.name: object()})})
        else:
            yield evolve(obj, **{f.name: object()})


def two_scan_programs():
    """The clients whose scanning thread scans twice: the first programs in
    which a thread starts a new frame after its scan's frame was cleared,
    and which reach a red event deferred to a future scan."""
    return [
        parse_program("a: write x 2\nd: write y 1\ns: scan; scan\n", name="two-scan"),
        parse_program(
            "l: write x 2; write y 1\nc: scan; scan\nr: write x 3\n", name="fig1-two-scan"
        ),
    ]


def _explore_one(prog):
    t0 = time.perf_counter()
    report = explore(prog)
    return prog.name, report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep_reports():
    """Exhaustive exploration of the bundled clients, every generated
    program and the two-scan clients; shared across the whole run
    (acceptance reuses it).  Client fig1 is client e under another name, so
    it is explored once, as e.  Programs run in a small process pool,
    biggest first (gen-x2-y2 ahead of fig1-two-scan, which ties it on
    calls), so the wall time is bounded by the largest state graph.  The
    workers are spawned, not forked: a worker forked from the pytest
    process took about 10 million page faults and 79 s of system time on
    gen-x2-y2, against 77 thousand and 0.3 s in a spawned one."""
    programs = [client_e(), client_e_prime()] + generated_programs() + two_scan_programs()
    programs.sort(key=lambda p: -sum(len(calls) for _, calls in p.threads))
    t0 = time.perf_counter()
    out = {}
    workers = min(2, os.cpu_count() or 1)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        for name, report, dt in pool.map(_explore_one, programs):
            out[name] = (report, dt)
    wall = time.perf_counter() - t0
    return out, wall
