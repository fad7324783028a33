import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from snapcheck.aux_model import (
    AuxState,
    Color,
    HistEntry,
    OWNER_INIT,
    Ptr,
    ScannerState,
    WRITER_OFF,
    WriteRecord,
    owner_thread,
)
from snapcheck.harness import (
    FIG1_SCHEDULE,
    client_e,
    client_e_prime,
    client_fig1,
    explore,
    generated_programs,
    run_prefix,
)

# Timestamps of the scanner-miss scenario, by the value each event writes:
# 1 -> x=5 (init), 2 -> y=0 (init), 3 -> x=2, 4 -> x=3 (the missed write),
# 5 -> y=1.
TS_X5, TS_Y0, TS_X2, TS_X3, TS_Y1 = 1, 2, 3, 4, 5


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
    return AuxState(
        hist={
            TS_X5: HistEntry(WriteRecord(Ptr.X, 5), OWNER_INIT),
            TS_Y0: HistEntry(WriteRecord(Ptr.Y, 0), OWNER_INIT),
            TS_X2: HistEntry(WriteRecord(Ptr.X, 2), owner_thread("l")),
            TS_X3: HistEntry(WriteRecord(Ptr.X, 3), owner_thread("r")),
            TS_Y1: HistEntry(WriteRecord(Ptr.Y, 1), owner_thread("l")),
        },
        sigma=(TS_X5, TS_Y0, TS_X2, TS_X3, TS_Y1),
        kappa={
            TS_X5: Color.GREEN,
            TS_Y0: Color.GREEN,
            TS_X2: Color.GREEN,
            TS_X3: Color.YELLOW,
            TS_Y1: Color.GREEN,
        },
        tau={TS_X5: 2, TS_Y0: 2, TS_X2: 3, TS_X3: 5, TS_Y1: 5},
        wx=WRITER_OFF,
        wy=WRITER_OFF,
        scanner=ScannerState(on=False, t_off=5, sx=True, sy=True),
    )


def _explore_one(prog):
    t0 = time.perf_counter()
    report = explore(prog, max_states=4_000_000)
    return prog.name, report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep_reports():
    """Exhaustive exploration of the bundled clients and every generated
    program; shared across the whole run (acceptance reuses it).  Client
    fig1 is client e under another name, so it is explored once, as e.
    Programs run in a small process pool, biggest first, so the wall time
    is bounded by the largest state graph."""
    programs = [client_e(), client_e_prime()] + generated_programs()
    programs.sort(key=lambda p: -sum(len(calls) for _, calls in p.threads))
    t0 = time.perf_counter()
    out = {}
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        for name, report, dt in pool.map(_explore_one, programs):
            out[name] = (report, dt)
    wall = time.perf_counter() - t0
    return out, wall
