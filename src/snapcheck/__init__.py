"""snapcheck: executable model of a single-writer/single-scanner snapshot
object, instrumented with a relinking linearization witness, plus schedulers
that explore interleavings, per-step invariant checkers, and an independent
brute-force linearizability oracle."""

from .aux_model import (
    AuxState,
    Color,
    Ptr,
    ScannerState,
    WriterPhase,
    WriterState,
    eval_at,
    hist_p,
    last_gy,
    omega_down,
    omega_leq,
    scanned,
)
from .errors import (
    BudgetExceededError,
    DisabledStepError,
    GuardViolationError,
    OracleSizeError,
    ScheduleError,
    SnapshotModelError,
    TraceParseError,
    UninitializedPointerError,
    UnknownTimestampError,
    ValueDomainError,
)
from .harness import (
    FIG1_SCHEDULE,
    ExplorationReport,
    Program,
    Trace,
    client_e,
    client_e_prime,
    client_fig1,
    explore,
    generated_programs,
    parse_program,
    run_random,
    run_schedule,
)
from .invariants import Violation
from .oracle import MethodRecord, linearizable, replay_sequential, validate_witness
from .snapshot import MethodCall, PhysState, init

__version__ = "0.1.0"
