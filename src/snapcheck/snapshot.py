"""The instrumented snapshot algorithm: physical memory plus lock discipline.

A write stores into its pointer and, if it saw the scanner bit set, also into
the pointer's forwarding cell; a scan sets the bit, clears both forwarding
cells, reads both pointers, unsets the bit, then reads the forwarding cells
and prefers forwarded values.  Each angle-bracket command of the algorithm is
one :class:`Step` that performs its physical action and its auxiliary
transition as a single indivisible state change; lock acquire/release are
explicit schedulable steps of their own.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass

from . import aux_ops, invariants
from .aux_model import (
    AuxState,
    Color,
    Ptr,
    ScannerState,
    Tid,
    Timestamp,
    Value,
    WRITER_OFF,
    aux_key,
    evolve,
    validate_value,
)
from .errors import DisabledStepError, GuardViolationError

LOCK_WX = "wx"
LOCK_WY = "wy"
LOCK_SCAN = "scan"


def lock_for(p: str) -> str:
    return LOCK_WX if p == Ptr.X else LOCK_WY


@dataclass(frozen=True)
class PhysState:
    x: Value
    y: Value
    fx: Value | None
    fy: Value | None
    s_bit: bool
    lock_wx: Tid | None = None
    lock_wy: Tid | None = None
    lock_scan: Tid | None = None

    def holder(self, lock: str) -> Tid | None:
        return getattr(self, "lock_" + lock)

    def with_holder(self, lock: str, tid: Tid | None) -> "PhysState":
        return evolve(self, **{"lock_" + lock: tid})


@dataclass(frozen=True)
class MethodCall:
    kind: str  # "write" | "scan"
    p: str | None = None
    v: Value | None = None

    def render(self) -> str:
        if self.kind == "scan":
            return "scan"
        return f"write {self.p} {self.v}"

    @staticmethod
    def write(p: str, v: Value) -> "MethodCall":
        return MethodCall("write", p, v)

    @staticmethod
    def scan() -> "MethodCall":
        return MethodCall("scan")

    @staticmethod
    def parse(text: str) -> "MethodCall":
        parts = text.split()
        if parts == ["scan"]:
            return MethodCall.scan()
        if len(parts) == 3 and parts[0] == "write" and parts[1] in (Ptr.X, Ptr.Y):
            # the canonical object, not the parsed copy (see Ptr)
            p = Ptr.X if parts[1] == Ptr.X else Ptr.Y
            return MethodCall.write(p, int(parts[2]))
        raise ValueError(f"bad method call: {text!r}")


@dataclass(frozen=True)
class Step:
    kind: str
    label: str
    ptr: str | None = None
    lock: str | None = None


def _step(kind: str, ptr: str | None = None, lock: str | None = None) -> Step:
    if lock is not None:
        label = f"{kind}:{lock}"
    elif ptr is not None:
        label = f"{kind}:{ptr}"
    else:
        label = kind
    return Step(kind, label, ptr, lock)


def _write_step_list(p: str) -> tuple[Step, ...]:
    lock = lock_for(p)
    return (
        _step("acquire", lock=lock),
        _step("register", ptr=p),
        _step("check", ptr=p),
        _step("forward", ptr=p),
        _step("finalize", ptr=p),
        _step("release", lock=lock),
    )


_WRITE_STEPS = {Ptr.X: _write_step_list(Ptr.X), Ptr.Y: _write_step_list(Ptr.Y)}

_SCAN_STEPS = (
    _step("acquire", lock=LOCK_SCAN),
    _step("set-on"),
    _step("clear", ptr=Ptr.X),
    _step("clear", ptr=Ptr.Y),
    _step("read", ptr=Ptr.X),
    _step("read", ptr=Ptr.Y),
    _step("set-off"),
    _step("read-fwd", ptr=Ptr.X),
    _step("read-fwd", ptr=Ptr.Y),
    _step("relink"),
    _step("release", lock=LOCK_SCAN),
)


def write_steps(p: str) -> tuple[Step, ...]:
    """Step list of write(p, v); the forward step is skipped at run time
    when the scanner bit was read as false."""
    return _WRITE_STEPS[p]


def scan_steps() -> tuple[Step, ...]:
    """Step list of scan(); the local rx/ry selection is folded into the
    relink step since it touches no shared state."""
    return _SCAN_STEPS


def call_steps(call: MethodCall) -> tuple[Step, ...]:
    return write_steps(call.p) if call.kind == "write" else scan_steps()


@dataclass(frozen=True)
class MethodFrame:
    """One in-flight method call: program counter over its call's step list,
    local registers, and the invocation mask its postcondition reads (see
    :func:`invariants.capture_spec_snapshot`).

    The step after which nothing reads a local sets it to None (see
    :func:`clear_dead`), so the fields as they are identify the frame.
    ``t``, ``result`` and the witnesses stay until release drops the frame;
    by then the auxiliary state determines them."""

    tid: Tid
    call: MethodCall
    mask: int | None
    pc: int = 0
    t: Timestamp | None = None
    vx: Value | None = None
    vy: Value | None = None
    ox: Value | None = None
    oy: Value | None = None
    witness_x: Timestamp | None = None
    witness_y: Timestamp | None = None
    result: tuple[Value, Value] | None = None

    @property
    def steps(self) -> tuple[Step, ...]:
        return call_steps(self.call)

    def current_step(self) -> Step:
        return self.steps[self.pc]


def make_frame(tid: Tid, call: MethodCall, aux: AuxState) -> MethodFrame:
    """Create the frame at invocation, capturing the pre-state mask."""
    return MethodFrame(tid, call, invariants.capture_spec_snapshot(aux, tid, call.kind))


def clear_dead(frame: MethodFrame, *names: str) -> MethodFrame:
    """``frame`` with the locals ``names`` set to None, at the step after
    which no step or check reads them, so that they split no states."""
    return evolve(frame, **dict.fromkeys(names))


def step_enabled(step: Step, phys: PhysState) -> bool:
    if step.kind == "acquire":
        return phys.holder(step.lock) is None
    return True


def apply_step(
    step: Step, phys: PhysState, aux: AuxState, frame: MethodFrame
) -> tuple[PhysState, AuxState, MethodFrame]:
    """Execute one atomic step: physical action and auxiliary transition
    commit together; the frame's program counter advances.  What the step
    reads from memory is :func:`observed`'s."""
    tid = frame.tid
    kind = step.kind
    p = step.ptr
    nxt = frame.pc + 1

    if kind == "acquire":
        if phys.holder(step.lock) is not None:
            raise DisabledStepError(f"{tid}: lock {step.lock} held by {phys.holder(step.lock)}")
        return phys.with_holder(step.lock, tid), aux, evolve(frame, pc=nxt)

    if kind == "release":
        if phys.holder(step.lock) != tid:
            raise GuardViolationError(f"{tid}: releasing lock {step.lock} it does not hold")
        return phys.with_holder(step.lock, None), aux, evolve(frame, pc=nxt)

    if kind == "register":
        v = frame.call.v
        phys2 = evolve(phys, **{p: v})
        aux2, t = aux_ops.register(tid, p, v, aux)
        return phys2, aux2, evolve(frame, pc=nxt, t=t)

    if kind == "check":
        b = observed(step, phys)
        aux2 = aux_ops.check(tid, p, b, aux)
        # skip the forward step entirely when no scan was in progress
        return phys, aux2, evolve(frame, pc=nxt if b else nxt + 1)

    if kind == "forward":
        v = frame.call.v
        phys2 = evolve(phys, **{"fx" if p == Ptr.X else "fy": v})
        return phys2, aux_ops.forward(tid, p, aux), evolve(frame, pc=nxt)

    if kind == "finalize":
        aux2 = aux_ops.finalize(tid, p, aux)
        return phys, aux2, clear_dead(evolve(frame, pc=nxt), "mask")

    if kind == "set-on":
        return evolve(phys, s_bit=True), aux_ops.set_scanner(True, aux), evolve(frame, pc=nxt)

    if kind == "set-off":
        return evolve(phys, s_bit=False), aux_ops.set_scanner(False, aux), evolve(frame, pc=nxt)

    if kind == "clear":
        phys2 = evolve(phys, **{"fx" if p == Ptr.X else "fy": None})
        return phys2, aux_ops.clear(p, aux), evolve(frame, pc=nxt)

    if kind == "read":
        field = "vx" if p == Ptr.X else "vy"
        return phys, aux, evolve(frame, pc=nxt, **{field: observed(step, phys)})

    if kind == "read-fwd":
        value = observed(step, phys)
        if value is None:
            return phys, aux, evolve(frame, pc=nxt)
        # a forwarded value supersedes the pointer read
        frame2 = evolve(frame, pc=nxt, **{"ox" if p == Ptr.X else "oy": value})
        return phys, aux, clear_dead(frame2, "vx" if p == Ptr.X else "vy")

    if kind == "relink":
        rx = frame.ox if frame.ox is not None else frame.vx
        ry = frame.oy if frame.oy is not None else frame.vy
        aux2, t_x, t_y = aux_ops.relink(rx, ry, aux)
        frame2 = evolve(frame, pc=nxt, witness_x=t_x, witness_y=t_y, result=(rx, ry))
        return phys, aux2, clear_dead(frame2, "vx", "vy", "ox", "oy", "mask")

    raise GuardViolationError(f"unknown step kind {kind!r}")


def observed(step: Step, phys: PhysState):
    """The one value of physical memory that ``step`` reads into its
    thread (the scanner bit, a pointer or a forwarding cell), None for a
    step that reads none.  In :func:`apply_step`, the physical action
    depends only on the physical state and the frame, and the auxiliary
    transition and the frame's next state only on the auxiliary state,
    the frame and this value."""
    p = step.ptr
    if step.kind == "check":
        return phys.s_bit
    if step.kind == "read":
        return phys.x if p == Ptr.X else phys.y
    if step.kind == "read-fwd":
        return phys.fx if p == Ptr.X else phys.fy
    return None


def init(v_x: Value, v_y: Value) -> tuple[PhysState, AuxState]:
    """Fresh object: both pointers initialized by green, already-terminated
    events 1 and 2, forwarding cells empty, all locks free."""
    validate_value(v_x)
    validate_value(v_y)
    phys = PhysState(x=v_x, y=v_y, fx=None, fy=None, s_bit=False)
    aux = AuxState(
        ptr=(Ptr.X, Ptr.Y),
        val=(v_x, v_y),
        kappa=(Color.GREEN, Color.GREEN),
        tau=(2, 2),
        init_mask=0b110,
        joint_mask=0,
        self_masks=(),
        sigma=(1, 2),
        wx=WRITER_OFF,
        wy=WRITER_OFF,
        scanner=ScannerState(on=False, t_off=2, sx=False, sy=False),
    )
    return phys, aux


def phys_key(phys: PhysState) -> tuple:
    return (
        phys.x,
        phys.y,
        phys.fx,
        phys.fy,
        phys.s_bit,
        phys.lock_wx,
        phys.lock_wy,
        phys.lock_scan,
    )


def digest(key: tuple) -> str:
    """64-bit hex blake2b digest of a pickled canonical key tuple, as trace
    files carry it.

    Pickle shares repeated objects within one dump, so two equal keys hash
    alike only when they are built alike: keys are built from primitives by
    the same code in the same order.
    """
    return hashlib.blake2b(pickle.dumps(key, protocol=5), digest_size=8).hexdigest()


def phys_digest(phys: PhysState) -> str:
    """Digest of the physical state, for trace files."""
    return digest(phys_key(phys))


def aux_digest(aux: AuxState) -> str:
    """Digest of the auxiliary state, for trace files."""
    return digest(aux_key(aux))
