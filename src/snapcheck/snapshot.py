"""The instrumented snapshot algorithm: physical memory plus lock discipline.

A write stores into its pointer and, if it saw the scanner bit set, also into
the pointer's forwarding cell; a scan sets the bit, clears both forwarding
cells, reads both pointers, unsets the bit, then reads the forwarding cells
and prefers forwarded values.  Each angle-bracket command of the algorithm is
one :class:`Step`, a single indivisible state change; lock acquire/release
are explicit schedulable steps of their own.

Every decision about what a step of each kind does is made here.  A step is
three effects, each on one part and reading only its own arguments, which
one dispatch gives (:func:`step_args`): the physical effect, the auxiliary
effect, and the frame effect, which reads what the step read from memory
and the outputs of the auxiliary effect, and at a release starts the
thread's next call.  So the physical half of a step is blind to the
auxiliary part by its signature.  :func:`apply_step` is their composition.
Beside them sit every check of an edge (:func:`edge_check`), a returned
call's postcondition among them (:func:`returns`), and a frame's key
(``frame_key``).
"""

from __future__ import annotations

import operator
import pickle
from _blake2 import blake2b  # is hashlib.blake2b; hashlib would map libcrypto too
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


@dataclass(frozen=True)
class MethodCall:
    """A client's call: a write of a value in the value range to pointer
    x or y, or a scan, which takes neither."""

    kind: str  # "write" | "scan"
    p: str | None = None
    v: Value | None = None

    def __post_init__(self):
        if self.kind == "write":
            if self.p not in (Ptr.X, Ptr.Y):
                raise ValueError(f"a write's pointer is x or y, not {self.p!r}")
            validate_value(self.v)
        elif self.kind != "scan":
            raise ValueError(f"a call is a write or a scan, not {self.kind!r}")
        elif (self.p, self.v) != (None, None):
            raise ValueError(f"a scan takes no pointer and no value, not {self.p!r}, {self.v!r}")

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


# The step list of each call, keyed by the pointer the call writes (None
# for a scan).  A write's forward step is skipped at run time when the
# scanner bit was read as false; a scan's local rx/ry selection is folded
# into its relink step since it touches no shared state.
_STEPS = {
    **{
        p: (
            _step("acquire", lock=lock_for(p)),
            _step("register", ptr=p),
            _step("check", ptr=p),
            _step("forward", ptr=p),
            _step("finalize", ptr=p),
            _step("release", lock=lock_for(p)),
        )
        for p in (Ptr.X, Ptr.Y)
    },
    None: (
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
    ),
}


@dataclass(frozen=True)
class MethodFrame:
    """A thread's method call ``call_idx``, ``call``, with the calls the
    thread makes after it (``later``): program counter over its call's step
    list, local registers, and the invocation mask its postcondition reads
    (see :func:`invariants.capture_spec_snapshot`), which its acquire
    takes.  Between calls a thread holds its next call's frame at
    ``pc == 0``, which its last release started.

    The step after which nothing reads a local sets it to None (see
    :func:`clear_dead`), so the fields as they are identify the frame.
    ``t``, ``result`` and the witnesses stay until release drops the frame;
    by then the auxiliary state determines them."""

    tid: Tid
    call_idx: int
    call: MethodCall
    later: tuple[MethodCall, ...]
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

    def current_step(self) -> Step:
        return _STEPS[self.call.p][self.pc]


# A frame's key: its fields as they are, the call flattened; primitives
# only.  It leaves out ``later``, which the tid and the call index fix
# within one program.
frame_key = operator.attrgetter(
    "tid", "call_idx", "call.kind", "call.p", "call.v", "pc", "t", "vx", "vy", "ox", "oy",
    "witness_x", "witness_y", "result", "mask",
)


def make_frame(tid: Tid, call_idx: int, calls: tuple[MethodCall, ...]) -> MethodFrame:
    """The frame of ``tid``'s call ``call_idx``, ``calls[0]``, before its
    first step, with the calls after it, ``calls[1:]``: its acquire takes
    the invocation mask from the auxiliary part."""
    return MethodFrame(tid, call_idx, calls[0], calls[1:], None)


def clear_dead(frame: MethodFrame, *names: str) -> MethodFrame:
    """``frame`` with the locals ``names`` set to None, at the step after
    which no step or check reads them, so that they split no states."""
    return evolve(frame, **dict.fromkeys(names))


def step_enabled(frame: MethodFrame | None, phys: PhysState) -> bool:
    """Whether ``frame``'s next step can be taken from ``phys``: an acquire
    needs its lock free, and a thread whose calls are done (no frame) takes
    none."""
    if frame is None:
        return False
    step = frame.current_step()
    return step.kind != "acquire" or phys.holder(step.lock) is None


def step_args(step: Step, frame: MethodFrame, phys: PhysState) -> tuple:
    """What ``step``, ``frame``'s next, reads besides the part each of its
    effects acts on, per kind: the one value of physical memory it reads
    into its thread (the scanner bit, a pointer or a forwarding cell; None
    for a step that reads none), which the auxiliary effect and the frame
    effect read in place of the physical part, then the argument of its
    physical effect, that of its auxiliary effect and what its edge check
    reads of the frame: a returned call's invocation mask with the write's
    event, thread and value or the scan's result."""
    kind = step.kind
    if kind == "acquire":
        return None, frame.tid, (frame.tid, frame.call.kind), None
    if kind == "release":
        return None, frame.tid, None, None
    if kind == "register":
        return None, frame.call.v, frame.call.v, None
    if kind == "forward":
        return None, frame.call.v, None, None
    if kind == "check":
        return phys.s_bit, None, phys.s_bit, None
    if kind == "finalize":
        return None, None, frame.tid, (frame.mask, frame.t, frame.tid, frame.call.v)
    if kind == "read":
        return (phys.x if step.ptr == Ptr.X else phys.y), None, None, None
    if kind == "read-fwd":
        return (phys.fx if step.ptr == Ptr.X else phys.fy), None, None, None
    if kind == "relink":
        result = scan_result(frame)
        return None, None, result, (frame.mask, result)
    return None, None, None, None


def phys_effect(step: Step, arg, phys: PhysState) -> PhysState:
    """The physical action of ``step`` on ``phys``, ``arg`` being its
    physical argument (:func:`step_args`)."""
    kind = step.kind
    if kind == "acquire":
        if phys.holder(step.lock) is not None:
            raise DisabledStepError(f"{arg}: lock {step.lock} held by {phys.holder(step.lock)}")
        return phys.with_holder(step.lock, arg)
    if kind == "release":
        if phys.holder(step.lock) != arg:
            raise GuardViolationError(f"{arg}: releasing lock {step.lock} it does not hold")
        return phys.with_holder(step.lock, None)
    if kind == "register":
        return evolve(phys, **{step.ptr: arg})
    if kind in ("forward", "clear"):  # a clear's argument is None
        return evolve(phys, **{"fx" if step.ptr == Ptr.X else "fy": arg})
    if kind in ("set-on", "set-off"):
        return evolve(phys, s_bit=kind == "set-on")
    return phys


# The auxiliary effect of each kind of step that has one, by kind: from
# the step's pointer, its auxiliary argument (step_args) and the
# auxiliary part, the post auxiliary part followed by the outputs that
# the frame takes.
_AUX_EFFECTS = {
    "acquire": lambda p, args, aux: (aux, invariants.capture_spec_snapshot(aux, *args)),
    "register": lambda p, v, aux: aux_ops.register(p, v, aux),
    "check": lambda p, b, aux: (aux_ops.check(p, b, aux),),
    "forward": lambda p, _, aux: (aux_ops.forward(p, aux),),
    "finalize": lambda p, tid, aux: (aux_ops.finalize(tid, p, aux),),
    "set-on": lambda p, _, aux: (aux_ops.set_scanner(True, aux),),
    "set-off": lambda p, _, aux: (aux_ops.set_scanner(False, aux),),
    "clear": lambda p, _, aux: (aux_ops.clear(p, aux),),
    "relink": lambda p, result, aux: aux_ops.relink(*result, aux),
}


def _finalize_checks(step, pre, post, value, out, arg):
    mask, t, tid, v = arg
    return invariants.check_write_post(mask, post, t, tid, step.ptr, v)


def _relink_checks(step, pre, post, value, out, arg):
    mask, result = arg
    found = invariants.check_relink_post(post, *out)
    return found + invariants.check_scan_post(mask, post, result, witness(post, *out))


# The edge check of each kind of step that has one of its own (see
# edge_check), a returned call's postcondition among them.  Each looks its
# check up on ``invariants`` when it runs, where a wrapper may have
# replaced it.
_EDGE_CHECKS = {
    "register": lambda step, pre, post, v, out, arg: invariants.check_write_fresh(pre, *out),
    "read": lambda step, pre, post, v, out, arg: invariants.check_read_lemma(step.ptr, v, post),
    "finalize": _finalize_checks,
    "relink": _relink_checks,
}

def aux_effect(step: Step, args, aux: AuxState) -> tuple[AuxState, tuple]:
    """The auxiliary transition of ``step`` on ``aux``, ``args`` being its
    auxiliary argument (:func:`step_args`): the post auxiliary part and
    the outputs the frame takes from it, an acquire's invocation mask, a
    register's timestamp or a relink's two chosen events (``()`` for the
    other kinds)."""
    effect = _AUX_EFFECTS.get(step.kind)
    if effect is None:
        return aux, ()
    post = effect(step.ptr, args, aux)
    return post[0], post[1:]


def edge_check(step: Step, pre: AuxState, post: AuxState, value, outputs: tuple, arg) -> tuple:
    """The violations, in order, of every check of the edge of ``step``
    from the auxiliary part ``pre`` to ``post``, on which the step read
    ``value``, its auxiliary effect gave ``outputs`` and its check reads
    ``arg`` (:func:`step_args`): the transition's monotonicity, then a
    register's freshness, a read's lemma, a finalize's write postcondition
    or a relink's guarantee and scan postcondition.  No check reads a
    physical part, and of ``pre`` and ``post`` each reads only the view
    (``invariants.view_key``), so ``explore`` keys its verdict table by
    the two parts' view ids with the other arguments."""
    # interned parts: an unchanged one is ``pre`` and passes by reflexivity
    found = invariants.check_transition(pre, post) if pre is not post else []
    check = _EDGE_CHECKS.get(step.kind)
    if check is not None:
        found += check(step, pre, post, value, outputs, arg)
    return tuple(found)  # tables keep verdicts: an empty tuple takes no memory


def frame_effect(frame: MethodFrame, value, outputs: tuple) -> MethodFrame | None:
    """The thread's frame after ``frame``'s next step, which read ``value``
    from memory and took ``outputs`` from its auxiliary effect: the program
    counter advances (past the forward step where a check read no scan),
    the locals take what the step read or returned, and those that nothing
    reads any more are cleared (:func:`clear_dead`).  A release starts the
    thread's next call, and leaves it no frame once its calls are done."""
    step = frame.current_step()
    kind = step.kind
    nxt = frame.pc + 1
    if kind == "acquire":
        return evolve(frame, pc=nxt, mask=outputs[0])
    if kind == "register":
        return evolve(frame, pc=nxt, t=outputs[0])
    if kind == "check":
        # skip the forward step entirely when no scan was in progress
        return evolve(frame, pc=nxt if value else nxt + 1)
    if kind == "finalize":
        return clear_dead(evolve(frame, pc=nxt), "mask")
    if kind == "read":
        return evolve(frame, pc=nxt, **{"vx" if step.ptr == Ptr.X else "vy": value})
    if kind == "read-fwd" and value is not None:
        # a forwarded value supersedes the pointer read
        x = step.ptr == Ptr.X
        frame2 = evolve(frame, pc=nxt, **{"ox" if x else "oy": value})
        return clear_dead(frame2, "vx" if x else "vy")
    if kind == "relink":
        t_x, t_y = outputs
        frame2 = evolve(frame, pc=nxt, witness_x=t_x, witness_y=t_y, result=scan_result(frame))
        return clear_dead(frame2, "vx", "vy", "ox", "oy", "mask")
    if kind == "release":
        later = frame.later
        return make_frame(frame.tid, frame.call_idx + 1, later) if later else None
    return evolve(frame, pc=nxt)


def returns(after: MethodFrame | None) -> bool:
    """Whether the step that left its thread holding ``after`` returned its
    call: a call returns on the step before its lock release, whose edge
    check holds the call's postcondition."""
    return after is not None and after.current_step().kind == "release"


def witness(aux: AuxState, t_x: Timestamp | None, t_y: Timestamp | None) -> Timestamp | None:
    """A returned scan's witness: of its two chosen events, the later in
    ``aux``'s sigma (None for a write, which chose none)."""
    return None if t_x is None else max(t_x, t_y, key=aux.sigma.index)


def step_count(call: MethodCall) -> int:
    """The most steps ``call`` takes: the length of its step list."""
    return len(_STEPS[call.p])


def apply_step(step: Step, phys: PhysState, aux: AuxState, frame: MethodFrame) -> tuple:
    """Execute one atomic step, ``frame``'s next, as the composition of its
    three effects: the post physical part, auxiliary part and thread's
    frame, with the value the step read from memory, the outputs of its
    auxiliary effect and its check argument, which :func:`edge_check`
    reads."""
    value, phys_arg, aux_args, check_arg = step_args(step, frame, phys)
    phys2 = phys_effect(step, phys_arg, phys)
    aux2, outputs = aux_effect(step, aux_args, aux)
    return phys2, aux2, frame_effect(frame, value, outputs), value, outputs, check_arg


def scan_result(frame: MethodFrame) -> tuple[Value, Value]:
    """The pair a scan's relink step returns: per pointer, the forwarded
    value where the scan read one, else the value it read from the
    pointer."""
    rx = frame.ox if frame.ox is not None else frame.vx
    ry = frame.oy if frame.oy is not None else frame.vy
    return rx, ry


def init(v_x: Value, v_y: Value) -> tuple[PhysState, AuxState]:
    """Fresh object: both pointers initialized by green, already-terminated
    events 1 and 2, forwarding cells empty, all locks free.  The package
    exports it, so it checks its values itself: a caller need not come
    through a :class:`~snapcheck.harness.Program`, which checks its own."""
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


def digest(key: tuple) -> str:
    """64-bit hex blake2b digest of a pickled canonical key tuple, as trace
    files carry it.

    Pickle shares repeated objects within one dump, so two equal keys hash
    alike only when they are built alike: keys are built from primitives by
    the same code in the same order, and their strings are interned (the
    pointers and phases are literals, and :class:`~snapcheck.harness.Program`
    interns its tids).
    """
    return blake2b(pickle.dumps(key, protocol=5), digest_size=8).hexdigest()


def phys_digest(phys: PhysState) -> str:
    """Digest of the physical state, for trace files."""
    return digest(phys_key(phys))


def aux_digest(aux: AuxState) -> str:
    """Digest of the auxiliary state, for trace files."""
    return digest(aux_key(aux))
