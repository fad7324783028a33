"""Atomic auxiliary transitions of the instrumented snapshot object.

Each function maps a pre-state satisfying its guard to a post-state; a guard
failure raises :class:`GuardViolationError` (the scheduler must never enable
a transition whose guard fails, so that is a harness bug, not a property of
the explored program).  All transitions are pure: they return fresh
:class:`AuxState` values and never mutate their input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import aux_model
from .aux_model import (
    AuxState,
    Color,
    Ptr,
    ScannerState,
    Timestamp,
    Tid,
    Value,
    WRITER_OFF,
    WriterPhase,
    WriterState,
)
from .errors import GuardViolationError, SnapshotModelError


@dataclass(frozen=True)
class InspectDecision:
    """Outcome of inspect: No, or Yes(ptr, target) naming the yellow write
    of ``ptr`` that must be pushed past the other pointer's chosen event."""

    ptr: str | None = None
    target: Timestamp | None = None


INSPECT_NO = InspectDecision()


def _writer_field(p: str) -> str:
    return "wx" if p == Ptr.X else "wy"


def _with_writer(aux: AuxState, p: str, w: WriterState) -> AuxState:
    return aux_model.evolve(aux, **{_writer_field(p): w})


def _set(values: tuple, ts, value) -> tuple:
    """A per-event tuple with the entries of events ts replaced by value."""
    out = list(values)
    for t in ts:
        out[t - 1] = value
    return tuple(out)


def register(p: str, v: Value, aux: AuxState) -> tuple[AuxState, Timestamp]:
    """Create the write event: fresh timestamp, appended to sigma, joint-owned.

    The event is colored yellow when an active scan has already cleared p's
    forwarding cell (it may still observe this write), red otherwise.
    """
    w = aux.writer(p)
    if w.phase != WriterPhase.OFF:
        raise GuardViolationError(f"register: writer for {p} is {w.phase}")
    t = aux.max_ts() + 1
    color = Color.YELLOW if aux.scanner.on and aux.scanner.bit(p) else Color.RED
    aux2 = aux_model.evolve(
        aux,
        ptr=aux.ptr + (p,),
        val=aux.val + (v,),
        kappa=aux.kappa + (color,),
        tau=aux.tau + (None,),
        joint_mask=aux.joint_mask | (1 << t),
        sigma=aux.sigma + (t,),
    )
    return _with_writer(aux2, p, WriterState(WriterPhase.NEW, t, v)), t


def check(p: str, b: bool, aux: AuxState) -> AuxState:
    """Record the scanner-bit read: forwarding required iff b."""
    w = aux.writer(p)
    if w.phase != WriterPhase.NEW:
        raise GuardViolationError(f"check: writer for {p} is {w.phase}")
    phase = WriterPhase.FWD if b else WriterPhase.DONE
    return _with_writer(aux, p, WriterState(phase, w.t, w.v))


def forward(p: str, aux: AuxState) -> AuxState:
    """Hand the value to the in-progress scan; greens the event while the
    scan is still guaranteed to observe it (scanner on, p's bit set)."""
    w = aux.writer(p)
    if w.phase != WriterPhase.FWD:
        raise GuardViolationError(f"forward: writer for {p} is {w.phase}")
    aux2 = _with_writer(aux, p, WriterState(WriterPhase.DONE, w.t, w.v))
    if aux.scanner.on and aux.scanner.bit(p):
        aux2 = aux_model.evolve(aux2, kappa=_set(aux.kappa, (w.t,), Color.GREEN))
    return aux2


def finalize(tid: Tid, p: str, aux: AuxState) -> AuxState:
    """Terminate the write: move its event from joint to tid's self history
    and record the current largest timestamp as its end time."""
    w = aux.writer(p)
    if w.phase != WriterPhase.DONE:
        raise GuardViolationError(f"finalize: writer for {p} is {w.phase}")
    t = w.t
    if not (
        (aux.joint_mask >> t) & 1
        and t <= aux.max_ts()
        and aux.ptr[t - 1] == p
        and aux.val[t - 1] == w.v
    ):
        raise GuardViolationError(f"finalize: event {t} not joint-owned {p}={w.v}")
    bit = 1 << t
    others = [(owner, mask) for owner, mask in aux.self_masks if owner != tid]
    aux2 = aux_model.evolve(
        aux,
        tau=_set(aux.tau, (t,), aux.max_ts()),
        joint_mask=aux.joint_mask & ~bit,
        self_masks=tuple(sorted(others + [(tid, aux_model.self_mask(aux, tid) | bit)])),
    )
    return _with_writer(aux2, p, WRITER_OFF)


def set_scanner(b: bool, aux: AuxState) -> AuxState:
    """Toggle the scanner phase; turning it off records the end-of-scan
    timestamp t_off as the largest timestamp in the history."""
    sc = aux.scanner
    if b:
        if sc.on or sc.sx or sc.sy:
            raise GuardViolationError("set(true): scanner already on or bits set")
        sc2 = ScannerState(on=True, t_off=None, sx=False, sy=False)
    else:
        if not sc.on or not (sc.sx and sc.sy):
            raise GuardViolationError("set(false): scanner off or bits unset")
        sc2 = ScannerState(on=False, t_off=aux.max_ts(), sx=True, sy=True)
    return aux_model.evolve(aux, scanner=sc2)


def clear(p: str, aux: AuxState) -> AuxState:
    """Mark the scan active for p and green p's whole subhistory: all its
    current writes are now observed (hence linearized) by this scan."""
    sc = aux.scanner
    if not sc.on or sc.bit(p):
        raise GuardViolationError(f"clear({p}): scanner off or bit already set")
    kappa = _set(aux.kappa, aux_model.hist_p(p, aux), Color.GREEN)
    field = "sx" if p == Ptr.X else "sy"
    return aux_model.evolve(aux, kappa=kappa, scanner=aux_model.evolve(sc, **{field: True}))


def _require_relink_pre(t_x: Timestamp, t_y: Timestamp, aux: AuxState) -> None:
    sc = aux.scanner
    if sc.on or not (sc.sx and sc.sy):
        raise GuardViolationError("relink/inspect: scanner must be off with both bits set")
    aux_model.require_known(aux, t_x, t_y)
    if aux.ptr[t_x - 1] != Ptr.X or aux.ptr[t_y - 1] != Ptr.Y:
        raise GuardViolationError("relink/inspect: arguments write the wrong pointers")
    for p, t in ((Ptr.X, t_x), (Ptr.Y, t_y)):
        if not aux_model.last_gy(p, t, aux):
            raise GuardViolationError(f"relink/inspect: {t} is not last-green-or-yellow of {p}")


def inspect(t_x: Timestamp, t_y: Timestamp, aux: AuxState) -> InspectDecision:
    """Decide whether (t_x, t_y) already form a valid snapshot.

    Returns Yes(p, s) when the sigma-earlier of the two is p's last green and
    p's yellow write s sits strictly between them (the scan missed s, so s
    must be pushed past the later event); No otherwise.
    """
    _require_relink_pre(t_x, t_y, aux)
    pos = aux_model.positions(aux.sigma)

    def offending(p: str, tp: Timestamp, tq: Timestamp) -> Timestamp | None:
        if not pos[tp] < pos[tq]:
            return None
        if tp != aux_model.last_green(p, aux):
            return None
        z = aux_model.yellow_of(p, aux)
        if z is None or not pos[z] < pos[tq]:
            return None
        return z

    zx = offending(Ptr.X, t_x, t_y)
    zy = offending(Ptr.Y, t_y, t_x)
    if zx is not None and zy is not None:
        raise SnapshotModelError("inspect: X and Y reorder cases both apply")
    if zx is not None:
        return InspectDecision(Ptr.X, zx)
    if zy is not None:
        return InspectDecision(Ptr.Y, zy)
    return INSPECT_NO


def push(i: Timestamp, j: Timestamp, sigma: tuple[Timestamp, ...]) -> tuple[Timestamp, ...]:
    """Sequence surgery: move i to the position immediately after j."""
    if i not in sigma or j not in sigma:
        raise GuardViolationError(f"push: {i} or {j} absent from sigma")
    pi, pj = sigma.index(i), sigma.index(j)
    if pi >= pj:
        raise GuardViolationError(f"push: {i} is not strictly before {j}")
    out = list(sigma)
    out.pop(pi)
    out.insert(pj, i)  # j now sits at pj-1, so this lands right after it
    return tuple(out)


def relink(r_x: Value, r_y: Value, aux: AuxState) -> tuple[AuxState, Timestamp, Timestamp]:
    """Rearrange the logical order so (r_x, r_y) is a valid snapshot.

    Picks the events t_x, t_y that wrote the returned values (sigma-latest
    last-green-or-yellow candidates), pushes the offending yellow write, if
    any, past the other pointer's event, greens both, and retires the scan's
    per-pointer bits.  Returns the new state and the chosen (t_x, t_y).
    """
    sc = aux.scanner
    if sc.on or not (sc.sx and sc.sy):
        raise GuardViolationError("relink: scanner must be off with both bits set")

    def chosen(p: str, value: Value) -> Timestamp:
        seq = aux_model.hist_p(p, aux)
        cands = [t for t in seq if aux.val[t - 1] == value and aux_model.last_gy(p, t, aux)]
        if not cands:
            raise GuardViolationError(f"relink: no last-green-or-yellow {p}-event with value {value}")
        return cands[-1]

    t_x = chosen(Ptr.X, r_x)
    t_y = chosen(Ptr.Y, r_y)
    d = inspect(t_x, t_y, aux)
    if d.ptr == Ptr.X:
        sigma = push(d.target, t_y, aux.sigma)
    elif d.ptr == Ptr.Y:
        sigma = push(d.target, t_x, aux.sigma)
    else:
        sigma = aux.sigma
    aux2 = aux_model.evolve(
        aux,
        sigma=sigma,
        kappa=_set(aux.kappa, (t_x, t_y), Color.GREEN),
        scanner=ScannerState(on=False, t_off=sc.t_off, sx=False, sy=False),
    )
    return aux2, t_x, t_y
