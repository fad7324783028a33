"""Value-level model of the instrumented snapshot object's auxiliary state.

Every write is a timestamped event ``t -> (pointer, value)`` carrying an
ownership tag: an initializing event, an in-progress *joint* event, or an
event finished by a particular thread.  Per-event data are tuples indexed by
timestamp and ownership is bitmasks (see :class:`AuxState`).  On top of the
event history the model keeps

* ``sigma``   -- the mutable logical order, a permutation of all timestamps;
* ``kappa``   -- a color per event: green (logical position fixed forever),
  yellow (may still be moved by the active scan), red (left to a future scan);
* ``tau``     -- end times of finished events, used to tell overlapping
  events from non-overlapping ones;
* writer and scanner phase trackers mirroring where each method is.

From these the stable order (``omega_leq``), the set of already-linearized
timestamps (``scanned``) and the replay evaluation (``eval_at``) are derived.
Everything in this module is a pure function over immutable values; the
atomic transitions that evolve the state live in ``aux_ops``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UninitializedPointerError, UnknownTimestampError, ValueDomainError

Timestamp = int
Value = int
Tid = str

VALUE_RANGE: tuple[int, int] = (0, 7)


class Ptr:
    """Pointer names.  State, frames and keys hold these very objects:
    pickle writes a repeated object once, so an equal string built
    elsewhere would change a digest."""

    X = "x"
    Y = "y"


class Color:
    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"


class WriterPhase:
    OFF = "off"
    NEW = "new"
    FWD = "fwd"
    DONE = "done"


@dataclass(frozen=True)
class WriterState:
    """Phase of the (single) writer for one pointer.

    Outside OFF, ``t``/``v`` are the timestamp and value of the write in
    progress; the corresponding event is always in the joint history.
    """

    phase: str
    t: Timestamp | None = None
    v: Value | None = None


WRITER_OFF = WriterState(WriterPhase.OFF)


@dataclass(frozen=True)
class ScannerState:
    """Scanner phase: ``on`` between its set(true)/set(false) toggles.

    ``t_off`` is the largest timestamp at the moment the scanner bit was
    last unset (the scan's classical linearization moment).  ``sx``/``sy``
    are set while a scan is between its clear of the pointer's forwarding
    cell and its relink.
    """

    on: bool
    t_off: Timestamp | None
    sx: bool
    sy: bool

    def bit(self, p: str) -> bool:
        return self.sx if p == Ptr.X else self.sy


@dataclass(frozen=True)
class AuxState:
    """Timestamps are dense, ``1..n``: event t is at index t - 1 of the
    per-event tuples (``tau[t - 1]`` is None while t is unfinished).
    Ownership is three disjoint bitmasks over ``1..n`` (bit t = event t):
    init events, joint (in-progress) events, and one mask per thread that
    finished events, as ``(tid, mask)`` pairs sorted by tid.  The history
    fields hold only primitives; ``wx``, ``wy`` and ``scanner`` are
    :class:`WriterState` and :class:`ScannerState` records, which
    :func:`aux_key` flattens into the state's canonical key of primitives."""

    ptr: tuple[str, ...]
    val: tuple[Value, ...]
    kappa: tuple[str, ...]
    tau: tuple[Timestamp | None, ...]
    init_mask: int
    joint_mask: int
    self_masks: tuple[tuple[Tid, int], ...]
    sigma: tuple[Timestamp, ...]
    wx: WriterState
    wy: WriterState
    scanner: ScannerState

    def writer(self, p: str) -> WriterState:
        return self.wx if p == Ptr.X else self.wy

    def max_ts(self) -> Timestamp:
        return len(self.ptr)


def validate_value(v: Value) -> None:
    lo, hi = VALUE_RANGE
    if not (type(v) is int and lo <= v <= hi):  # a bool passes isinstance(int)
        raise ValueDomainError(f"value {v!r} outside domain {lo}..{hi}")


def memo(obj) -> dict:
    """Per-instance memo of data derived from an immutable value.  It is not
    a dataclass field, so eq and repr never see it, and :func:`evolve` drops
    it, so it never goes stale."""
    d = obj.__dict__
    cache = d.get("_memo")
    if cache is None:
        cache = d["_memo"] = {}
    return cache


def evolve(obj, **changes):
    """Functional update of a frozen dataclass: a copy with ``changes``
    applied and without the memo.  ``dataclasses.replace`` re-runs
    ``__init__``, which is too slow for the stepping hot path."""
    new = object.__new__(type(obj))
    d = new.__dict__
    d.update(obj.__dict__)
    d.pop("_memo", None)
    d.update(changes)
    return new


def bits(mask: int):
    """The timestamps in a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _positions(sigma: tuple[Timestamp, ...]) -> dict[Timestamp, int]:
    return {t: i for i, t in enumerate(sigma)}


def _require_known(aux: AuxState, *ts: Timestamp) -> None:
    for t in ts:
        if not 1 <= t <= len(aux.ptr):
            raise UnknownTimestampError(f"timestamp {t} not in history")


def _ideal_masks(aux: AuxState) -> dict[Timestamp, int]:
    """Stable-order ideal of every timestamp as an integer bitmask (bit s
    set iff s is at or below t), computed once per state.

    This is the one definition of the stable order: s is at or below t iff
    s = t, or s ended before t began in real time, or s is green and sigma
    currently orders it before t.
    """
    cache = memo(aux)
    masks = cache.get("masks")
    if masks is None:
        ended = [(end, 1 << s) for s, end in enumerate(aux.tau, 1) if end is not None]
        masks = cache["masks"] = {}
        green_before = 0
        for t in aux.sigma:
            m = (1 << t) | green_before
            for end, bit in ended:
                if end < t:
                    m |= bit
            masks[t] = m
            if aux.kappa[t - 1] == Color.GREEN:
                green_before |= 1 << t
    return masks


def _members(mask: int, aux: AuxState) -> frozenset[Timestamp]:
    return frozenset(t for t in aux.sigma if (mask >> t) & 1)


def scanned_mask(aux: AuxState) -> int:
    """Timestamps already observed by some scan, as a bitmask.

    t qualifies when its stable-order ideal equals its sigma-prefix and that
    prefix is entirely green; such timestamps are linearized for good.
    """
    cache = memo(aux)
    m = cache.get("scanned_mask")
    if m is None:
        masks = _ideal_masks(aux)
        m = prefix = 0
        for t in aux.sigma:
            if aux.kappa[t - 1] != Color.GREEN:
                break
            prefix |= 1 << t
            if masks[t] == prefix:
                m |= 1 << t
        cache["scanned_mask"] = m
    return m


def self_mask(aux: AuxState, tid: Tid) -> int:
    """Events finished by tid."""
    for owner, mask in aux.self_masks:
        if owner == tid:
            return mask
    return 0


def other_mask(aux: AuxState, tid: Tid | None) -> int:
    """Events finished by the environment of tid: init events plus other
    threads'.  With tid None, every finished event."""
    out = aux.init_mask
    for owner, mask in aux.self_masks:
        if owner != tid:
            out |= mask
    return out


def omega_leq(t1: Timestamp, t2: Timestamp, aux: AuxState) -> bool:
    """Stable-order test: t1 is (and will remain) logically at or before t2
    (see :func:`_ideal_masks`)."""
    _require_known(aux, t1, t2)
    return bool((_ideal_masks(aux)[t2] >> t1) & 1)


def omega_down(t: Timestamp, aux: AuxState, strict: bool = False) -> frozenset[Timestamp]:
    """The stable-order ideal of t: every s with s at-or-below t (strict drops t)."""
    _require_known(aux, t)
    mask = _ideal_masks(aux)[t]
    if strict:
        mask &= ~(1 << t)
    return _members(mask, aux)


def scanned(aux: AuxState) -> frozenset[Timestamp]:
    """Timestamps already observed by some scan (see :func:`scanned_mask`)."""
    return _members(scanned_mask(aux), aux)


def eval_at(t: Timestamp, sigma: tuple[Timestamp, ...], aux: AuxState) -> tuple[Value, Value]:
    """Replay aux's writes in sigma order up to and including t; return (x, y)."""
    _require_known(aux, t)
    x: Value | None = None
    y: Value | None = None
    for s in sigma:
        if aux.ptr[s - 1] == Ptr.X:
            x = aux.val[s - 1]
        else:
            y = aux.val[s - 1]
        if s == t:
            break
    if x is None or y is None:
        missing = "x" if x is None else "y"
        raise UninitializedPointerError(f"no write to {missing} at or before {t}")
    return (x, y)


def hist_p(p: str, aux: AuxState) -> tuple[Timestamp, ...]:
    """The subsequence of sigma writing to p, in sigma order."""
    cache = memo(aux)
    key = "hist_" + p
    seq = cache.get(key)
    if seq is None:
        ptr = aux.ptr
        seq = cache[key] = tuple(t for t in aux.sigma if ptr[t - 1] == p)
    return seq


def last_green(p: str, aux: AuxState) -> Timestamp | None:
    """The sigma-last green timestamp among p's writes, if any."""
    cache = memo(aux)
    key = "lastgreen_" + p
    if key not in cache:
        out = None
        for t in hist_p(p, aux):
            if aux.kappa[t - 1] == Color.GREEN:
                out = t
        cache[key] = out
    return cache[key]


def yellow_of(p: str, aux: AuxState) -> Timestamp | None:
    """The (in valid states unique) yellow timestamp among p's writes."""
    cache = memo(aux)
    key = "yellow_" + p
    if key not in cache:
        out = None
        for t in hist_p(p, aux):
            if aux.kappa[t - 1] == Color.YELLOW:
                out = t
        cache[key] = out
    return cache[key]


def last_gy(p: str, t: Timestamp, aux: AuxState) -> bool:
    """True iff t is p's sigma-last green write, or p's yellow write."""
    _require_known(aux, t)
    if t == last_green(p, aux):
        return True
    return aux.kappa[t - 1] == Color.YELLOW and aux.ptr[t - 1] == p


def history_key(aux: AuxState) -> tuple:
    """Canonical, primitive-only tuple identifying the auxiliary history:
    the events, their colors and end times, ownership and the logical
    order.  Only registering, greening, finalizing or relinking an event
    changes it; the writer and scanner phases lie outside it."""
    return (
        aux.ptr,
        aux.val,
        aux.kappa,
        aux.tau,
        aux.init_mask,
        aux.joint_mask,
        aux.self_masks,
        aux.sigma,
    )


def aux_key(aux: AuxState) -> tuple:
    """Canonical, primitive-only tuple identifying the auxiliary state: its
    history's key, then the writer and scanner records flattened."""
    wx, wy, sc = aux.wx, aux.wy, aux.scanner
    return history_key(aux) + (
        wx.phase,
        wx.t,
        wx.v,
        wy.phase,
        wy.t,
        wy.v,
        sc.on,
        sc.t_off,
        sc.sx,
        sc.sy,
    )
