"""Executable checkers for every state invariant, transition invariant,
lemma-level property, and method postcondition of the snapshot model.

Checks never raise on a bad state: they return the list of violations
found (empty when every check passed), so the harness can keep exploring
and collect everything that went wrong.  Phase-guarded invariants (red
zone, forwarded values, read values) evaluate vacuously true outside their
guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .aux_model import (
    AuxState,
    Color,
    Ptr,
    Timestamp,
    Tid,
    Value,
    WriterPhase,
    bits,
    hist_p,
    history_key,
    last_green,
    other_mask,
    scanned_mask,
    self_mask,
    yellow_of,
    _ideal_masks,
    _positions,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .snapshot import PhysState


def capture_spec_snapshot(aux: AuxState, tid: Tid, kind: str) -> int:
    """The pre-state bitmask a method's postcondition reads, frozen at its
    invocation: for a write, the caller's environment history and the
    already-scanned set; for a scan, the global history domain."""
    if kind == "write":
        return other_mask(aux, tid) | scanned_mask(aux)
    return (1 << (aux.max_ts() + 1)) - 2


@dataclass
class Violation:
    name: str
    detail: str
    step: int | None = None

    def render(self) -> str:
        return f"INV {self.name} @step={self.step}: {self.detail}"


# ---------------------------------------------------------------------------
# state-space invariants


def _check_wellformed(aux: AuxState, rep: list[Violation]) -> None:
    # the history clauses of well-formedness
    n = aux.max_ts()
    if sorted(aux.sigma) != list(range(1, n + 1)):
        rep.append(Violation("wellformed", f"sigma {aux.sigma} is not a permutation of dom hist"))
    if not len(aux.val) == len(aux.kappa) == len(aux.tau) == n:
        rep.append(Violation("wellformed", "values, colors and end times do not cover dom hist"))
    # disjoint masks covering dom exactly: their sum and their union are dom
    full = (1 << (n + 1)) - 2
    total = aux.init_mask + aux.joint_mask + sum(mask for _, mask in aux.self_masks)
    if total != full or other_mask(aux, None) | aux.joint_mask != full:
        rep.append(Violation("wellformed", "ownership masks do not partition dom hist"))


def _check_writers(aux: AuxState, rep: list[Violation]) -> None:
    # the writer clause of well-formedness
    dom = range(1, aux.max_ts() + 1)
    for p in (Ptr.X, Ptr.Y):
        w = aux.writer(p)
        if w.phase != WriterPhase.OFF and w.t not in dom:
            rep.append(Violation("wellformed", f"writer for {p} holds unknown timestamp {w.t}"))


def _check_overlap(aux: AuxState, rep: list[Violation]) -> None:
    # non-overlapping events are never logically reordered
    pos = _positions(aux.sigma)
    for t1, end in enumerate(aux.tau, 1):
        if end is None:
            continue
        for t2 in range(1, aux.max_ts() + 1):
            if end < t2 and not pos[t1] < pos[t2]:
                rep.append(Violation(
                    "overlap",
                    f"{t1} ended at {end} before {t2} began but follows it in sigma",
                ))


def _check_colors(aux: AuxState, rep: list[Violation]) -> None:
    # per pointer: non-empty green prefix, at most one yellow, then reds
    for p in (Ptr.X, Ptr.Y):
        seq = hist_p(p, aux)
        colors = [aux.kappa[t - 1] for t in seq]
        i = 0
        while i < len(colors) and colors[i] == Color.GREEN:
            i += 1
        if i == 0:
            rep.append(Violation("colors", f"{p}-history has no green prefix: {seq}"))
            continue
        if i < len(colors) and colors[i] == Color.YELLOW:
            i += 1
        if any(c != Color.RED for c in colors[i:]):
            rep.append(Violation(
                "colors",
                f"{p}-history breaks the green+/yellow?/red* pattern: {colors}",
            ))


def _check_last_write(phys: "PhysState", aux: AuxState, rep: list[Violation]) -> None:
    for p, actual in ((Ptr.X, phys.x), (Ptr.Y, phys.y)):
        seq = hist_p(p, aux)
        if not seq:
            rep.append(Violation("last-write", f"{p} has no writes at all"))
            continue
        expect = aux.val[seq[-1] - 1]
        if actual != expect:
            rep.append(Violation(
                "last-write",
                f"{p} holds {actual} but sigma-last write {seq[-1]} wrote {expect}",
            ))


def _check_joint_history(aux: AuxState, rep: list[Violation]) -> None:
    active = {}
    for p in (Ptr.X, Ptr.Y):
        w = aux.writer(p)
        if w.phase != WriterPhase.OFF:
            active[w.t] = (p, w.v)
            t = w.t
            if not (
                (aux.joint_mask >> t) & 1
                and aux.ptr[t - 1] == p
                and aux.val[t - 1] == w.v
            ):
                rep.append(Violation(
                    "joint-history",
                    f"active writer for {p} ({w.phase} t={w.t} v={w.v}) "
                    "has no matching joint event",
                ))
    for t in bits(aux.joint_mask):
        if t not in active:
            rep.append(Violation("joint-history", f"joint event {t} has no active writer"))


def _check_terminated(aux: AuxState, rep: list[Violation]) -> None:
    ended = [t for t, end in enumerate(aux.tau, 1) if end is not None]
    finished = other_mask(aux, None)
    if sum(1 << t for t in ended) != finished:
        rep.append(Violation(
            "terminated-events",
            f"dom tau {ended} != self+other events {list(bits(finished))}",
        ))
    top = aux.max_ts()
    for a, end in enumerate(aux.tau, 1):
        if end is not None and end > top:
            rep.append(Violation(
                "terminated-events",
                f"tau({a})={end} exceeds max timestamp {top}",
            ))


def _check_forwarded(phys: "PhysState", aux: AuxState, rep: list[Violation]) -> None:
    sc = aux.scanner
    if sc.on:
        return
    for p, fwd in ((Ptr.X, phys.fx), (Ptr.Y, phys.fy)):
        if not sc.bit(p) or fwd is None:
            continue
        if not any(
            t is not None and aux.val[t - 1] == fwd
            for t in (last_green(p, aux), yellow_of(p, aux))
        ):
            rep.append(Violation(
                "forwarded-values",
                f"forwarded {p}-value {fwd} written by neither the last "
                f"green nor the yellow of {p}-history",
            ))


def _check_red_zone(aux: AuxState, rep: list[Violation]) -> None:
    sc = aux.scanner
    if sc.on or not (sc.sx and sc.sy):
        return
    t_off = sc.t_off
    seen_red = False
    for t in aux.sigma:
        c = aux.kappa[t - 1]
        if c == Color.RED:
            seen_red = True
        elif seen_red:
            rep.append(Violation("red-zone", f"{c} event {t} after a red one in sigma"))
    for t, c in enumerate(aux.kappa, 1):
        if c == Color.GREEN and not t <= t_off:
            rep.append(Violation("red-zone", f"green {t} > t_off {t_off}"))
        elif c == Color.YELLOW:
            end = aux.tau[t - 1]
            if not t <= t_off or (end is not None and not t_off <= end):
                rep.append(Violation("red-zone", f"yellow {t} violates t <= t_off <= tau(t)"))
        elif c == Color.RED and not t_off < t:
            rep.append(Violation("red-zone", f"red {t} <= t_off {t_off}"))


def _check_first_forwarding(aux: AuxState, rep: list[Violation]) -> None:
    # events that terminated before the scan toggled off must be green
    sc = aux.scanner
    if sc.on or not (sc.sx and sc.sy):
        return
    for t, end in enumerate(aux.tau, 1):
        if end is not None and end < sc.t_off and aux.kappa[t - 1] != Color.GREEN:
            rep.append(Violation(
                "first-forwarding",
                f"{t} terminated at {end} before t_off {sc.t_off} but is "
                f"{aux.kappa[t - 1]}",
            ))


def view_key(aux: AuxState) -> tuple:
    """What the edge checks and the memory part read of an auxiliary part:
    its history's key (:func:`history_key`) and the scanner's ``on``,
    ``sx`` and ``sy``.  Parts that differ only in writer phases or
    ``t_off`` have one view, and one verdict of each of those checks."""
    sc = aux.scanner
    return history_key(aux), sc.on, sc.sx, sc.sy


def cells_key(phys: "PhysState") -> tuple:
    """What the memory part reads of a physical part: the two pointers and
    the two forwarding cells, not the locks or the scanner bit."""
    return phys.x, phys.y, phys.fx, phys.fy


def malformed(verdict) -> bool:
    """Whether a part's verdict reports a ``wellformed`` violation, which
    each part puts first: it skips every other state invariant."""
    return bool(verdict) and verdict[0].name == "wellformed"


def check_history(aux: AuxState) -> list[Violation]:
    """The history part of the state checks: the history clauses of
    well-formedness, and where they hold overlap, colors and terminated
    events; then order sanity and the chain lemma.  It reads only the
    fields of :func:`history_key`, so it has one verdict per history."""
    rep = []
    _check_wellformed(aux, rep)
    if not rep:
        _check_overlap(aux, rep)
        _check_colors(aux, rep)
        _check_terminated(aux, rep)
    return rep + check_omega_properties(aux) + check_chain_lemma(aux)


def check_phases(aux: AuxState) -> list[Violation]:
    """The phase part, on an auxiliary part with a well-formed history: the
    writer clause of well-formedness, and where it holds joint history,
    red zone and first forwarding."""
    rep = []
    _check_writers(aux, rep)
    if not rep:
        _check_joint_history(aux, rep)
        _check_red_zone(aux, rep)
        _check_first_forwarding(aux, rep)
    return rep


def check_memory(phys: "PhysState", aux: AuxState) -> list[Violation]:
    """The memory part, on a well-formed state: last write and forwarded
    values, the invariants that read physical memory.  It reads only the
    cells (:func:`cells_key`) and the view (:func:`view_key`)."""
    rep = []
    _check_last_write(phys, aux, rep)
    _check_forwarded(phys, aux, rep)
    return rep


def check_state(phys: "PhysState", aux: AuxState) -> list[Violation]:
    """Every state-space invariant on one state: :func:`check_all` without
    order sanity and the chain lemma."""
    rep = []
    _check_wellformed(aux, rep)
    _check_writers(aux, rep)
    if rep:
        return rep
    _check_overlap(aux, rep)
    _check_colors(aux, rep)
    _check_terminated(aux, rep)
    return rep + check_phases(aux) + check_memory(phys, aux)


# ---------------------------------------------------------------------------
# two-state transition invariants


def check_transition(pre: AuxState, post: AuxState) -> list[Violation]:
    """Monotonicity across one transition: histories, the stable order and
    the scanned set only grow, and scanned ideals never change.  A
    transition that leaves the history as it was (:func:`history_key`),
    changing only writer or scanner phases, passes by reflexivity."""
    rep = []
    if history_key(pre) == history_key(post):
        return rep
    n, m = pre.max_ts(), post.max_ts()
    for t in range(1, n + 1):
        if t > m or post.ptr[t - 1] != pre.ptr[t - 1] or post.val[t - 1] != pre.val[t - 1]:
            rep.append(Violation("hist-mono", f"event {t} lost or rewritten"))
            return rep
    for tid, mask in pre.self_masks:
        if mask & ~self_mask(post, tid):
            rep.append(Violation("hist-mono", f"self history of {tid} shrank"))
    tids = {tid for tid, _ in pre.self_masks} | {tid for tid, _ in post.self_masks}
    for tid in tids:
        if other_mask(pre, tid) & ~other_mask(post, tid):
            rep.append(Violation("hist-mono", f"other history of {tid} shrank"))
    # the environment of a thread with no finished events: every finished event
    if other_mask(pre, None) & ~other_mask(post, None):
        rep.append(Violation(
            "hist-mono",
            "other history of a thread without finished events shrank",
        ))
    pre_masks = _ideal_masks(pre)
    post_masks = _ideal_masks(post)
    for t, mask in pre_masks.items():
        if mask & ~post_masks[t]:
            rep.append(Violation("omega-mono", f"stable-order pairs below {t} lost"))
    pre_sc = scanned_mask(pre)
    if pre_sc & ~scanned_mask(post):
        rep.append(Violation("scanned-mono", "scanned shrank"))
    else:
        pre_evals, post_evals = _evals(pre), _evals(post)
        for s in bits(pre_sc):
            if pre_masks[s] != post_masks[s]:
                rep.append(Violation(
                    "scanned-ideal",
                    f"ideal of scanned {s} changed across the transition",
                ))
            elif pre_evals[s] != post_evals[s]:
                # snapshot preservation: an already-observed snapshot stays
                # valid under every later transition
                rep.append(Violation(
                    "scanned-eval",
                    f"snapshot at scanned {s} changed across the transition",
                ))
    return rep


def _evals(aux: AuxState) -> dict:
    """``eval_at(t, aux.sigma, aux)`` of every t in sigma, None where a
    pointer has no write yet, from one pass over sigma."""
    evals = {}
    ptr, val = aux.ptr, aux.val
    x = y = None
    for s in aux.sigma:
        if ptr[s - 1] == Ptr.X:
            x = val[s - 1]
        else:
            y = val[s - 1]
        # eval_at stops at the first occurrence of its timestamp
        evals.setdefault(s, None if x is None or y is None else (x, y))
    return evals


# ---------------------------------------------------------------------------
# method postconditions (checked at return against the invocation mask)


def check_write_fresh(pre: AuxState, t: Timestamp) -> list[Violation]:
    """write's freshness clause, checked on the step that allocates t: t
    lies outside the pre-state's history domain, which contains the
    invocation-time domain because histories only grow (``hist-mono``)."""
    rep = []
    if 1 <= t <= pre.max_ts():
        rep.append(Violation("write-post", f"timestamp {t} is not fresh wrt the invocation state"))
    return rep


def check_write_post(
    mask: int,
    ret: AuxState,
    t: Timestamp,
    tid: Tid,
    p: str,
    v: Value,
) -> list[Violation]:
    """write's postcondition: the event t -> (p, v) exists, is now owned by
    tid, and every event of the invocation mask (prior-terminated or
    already scanned) is strictly below t in the stable order."""
    rep = []
    if not 1 <= t <= ret.max_ts() or ret.ptr[t - 1] != p or ret.val[t - 1] != v:
        rep.append(Violation("write-post", f"no event {t} -> ({p},{v}) in the return state"))
        return rep
    if not (self_mask(ret, tid) >> t) & 1:
        rep.append(Violation("write-post", f"event {t} not owned by {tid} at return"))
    strictly_below = _ideal_masks(ret)[t] & ~(1 << t)
    for s in bits(mask & ~strictly_below):
        rep.append(Violation(
            "write-post",
            f"pre-invocation event {s} is not strictly below the write {t}",
        ))
    return rep


def check_scan_post(
    mask: int,
    ret: AuxState,
    r: tuple[Value, Value],
    witness: Timestamp,
) -> list[Violation]:
    """scan's postcondition: some timestamp t replays to the returned pair,
    dominates the whole invocation-time history (the invocation mask), and
    is scanned.  The constructive witness must itself qualify."""
    rep = []
    ret_scanned = scanned_mask(ret)
    masks = _ideal_masks(ret)
    evals = _evals(ret)
    good = [
        t
        for t in ret.sigma
        if (ret_scanned >> t) & 1 and not mask & ~masks[t] and evals[t] == r
    ]
    if not good:
        rep.append(Violation("scan-post", f"no witness timestamp validates the snapshot {r}"))
    if witness not in good:
        rep.append(Violation("scan-post", f"constructive witness {witness} does not qualify"))
    return rep


# ---------------------------------------------------------------------------
# lemma-level checks


def check_chain_lemma(aux: AuxState) -> list[Violation]:
    """Every all-green sigma-prefix is exactly the stable-order ideal of its
    last element."""
    rep = []
    masks = _ideal_masks(aux)
    prefix_mask = 0
    for t in aux.sigma:
        if aux.kappa[t - 1] != Color.GREEN:
            break
        prefix_mask |= 1 << t
        if masks[t] != prefix_mask:
            rep.append(Violation(
                "chain",
                f"all-green prefix through {t} differs from its stable ideal",
            ))
    return rep


def check_read_lemma(p: str, value: Value, aux: AuxState) -> list[Violation]:
    """While the scanner is on with p's bit set, a read of p returns the
    value of p's last green or yellow event; outside that guard the lemma
    holds vacuously."""
    rep = []
    sc = aux.scanner
    if not (sc.on and sc.bit(p)):
        return rep
    allowed = {aux.val[t - 1] for t in (last_green(p, aux), yellow_of(p, aux)) if t is not None}
    if value not in allowed:
        rep.append(Violation(
            "read-value",
            f"scan read {p}={value}, not a last-green/yellow value {sorted(allowed)}",
        ))
    return rep


def check_relink_post(
    aux: AuxState, t_x: Timestamp, t_y: Timestamp
) -> list[Violation]:
    """relink's guarantee: each chosen event is now the sigma-last green of
    its pointer, and everything up to the later of the two is green."""
    rep = []
    for p, t in ((Ptr.X, t_x), (Ptr.Y, t_y)):
        if last_green(p, aux) != t:
            rep.append(Violation("relink-post", f"{t} is not the last green of {p} after relink"))
    pos = _positions(aux.sigma)
    top = t_x if pos[t_x] >= pos[t_y] else t_y
    for s in aux.sigma[: pos[top] + 1]:
        if aux.kappa[s - 1] != Color.GREEN:
            rep.append(Violation(
                "relink-post",
                f"{s} below {top} is {aux.kappa[s - 1]}, not green",
            ))
    return rep


def check_omega_properties(aux: AuxState) -> list[Violation]:
    """Order sanity on one state: the stable order is reflexive,
    antisymmetric and transitive, and scanned is linear and downward
    closed under it."""
    rep = []
    dom = aux.sigma
    masks = _ideal_masks(aux)
    for t in dom:
        if not (masks[t] >> t) & 1:
            rep.append(Violation("omega-reflexive", f"{t} not related to itself"))
    for i, a in enumerate(dom):
        for b in dom[i + 1 :]:
            if (masks[b] >> a) & 1 and (masks[a] >> b) & 1:
                rep.append(Violation("omega-antisymmetric", f"{a} and {b} related both ways"))
    for t in dom:
        below = 0
        ideal = masks[t]
        for s in dom:
            if (ideal >> s) & 1:
                below |= masks[s]
        if below & ~masks[t]:
            rep.append(Violation(
                "omega-transitive",
                f"elements below {t}'s predecessors are not all below {t}",
            ))
    sc_mask = scanned_mask(aux)
    sc = list(bits(sc_mask))
    for a in sc:
        for b in sc:
            if not ((masks[b] >> a) & 1 or (masks[a] >> b) & 1):
                rep.append(Violation("scanned-linear", f"scanned {a}, {b} are incomparable"))
    for b in sc:
        if masks[b] & ~sc_mask:
            rep.append(Violation("scanned-downward", f"non-scanned events below scanned {b}"))
    return rep


def check_aux(aux: AuxState, history) -> tuple[list[Violation], bool]:
    """The history part's verdict ``history`` on ``aux`` and the phase
    part's, and whether the memory part runs: a ``wellformed`` violation
    skips every other state invariant (:func:`check_state`) but order
    sanity and the chain lemma, which run on every state."""
    if malformed(history):
        rep = list(history)
        _check_writers(aux, rep)
        return rep, False
    phases = check_phases(aux)
    if malformed(phases):
        return check_omega_properties(aux) + check_chain_lemma(aux) + phases, False
    return [*history, *phases], True


def check_all(phys: "PhysState", aux: AuxState) -> list[Violation]:
    """Every state check on one state: :func:`check_aux` on the history
    part's verdict, then the memory part where it runs."""
    rep, memory = check_aux(aux, check_history(aux))
    return rep + check_memory(phys, aux) if memory else rep
