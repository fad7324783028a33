"""Client programs and schedulers.

``explore`` walks every reachable state of a program (depth-first over
distinct states, so commuting interleavings are explored once), running the
full invariant battery after every atomic step, the method postconditions at
every return, and the brute-force oracle on one representative execution per
distinct terminal state.  A step is three effects, each on one part and
reading only its own arguments (``snapshot.phys_effect``, ``aux_effect``
and ``frame_effect``), and the checks of its edge read only the two
auxiliary parts and what ``_Checker._check_edge`` is handed.  The state
checks come in three parts, by what they read: the history part only the
auxiliary history (events, colors, end times, ownership and the logical
order, which the writer and scanner phase toggles leave as it is), the
phase part the auxiliary part, and the memory part the physical and
auxiliary parts.  So each part runs once per run on each distinct thing it
reads: history, auxiliary part or (physical, auxiliary) pair.  ``explore``
replays each distinct half step from its own tables wherever it recurs,
walking the ids of a state's parts, and composes one that they miss from
a table per function, keyed by that function's arguments, calling only
the functions whose tables miss.  ``run_schedule`` deterministically
replays an explicit schedule into a full trace, and ``run_random`` drives
seeded random executions; both run one loop whose chooser follows the
schedule or draws from the seeded RNG, and take every step afresh through
``apply_step``, the composition of the effects (one path repeats few half
steps), carrying the run as its parts and entries, with no state object.
Every scheduler reaches its :class:`_Checker` through ``start``,
``on_state``, ``absorb``, ``finish`` and ``report``, interns the parts it
makes with ``_canon`` and checks its edges with ``_check_edge``.

A :class:`State` is the machine state only, and a thread's entry in it
is its frame: the frame of the call it runs, between calls its next
call's at ``pc == 0``, and None once its calls are done.  Every scheduler
keeps the run that reached it as a trail, one item per step taken
(``explore`` pops it on return), from which :meth:`_Checker.finish`
folds the run's record.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import count

from . import invariants, oracle, snapshot
from .aux_model import (
    AuxState,
    Ptr,
    Tid,
    Timestamp,
    Value,
    aux_key,
    evolve,
    history_key,
    memo,
    validate_value,
)
from .errors import (
    BudgetExceededError,
    GuardViolationError,
    ScheduleError,
    TraceParseError,
    ValueDomainError,
)
from .invariants import Violation
from .oracle import MethodRecord
from .snapshot import (
    MethodCall,
    MethodFrame,
    PhysState,
    Step,
    apply_step,
    aux_digest,
    aux_effect,
    effect_args,
    frame_effect,
    init,
    make_frame,
    observed,
    phys_digest,
    phys_effect,
    phys_key,
    step_enabled,
)

DEFAULT_MAX_STATES = 4_000_000


@dataclass(frozen=True)
class Program:
    """A finite client: each thread, declared once, with its call list, and
    the initial values, which are in the value range.

    Two threads may target the same pointer; the per-pointer writer locks
    serialize them at run time (the single-writer discipline is dynamic,
    not syntactic).
    """

    name: str
    threads: tuple[tuple[Tid, tuple[MethodCall, ...]], ...]
    init_x: Value = 5
    init_y: Value = 0

    def __post_init__(self):
        tids = [tid for tid, _ in self.threads]
        if len(set(tids)) != len(tids):
            raise ValueError(f"program {self.name} declares a thread twice: {tids}")
        validate_value(self.init_x)
        validate_value(self.init_y)

    def calls_of(self, tid: Tid) -> tuple[MethodCall, ...]:
        for t, calls in self.threads:
            if t == tid:
                return calls
        raise KeyError(tid)


@dataclass(frozen=True)
class State:
    """A machine state: the physical part, the auxiliary part and each
    thread's entry, its frame (between calls the next call's, before its
    first step), or None once its calls are done.  It is records of
    primitives all the way down, and each record's fields are its key
    (``phys_key``, ``aux_key``, ``frame_key``), so two states are equal
    exactly when their keys are."""

    phys: PhysState
    aux: AuxState
    threads: tuple[tuple[Tid, MethodFrame | None], ...]  # sorted by tid

    def index(self, tid: Tid) -> int:
        for i, (t, _) in enumerate(self.threads):
            if t == tid:
                return i
        raise KeyError(tid)


@dataclass(frozen=True)
class StepRecord:
    index: int
    tid: Tid
    label: str
    phys_digest: str
    aux_digest: str


@dataclass(frozen=True)
class Trace:
    """The record of one completed run of ``program``, as trace files carry
    it and the oracle reads it, folded from the run's trail by
    :meth:`_Checker.finish`.  The records ``explore`` keeps have no steps
    and no violations: explore checks each distinct state once, however
    many runs pass through it, so its violations live on the report."""

    program: Program
    schedule: tuple[Tid, ...]
    steps: tuple[StepRecord, ...]
    methods: tuple[MethodRecord, ...]
    final_sigma: tuple[Timestamp, ...]
    final_sigma_values: tuple[Value, ...]
    final_kappa: tuple[tuple[Timestamp, str], ...]
    phys_digest: str
    aux_digest: str
    violations: tuple[str, ...]


@dataclass
class ExplorationReport:
    """Outcome of ``explore`` or ``run_random``.  In random mode ``states``
    is None (runs are not merged into a state graph), ``edges`` counts every
    step taken and ``schedules`` the runs."""

    program: str
    mode: str
    states: int | None
    edges: int
    schedules: int
    seed: int | None
    scan_results: frozenset[tuple[Value, Value]]
    violations: list[Violation]
    executions: list[Trace]
    executions_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"program: {self.program}",
            f"mode: {self.mode}",
        ]
        if self.mode == "random":
            lines += [f"seed: {self.seed}", f"runs: {self.schedules}", f"steps: {self.edges}"]
        else:
            lines += [f"states: {self.states}", f"edges: {self.edges}"]
        lines += [
            f"schedules: {self.schedules}",
            f"executions checked: {self.executions_checked}",
            "scan results: " + " ".join(f"({x},{y})" for x, y in sorted(self.scan_results)),
            f"violations: {len(self.violations) if self.violations else 'none'}",
        ]
        lines += [v.render() for v in self.violations]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# machine driving


def initial_state(prog: Program) -> State:
    """The state before ``prog``'s first step; ``Program`` checks ``prog``."""
    phys, aux = init(prog.init_x, prog.init_y)
    threads = sorted(prog.threads)  # by tid alone: the tids are unique
    frames = ((tid, make_frame(tid, 0, calls[0]) if calls else None) for tid, calls in threads)
    return State(phys, aux, tuple(frames))


def enabled_tids(prog: Program, state: State) -> list[Tid]:
    """Threads with an enabled next step, in canonical (sorted) order."""
    phys = state.phys
    return [tid for tid, frame in state.threads if step_enabled(frame, phys)]


def _entry_after(prog: Program, frame: MethodFrame) -> MethodFrame | None:
    """The thread's frame once a step left ``frame``: the same frame, or at
    the end of a call the next call's (None once its calls are done)."""
    if frame.pc < len(frame.steps):
        return frame
    tid, nxt = frame.tid, frame.call_idx + 1
    calls = prog.calls_of(tid)
    return make_frame(tid, nxt, calls[nxt]) if nxt < len(calls) else None


def step_state(prog: Program, state: State, tid: Tid) -> tuple[State, MethodFrame]:
    """Apply tid's next atomic step, by ``apply_step``: the post-state and
    the frame that took the step."""
    i = state.index(tid)
    before = state.threads[i][1]
    phys, aux, frame, _, _ = apply_step(before.current_step(), state.phys, state.aux, before)
    after = (tid, _entry_after(prog, frame))
    return State(phys, aux, state.threads[:i] + (after,) + state.threads[i + 1 :]), before


def _witness(fr: MethodFrame, aux: AuxState) -> Timestamp:
    """A returning scan's witness: the later in sigma of its two
    per-pointer events."""
    wx, wy = fr.witness_x, fr.witness_y
    return wx if aux.sigma.index(wx) >= aux.sigma.index(wy) else wy


def _method_record(fr: MethodFrame, aux: AuxState, invocation: int, response: int) -> MethodRecord:
    if fr.call.kind == "write":
        return MethodRecord(fr.tid, fr.call, None, invocation, response, t=fr.t)
    return MethodRecord(
        fr.tid,
        fr.call,
        fr.result,
        invocation,
        response,
        witness=_witness(fr, aux),
        witness_x=fr.witness_x,
        witness_y=fr.witness_y,
    )


# A frame's key: its fields as they are, the call flattened; primitives only.
frame_key = operator.attrgetter(
    "tid", "call_idx", "call.kind", "call.p", "call.v", "pc", "t", "vx", "vy", "ox", "oy",
    "witness_x", "witness_y", "result", "mask",
)


def _returns(after: MethodFrame | None) -> bool:
    """Whether the step that left a thread holding ``after`` returned its
    call: a call returns on the step before its lock release."""
    return after is not None and after.current_step().kind == "release"


def _returned(before: MethodFrame, after: MethodFrame | None):
    """What the postcondition of the call that the step of ``before`` to
    ``after`` returned reads besides the auxiliary part (None where it
    returned none): the invocation mask and the frame the call returns
    with, which holds no local that the postcondition does not read."""
    return (before.mask, after) if _returns(after) else None


# The check of its own that the edge of a step of each kind adds, beside
# the transition check and a returning call's postcondition, from the
# step, the two auxiliary parts, the value read and the auxiliary outputs.
_EDGE_CHECKS = {
    "register": lambda step, pre, post, value, out: invariants.check_write_fresh(pre, *out),
    "read": lambda step, pre, post, value, out: invariants.check_read_lemma(step.ptr, value, post),
    "relink": lambda step, pre, post, value, out: invariants.check_relink_post(post, *out),
}

# The kinds of step whose half step is the same under every auxiliary
# part: they have no auxiliary effect (``snapshot.AUX_BLIND``) and no
# edge check of their own (a read's lemma reads the part).  ``explore``
# files their half steps by entry and physical part alone.
_FILED_WHOLE = snapshot.AUX_BLIND - _EDGE_CHECKS.keys()


# Bits of each id below the aux id in a packed key (see state_key).
_ID_BITS = 10


def state_key(pid: int, aid: int, eids: tuple[int, ...]):
    """The key of the state whose parts have the ids ``pid``, ``aid`` and
    ``eids`` in one explore, as one int: the aux id unbounded on top (the
    auxiliary parts are the most numerous), the phys id and each entry id a
    ``_ID_BITS``-bit digit below it.  Where an id overflows its digit, the
    tuple of ids stands in, so that the key is injective at any size (no
    int equals a tuple).  An int of up to 60 bits takes 32 bytes, against
    80 for a tuple of five small ints, and the visited set holds one key
    per state.  ``explore`` derives an int key from its parent's where it
    can, equal to this one bit for bit."""
    key = aid
    for i in (pid, *eids):
        if i >> _ID_BITS:
            return (aid, pid, *eids)
        key = key << _ID_BITS | i
    return key


def _id(part) -> int:
    """The id that a checker gave the canonical ``part``."""
    return part._memo["id"]


def _digest(part, digest) -> str:
    """``digest(part)`` of a canonical part, kept in its memo: each
    distinct part is digested once per checker."""
    m = part._memo
    found = m.get("digest")
    if found is None:
        found = m["digest"] = digest(part)
    return found


# ---------------------------------------------------------------------------
# the per-step / per-return check battery


class _Checker:
    """What the schedulers share, and only that: it starts each run
    (:meth:`start`), interns the parts that a step makes (:meth:`_canon`),
    checks states (:meth:`on_state`) and edges (:meth:`_check_edge`, on
    every step of the drive loop and where ``explore``'s verdict table
    misses), and accumulates their verdicts (violations, scan results, runs
    the oracle checked).  At the end of each run it folds the run's record
    from the scheduler's trail (:meth:`finish`); no other code derives one.

    The checker hash-conses the parts its check tables key on: equal
    physical parts and equal auxiliary parts of its runs' states become one
    canonical object each, numbered per kind in order of first sight (the
    id, kept in the object's memo; the kind's list maps it back).  Every
    part it interns is made by stepping from its own initial state.  The
    tables map keys to verdicts, each check's by what it reads:
    ``check_history``'s by the history's key (``history_key``),
    ``check_phases``'s by aux id, ``check_memory``'s, with the two others',
    by phys id and aux id, and ``check_transition``'s by aux id and post
    aux id.  An edge that leaves the auxiliary part as it was passes
    ``check_transition`` by reflexivity and is not looked up.
    """

    def __init__(self, prog: Program):
        # every scheduler makes one checker before its first step, and the
        # oracle reads the two initializing writes too
        oracle.check_size(2 + sum(len(calls) for _, calls in prog.threads))
        self.prog = prog
        self.tids = tuple(sorted(tid for tid, _ in prog.threads))
        self.violations: list[Violation] = []
        self.scan_results: set[tuple[Value, Value]] = set()
        self.executions_checked = 0
        # the two kinds' keys are tuples of different lengths, so they
        # share one table; each kind numbers its own parts
        self._canonical: dict[tuple, object] = {}
        self.phys: list[PhysState] = []
        self.aux: list[AuxState] = []
        self._history_checks: dict[tuple, tuple] = {}
        self._phase_checks: dict[int, tuple | bool] = {}
        self._state_checks: defaultdict[int, dict] = defaultdict(dict)
        self._transition_checks: defaultdict[int, dict] = defaultdict(dict)

    def start(self) -> tuple[PhysState, AuxState, list[MethodFrame | None]]:
        """The parts of the program's initial state, the physical and
        auxiliary part interned, and each thread's frame in tid order."""
        state = initial_state(self.prog)
        phys = self._canon(state.phys, self.phys, phys_key)
        return phys, self._canon(state.aux, self.aux, aux_key), [f for _, f in state.threads]

    def _canon(self, part, parts: list, key):
        # Every part interned here descends from this checker's initial
        # state, and evolve drops the memo, so an id in a memo is its own.
        m = memo(part)
        if "id" in m:
            return part
        k = key(part)
        canon = self._canonical.get(k)
        if canon is None:
            canon = self._canonical[k] = part
            m["id"] = len(parts)
            parts.append(part)
        return canon

    def _check_edge(
        self, pre: AuxState, post: AuxState, step: Step, value, outputs: tuple, returned
    ) -> tuple[Violation, ...]:
        """The violations, in order, of every check of the edge of ``step``
        from the auxiliary part ``pre`` to ``post``, on which the step read
        ``value`` and its auxiliary effect gave ``outputs``, and which
        returned the call ``returned`` names (see ``_returned``); no check
        reads a physical part.  A returning scan also adds its result to
        the scan results."""
        found = []
        if pre is not post:  # an unchanged part passes by reflexivity
            transitions = self._transition_checks[_id(pre)]
            post_aid = _id(post)
            verdict = transitions.get(post_aid)
            if verdict is None:
                verdict = transitions[post_aid] = tuple(invariants.check_transition(pre, post))
            found += verdict
        own = _EDGE_CHECKS.get(step.kind)
        if own is not None:
            found += own(step, pre, post, value, outputs)
        if returned is not None:
            mask, fr = returned
            call = fr.call
            if call.kind == "write":
                found += invariants.check_write_post(mask, post, fr.t, fr.tid, call.p, call.v)
            else:
                self.scan_results.add(fr.result)
                found += invariants.check_scan_post(mask, post, fr.result, _witness(fr, post))
        # the tables keep verdicts as tuples: an empty one takes no memory
        return tuple(found)

    def absorb(self, violations, idx: int) -> None:
        """Record copies of ``violations`` stamped with step ``idx``, so
        that no cached verdict is handed out."""
        for v in violations:
            self.violations.append(Violation(v.name, v.detail, idx))

    def on_state(self, pid: int, aid: int, idx: int) -> None:
        """Record the violations of the state whose physical and auxiliary
        parts have the ids ``pid`` and ``aid``, stamped ``idx`` (-1
        initially)."""
        checks = self._state_checks[pid]
        found = checks.get(aid)
        if found is None:
            found = checks[aid] = self._check_state(self.phys[pid], aid)
        if found:
            self.absorb(found, idx)

    def _check_state(self, phys: PhysState, aid: int) -> tuple[Violation, ...]:
        """``check_all``'s verdict on ``phys`` and the auxiliary part of id
        ``aid``, composed of its parts' verdicts: the history part's once
        per history, the phase part's once per auxiliary part and the
        memory part's, here, once per pair.  Where a ``wellformed`` clause
        fails, ``check_all`` itself decides which checks run."""
        aux = self.aux[aid]
        found = self._phase_checks.get(aid)
        if found is None:
            found = self._phase_checks[aid] = self._check_aux(aux)
        if found is False:
            return tuple(invariants.check_all(phys, aux))
        return found + tuple(invariants.check_memory(phys, aux))

    def _check_aux(self, aux: AuxState) -> tuple[Violation, ...] | bool:
        """The history and phase parts' verdicts on ``aux``, or False where
        either reports a malformed state."""
        key = history_key(aux)
        history = self._history_checks.get(key)
        if history is None:
            history = self._history_checks[key] = tuple(invariants.check_history(aux))
        if invariants.malformed(history):
            return False
        phases = tuple(invariants.check_phases(aux))
        return False if invariants.malformed(phases) else history + phases

    def finish(self, phys: PhysState, aux: AuxState, trail, steps=()) -> Trace:
        """Build the record of the completed run that ended in the parts
        ``phys`` and ``aux``, and check it with both oracle routes.  The
        run is its ``trail``, one ``(thread index, frame before, frame
        after, auxiliary part after)`` per step, and the record is folded
        from it: a call is invoked on the step whose frame before is at
        ``pc == 0``, and returns where ``_returns`` holds of the frame
        after.
        Oracle failures join the checker's violations; the record's own
        violation list is left empty."""
        prog, tids = self.prog, self.tids
        invocations: list[int | None] = [None] * len(tids)
        methods = []
        for idx, (i, before, after, aux_after) in enumerate(trail):
            if before.pc == 0:
                invocations[i] = idx
            if _returns(after):
                methods.append(_method_record(after, aux_after, invocations[i], idx))
        trace = Trace(
            program=prog,
            schedule=tuple(tids[i] for i, *_ in trail),
            steps=tuple(steps),
            methods=tuple(methods),
            final_sigma=aux.sigma,
            final_sigma_values=tuple(aux.val[t - 1] for t in aux.sigma),
            final_kappa=tuple(enumerate(aux.kappa, 1)),
            phys_digest=_digest(phys, phys_digest),
            aux_digest=_digest(aux, aux_digest),
            violations=(),
        )
        self.executions_checked += 1
        idx = len(trail)
        if not oracle.validate_witness(trace):
            self.violations.append(
                Violation("oracle-witness", f"witness order rejected for {trace.schedule}", idx)
            )
        if oracle.linearizable(oracle.ops_from_trace(trace)) is None:
            self.violations.append(
                Violation(
                    "oracle-linearizable",
                    f"no linearization witness for {trace.schedule}",
                    idx,
                )
            )
        return trace

    def report(self, mode: str, states, edges, schedules, seed=None, executions=()):
        """The report of every run this checker was shown."""
        return ExplorationReport(
            program=self.prog.name,
            mode=mode,
            states=states,
            edges=edges,
            schedules=schedules,
            seed=seed,
            scan_results=frozenset(self.scan_results),
            violations=self.violations,
            executions=list(executions),
            executions_checked=self.executions_checked,
        )


# ---------------------------------------------------------------------------
# schedulers


def explore(prog: Program, max_states: int = DEFAULT_MAX_STATES) -> ExplorationReport:
    """Exhaustively explore every reachable state of the program.

    Distinct states are visited once; the schedule count is the exact number
    of maximal interleavings, computed over the state graph.  One run record
    is kept per distinct terminal state, for the path that first reached
    it.  Raises :class:`BudgetExceededError` when more than ``max_states``
    distinct states are reached, and :class:`OracleSizeError` before the
    first step when the program has too many calls for the oracle.

    The walk steps through its own tables of half steps, by the ids of a
    state's parts: the checker's for the physical and auxiliary parts, and
    its own for the threads' entries, which key nothing else: a frame by
    ``frame_key``, and a thread whose calls are done by its tid.  Where a
    table misses, ``fill`` composes the half step from a part table per
    function (the step's three effects and ``_Checker._check_edge``), each
    keyed by exactly the arguments its function takes, parts by id, and
    calls a function only where its own table misses.  A composed
    returning scan adds no scan result: its result is in the verdict's
    key, so the check that filed the verdict added it.  A step of a kind in
    ``_FILED_WHOLE`` has one outcome under every auxiliary part, so it is
    filed whole by (entry id, phys id), and checked where it is filed to
    fail no edge check (:class:`GuardViolationError` otherwise).  A successor's key is
    ``state_key`` of its ids, derived from its parent's key by swapping in
    the ids that a step can change (aux, phys and the stepping thread's
    entry); ``state_key`` itself makes only the first key and those where
    an id outgrows its digit.
    """
    checker = _Checker(prog)
    phys0, aux0, frames0 = checker.start()
    pid0, aid0 = _id(phys0), _id(aux0)
    checker.on_state(pid0, aid0, -1)
    phys, aux, tids = checker.phys, checker.aux, checker.tids
    # one entry per id, a thread's frame or None, numbered in order of first
    # sight by ``frame_key``, a done thread by its tid
    entries: list[MethodFrame | None] = []
    entry_ids: dict[tuple | Tid, int] = {}
    # The physical half of a step, by entry id and phys id: the post phys id
    # and the table of the auxiliary halves of the steps that read the same
    # value (``observed``) under the entry; False where it has no step
    # enabled.  A step filed whole (``_FILED_WHOLE``) is whole here: the
    # post phys id and the post entry id, an int where the others have
    # their table.
    phys_steps: defaultdict[int, dict] = defaultdict(dict)
    # Those tables, by (entry id, value read), each by aux id: the post aux
    # id, the post entry id and the edge's violations.  An entry fixes the
    # type of what it reads, so the check step's bool never meets an int.
    aux_steps: defaultdict[tuple, dict] = defaultdict(dict)
    # The part tables, where a miss above is composed, each keyed by its
    # function's arguments: (label, argument, phys id) gives the post phys
    # id, (label, argument, aux id) the post aux id and the outputs,
    # (entry id, value, outputs) the post entry id, and (label, value,
    # outputs, returned, aux id, post aux id) the edge's violations.  A
    # label names its step and fixes the types of the rest.
    phys_parts: dict[tuple, int] = {}
    aux_parts: dict[tuple, tuple] = {}
    frame_parts: dict[tuple, int] = {}
    verdicts: dict[tuple, tuple] = {}
    visited: dict[int | tuple, int] = {}
    trail: list[tuple] = []
    executions: list[Trace] = []
    edges = 0
    # state_key's digits: a successor of a parent keyed by an int, whose new
    # ids fit their digits, has the parent's key with three digits swapped.
    # Swapped by XOR: CPython sizes a sum for a carry and keeps that size, so
    # a key made by addition would take 8 bytes more in the visited set.
    limit = 1 << _ID_BITS
    n = len(tids)
    aux_shift, phys_shift = (n + 1) * _ID_BITS, n * _ID_BITS
    entry_shifts = [(n - 1 - i) * _ID_BITS for i in range(n)]

    def number(tid: Tid, frame: MethodFrame | None) -> int:
        eid = entry_ids.setdefault(tid if frame is None else frame_key(frame), len(entries))
        if eid == len(entries):
            entries.append(frame)
        return eid

    def fill(pid: int, aid: int, eids: tuple[int, ...], i: int):
        """File the step of thread ``i`` from the state of ids ``pid``,
        ``aid``, ``eids`` and return its physical half, False where it is
        disabled."""
        eid, pre = eids[i], phys[pid]
        frame = entries[eid]
        if not step_enabled(frame, pre):
            phys_steps[eid][pid] = False
            return False
        step = frame.current_step()
        label = step.label
        value = observed(step, pre)
        phys_arg, aux_args = effect_args(step, frame, value)
        key = (label, phys_arg, pid)
        post_pid = phys_parts.get(key)
        if post_pid is None:
            post = checker._canon(phys_effect(step, phys_arg, pre), phys, phys_key)
            post_pid = phys_parts[key] = _id(post)
        whole = step.kind in _FILED_WHOLE
        if whole:
            post_aid, outputs = aid, ()
        else:
            key = (label, aux_args, aid)
            transition = aux_parts.get(key)
            if transition is None:
                post, outputs = aux_effect(step, aux_args, aux[aid])
                transition = aux_parts[key] = (_id(checker._canon(post, aux, aux_key)), outputs)
            post_aid, outputs = transition
        key = (eid, value, outputs)
        post_eid = frame_parts.get(key)
        if post_eid is None:
            after = _entry_after(prog, frame_effect(frame, value, outputs))
            post_eid = frame_parts[key] = number(tids[i], after)
        returned = _returned(frame, entries[post_eid])
        key = (label, value, outputs, returned, aid, post_aid)
        found = verdicts.get(key)
        if found is None:
            found = checker._check_edge(aux[aid], aux[post_aid], step, value, outputs, returned)
            verdicts[key] = found
        if whole:
            if found:
                raise GuardViolationError(f"a {step.kind} step filed whole failed an edge check")
            phys_steps[eid][pid] = phys_half = (post_pid, post_eid)
            return phys_half
        halves = aux_steps[eid, value]
        halves[aid] = (post_aid, post_eid, found)
        phys_steps[eid][pid] = phys_half = (post_pid, halves)
        return phys_half

    def dfs(pid: int, aid: int, eids: tuple[int, ...], key: int | tuple) -> int:
        nonlocal edges
        if len(visited) >= max_states:
            raise BudgetExceededError(f"state budget {max_states} exceeded")
        visited[key] = 0
        total = 0
        idx = len(trail)
        first = edges
        for i, eid in enumerate(eids):
            phys_half = phys_steps[eid].get(pid)
            if phys_half is None:
                phys_half = fill(pid, aid, eids, i)
            if phys_half is False:
                continue
            post_pid, halves = phys_half
            if halves.__class__ is int:  # aux-blind: the aux id carries through
                post_aid, post_eid, found = aid, halves, ()
            else:
                aux_half = halves.get(aid)
                if aux_half is None:
                    fill(pid, aid, eids, i)
                    aux_half = halves[aid]
                post_aid, post_eid, found = aux_half
            edges += 1
            if key.__class__ is int and post_pid < limit and post_eid < limit:
                pkey = (
                    key
                    ^ ((post_aid ^ aid) << aux_shift)
                    ^ ((post_pid ^ pid) << phys_shift)
                    ^ ((post_eid ^ eid) << entry_shifts[i])
                )
            else:
                pkey = state_key(post_pid, post_aid, eids[:i] + (post_eid,) + eids[i + 1 :])
            known = visited.get(pkey)
            if known is None:
                checker.on_state(post_pid, post_aid, idx)
            if found:
                checker.absorb(found, idx)
            if known is None:
                trail.append((i, entries[eid], entries[post_eid], aux[post_aid]))
                total += dfs(post_pid, post_aid, eids[:i] + (post_eid,) + eids[i + 1 :], pkey)
                trail.pop()
            else:
                total += known
        if edges == first:  # no thread can step: the run is complete
            executions.append(checker.finish(phys[pid], aux[aid], trail))
            total = 1
        visited[key] = total
        return total

    eids0 = tuple(map(number, tids, frames0))
    schedules = dfs(pid0, aid0, eids0, state_key(pid0, aid0, eids0))
    return checker.report("exhaustive", len(visited), edges, schedules, executions=executions)


def _drive(choose, checker: _Checker, steps: list[StepRecord] | None = None) -> Trace:
    """Run the checker's program from its initial state.  ``choose(idx,
    enabled)`` names the thread that takes step idx, or None to stop; every
    state and edge on the way goes through ``checker``, and the digests of
    every state reached are appended to ``steps`` unless it is None.
    Returns the run's record, as :meth:`_Checker.finish` checks it."""
    prog, tids = checker.prog, checker.tids
    phys, aux, frames = checker.start()
    trail = []
    checker.on_state(_id(phys), _id(aux), -1)
    for idx in count():
        tid = choose(idx, [t for t, f in zip(tids, frames) if step_enabled(f, phys)])
        if tid is None:
            return checker.finish(phys, aux, trail, steps or ())
        i = tids.index(tid)
        before = frames[i]
        step = before.current_step()
        post_phys, post_aux, frame, value, outputs = apply_step(step, phys, aux, before)
        after = frames[i] = _entry_after(prog, frame)
        if post_phys is not phys:
            post_phys = checker._canon(post_phys, checker.phys, phys_key)
        if post_aux is not aux:
            post_aux = checker._canon(post_aux, checker.aux, aux_key)
        checker.on_state(_id(post_phys), _id(post_aux), idx)
        found = checker._check_edge(aux, post_aux, step, value, outputs, _returned(before, after))
        if found:
            checker.absorb(found, idx)
        if steps is not None:
            digests = _digest(post_phys, phys_digest), _digest(post_aux, aux_digest)
            steps.append(StepRecord(idx, tid, step.label, *digests))
        trail.append((i, before, after, post_aux))
        phys, aux = post_phys, post_aux


def _follow(schedule: tuple[Tid, ...]):
    """Chooser that follows a fixed schedule, at whose end the program must
    finish."""

    def choose(idx: int, enabled: list[Tid]) -> Tid | None:
        if idx == len(schedule):
            if enabled:
                raise ScheduleError("schedule ended before the program completed")
            return None
        tid = schedule[idx]
        if tid not in enabled:
            raise ScheduleError(f"step {idx}: thread {tid!r} has no enabled step")
        return tid

    return choose


def run_schedule(prog: Program, schedule) -> Trace:
    """Deterministically replay an explicit schedule into a full trace.

    Raises :class:`ScheduleError` when the schedule picks a thread with no
    enabled step or stops before the program completes, and
    :class:`OracleSizeError` before the first step when the program has
    too many calls for the oracle.
    """
    checker = _Checker(prog)
    trace = _drive(_follow(tuple(schedule)), checker, [])
    return evolve(trace, violations=tuple(v.render() for v in checker.violations))


def run_random(prog: Program, seed: int, runs: int) -> ExplorationReport:
    """Seeded uniformly-random scheduling; identical seed, identical report."""
    rng = random.Random(seed)

    def choose(idx: int, enabled: list[Tid]) -> Tid | None:
        return rng.choice(enabled) if enabled else None

    checker = _Checker(prog)
    total_steps = 0
    for run in range(runs):
        before = len(checker.violations)
        total_steps += len(_drive(choose, checker).schedule)
        for v in checker.violations[before:]:
            v.detail = f"run {run}: {v.detail}"
    return checker.report("random", None, total_steps, runs, seed=seed)


# ---------------------------------------------------------------------------
# bundled clients


def client_fig1() -> Program:
    """Three threads: l writes x then y, c scans, r writes x."""
    return Program(
        "fig1",
        (
            ("l", (MethodCall.write(Ptr.X, 2), MethodCall.write(Ptr.Y, 1))),
            ("c", (MethodCall.scan(),)),
            ("r", (MethodCall.write(Ptr.X, 3),)),
        ),
    )


def client_e() -> Program:
    return evolve(client_fig1(), name="e")


def client_e_prime() -> Program:
    """One thread: scan, then write x; exercises sequential composition."""
    return Program("e-prime", (("t", (MethodCall.scan(), MethodCall.write(Ptr.X, 2))),))


# The bundled scanner-miss interleaving: the scan reads x=5, y=0, both writes
# of l forward their values (2 then 1), r's write of 3 lands between them and
# is missed (it reads the scanner bit after it was unset), so the scan
# returns (2,1) and the missed write is relinked after it.
FIG1_SCHEDULE: tuple[Tid, ...] = (
    # c: acquire, set scanner bit, clear fx, clear fy, read x, read y
    "c", "c", "c", "c", "c", "c",
    # l: full write(x,2) incl. forwarding
    "l", "l", "l", "l", "l", "l",
    # r: acquire wx, register write(x,3)
    "r", "r",
    # l: full write(y,1) incl. forwarding
    "l", "l", "l", "l", "l", "l",
    # c: unset scanner bit
    "c",
    # r: read scanner bit (false), finalize, release
    "r", "r", "r",
    # c: read fx, read fy, relink+return, release
    "c", "c", "c", "c",
)


def _pointer_variants(p: str, vals: tuple[Value, Value], tid: Tid):
    w = MethodCall.write
    return (
        (0, ()),
        (1, ((tid, (w(p, vals[0]),)),)),
        (2, ((tid, (w(p, vals[0]), w(p, vals[1]))),)),
    )


def generated_programs() -> list[Program]:
    """Every program with at most two writes per pointer plus one scan,
    one writer thread per pointer: 9 programs.  Same-pointer lock
    contention is covered by the bundled three-thread clients."""
    out = []
    for kx, xthreads in _pointer_variants(Ptr.X, (2, 3), "a"):
        for ky, ythreads in _pointer_variants(Ptr.Y, (1, 4), "d"):
            threads = xthreads + ythreads + (("s", (MethodCall.scan(),)),)
            out.append(Program(f"gen-x{kx}-y{ky}", threads))
    return out


# ---------------------------------------------------------------------------
# program files


def parse_program(text: str, name: str = "custom") -> Program:
    """Parse a program file: one thread per line (``tid: write x 2; scan``),
    optional leading ``init <vx> <vy>`` line, ``#`` comments.  A file that
    is no valid :class:`Program` raises :class:`TraceParseError`."""
    init = Program(name, ())  # its initial values, checked on their line
    threads: list[tuple[Tid, tuple[MethodCall, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("init") and ":" not in line:
            parts = line.split()
            if len(parts) != 3:
                raise TraceParseError(f"line {lineno}: expected 'init <vx> <vy>'")
            try:
                init = Program(name, (), int(parts[1]), int(parts[2]))
            except (ValueError, ValueDomainError) as exc:
                raise TraceParseError(f"line {lineno}: {exc}") from exc
            continue
        tid, sep, rest = line.partition(":")
        if not sep or not tid.strip():
            raise TraceParseError(f"line {lineno}: expected 'tid: call; call; ...'")
        try:
            calls = tuple(
                MethodCall.parse(part.strip())
                for part in rest.split(";")
                if part.strip()
            )
        except (ValueError, ValueDomainError) as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
        threads.append((tid.strip(), calls))
    try:
        return Program(name, tuple(threads), init.init_x, init.init_y)
    except ValueError as exc:  # a thread declared twice
        raise TraceParseError(str(exc)) from exc
