"""Client programs and schedulers, which compose the steps that
``snapshot`` defines and memoise them; no code here names a step kind.

``explore`` walks every reachable state of a program (depth-first over
distinct states, so commuting interleavings are explored once), running the
full invariant battery after every atomic step, the method postconditions at
every return, and the brute-force oracle on one representative execution per
distinct terminal state.  It replays each distinct half step from its own
tables wherever it recurs, walking the ids of a state's parts.  Every step
is filed one way, a physical half by entry and physical part and an
auxiliary half by auxiliary part, and a half that the tables miss, only
that half, is composed from a table per function (a step's three effects
and its edge checks), keyed by what that function reads, calling only
the functions whose tables miss.  ``run_schedule`` deterministically
replays an explicit schedule into a full trace, and ``run_random`` drives
seeded random executions; both run one loop whose chooser follows the
schedule or draws from the seeded RNG, and take every step afresh through
``apply_step`` (one path repeats few half steps), carrying the run as its
parts and frames, with no state object.

Every scheduler reaches its :class:`_Checker` through ``start``,
``on_state``, ``absorb``, ``finish`` and ``report``, interns the parts it
makes with ``_canon`` and checks each edge with ``snapshot.edge_check``,
which runs every check of an edge, the postcondition of the call a step
returns among them.  The state checks run in three parts, by what they
read (the auxiliary history, the auxiliary part, the physical cells with
the auxiliary view), each once per run on each distinct thing it reads,
malformed or not, composed as ``check_all`` composes them.

A :class:`State` is the machine state only, and a thread's entry in it is
its frame, None once its calls are done.  Every scheduler keeps the run
that reached it as a trail, one item per step taken (``explore`` pops it
on return), from which :meth:`_Checker.finish` folds the run's record.
"""

from __future__ import annotations

import random
import sys
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

from . import aux_model, invariants, oracle, snapshot
# the classes, and aux_key, which perfbench times as a harness attribute
from .aux_model import AuxState, Ptr, Tid, Timestamp, Value, aux_key
from .errors import (
    BudgetExceededError,
    GuardViolationError,
    ScheduleError,
    TraceParseError,
    ValueDomainError,
)
from .invariants import Violation
from .oracle import MethodRecord
# the classes, and the functions perfbench times as harness attributes; the
# rest are read off ``snapshot``, one binding for explore and the drive loop
from .snapshot import (
    MethodCall,
    MethodFrame,
    PhysState,
    apply_step,
    aux_digest,
    make_frame,
    phys_digest,
)

DEFAULT_MAX_STATES = 4_000_000


@dataclass(frozen=True)
class Program:
    """A finite client: each thread, declared once, with its call list, and
    the initial values, which are in the value range.

    Two threads may target the same pointer; the per-pointer writer locks
    serialize them at run time (the single-writer discipline is dynamic,
    not syntactic).  Each tid is interned, so that the digest of a key
    that holds it (``snapshot.digest``) reads its value alone.
    """

    name: str
    threads: tuple[tuple[Tid, tuple[MethodCall, ...]], ...]
    init_x: Value = 5
    init_y: Value = 0

    def __post_init__(self):
        threads = tuple((sys.intern(tid), calls) for tid, calls in self.threads)
        object.__setattr__(self, "threads", threads)
        tids = [tid for tid, _ in threads]
        if len(set(tids)) != len(tids):
            raise ValueError(f"program {self.name} declares a thread twice: {tids}")
        aux_model.validate_value(self.init_x)
        aux_model.validate_value(self.init_y)


@dataclass(frozen=True)
class State:
    """A machine state: the physical part, the auxiliary part and each
    thread's entry, its frame (between calls the next call's, before its
    first step), or None once its calls are done.  It is records of
    primitives all the way down, and each record's fields are its key
    (``phys_key``, ``aux_key``, ``snapshot.frame_key``), so two states are
    equal exactly when their keys are."""

    phys: PhysState
    aux: AuxState
    threads: tuple[tuple[Tid, MethodFrame | None], ...]  # sorted by tid

    def index(self, tid: Tid) -> int:
        for i, (t, _) in enumerate(self.threads):
            if t == tid:
                return i
        raise KeyError(tid)


class StepRecord(NamedTuple):
    """One step of a run as its trace file's step record carries it: the
    step's index in the run, its thread and label, and the digests of the
    physical and auxiliary parts after it."""

    index: int
    tid: Tid
    label: str
    phys_digest: str
    aux_digest: str


@dataclass(frozen=True)
class Trace:
    """The record of one run of ``program`` to where no thread can step,
    as trace files carry it and the oracle reads it, folded from the run's
    trail by :meth:`_Checker.finish`.  The records ``explore`` keeps have
    no steps and no violations: explore checks each distinct state once,
    however many runs pass through it, so its violations live on the
    report."""

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
    phys, aux = snapshot.init(prog.init_x, prog.init_y)
    threads = sorted(prog.threads)  # by tid alone: the tids are unique
    frames = ((tid, make_frame(tid, 0, calls) if calls else None) for tid, calls in threads)
    return State(phys, aux, tuple(frames))


def enabled_tids(prog: Program, state: State) -> list[Tid]:
    """Threads with an enabled next step, in canonical (sorted) order."""
    phys = state.phys
    return [tid for tid, frame in state.threads if snapshot.step_enabled(frame, phys)]


def step_state(prog: Program, state: State, tid: Tid) -> tuple[State, MethodFrame]:
    """Apply tid's next atomic step, by ``apply_step``: the post-state and
    the frame that took the step."""
    i = state.index(tid)
    before = state.threads[i][1]
    phys, aux, after, *_ = apply_step(before.current_step(), state.phys, state.aux, before)
    return State(phys, aux, state.threads[:i] + ((tid, after),) + state.threads[i + 1 :]), before


def _method_record(fr: MethodFrame, aux: AuxState, invocation: int, response: int) -> MethodRecord:
    return MethodRecord(
        fr.tid,
        fr.call,
        fr.result,
        invocation,
        response,
        t=fr.t,
        witness=snapshot.witness(aux, fr.witness_x, fr.witness_y),
        witness_x=fr.witness_x,
        witness_y=fr.witness_y,
    )


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
    """What the schedulers share, and only that: it starts each run and
    checks its first state (:meth:`start`), interns the parts a step makes
    (:meth:`_canon`), checks states (:meth:`on_state`), records the
    violations of states and edges (:meth:`absorb`) and keeps the verdicts
    (violations, scan results, runs the oracle checked).  It folds each
    run's record from its trail (:meth:`finish`), as no other code does.

    The checker hash-conses the parts its check tables key on: equal
    physical parts and equal auxiliary parts of its runs' states become one
    canonical object each, numbered per kind in order of first sight (the
    id, kept in the object's memo; the kind's list maps it back).  Every
    part it interns is made by stepping from its own initial state.  Each
    new auxiliary part's history and view (``invariants.view_key``) are
    numbered too, in order of first sight; ``histories`` and ``views``
    map an aux id to them.  The tables map keys to verdicts, each check's
    by what it reads: ``check_history``'s by history id, ``check_aux``'s
    by aux id, ``check_memory``'s by the physical part's cells
    (``invariants.cells_key``) and the view id, and a state's
    (``check_aux``'s, with ``check_memory``'s where it runs) by phys id and
    aux id.  An edge's checks are ``snapshot.edge_check``'s, which
    ``explore`` memoises in its own verdict table, by the two parts' view
    ids, and the drive loop runs on every step.
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
        self.histories: list[int] = []
        self.views: list[int] = []
        self._history_ids: dict[tuple, int] = {}
        self._view_ids: dict[tuple, int] = {}
        self._history_checks: dict[int, tuple] = {}
        self._aux_checks: dict[int, tuple[tuple, bool]] = {}
        self._memory_checks: dict[tuple, tuple] = {}
        self._state_checks: defaultdict[int, dict] = defaultdict(dict)

    def start(self) -> tuple[PhysState, AuxState, list[MethodFrame | None]]:
        """The parts of the program's initial state, the physical and
        auxiliary part interned, and each thread's frame in tid order; the
        state is checked, stamped -1."""
        state = initial_state(self.prog)
        phys = self._canon(state.phys, self.phys, snapshot.phys_key)
        aux = self._canon(state.aux, self.aux, aux_key)
        self.on_state(_id(phys), _id(aux), -1)
        return phys, aux, [f for _, f in state.threads]

    def _canon(self, part, parts: list, key):
        # Every part interned here descends from this checker's initial
        # state, and evolve drops the memo, so an id in a memo is its own.
        m = aux_model.memo(part)
        if "id" in m:
            return part
        k = key(part)
        canon = self._canonical.get(k)
        if canon is None:
            canon = self._canonical[k] = part
            m["id"] = len(parts)
            parts.append(part)
            if parts is self.aux:
                # the view holds the history's key, so history_key runs once
                view = invariants.view_key(part)
                history = self._history_ids.setdefault(view[0], len(self._history_ids))
                self.histories.append(history)
                self.views.append(self._view_ids.setdefault(view, len(self._view_ids)))
        return canon

    def absorb(self, violations, idx: int) -> None:
        """Record copies of ``violations`` stamped with step ``idx``, so
        that no cached verdict is handed out."""
        for v in violations:
            self.violations.append(Violation(v.name, v.detail, idx))

    def on_state(self, pid: int, aid: int, idx: int) -> None:
        """Record the violations of the state whose physical and auxiliary
        parts have the ids ``pid`` and ``aid``, stamped ``idx``: those of
        ``check_aux``, and of ``check_memory`` where it lets that run."""
        checks = self._state_checks[pid]
        found = checks.get(aid)
        if found is None:
            aux = self.aux[aid]
            verdict = self._aux_checks.get(aid)
            if verdict is None:
                hid = self.histories[aid]
                history = self._history_checks.get(hid)
                if history is None:
                    history = self._history_checks[hid] = tuple(invariants.check_history(aux))
                found, memory = invariants.check_aux(aux, history)
                verdict = self._aux_checks[aid] = (tuple(found), memory)
            found, memory = verdict
            if memory:
                phys = self.phys[pid]
                key = (invariants.cells_key(phys), self.views[aid])
                memory_found = self._memory_checks.get(key)
                if memory_found is None:
                    memory_found = tuple(invariants.check_memory(phys, aux))
                    self._memory_checks[key] = memory_found
                found += memory_found
            checks[aid] = found
        if found:
            self.absorb(found, idx)

    def finish(self, phys: PhysState, aux: AuxState, frames, trail, steps=()) -> Trace:
        """Build the record of the run that ended in the parts ``phys`` and
        ``aux``, where no thread can step, and check it with both oracle
        routes if it completed every call: a thread that still holds a
        frame (``frames``, in tid order) is stuck, and the run is a
        ``deadlock`` violation instead, which the oracle does not check.
        The run is its ``trail``, one ``(thread index, frame before, frame
        after, auxiliary part after)`` per step, and the record is folded
        from it: a call is invoked on the step whose frame before is at
        ``pc == 0``, and returns where ``snapshot.returns`` holds of the
        frame after, a scan with its result, which joins the scan results.
        Oracle failures join the checker's violations; the record's own
        violation list is left empty."""
        prog, tids = self.prog, self.tids
        invocations: list[int | None] = [None] * len(tids)
        methods = []
        for idx, (i, before, after, aux_after) in enumerate(trail):
            if before.pc == 0:
                invocations[i] = idx
            if snapshot.returns(after):
                methods.append(_method_record(after, aux_after, invocations[i], idx))
        self.scan_results.update(m.result for m in methods if m.result is not None)
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
        idx = len(trail)
        stuck = [tid for tid, frame in zip(tids, frames) if frame is not None]
        if stuck:
            detail = f"no thread can step, with calls left in {', '.join(stuck)}"
            self.violations.append(Violation("deadlock", detail, idx))
            return trace
        self.executions_checked += 1
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
    distinct states are reached, :class:`OracleSizeError` before the first
    step when the program has too many calls for the oracle, and
    :class:`GuardViolationError` where a step returns to a state on the
    path that reached it, whose interleavings no count can hold.

    The walk steps through its own tables of half steps, by the ids of a
    state's parts: the checker's for the physical and auxiliary parts, and
    its own for the threads' entries, which key nothing else: a frame by
    ``snapshot.frame_key``, and a thread whose calls are done by its tid.
    Where a table misses, its own half is composed from a part table per
    function (the step's three effects and ``snapshot.edge_check``), each
    keyed by exactly what its function reads: the effects' parts by id,
    and the edge check's two auxiliary parts by view id (the checker's
    numbering of ``invariants.view_key``), so parts that differ only in
    writer phases or ``t_off`` share its verdict.  A function is called
    only where its own table misses: a physical miss
    reads the step's arguments and takes its physical effect, an auxiliary
    miss starts from what the physical half read and takes the auxiliary
    and frame effects and the edge check.  Every reachable frame is an
    entry, so the scan results are those of the entries.  A successor's
    key is ``state_key`` of its ids, derived from its parent's key by
    swapping in the ids that a step can change (aux, phys and the stepping
    thread's entry); ``state_key`` itself makes only the first key and
    those where an id outgrows its digit.
    """
    checker = _Checker(prog)
    phys0, aux0, frames0 = checker.start()
    pid0, aid0 = _id(phys0), _id(aux0)
    phys, aux, views, tids = checker.phys, checker.aux, checker.views, checker.tids
    # one entry per id, a thread's frame or None, numbered in order of first
    # sight by ``snapshot.frame_key``, a done thread by its tid
    entries: list[MethodFrame | None] = []
    entry_ids: dict[tuple | Tid, int] = {}
    # The physical half of a step, by entry id and phys id: the post phys
    # id and the two items that the steps reading the same value
    # (``step_args``) under the entry share; False where it has no step
    # enabled.
    phys_steps: defaultdict[int, dict] = defaultdict(dict)
    # Those two items, by (entry id, value read): the table of the
    # auxiliary halves, by aux id, each the post aux id, the post entry id
    # and the edge's violations; and what the step read, which an
    # auxiliary miss starts from: the step, entry id, value, auxiliary
    # argument and check argument (an entry and the value fix the other
    # two).  An entry fixes the type of what it reads, so the check step's
    # bool never meets an int.
    aux_steps: dict[tuple, tuple[dict, tuple]] = {}
    # The part tables, where a miss above is composed, each keyed by what
    # its function reads: (label, argument, phys id) gives the post phys
    # id, (label, argument, aux id) the post aux id and the outputs,
    # (entry id, value, outputs) the post entry id, and (label, value,
    # outputs, check argument, view id, post view id) the edge's
    # violations, as the edge checks read only the two parts' views.  A
    # label names its step and fixes the types of the rest.
    phys_parts: dict[tuple, int] = {}
    aux_parts: dict[tuple, tuple] = {}
    frame_parts: dict[tuple, int] = {}
    verdicts: dict[tuple, tuple] = {}
    visited: dict[int | tuple, int] = {}
    # the visited table's totals, one int object per value: a total past 256
    # is an object of its own, and a large program's states share few totals
    totals: dict[int, int] = {}
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
        key = tid if frame is None else snapshot.frame_key(frame)
        eid = entry_ids.setdefault(key, len(entries))
        if eid == len(entries):
            entries.append(frame)
        return eid

    def fill_phys(pid: int, eid: int):
        """File the physical half of the step from entry ``eid`` and phys
        id ``pid`` and return it, False where the step is disabled."""
        pre, frame = phys[pid], entries[eid]
        if not snapshot.step_enabled(frame, pre):
            phys_steps[eid][pid] = False
            return False
        step = frame.current_step()
        value, phys_arg, aux_args, check_arg = snapshot.step_args(step, frame, pre)
        key = (step.label, phys_arg, pid)
        post_pid = phys_parts.get(key)
        if post_pid is None:
            post = snapshot.phys_effect(step, phys_arg, pre)
            post_pid = phys_parts[key] = _id(checker._canon(post, phys, snapshot.phys_key))
        key = (eid, value)
        shared = aux_steps.get(key)
        if shared is None:
            shared = aux_steps[key] = ({}, (step, eid, value, aux_args, check_arg))
        phys_steps[eid][pid] = phys_half = (post_pid, *shared)
        return phys_half

    def fill_aux(halves: dict, aid: int, read: tuple) -> tuple:
        """File in ``halves`` the auxiliary half, from aux id ``aid``, of the
        step whose physical half read ``read`` and return it."""
        step, eid, value, aux_args, check_arg = read
        label = step.label
        key = (label, aux_args, aid)
        transition = aux_parts.get(key)
        if transition is None:
            post, outputs = snapshot.aux_effect(step, aux_args, aux[aid])
            transition = aux_parts[key] = (_id(checker._canon(post, aux, aux_key)), outputs)
        post_aid, outputs = transition
        key = (eid, value, outputs)
        post_eid = frame_parts.get(key)
        if post_eid is None:
            frame = entries[eid]
            after = snapshot.frame_effect(frame, value, outputs)
            post_eid = frame_parts[key] = number(frame.tid, after)
        key = (label, value, outputs, check_arg, views[aid], views[post_aid])
        found = verdicts.get(key)
        if found is None:
            found = verdicts[key] = snapshot.edge_check(
                step, aux[aid], aux[post_aid], value, outputs, check_arg
            )
        halves[aid] = aux_half = (post_aid, post_eid, found)
        return aux_half

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
                phys_half = fill_phys(pid, eid)
            if phys_half is False:
                continue
            post_pid, halves, read = phys_half
            aux_half = halves.get(aid)
            if aux_half is None:
                aux_half = fill_aux(halves, aid, read)
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
            elif known:
                total += known
            else:  # a done state counts at least 1, so this one is on the path
                label = entries[eid].current_step().label
                raise GuardViolationError(f"a {label} step of {tids[i]} loops back on its path")
        if edges == first:  # no thread can step: the run ends
            frames = [entries[e] for e in eids]
            executions.append(checker.finish(phys[pid], aux[aid], frames, trail))
            total = 1
        visited[key] = total = totals.setdefault(total, total)
        return total

    eids0 = tuple(map(number, tids, frames0))
    schedules = dfs(pid0, aid0, eids0, state_key(pid0, aid0, eids0))
    # every reachable frame is an entry, each returned scan's among them
    checker.scan_results.update(f.result for f in entries if f and f.result is not None)
    return checker.report("exhaustive", len(visited), edges, schedules, executions=executions)


def _drive(choose, checker: _Checker, steps: list[StepRecord] | None = None) -> Trace:
    """Run the checker's program from its initial state.  ``choose(idx,
    enabled)`` names the thread that takes step idx, or None to stop; every
    state and edge on the way goes through ``checker``, and the digests of
    every state reached are appended to ``steps`` unless it is None.
    Returns the run's record, as :meth:`_Checker.finish` checks it; a run
    longer than its calls' ``snapshot.step_count`` (a step that loops)
    raises :class:`GuardViolationError`."""
    tids = checker.tids
    limit = sum(snapshot.step_count(call) for _, calls in checker.prog.threads for call in calls)
    phys, aux, frames = checker.start()
    trail = []
    for idx in count():
        tid = choose(idx, [t for t, f in zip(tids, frames) if snapshot.step_enabled(f, phys)])
        if tid is None:
            return checker.finish(phys, aux, frames, trail, steps or ())
        if idx == limit:
            raise GuardViolationError(f"a run of {checker.prog.name} takes more than {limit} steps")
        i = tids.index(tid)
        before = frames[i]
        step = before.current_step()
        post_phys, post_aux, after, value, outputs, check_arg = apply_step(step, phys, aux, before)
        frames[i] = after
        if post_phys is not phys:
            post_phys = checker._canon(post_phys, checker.phys, snapshot.phys_key)
        if post_aux is not aux:
            post_aux = checker._canon(post_aux, checker.aux, aux_key)
        checker.on_state(_id(post_phys), _id(post_aux), idx)
        found = snapshot.edge_check(step, aux, post_aux, value, outputs, check_arg)
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
    return aux_model.evolve(trace, violations=tuple(v.render() for v in checker.violations))


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
    return aux_model.evolve(client_fig1(), name="e")


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
    is no valid :class:`Program`, has an ``init`` line after its first line
    or a thread id that holds a comma or whitespace, raises
    :class:`TraceParseError`."""
    init = default = Program(name, ())  # its initial values, checked on their line
    threads: list[tuple[Tid, tuple[MethodCall, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "init" and ":" not in line:
            if threads or init is not default:
                raise TraceParseError(f"line {lineno}: 'init' may only be the first line")
            if len(parts) != 3:
                raise TraceParseError(f"line {lineno}: expected 'init <vx> <vy>'")
            try:
                init = Program(name, (), int(parts[1]), int(parts[2]))
            except (ValueError, ValueDomainError) as exc:
                raise TraceParseError(f"line {lineno}: {exc}") from exc
            continue
        tid, sep, rest = line.partition(":")
        tid = tid.strip()
        if not sep or not tid:
            raise TraceParseError(f"line {lineno}: expected 'tid: call; call; ...'")
        if "," in tid or len(tid.split()) > 1:
            # a schedule file splits on these, so no schedule could name it
            raise TraceParseError(f"line {lineno}: thread id {tid!r} holds a comma or whitespace")
        try:
            calls = tuple(
                MethodCall.parse(part.strip())
                for part in rest.split(";")
                if part.strip()
            )
        except (ValueError, ValueDomainError) as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
        threads.append((tid, calls))
    try:
        return Program(name, tuple(threads), init.init_x, init.init_y)
    except ValueError as exc:  # a thread declared twice
        raise TraceParseError(str(exc)) from exc
