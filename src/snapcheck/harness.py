"""Client programs and schedulers.

``explore`` walks every reachable state of a program (depth-first over
distinct states, so commuting interleavings are explored once), running the
full invariant battery after every atomic step, the method postconditions at
every return, and the brute-force oracle on one representative execution per
distinct terminal state.  A step's physical half reads only the physical
state and the thread's entry, its auxiliary half only the auxiliary state,
the entry and the one value the step read from memory, and the checks of an
edge only what its auxiliary half reads and yields; the state invariants
read only the physical and auxiliary parts of a state.  So each distinct
(physical, auxiliary) pair is checked once per run, and in ``explore`` each
distinct half step is computed and checked once, and replayed wherever it
recurs (see ``_Checker``).  ``explore`` walks the ids of a state's parts:
it builds a :class:`State` only where a step's table misses, and at each
distinct terminal state, where it replays the schedule that reached it to
build the run's record.  The exact number of maximal interleavings is
computed by dynamic programming over the state graph.  ``run_schedule``
deterministically replays an explicit schedule into a full trace, and
``run_random`` drives seeded random executions; both run one loop whose
chooser follows the schedule or draws from the seeded RNG, and take every
step afresh: one path repeats few half steps.

A :class:`State` is the machine state only; the run that reached it is a
:class:`Path` that ``run_schedule`` and ``run_random`` carry beside it.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import count

from . import invariants, oracle
from .aux_model import (
    AuxState,
    Ptr,
    Tid,
    Timestamp,
    Value,
    aux_key,
    evolve,
    memo,
    validate_value,
)
from .errors import BudgetExceededError, ScheduleError, TraceParseError
from .invariants import Violation
from .oracle import MethodRecord
from .snapshot import (
    MethodCall,
    MethodFrame,
    PhysState,
    Step,
    apply_step,
    aux_digest,
    call_steps,
    init,
    make_frame,
    observed,
    phys_digest,
    phys_key,
    step_enabled,
)

DEFAULT_MAX_STATES = 4_000_000


@dataclass(frozen=True)
class Program:
    """A finite client: per-thread call lists plus the initial values.

    Two threads may target the same pointer; the per-pointer writer locks
    serialize them at run time (the single-writer discipline is dynamic,
    not syntactic).
    """

    name: str
    threads: tuple[tuple[Tid, tuple[MethodCall, ...]], ...]
    init_x: Value = 5
    init_y: Value = 0

    def calls_of(self, tid: Tid) -> tuple[MethodCall, ...]:
        for t, calls in self.threads:
            if t == tid:
                return calls
        raise KeyError(tid)


@dataclass(frozen=True)
class ThreadEntry:
    """A thread's next call, its frame while that call is in flight, and
    the step it takes next (None once its calls are done), which follows
    from the other two."""

    call_idx: int
    frame: MethodFrame | None
    step: Step | None

    @property
    def returned(self) -> bool:
        """Whether the step that left the entry returned its call: a method
        returns on the step before its lock release."""
        return self.frame is not None and self.step.kind == "release"


@dataclass(frozen=True)
class State:
    """A machine state: the physical part, the auxiliary part and each
    thread's entry.  It is records of primitives all the way down, and each
    record's fields are its key (``phys_key``, ``aux_key``, ``entry_key``),
    so two states are equal exactly when their keys are."""

    phys: PhysState
    aux: AuxState
    threads: tuple[tuple[Tid, ThreadEntry], ...]  # sorted by tid

    def index(self, tid: Tid) -> int:
        for i, (t, _) in enumerate(self.threads):
            if t == tid:
                return i
        raise KeyError(tid)

    def entry(self, tid: Tid) -> ThreadEntry:
        return self.threads[self.index(tid)][1]


@dataclass(frozen=True)
class Path:
    """The run that reached a state: its schedule, the step index at which
    each thread's call in flight was invoked (in the state's ``threads``
    order), and the methods it completed."""

    schedule: tuple[Tid, ...]
    invocations: tuple[int | None, ...]
    methods: tuple[MethodRecord, ...] = ()

    def extend(self, state: State, tid: Tid, post: State) -> Path:
        """The path on to ``post``, where ``tid`` stepped from ``state``: a
        call's invocation is set on its first step, its record on its return."""
        i = state.index(tid)
        clock, invocations, methods = len(self.schedule), self.invocations, self.methods
        if state.threads[i][1].frame is None:
            invocations = invocations[:i] + (clock,) + invocations[i + 1 :]
        entry = post.threads[i][1]
        if entry.returned:
            methods += (_method_record(entry.frame, post.aux, invocations[i], clock),)
        return Path(self.schedule + (tid,), invocations, methods)


@dataclass(frozen=True)
class StepRecord:
    index: int
    tid: Tid
    label: str
    phys_digest: str
    aux_digest: str


@dataclass(frozen=True)
class Trace:
    """The record of one completed run, as trace files carry it and the
    oracle reads it.  The records ``explore`` keeps have no steps and no
    violations: explore checks each distinct state once, however many runs
    pass through it, so its violations live on the report."""

    program: str
    threads: tuple[tuple[Tid, tuple[str, ...]], ...]
    init_x: Value
    init_y: Value
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
    tids = [tid for tid, _ in prog.threads]
    if len(set(tids)) != len(tids):
        raise ValueError(f"duplicate thread ids in program {prog.name}")
    for _, calls in prog.threads:
        for call in calls:
            if call.kind == "write":
                validate_value(call.v)
    phys, aux = init(prog.init_x, prog.init_y)
    return State(phys, aux, tuple((tid, _between_calls(prog, tid, 0)) for tid in sorted(tids)))


def _between_calls(prog: Program, tid: Tid, call_idx: int) -> ThreadEntry:
    """``tid``'s entry before its call ``call_idx``, or once its calls are
    done."""
    calls = prog.calls_of(tid)
    step = call_steps(calls[call_idx])[0] if call_idx < len(calls) else None
    return ThreadEntry(call_idx, None, step)


def enabled_tids(prog: Program, state: State) -> list[Tid]:
    """Threads with an enabled next step, in canonical (sorted) order."""
    phys = state.phys
    return [tid for tid, e in state.threads if e.step is not None and step_enabled(e.step, phys)]


def step_state(prog: Program, state: State, tid: Tid) -> tuple[State, MethodFrame]:
    """Apply tid's next atomic step: the post-state and the frame that took
    the step.  A thread starting a new call gets its frame (and invocation
    mask) created here, just before its acquire."""
    i = state.index(tid)
    entry = state.threads[i][1]
    frame = entry.frame
    if frame is None:
        frame = make_frame(tid, prog.calls_of(tid)[entry.call_idx], state.aux)
    phys2, aux2, frame2 = apply_step(entry.step, state.phys, state.aux, frame)
    steps = frame.steps
    if frame2.pc == len(steps):
        entry2 = _between_calls(prog, tid, entry.call_idx + 1)
    else:
        entry2 = ThreadEntry(entry.call_idx, frame2, steps[frame2.pc])
    threads = state.threads
    threads = threads[:i] + ((tid, entry2),) + threads[i + 1 :]
    return evolve(state, phys=phys2, aux=aux2, threads=threads), frame


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
    "tid", "call.kind", "call.p", "call.v", "pc", "t", "vx", "vy", "ox", "oy",
    "witness_x", "witness_y", "result", "mask",
)


def entry_key(tid: Tid, entry: ThreadEntry) -> tuple:
    """An entry's key, with its thread: a thread between calls has no frame
    to name it.  The entry's step follows from the three, so the key leaves
    it out."""
    frame = entry.frame
    return (tid, entry.call_idx, None if frame is None else frame_key(frame))


# Bits of each id below the aux id in a packed key (see state_key).
_ID_BITS = 10


def state_key(pid: int, aid: int, eids: tuple[int, ...]):
    """The key of the state whose parts have the ids ``pid``, ``aid`` and
    ``eids`` in one checker, as one int: the aux id unbounded on top (the
    auxiliary parts are the most numerous), the phys id and each entry id a
    ``_ID_BITS``-bit digit below it.  Where an id overflows its digit, the
    tuple of ids stands in, so that the key is injective at any size (no
    int equals a tuple).  An int of up to 60 bits takes 32 bytes, against
    80 for a tuple of five small ints, and the visited set holds one key
    per state."""
    key = aid
    for i in (pid, *eids):
        if i >> _ID_BITS:
            return (aid, pid, *eids)
        key = key << _ID_BITS | i
    return key


def _id(part) -> int:
    """The id that a checker gave the canonical ``part``."""
    return part._memo["id"]


# ---------------------------------------------------------------------------
# the per-step / per-return check battery


class _Checker:
    """Steps and checks the states of one run, and accumulates the verdicts
    of every state and edge it is shown: violations, scan results and the
    number of runs the oracle checked.  The schedulers hand the checker
    their step indices.

    The checker hash-conses the parts of the states it is shown: equal
    physical parts, equal auxiliary parts and equal thread entries become
    one canonical object each, numbered per kind in order of first sight
    (the id, kept in the object's memo; the kind's list maps it back).  Its
    tables map ids to ids, so they live and die with the checker:

    * state checks, by phys id and aux id: ``check_all``'s violations;
    * transition checks, by aux id and post aux id: ``check_transition``'s
      violations;
    * the physical half of a step, by entry id and phys id: the post phys
      id, and the table of the auxiliary halves of the steps that read the
      same value from memory (``observed``) under the entry; or False, where
      the entry's next step is disabled (or it has none);
    * such a table of auxiliary halves, by aux id: the post aux id, the
      post entry id and the violations of the edge's checks.

    ``explore`` steps through the tables, and only where one misses builds
    a :class:`State` from the canonical parts and fills both halves
    (:meth:`fill`).  A single run repeats few half steps, so ``_drive``
    takes each step afresh (:meth:`take`, which :meth:`fill` calls).
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
        # the three kinds' keys are tuples of different lengths, so they
        # share one table; each kind numbers its own parts
        self._canonical: dict[tuple, object] = {}
        self.phys: list[PhysState] = []
        self.aux: list[AuxState] = []
        self.entries: list[ThreadEntry] = []
        self._state_checks: defaultdict[int, dict] = defaultdict(dict)
        self._transition_checks: defaultdict[int, dict] = defaultdict(dict)
        self.phys_steps: defaultdict[int, dict] = defaultdict(dict)
        # by (entry id, value read); an entry fixes its step, and so the
        # type of what it reads, so the check step's bool never meets an
        # equal int here
        self._aux_steps: defaultdict[tuple, dict] = defaultdict(dict)

    def intern(self, state: State) -> State:
        """The state with its physical and auxiliary parts and its thread
        entries replaced by this checker's canonical objects for their
        values."""
        return evolve(
            state,
            phys=self._canon(state.phys, self.phys, phys_key),
            aux=self._canon(state.aux, self.aux, aux_key),
            threads=tuple(
                (tid, self._canon(e, self.entries, entry_key, tid)) for tid, e in state.threads
            ),
        )

    def _canon(self, part, parts: list, key, *args):
        # Every state a checker is shown descends from a fresh initial
        # state, and evolve drops the memo, so an id found in a memo was
        # given by this checker.
        m = memo(part)
        if "id" in m:
            return part
        k = key(*args, part)
        canon = self._canonical.get(k)
        if canon is None:
            canon = self._canonical[k] = part
            m["id"] = len(parts)
            parts.append(part)
        return canon

    def fill(self, pid: int, aid: int, eids: tuple[int, ...], i: int):
        """File the step of thread ``i`` from the state with the part ids
        ``pid``, ``aid`` and ``eids``, where a table missed it, and return
        its two halves, or None where the step is disabled.  The step is
        taken by :meth:`take` from the state built of the canonical
        parts."""
        eid, entries = eids[i], self.entries
        phys = self.phys[pid]
        step = entries[eid].step
        if step is None or not step_enabled(step, phys):
            self.phys_steps[eid][pid] = False
            return None
        state = State(phys, self.aux[aid], tuple(zip(self.tids, [entries[e] for e in eids])))
        tid = self.tids[i]
        post, found = self.take(state, tid)
        entry = self._canon(post.threads[i][1], entries, entry_key, tid)
        aux_steps = self._aux_steps[eid, observed(step, phys)]
        phys_half = self.phys_steps[eid][pid] = (_id(post.phys), aux_steps)
        aux_half = aux_steps[aid] = (_id(post.aux), _id(entry), found)
        return phys_half, aux_half

    def take(self, state: State, tid: Tid) -> tuple[State, tuple[Violation, ...]]:
        """``tid``'s next step from ``state``, taken by ``step_state``, the
        one implementation of the semantics: the post-state with its
        physical and auxiliary parts interned, and the violations of the
        edge's checks, unstamped."""
        post, before = step_state(self.prog, state, tid)
        phys = self._canon(post.phys, self.phys, phys_key)
        aux = self._canon(post.aux, self.aux, aux_key)
        if phys is not post.phys or aux is not post.aux:
            post = evolve(post, phys=phys, aux=aux)
        return post, self._check_edge(state, post, before)

    def _check_edge(self, pre: State, post: State, before: MethodFrame) -> tuple[Violation, ...]:
        """The violations of every check of the edge on which the frame
        ``before`` took its step, in order; a returning scan also adds its
        result to the scan results.  The frame the step left, and whether
        it returned the call, are the post-state's entry's."""
        step = before.current_step()
        after = post.entry(before.tid)
        fr = after.frame
        transitions = self._transition_checks[_id(pre.aux)]
        post_aid = _id(post.aux)
        found = transitions.get(post_aid)
        if found is None:
            found = transitions[post_aid] = tuple(invariants.check_transition(pre.aux, post.aux))
        found = list(found)
        if step.kind == "register":
            found += invariants.check_write_fresh(pre.aux, fr.t)
        if step.kind == "read":
            sc = post.aux.scanner
            if sc.on and sc.bit(step.ptr):
                value = fr.vx if step.ptr == Ptr.X else fr.vy
                found += invariants.check_read_lemma(step.ptr, value, post.aux)
        if step.kind == "relink":
            found += invariants.check_relink_post(post.aux, fr.witness_x, fr.witness_y)
        if after.returned:
            call, mask = before.call, before.mask
            if call.kind == "write":
                rep = invariants.check_write_post(mask, post.aux, fr.t, fr.tid, call.p, call.v)
            else:
                self.scan_results.add(fr.result)
                rep = invariants.check_scan_post(mask, post.aux, fr.result, _witness(fr, post.aux))
            found += rep
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
            found = checks[aid] = tuple(invariants.check_all(self.phys[pid], self.aux[aid]))
        self.absorb(found, idx)

    def finish(self, state: State, path: Path, steps=()) -> Trace:
        """Build the record of the completed run ``path``, which ended in
        ``state``, and check it with both oracle routes.  Oracle failures
        join the checker's violations; the record's own violation list is
        left empty."""
        prog, aux = self.prog, state.aux
        trace = Trace(
            program=prog.name,
            threads=tuple((tid, tuple(c.render() for c in calls)) for tid, calls in prog.threads),
            init_x=prog.init_x,
            init_y=prog.init_y,
            schedule=path.schedule,
            steps=tuple(steps),
            methods=path.methods,
            final_sigma=aux.sigma,
            final_sigma_values=tuple(aux.val[t - 1] for t in aux.sigma),
            final_kappa=tuple(enumerate(aux.kappa, 1)),
            phys_digest=phys_digest(state.phys),
            aux_digest=aux_digest(aux),
            violations=(),
        )
        self.executions_checked += 1
        idx = len(path.schedule)
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
    it.  Raises
    :class:`BudgetExceededError` when more than ``max_states`` distinct
    states are reached, and :class:`OracleSizeError` before the first step
    when the program has too many calls for the oracle.
    """
    checker = _Checker(prog)
    state0 = checker.intern(initial_state(prog))
    pid0, aid0 = _id(state0.phys), _id(state0.aux)
    eids0 = tuple(_id(e) for _, e in state0.threads)
    checker.on_state(pid0, aid0, -1)
    phys_steps, tids = checker.phys_steps, checker.tids
    visited: dict[int | tuple, int] = {}
    schedule: list[Tid] = []
    executions: list[Trace] = []
    edges = 0

    def dfs(pid: int, aid: int, eids: tuple[int, ...], key: int | tuple) -> int:
        nonlocal edges
        if len(visited) >= max_states:
            raise BudgetExceededError(f"state budget {max_states} exceeded")
        visited[key] = 0
        total = 0
        idx = len(schedule)
        first = edges
        for i, eid in enumerate(eids):
            phys_half = phys_steps[eid].get(pid)
            if phys_half is False:
                continue
            aux_half = phys_half[1].get(aid) if phys_half else None
            if aux_half is None:
                halves = checker.fill(pid, aid, eids, i)
                if halves is None:
                    continue
                phys_half, aux_half = halves
            post_pid = phys_half[0]
            post_aid, post_eid, found = aux_half
            post_eids = eids[:i] + (post_eid,) + eids[i + 1 :]
            edges += 1
            pkey = state_key(post_pid, post_aid, post_eids)
            known = visited.get(pkey)
            if known is None:
                checker.on_state(post_pid, post_aid, idx)
            if found:
                checker.absorb(found, idx)
            if known is None:
                schedule.append(tids[i])
                total += dfs(post_pid, post_aid, post_eids, pkey)
                schedule.pop()
            else:
                total += known
        if edges == first:  # no thread can step: the run is complete
            executions.append(checker.finish(*_replay(prog, schedule)))
            total = 1
        visited[key] = total
        return total

    schedules = dfs(pid0, aid0, eids0, state_key(pid0, aid0, eids0))
    return checker.report("exhaustive", len(visited), edges, schedules, executions=executions)


def _replay(prog: Program, schedule) -> tuple[State, Path]:
    """The state that ``schedule`` reaches from prog's initial state, and
    the run's path, stepped with no checks."""
    state = initial_state(prog)
    path = Path((), (None,) * len(state.threads))
    for tid in schedule:
        post = step_state(prog, state, tid)[0]
        path = path.extend(state, tid, post)
        state = post
    return state, path


def _drive(
    prog: Program, choose, checker: _Checker, steps: list[StepRecord] | None = None
) -> Trace:
    """Run prog from its initial state.  ``choose(idx, enabled)`` names the
    thread that takes step idx, or None to stop; every state and edge on the
    way goes through ``checker``, and the digests of every state reached are
    appended to ``steps`` unless it is None.  Returns the run's record, as
    :meth:`_Checker.finish` checks it."""
    state = checker.intern(initial_state(prog))
    path = Path((), (None,) * len(state.threads))
    checker.on_state(_id(state.phys), _id(state.aux), -1)
    for idx in count():
        tid = choose(idx, enabled_tids(prog, state))
        if tid is None:
            return checker.finish(state, path, steps or ())
        post, found = checker.take(state, tid)
        checker.on_state(_id(post.phys), _id(post.aux), idx)
        checker.absorb(found, idx)
        if steps is not None:
            label = state.entry(tid).step.label
            steps.append(StepRecord(idx, tid, label, phys_digest(post.phys), aux_digest(post.aux)))
        path = path.extend(state, tid, post)
        state = post


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
    trace = _drive(prog, _follow(tuple(schedule)), checker, [])
    return evolve(trace, violations=tuple(v.render() for v in checker.violations))


def run_random(prog: Program, seed: int, runs: int) -> ExplorationReport:
    """Seeded uniformly-random scheduling; identical seed, identical report."""
    rng = random.Random(seed)

    def choose(idx: int, enabled: list[Tid]) -> Tid | None:
        return enabled[rng.randrange(len(enabled))] if enabled else None

    checker = _Checker(prog)
    total_steps = 0
    for run in range(runs):
        before = len(checker.violations)
        total_steps += len(_drive(prog, choose, checker).schedule)
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
    optional leading ``init <vx> <vy>`` line, ``#`` comments."""
    init_x, init_y = 5, 0
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
                init_x, init_y = int(parts[1]), int(parts[2])
            except ValueError as exc:
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
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
        threads.append((tid.strip(), calls))
    tids = [t for t, _ in threads]
    if len(set(tids)) != len(tids):
        raise TraceParseError("duplicate thread ids")
    return Program(name, tuple(threads), init_x, init_y)
