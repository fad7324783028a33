"""The reference model the tests compare the checker against: stepping on
whole states, full keys, and the check battery called directly.

``graph`` walks a program once by whole-state stepping, as ``explore``
walks it, and ``violations`` replays the checks over the walk; the
differentials that patch the checks evaluate them over one recorded graph
instead of stepping the program again.  ``random_walk`` is the one seeded
walk of the tests, ``sequential_results`` the scan results of a
program's interleavings of whole calls, computed with no algorithm, and
``erased_runs`` the schedule count and scan results of the algorithm run
with no auxiliary state."""

from dataclasses import dataclass
from functools import cache

from snapcheck import aux_ops, invariants, snapshot
from snapcheck.aux_model import (
    AuxState,
    Ptr,
    aux_key,
    eval_at,
    evolve,
    scanned_mask,
    _ideal_masks,
)
from snapcheck.errors import DisabledStepError, GuardViolationError, SnapshotModelError
from snapcheck.harness import State, enabled_tids, initial_state, step_state
from snapcheck.invariants import Violation
from snapcheck.oracle import MethodRecord
from snapcheck.snapshot import PhysState, frame_key, make_frame, phys_key


def frame_of(state, tid):
    """The frame of thread ``tid`` in ``state``, None once its calls are
    done."""
    return state.threads[state.index(tid)][1]


def full_key(state):
    """The key of ``state`` built from its parts' complete keys."""
    return (
        phys_key(state.phys),
        aux_key(state.aux),
        tuple((tid, None if f is None else frame_key(f)) for tid, f in state.threads),
    )


def entry_key(tid, frame):
    """The key by which explore numbers what a thread holds: its frame's
    ``frame_key``, or the tid of a thread whose calls are done."""
    return tid if frame is None else frame_key(frame)


def random_walk(prog, rng):
    """The states of one complete run of ``prog`` from its initial state,
    each step's thread drawn by ``rng.choice`` from the enabled ones, each
    with the frame that took the step to it (None for the initial state)."""
    state = initial_state(prog)
    yield state, None
    while enabled := enabled_tids(prog, state):
        state, before = step_state(prog, state, rng.choice(enabled))
        yield state, before


def random_schedule(prog, rng):
    """The schedule of a ``random_walk`` of ``prog``."""
    return [before.tid for _, before in random_walk(prog, rng) if before is not None]


@dataclass(frozen=True)
class Graph:
    """explore's depth-first walk of a program, stepped on whole states:
    the distinct states in order of first visit, the initial one first,
    and every edge in the order the walk takes it, as ``(pre, post, frame
    before, new, depth)``: ``new`` where the walk first reached ``post``
    on it, and ``depth`` the length of the path to ``pre``."""

    states: list
    edges: list


def graph(prog):
    """The ``Graph`` of ``prog``: states are told apart by ``full_key``,
    and equal physical and equal auxiliary parts are one object each
    (hash-consed by ``phys_key`` and ``aux_key``), so that a part's
    identity stands for its complete value."""
    phys_parts, aux_parts, visited, edges = {}, {}, {}, []

    def visit(state):
        phys = phys_parts.setdefault(phys_key(state.phys), state.phys)
        aux = aux_parts.setdefault(aux_key(state.aux), state.aux)
        return State(phys, aux, state.threads)

    def dfs(state, depth):
        for tid in enabled_tids(prog, state):
            post, before = step_state(prog, state, tid)
            key = full_key(post)
            new = key not in visited
            if new:
                visited[key] = visit(post)
            edges.append((state, visited[key], before, new, depth))
            if new:
                dfs(visited[key], depth + 1)

    state0 = visit(initial_state(prog))
    visited[full_key(state0)] = state0
    dfs(state0, 0)
    return Graph(list(visited.values()), edges)


def violations(graph):
    """What explore records on the walk of ``graph``, as (name, detail,
    step): ``check_all`` on the initial state, stamped -1, then along the
    edges ``check_all`` on each post state first reached and the edge's
    checks, stamped with the edge's depth.  The checks are those that
    ``invariants`` holds when this runs; each call is memoised by the
    complete values of its arguments, a part by its identity, so that no
    verdict is reused for other arguments."""
    memo, found = {}, []

    def run(check, *args):
        key = (check, *(id(a) if type(a) in (PhysState, AuxState) else a for a in args))
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = check(*args)
        return verdict

    def absorb(rep, idx):
        found.extend((v.name, v.detail, idx) for v in rep)

    state0 = graph.states[0]
    absorb(run(invariants.check_all, state0.phys, state0.aux), -1)
    for pre, post, before, new, depth in graph.edges:
        if new:
            absorb(run(invariants.check_all, post.phys, post.aux), depth)
        for rep in edge_checks(pre, post, before, run):
            absorb(rep, depth)
    return found


def edge_checks(pre, post, before, run):
    """Every check of the edge on which the frame ``before`` took its step,
    each called as ``run(check, *args)``, in the checker's order."""
    fr = frame_of(post, before.tid)
    step = before.current_step()
    reps = [run(invariants.check_transition, pre.aux, post.aux)]
    if step.kind == "register":
        reps.append(run(invariants.check_write_fresh, pre.aux, fr.t))
    sc = post.aux.scanner
    if step.kind == "read" and sc.on and sc.bit(step.ptr):
        value = fr.vx if step.ptr == Ptr.X else fr.vy
        reps.append(run(invariants.check_read_lemma, step.ptr, value, post.aux))
    if step.kind == "relink":
        reps.append(run(invariants.check_relink_post, post.aux, fr.witness_x, fr.witness_y))
    # a call returns on the step that leaves only its release to take,
    # the last of its steps
    if fr is not None and fr.pc == len(snapshot._STEPS[fr.call.p]) - 1:
        call = before.call
        if call.kind == "write":
            args = (before.mask, post.aux, fr.t, fr.tid, call.p, call.v)
            reps.append(run(invariants.check_write_post, *args))
        else:
            # the witness is the later in sigma of the two per-pointer events
            witness = max(fr.witness_x, fr.witness_y, key=post.aux.sigma.index)
            reps.append(
                run(invariants.check_scan_post, before.mask, post.aux, fr.result, witness)
            )
    return reps


def methods(prog, schedule):
    """The method records of the run ``schedule``, built from the frames of
    its steps: a call is invoked at the index of its frame's first step and
    responds at the step after which only its release is left, and a scan's
    witness is the later of its two per-pointer events in sigma."""
    state = initial_state(prog)
    invoked, records = {}, []
    for idx, tid in enumerate(schedule):
        state, before = step_state(prog, state, tid)
        if before.pc == 0:
            invoked[tid] = idx
        fr = frame_of(state, tid)
        if fr is None or fr.pc != len(snapshot._STEPS[fr.call.p]) - 1:
            continue
        if fr.call.kind == "write":
            records.append(MethodRecord(tid, fr.call, None, invoked[tid], idx, t=fr.t))
            continue
        witness = max(fr.witness_x, fr.witness_y, key=state.aux.sigma.index)
        witnesses = dict(witness=witness, witness_x=fr.witness_x, witness_y=fr.witness_y)
        records.append(MethodRecord(tid, fr.call, fr.result, invoked[tid], idx, **witnesses))
    return tuple(records)


def scan_post_by_replay(mask, ret, r, witness):
    """``check_scan_post`` with each candidate replayed by ``eval_at``, a
    timestamp before which a pointer has no write disqualified."""
    scanned, masks = scanned_mask(ret), _ideal_masks(ret)

    def qualifies(t):
        if not (scanned >> t) & 1 or mask & ~masks[t]:
            return False
        try:
            return eval_at(t, ret.sigma, ret) == r
        except SnapshotModelError:
            return False

    good = [t for t in ret.sigma if qualifies(t)]
    rep = []
    if not good:
        rep.append(Violation("scan-post", f"no witness timestamp validates the snapshot {r}"))
    if witness not in good:
        rep.append(Violation("scan-post", f"constructive witness {witness} does not qualify"))
    return rep


def apply_step(step, phys, aux, frame):
    """``apply_step`` as one dispatch that returns the three parts
    together, as it was before it was split into its effects, for a frame
    that holds its invocation mask from the start (``masked_frame``).
    A release leaves its thread the fresh frame of its next call, or none
    once its calls are done."""
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
        later = frame.later
        after = make_frame(tid, frame.call_idx + 1, later) if later else None
        return phys.with_holder(step.lock, None), aux, after

    if kind == "register":
        v = frame.call.v
        phys2 = evolve(phys, **{p: v})
        aux2, t = aux_ops.register(p, v, aux)
        return phys2, aux2, evolve(frame, pc=nxt, t=t)

    if kind == "check":
        b = phys.s_bit
        aux2 = aux_ops.check(p, b, aux)
        return phys, aux2, evolve(frame, pc=nxt if b else nxt + 1)

    if kind == "forward":
        v = frame.call.v
        phys2 = evolve(phys, **{"fx" if p == Ptr.X else "fy": v})
        return phys2, aux_ops.forward(p, aux), evolve(frame, pc=nxt)

    if kind == "finalize":
        aux2 = aux_ops.finalize(tid, p, aux)
        return phys, aux2, snapshot.clear_dead(evolve(frame, pc=nxt), "mask")

    if kind == "set-on":
        return evolve(phys, s_bit=True), aux_ops.set_scanner(True, aux), evolve(frame, pc=nxt)

    if kind == "set-off":
        return evolve(phys, s_bit=False), aux_ops.set_scanner(False, aux), evolve(frame, pc=nxt)

    if kind == "clear":
        phys2 = evolve(phys, **{"fx" if p == Ptr.X else "fy": None})
        return phys2, aux_ops.clear(p, aux), evolve(frame, pc=nxt)

    if kind == "read":
        field = "vx" if p == Ptr.X else "vy"
        return phys, aux, evolve(frame, pc=nxt, **{field: phys.x if p == Ptr.X else phys.y})

    if kind == "read-fwd":
        value = phys.fx if p == Ptr.X else phys.fy
        if value is None:
            return phys, aux, evolve(frame, pc=nxt)
        frame2 = evolve(frame, pc=nxt, **{"ox" if p == Ptr.X else "oy": value})
        return phys, aux, snapshot.clear_dead(frame2, "vx" if p == Ptr.X else "vy")

    if kind == "relink":
        rx, ry = snapshot.scan_result(frame)
        aux2, t_x, t_y = aux_ops.relink(rx, ry, aux)
        frame2 = evolve(frame, pc=nxt, witness_x=t_x, witness_y=t_y, result=(rx, ry))
        return phys, aux2, snapshot.clear_dead(frame2, "vx", "vy", "ox", "oy", "mask")

    raise GuardViolationError(f"unknown step kind {kind!r}")


def masked_frame(frame, aux):
    """``frame`` as the reference takes it: a call's frame before its
    first step already holds the invocation mask taken from ``aux``."""
    if frame.pc:
        return frame
    return evolve(frame, mask=invariants.capture_spec_snapshot(aux, frame.tid, frame.call.kind))


def sequential_results(prog):
    """The scan results of every interleaving of ``prog``'s whole calls,
    each call run alone: a walk over each thread's count of calls done and
    the register pair, memoised on both, with no algorithm and no
    auxiliary state.  For a linearizable object that is correct run
    sequentially they are the scan results of all its concurrent runs."""
    threads = [calls for _, calls in prog.threads]

    @cache
    def results(done, regs):
        found = set()
        for i, calls in enumerate(threads):
            if done[i] == len(calls):
                continue
            call, after = calls[done[i]], done[:i] + (done[i] + 1,) + done[i + 1 :]
            if call.kind == "scan":
                found |= {regs} | results(after, regs)
            else:
                x, y = regs
                found |= results(after, (call.v, y) if call.p == Ptr.X else (x, call.v))
        return frozenset(found)

    return results((0,) * len(threads), (prog.init_x, prog.init_y))


# The steps of each call of the uninstrumented algorithm, one atomic
# command each.  A write's forward runs only where its check read the
# scanner bit set, and its finalize and a scan's relink change no memory.
_WRITE = ("acquire", "store", "check", "forward", "finalize", "release")
_SCAN = (
    "acquire", "set-on", "clear-x", "clear-y", "read-x", "read-y", "set-off",
    "read-fx", "read-fy", "relink", "release",
)
# Memory slots: the pointers, the forwarding cells, the scanner bit, then
# the holders of the three locks (x writer, y writer, scanner).
_X, _Y, _FX, _FY, _S = range(5)
_LOCK = {"x": 5, "y": 6, None: 7}
# A thread is its call index, pc and locals vx, vy, ox, oy; these are the
# pc and locals of a call before its first step.
_FRESH = (0, None, None, None, None)


def erased_runs(prog):
    """The number of maximal interleavings of ``prog`` and its scan
    results, run by Jayanti's algorithm on memory and each thread's locals
    alone: no auxiliary state, no interning and no state keys, and nothing
    of the checker's but ``Program`` and ``MethodCall``.  The count is
    memoised on the memory and the threads.  Auxiliary code that steered
    the physical run (Owicki and Gries's erasure condition) would change
    the count or the results that ``explore`` reports."""
    programs = [calls for _, calls in prog.threads]

    @cache
    def walk(memory, threads):
        schedules, results = 0, set()
        for i, (idx, pc, *regs) in enumerate(threads):
            if idx == len(programs[i]):
                continue
            taken = _erased_step(programs[i][idx], i, pc, list(memory), regs)
            if taken is None:
                continue
            memory2, pc2, regs2, result = taken
            own = (idx + 1, *_FRESH) if pc2 is None else (idx, pc2, *regs2)
            count, found = walk(memory2, threads[:i] + (own,) + threads[i + 1 :])
            schedules += count
            results |= found
            if result:
                results.add(result)
        return schedules or 1, frozenset(results)

    memory = (prog.init_x, prog.init_y, None, None, False, None, None, None)
    return walk(memory, ((0, *_FRESH),) * len(programs))


def _erased_step(call, i, pc, memory, regs):
    """Thread ``i``'s step at ``pc`` of ``call`` on ``memory`` (a list it
    changes) with the locals ``regs``: the memory, the thread's next pc
    (None once it released its lock) and locals after it, and the result a
    relink returns; None where its lock is held."""
    lock = _LOCK[call.p]
    vx, vy, ox, oy = regs
    result = None
    step = (_WRITE if call.kind == "write" else _SCAN)[pc]
    if step == "acquire":
        if memory[lock] is not None:
            return None
        memory[lock] = i
    elif step == "release":
        memory[lock] = None
        return tuple(memory), None, None, None
    elif step == "store":
        memory[_X if call.p == "x" else _Y] = call.v
    elif step == "check" and not memory[_S]:
        pc += 1  # no scan to forward to
    elif step == "forward":
        memory[_FX if call.p == "x" else _FY] = call.v
    elif step in ("set-on", "set-off"):
        memory[_S] = step == "set-on"
    elif step in ("clear-x", "clear-y"):
        memory[_FX if step == "clear-x" else _FY] = None
    elif step in ("read-x", "read-y"):
        vx, vy = (memory[_X], vy) if step == "read-x" else (vx, memory[_Y])
    elif step in ("read-fx", "read-fy"):
        ox, oy = (memory[_FX], oy) if step == "read-fx" else (ox, memory[_FY])
    elif step == "relink":
        result = (vx if ox is None else ox, vy if oy is None else oy)
    return tuple(memory), pc + 1, (vx, vy, ox, oy), result
