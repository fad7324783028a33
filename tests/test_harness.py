"""Schedulers: exhaustive exploration, replay, random scheduling, clients."""

import hashlib
import random
import re

import pytest

from conftest import frame_of, one_field_changed, primitive, two_scan_programs
from snapcheck import aux_ops, harness, invariants, snapshot
from snapcheck.aux_model import (
    Color,
    Ptr,
    WriterPhase,
    aux_key,
    eval_at,
    evolve,
    history_key,
    memo,
    scanned_mask,
    _ideal_masks,
)
from snapcheck.cli import main
from snapcheck.errors import (
    BudgetExceededError,
    DisabledStepError,
    GuardViolationError,
    OracleSizeError,
    ScheduleError,
    SnapshotModelError,
    TraceParseError,
    ValueDomainError,
)
from snapcheck.harness import (
    FIG1_SCHEDULE,
    Program,
    client_e,
    client_e_prime,
    client_fig1,
    enabled_tids,
    explore,
    frame_key,
    generated_programs,
    initial_state,
    parse_program,
    run_random,
    run_schedule,
    step_state,
)
from snapcheck.invariants import Violation
from snapcheck.oracle import MethodRecord
from snapcheck.snapshot import MethodCall, aux_digest, make_frame, phys_digest, phys_key
from snapcheck.tracefile import render_trace


def test_single_write_has_one_schedule():
    prog = Program("w", (("a", (MethodCall.write(Ptr.X, 2),)),))
    report = explore(prog)
    assert report.schedules == 1
    assert report.scan_results == frozenset()
    assert report.ok


def test_concurrent_writers_serialize_both_ways():
    prog = Program(
        "ww",
        (
            ("a", (MethodCall.write(Ptr.X, 2),)),
            ("b", (MethodCall.write(Ptr.X, 3),)),
        ),
    )
    report = explore(prog)
    # the writer lock serializes the bodies; only the acquisition order varies
    assert report.schedules == 2
    assert report.executions_checked == 2
    assert report.ok


def test_explore_e_prime_is_sequential():
    report = explore(client_e_prime())
    assert report.schedules == 1
    assert report.scan_results == frozenset({(5, 0)})
    assert report.ok


def test_client_structures():
    fig1 = client_fig1()
    assert dict(fig1.threads)["l"] == (
        MethodCall.write(Ptr.X, 2),
        MethodCall.write(Ptr.Y, 1),
    )
    assert dict(fig1.threads)["c"] == (MethodCall.scan(),)
    assert dict(fig1.threads)["r"] == (MethodCall.write(Ptr.X, 3),)
    e = client_e()
    assert e.threads == fig1.threads and (e.init_x, e.init_y) == (5, 0)
    assert len(generated_programs()) == 9


def test_explore_budget():
    with pytest.raises(BudgetExceededError):
        explore(client_e(), max_states=50)


WXY_SCAN = Program(
    "wxy-scan",
    (
        ("a", (MethodCall.write(Ptr.X, 2),)),
        ("s", (MethodCall.scan(),)),
    ),
)


@pytest.mark.parametrize(
    "prog",
    [WXY_SCAN, next(p for p in generated_programs() if p.name == "gen-x1-y1")]
    + two_scan_programs(),
    ids=lambda p: p.name,
)
def test_exploration_soundness_replay(prog):
    """Every run record explore keeps, method records included, is the one
    a fresh replay of its schedule builds, and the one built straight from
    the frames of the steps: the records explore folds from its trail at
    its terminal states survive merging and backtracking, also where a
    thread's second call sets its invocation index again (the two-scan
    clients)."""
    report = explore(prog)
    assert report.executions
    assert len(report.executions) == report.executions_checked
    for ex in report.executions:
        trace = run_schedule(prog, ex.schedule)
        assert trace.methods == ex.methods == _reference_methods(prog, ex.schedule)
        assert (trace.phys_digest, trace.aux_digest) == (ex.phys_digest, ex.aux_digest)
        assert trace.steps[-1].phys_digest == ex.phys_digest
        assert trace.steps[-1].aux_digest == ex.aux_digest


def _reference_methods(prog, schedule):
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
        if fr is None or fr.pc != len(fr.steps) - 1:
            continue
        if fr.call.kind == "write":
            records.append(MethodRecord(tid, fr.call, None, invoked[tid], idx, t=fr.t))
            continue
        witness = max(fr.witness_x, fr.witness_y, key=state.aux.sigma.index)
        records.append(
            MethodRecord(
                tid,
                fr.call,
                fr.result,
                invoked[tid],
                idx,
                witness=witness,
                witness_x=fr.witness_x,
                witness_y=fr.witness_y,
            )
        )
    return tuple(records)


def test_oracle_size_is_checked_before_the_first_step(monkeypatch, tmp_path, capsys):
    """A program with more calls than the oracle takes is refused before
    any step, by every scheduler and by ``snapcheck replay`` (exit 2)."""
    text = "a: " + "; ".join(["write x 2"] * 9) + "\n"
    prog = parse_program(text, name="nine-writes")
    taken = _count_steps(monkeypatch)
    with pytest.raises(OracleSizeError):
        run_random(prog, seed=1, runs=1)
    with pytest.raises(OracleSizeError):
        run_schedule(prog, ("a",) * 45)
    with pytest.raises(OracleSizeError):
        explore(prog)
    assert taken == []
    program, schedule = tmp_path / "nine.prog", tmp_path / "nine.sched"
    program.write_text(text)
    schedule.write_text("a\n" * 45)
    assert main(["replay", "--program", str(program), "--schedule", str(schedule)]) == 2
    assert taken == []
    assert "exceed" in capsys.readouterr().err


def test_step_records_digest_the_state_each_step_reached():
    """Each step record of a replay carries the digests of the state its
    step reached, though the replay digests each distinct part once."""
    prog = two_scan_programs()[1]
    schedule = _seeded_schedule(prog, 5)
    state = initial_state(prog)
    steps = run_schedule(prog, schedule).steps
    assert len(steps) == len(schedule) > 30
    for record, tid in zip(steps, schedule):
        state = step_state(prog, state, tid)[0]
        assert record.phys_digest == snapshot.phys_digest(state.phys)
        assert record.aux_digest == snapshot.aux_digest(state.aux)


def test_run_schedule_determinism():
    t1 = run_schedule(client_fig1(), FIG1_SCHEDULE)
    t2 = run_schedule(client_fig1(), FIG1_SCHEDULE)
    assert render_trace(t1) == render_trace(t2)


def test_run_schedule_rejects_bad_tid():
    with pytest.raises(ScheduleError):
        run_schedule(client_fig1(), ("z",))


def test_run_schedule_rejects_blocked_choice():
    # r cannot act while l holds the x-writer lock
    with pytest.raises(ScheduleError):
        run_schedule(client_fig1(), ("l", "r"))


def test_run_schedule_rejects_truncation():
    with pytest.raises(ScheduleError):
        run_schedule(client_fig1(), FIG1_SCHEDULE[:10])


def test_run_random_deterministic():
    r1 = run_random(client_e(), seed=42, runs=50)
    r2 = run_random(client_e(), seed=42, runs=50)
    assert r1.render() == r2.render()
    assert r1.ok
    # random runs are not merged into a state graph: steps, not states
    assert r1.states is None
    assert f"steps: {r1.edges}" in r1.render() and "states:" not in r1.render()


# What the drive path (``run_random`` and ``run_schedule``) outputs: a
# blake2b digest (16 bytes) of ``run_random(prog, seed, runs=20).render()``
# per (program, seed), and of ``render_trace`` of the replay of the
# complete schedule that ``_seeded_schedule`` draws per (program, seed).
# A change in the stepping order, the chooser's draws or a record shows.
RANDOM_RECORDS = {
    ("e", 0): "f4842cc7fd54b183033f560d6fa4bf47",
    ("e", 5): "9c4df0bd39c17f32072bb22001e085cd",
    ("e", 42): "99e6e0cdc4daf4103a22e1c07b4c6211",
    ("two-scan", 0): "06c3a65ddab6203a21321baaaa963190",
    ("two-scan", 5): "2eaa9e26958daf018d1adb23848ab23b",
    ("two-scan", 42): "2bff6944d4a90177cd6fe276ac50d360",
    ("gen-x2-y2", 0): "7912b3372e5f3913c20f569d86ceed8a",
    ("gen-x2-y2", 5): "0ea804c6e08a487c05088c86566aac03",
    ("gen-x2-y2", 42): "a1ee6c55cef3756da92732cbf82b0ea4",
}
REPLAY_RECORDS = {
    ("gen-x2-y2", 1): "c642af8a84e725338f956dead546b2e7",
    ("gen-x2-y2", 2): "601b89c73a9a91ef467ed03f73f6a571",
    ("gen-x2-y2", 3): "9ba414534746318feb7357547d9f6488",
    ("fig1-two-scan", 1): "61df15f2b7e2d593d341c13cd6286888",
    ("fig1-two-scan", 2): "7718405d677b0c22b0471dff6775cc78",
    ("fig1-two-scan", 3): "aef1ab287faf3001fe00cb9369111490",
}


def _seeded_schedule(prog, seed):
    """A complete schedule of ``prog``, each step's thread drawn by
    ``random.Random(seed).choice`` from the enabled ones."""
    rng = random.Random(seed)
    state, schedule = initial_state(prog), []
    while enabled := enabled_tids(prog, state):
        schedule.append(rng.choice(enabled))
        state = step_state(prog, state, schedule[-1])[0]
    return schedule


def test_drive_path_output_is_pinned():
    progs = {p.name: p for p in [client_e(), *two_scan_programs(), *generated_programs()]}

    def blake(text):
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    got = {
        (name, seed): blake(run_random(progs[name], seed, runs=20).render())
        for name, seed in RANDOM_RECORDS
    }
    assert got == RANDOM_RECORDS
    got = {
        (name, seed): blake(render_trace(run_schedule(prog, _seeded_schedule(prog, seed))))
        for name, seed in REPLAY_RECORDS
        for prog in [progs[name]]
    }
    assert got == REPLAY_RECORDS


def test_run_random_labels_each_violation_with_its_run(monkeypatch):
    relink_post = invariants.check_relink_post

    def one_more(*args):
        return relink_post(*args) + [Violation("forced", "one per relink")]

    monkeypatch.setattr(invariants, "check_relink_post", one_more)
    prog = parse_program("a: write x 2\nd: write y 1\ns: scan; scan\n", name="two-scan")
    report = run_random(prog, seed=4, runs=3)
    runs = []
    for v in report.violations:
        match = re.match(r"run (\d+): ", v.detail)
        assert match and "run " not in v.detail[match.end() :]
        runs.append(int(match.group(1)))
    assert runs == sorted(runs)
    assert set(runs) == {0, 1, 2}


def test_run_random_results_subset_of_exhaustive():
    prog = next(p for p in generated_programs() if p.name == "gen-x1-y1")
    exhaustive = explore(prog)
    sampled = run_random(prog, seed=7, runs=200)
    assert sampled.scan_results <= exhaustive.scan_results
    assert sampled.ok and exhaustive.ok


def test_report_render_mentions_results():
    report = explore(client_e_prime())
    text = report.render()
    assert "scan results: (5,0)" in text
    assert "violations: none" in text


def test_parse_program_roundtrip():
    text = "init 5 0\nl: write x 2; write y 1\nc: scan\nr: write x 3\n"
    prog = parse_program(text, name="fig1")
    assert prog.threads == client_fig1().threads


def test_parse_program_errors():
    with pytest.raises(TraceParseError):
        parse_program("l write x 2")  # no colon
    with pytest.raises(TraceParseError):
        parse_program("l: write q 2")
    with pytest.raises(TraceParseError):
        parse_program("init 5")
    with pytest.raises(TraceParseError):
        parse_program("l: scan\nl: scan")  # duplicate tid
    with pytest.raises(TraceParseError, match="line 2: value 99"):
        parse_program("c: scan\na: write x 99")
    with pytest.raises(TraceParseError, match="line 1: value 9"):
        parse_program("init 9 0\nc: scan")


def test_a_program_is_checked_where_it_is_made():
    with pytest.raises(ValueError, match="declares a thread twice"):
        Program("twice", (("l", (MethodCall.scan(),)), ("l", ())))
    with pytest.raises(ValueDomainError):
        MethodCall.write(Ptr.X, 99)
    with pytest.raises(ValueDomainError):
        MethodCall.parse("write x 99")
    with pytest.raises(ValueDomainError):
        Program("big", (("c", (MethodCall.scan(),)),), init_x=99)


def test_a_bool_is_no_value():
    """``isinstance(True, int)`` holds, yet a bool renders as ``True`` in a
    trace file's header, which no parser reads back as a value."""
    with pytest.raises(ValueDomainError):
        MethodCall.write(Ptr.X, True)
    with pytest.raises(ValueDomainError):
        Program("bool", (("c", (MethodCall.scan(),)),), init_x=False)


@pytest.mark.parametrize("name", ["gen-x0-y2", "gen-x2-y0", "gen-x1-y1"])
def test_dead_local_merge_matches_full_keys(name, monkeypatch):
    """Clearing dead locals merges states without changing what exploration
    finds: the same schedules and scan results, and no violation either
    way.  The full side never clears a local, so every register a frame
    ever held stays in its key."""
    prog = next(p for p in generated_programs() if p.name == name)
    merged = explore(prog)
    monkeypatch.setattr(snapshot, "clear_dead", lambda frame, *names: frame)
    full = explore(prog)
    assert full.schedules == merged.schedules
    assert full.scan_results == merged.scan_results
    assert merged.ok and full.ok
    assert full.states > merged.states


def _walk_states():
    """Every state of 40 seeded random walks over each two-scan client,
    with its program and the frame that took the step to it (None for an
    initial state), its parts interned as the schedulers intern them: by
    one checker per program, from whose start every walk steps."""
    rng = random.Random(5)
    for prog in two_scan_programs():
        checker = harness._Checker(prog)

        def interned(state):
            phys = checker._canon(state.phys, checker.phys, phys_key)
            return evolve(state, phys=phys, aux=checker._canon(state.aux, checker.aux, aux_key))

        for _ in range(40):
            state = interned(initial_state(prog))
            yield prog, state, None
            while enabled := enabled_tids(prog, state):
                state, before = step_state(prog, state, rng.choice(enabled))
                state = interned(state)
                yield prog, state, before


def test_frame_key_is_primitive_and_complete():
    # A dataclass back in the frame key makes every state key several times
    # slower and fails no other test; a field left out of it merges
    # distinct states.
    # the walks' frames, fresh ones between calls among them
    frames = [f for _, state, _ in _walk_states() for _, f in state.threads if f is not None]
    groups = {}
    for frame in frames:
        key = frame_key(frame)
        assert primitive(key)
        groups.setdefault(key, set()).add(frame)
    # equal keys only for equal frames, and as many keys as distinct frames
    assert all(len(group) == 1 for group in groups.values())
    assert len(groups) == len(set(frames))
    for frame in set(frames):
        for variant in one_field_changed(frame):
            assert frame_key(variant) != frame_key(frame)
    # the two scans of ``s: scan; scan`` start from frames that differ in
    # their call index alone
    assert evolve(make_frame("s", 0, MethodCall.scan()), call_idx=1) in frames
    assert make_frame("s", 0, MethodCall.scan()) in frames


def _entry_key(tid, frame):
    """The key by which explore numbers what a thread holds: its frame's
    ``frame_key``, or the tid of a thread whose calls are done."""
    return tid if frame is None else frame_key(frame)


def test_states_are_equal_exactly_when_their_keys_are():
    """A state is the machine state only: of the states of one checker's
    runs, two are equal exactly when their keys are, whatever paths
    reached them.  A key packs the ids the checker gave the physical and
    auxiliary parts with ids of the threads' frames numbered as explore
    numbers them, in order of first sight by ``frame_key``, a done thread
    by its tid."""
    groups, numbers = {}, {}
    for prog, state, _ in _walk_states():
        eids = tuple(numbers.setdefault(_entry_key(*e), len(numbers)) for e in state.threads)
        key = harness.state_key(memo(state.phys)["id"], memo(state.aux)["id"], eids)
        groups.setdefault((prog.name, key), []).append(state)
    assert all(state == group[0] for group in groups.values() for state in group)
    distinct = {(name, state) for (name, _), group in groups.items() for state in group}
    assert len(distinct) == len(groups)
    # the walks meet states again, so the test compares something
    assert sum(map(len, groups.values())) > len(groups)


def test_derived_fields_follow_from_the_state():
    """A thread holds no frame exactly when its calls are done, and else
    the frame of its first call not yet done, which at ``pc == 0`` is that
    call's fresh one; a step returned its call exactly where it left the
    frame with only its release to take, the frame's last step."""
    finished = returns = 0
    for prog, state, before in _walk_states():
        if before is None:
            done = {tid: 0 for tid, _ in state.threads}
        else:
            after = frame_of(state, before.tid)
            returned = harness._returned(before, after)
            last_but_one = after is not None and after.pc == len(after.steps) - 1
            assert (returned is not None) == last_but_one
            assert returned is None or returned == (before.mask, after)
            returns += last_but_one
            done[before.tid] += before.current_step().kind == "release"
        for tid, frame in state.threads:
            calls = prog.calls_of(tid)
            assert (frame is None) == (done[tid] == len(calls))
            finished += frame is None
            if frame is None:
                continue
            assert (frame.tid, frame.call_idx, frame.call) == (tid, done[tid], calls[done[tid]])
            if frame.pc == 0:
                assert frame == make_frame(tid, frame.call_idx, calls[frame.call_idx])
    assert finished and returns


def _force_violations(monkeypatch):
    """Add a violation at each keyed level of the state checks, naming
    exactly what that level reads: the history on every history with a
    write in flight, the auxiliary part on every one whose scanner is on,
    and both parts on every state whose scanner bit is set.  Add one naming
    both aux states on every edge that changes the aux state, and one
    naming its inputs on every call of each other edge check.  A verdict
    replayed for the wrong history, auxiliary part, pair or edge shows."""
    check_history, check_phases = invariants.check_history, invariants.check_phases
    check_memory, check_transition = invariants.check_memory, invariants.check_transition

    def forced_history(aux):
        rep = check_history(aux)
        if aux.joint_mask:
            rep.append(Violation("forced-state", snapshot.digest(history_key(aux))))
        return rep

    def forced_phases(aux):
        rep = check_phases(aux)
        if aux.scanner.on:
            rep.append(Violation("forced-state", aux_digest(aux)))
        return rep

    def forced_memory(phys, aux):
        rep = check_memory(phys, aux)
        if phys.s_bit:
            rep.append(Violation("forced-state", f"{phys_digest(phys)} {aux_digest(aux)}"))
        return rep

    def forced_transition(pre, post):
        rep = check_transition(pre, post)
        if pre != post:
            rep.append(Violation("forced-edge", f"{aux_digest(pre)} -> {aux_digest(post)}"))
        return rep

    def forced(name, describe):
        check = getattr(invariants, name)

        def forced_check(*args):
            return check(*args) + [Violation("forced-edge", f"{name} " + describe(*args))]

        monkeypatch.setattr(invariants, name, forced_check)

    monkeypatch.setattr(invariants, "check_history", forced_history)
    monkeypatch.setattr(invariants, "check_phases", forced_phases)
    monkeypatch.setattr(invariants, "check_memory", forced_memory)
    monkeypatch.setattr(invariants, "check_transition", forced_transition)
    forced("check_write_fresh", lambda pre, t: f"{aux_digest(pre)} t={t}")
    forced("check_read_lemma", lambda p, value, aux: f"{p}={value} {aux_digest(aux)}")
    forced("check_relink_post", lambda aux, t_x, t_y: f"{aux_digest(aux)} {t_x} {t_y}")
    forced(
        "check_write_post",
        lambda mask, ret, t, tid, p, v: f"{mask} {aux_digest(ret)} {t} {tid} {p}={v}",
    )
    forced(
        "check_scan_post",
        lambda mask, ret, r, witness: f"{mask} {aux_digest(ret)} {r} {witness}",
    )


def _reference_edge_checks(pre, post, before):
    """Every check of the edge on which the frame ``before`` took its step,
    called directly, in the checker's order."""
    fr = frame_of(post, before.tid)
    step = before.current_step()
    reps = [invariants.check_transition(pre.aux, post.aux)]
    if step.kind == "register":
        reps.append(invariants.check_write_fresh(pre.aux, fr.t))
    sc = post.aux.scanner
    if step.kind == "read" and sc.on and sc.bit(step.ptr):
        value = fr.vx if step.ptr == Ptr.X else fr.vy
        reps.append(invariants.check_read_lemma(step.ptr, value, post.aux))
    if step.kind == "relink":
        reps.append(invariants.check_relink_post(post.aux, fr.witness_x, fr.witness_y))
    # a call returns on the step that leaves only its release to take,
    # the last of its steps
    if fr is not None and fr.pc == len(fr.steps) - 1:
        call = before.call
        if call.kind == "write":
            reps.append(
                invariants.check_write_post(before.mask, post.aux, fr.t, fr.tid, call.p, call.v)
            )
        else:
            # the witness is the later in sigma of the two per-pointer events
            witness = max(fr.witness_x, fr.witness_y, key=post.aux.sigma.index)
            reps.append(invariants.check_scan_post(before.mask, post.aux, fr.result, witness))
    return reps


def _reference_violations(prog):
    """explore's depth-first walk, with no interning and no memo: every
    state it reaches first (by its full key) is checked, and every edge, by
    calling the checks directly."""
    found = []

    def absorb(rep, idx):
        found.extend((v.name, v.detail, idx) for v in rep)

    def dfs(state, depth):
        for tid in enabled_tids(prog, state):
            post, before = step_state(prog, state, tid)
            key = _full_key(post)
            new = key not in visited
            if new:
                visited.add(key)
                absorb(invariants.check_all(post.phys, post.aux), depth)
            for rep in _reference_edge_checks(state, post, before):
                absorb(rep, depth)
            if new:
                dfs(post, depth + 1)

    state0 = initial_state(prog)
    visited = {_full_key(state0)}
    absorb(invariants.check_all(state0.phys, state0.aux), -1)
    dfs(state0, 0)
    return found


def test_memoised_checks_match_unmemoised_reference(monkeypatch):
    """explore checks each distinct (phys, aux) pair and aux transition
    once and replays the verdict elsewhere; with a forced violation on
    every state whose scanner is on and every edge that changes the aux
    state, its violation list is the one a walk that checks everything
    gives, step stamps included."""
    _force_violations(monkeypatch)
    prog = client_e()
    report = explore(prog)
    got = [(v.name, v.detail, v.step) for v in report.violations]
    names = {name for name, _, _ in got}
    assert names == {"forced-state", "forced-edge"}
    assert got == _reference_violations(prog)


def test_malformed_states_get_check_alls_verdict(monkeypatch):
    """Where the history or phase part reports a ``wellformed`` violation,
    explore records check_all's verdict on the state, which skips every
    other state invariant but order sanity and the chain lemma."""
    _force_violations(monkeypatch)
    check_history, check_phases = invariants.check_history, invariants.check_phases

    def history(aux):
        rep = check_history(aux)
        if aux.joint_mask and aux.kappa[-1] == Color.RED:
            rep.insert(0, Violation("wellformed", "bent history"))
        return rep

    def phases(aux):
        rep = check_phases(aux)
        if aux.scanner.on and aux.wx.phase != WriterPhase.OFF:
            rep.insert(0, Violation("wellformed", "bent phase"))
        return rep

    monkeypatch.setattr(invariants, "check_history", history)
    monkeypatch.setattr(invariants, "check_phases", phases)
    prog = client_e()
    got = [(v.name, v.detail, v.step) for v in explore(prog).violations]
    assert {"bent history", "bent phase"} <= {detail for _, detail, _ in got}
    assert got == _reference_violations(prog)


def _count_state_checks(monkeypatch):
    """The arguments of every call of each part of the state checks from
    now on, by part."""
    calls = {}
    for name in ("check_history", "check_phases", "check_memory"):
        check, calls[name] = getattr(invariants, name), []

        def counted(*args, check=check, seen=calls[name]):
            seen.append(args)
            return check(*args)

        monkeypatch.setattr(invariants, name, counted)
    return calls


def test_state_checks_run_once_per_part_they_read(monkeypatch):
    """On e, explore runs the history part once per distinct history, the
    phase part once per auxiliary part and the memory part once per
    (phys, aux) pair: 174, 1,003 and 6,205 calls, against 6,205 runs of
    the whole battery when every part was keyed by the pair."""
    calls = _count_state_checks(monkeypatch)
    checkers = _record_checkers(monkeypatch)
    assert explore(client_e()).ok
    [checker] = checkers
    histories = [history_key(aux) for (aux,) in calls["check_history"]]
    phases = [id(aux) for (aux,) in calls["check_phases"]]
    pairs = [(id(phys), id(aux)) for phys, aux in calls["check_memory"]]
    assert (len(histories), len(phases), len(pairs)) == (174, 1_003, 6_205)
    assert len(set(histories)) == len(histories)
    assert set(histories) == {history_key(aux) for aux in checker.aux}
    assert len(set(phases)) == len(phases) == len(checker.aux)
    assert len(set(pairs)) == len(pairs)


class _Unread:
    """A value that fails on any attribute read."""

    def __getattribute__(self, name):
        raise AssertionError(f"read .{name}")


def test_history_part_reads_only_the_history(monkeypatch):
    """The history part's verdict on every aux part of a two-scan explore
    is the same with the writer and scanner records made unreadable: it
    reads only the history, so one verdict per history serves every aux
    part that shares it."""
    checkers = _record_checkers(monkeypatch)
    explore(two_scan_programs()[0])
    [checker] = checkers
    blind = _Unread()
    assert len(checker.aux) > 1_000
    for aux in checker.aux:
        hidden = evolve(aux, wx=blind, wy=blind, scanner=blind)
        assert invariants.check_history(hidden) == invariants.check_history(aux)


def test_aux_blind_steps_read_no_aux_part(explored_steps):
    """The kinds of step with no auxiliary effect are those the effect
    table leaves out, and explore files whole those of them with no edge
    check of their own.  Every step of such a kind from the explores of e
    and the two-scan clients, once per distinct (entry, phys, aux), gives
    with the auxiliary part made unreadable the same post physical part,
    frame, value and outputs as with the part, hands the part back as it
    was, and fails no edge check: so one outcome per (entry, physical
    part) serves every auxiliary part."""
    assert snapshot.AUX_BLIND == {"read", "read-fwd", "release"}
    kinds = harness._FILED_WHOLE
    assert kinds == {"read-fwd", "release"}
    blind, seen, checkers = _Unread(), [], {}
    for prog, tid, frame, phys, aux in explored_steps:
        step = frame.current_step()
        if step.kind not in kinds:
            continue
        seen.append(step.kind)
        post, aux2, *rest = snapshot.apply_step(step, phys, aux, frame)
        hidden = snapshot.apply_step(step, phys, blind, frame)
        assert aux2 is aux and hidden[1] is blind
        assert (hidden[0], *hidden[2:]) == (post, *rest)
        post_frame, value, outputs = rest
        returned = harness._returned(frame, harness._entry_after(prog, post_frame))
        checker = checkers.get(prog.name)
        if checker is None:
            checker = checkers[prog.name] = harness._Checker(prog)
        assert checker._check_edge(blind, blind, step, value, outputs, returned) == ()
    assert set(seen) == kinds
    assert len(seen) > 10_000


@pytest.fixture(scope="session")
def default_runs():
    """explore's reports, kept records and violation lists on e, the
    two-scan clients and a thread that first writes the value its pointer
    holds, on the default path: plain, and with a violation forced at
    every level of the state and edge checks.  Tests that explore these
    programs another way compare against them."""
    with pytest.MonkeyPatch.context() as patch:
        plain = _runs()
        _force_violations(patch)
        return {"plain": plain, "forced": _runs()}


def _runs():
    # a's two registers of x start from equal physical parts
    rewrite = parse_program("init 2 0\na: write x 2; write x 3\ns: scan\n", name="rewrite")
    reports = [explore(prog) for prog in [client_e(), *two_scan_programs(), rewrite]]
    return [
        (r.render(), r.executions, [(v.name, v.detail, v.step) for v in r.violations])
        for r in reports
    ]


def _widen_part_keys(monkeypatch):
    """Key explore's part tables by the frame that steps as well as by
    their own arguments, and file no step whole: each part of a step is
    then shared only by the steps of one entry, as a half step is, and a
    read-fwd or release step is taken once per auxiliary part.  The
    frame's key rides along in each effect's argument, in the outputs and
    in the returned call, so that a key that dropped one of them would
    still name the frame; the functions see their arguments as before."""
    effect_args, returned = harness.effect_args, harness._returned
    aux_effect, frame_effect = harness.aux_effect, harness.frame_effect
    phys_effect, check_edge = harness.phys_effect, harness._Checker._check_edge

    def widened_args(step, frame, value):
        return tuple((frame_key(frame), args) for args in effect_args(step, frame, value))

    def widened_aux_effect(step, args, aux):
        post, outputs = aux_effect(step, args[1], aux)
        return post, (args[0], outputs)

    def unwrapped_check_edge(self, pre, post, step, value, outputs, ret):
        return check_edge(self, pre, post, step, value, outputs[1], ret[1])

    monkeypatch.setattr(harness, "_FILED_WHOLE", frozenset())
    monkeypatch.setattr(harness, "effect_args", widened_args)
    monkeypatch.setattr(harness, "phys_effect", lambda s, arg, phys: phys_effect(s, arg[1], phys))
    monkeypatch.setattr(harness, "aux_effect", widened_aux_effect)
    monkeypatch.setattr(harness, "frame_effect", lambda fr, v, out: frame_effect(fr, v, out[1]))
    monkeypatch.setattr(harness, "_returned", lambda fr, after: (frame_key(fr), returned(fr, after)))
    monkeypatch.setattr(harness._Checker, "_check_edge", unwrapped_check_edge)


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced"])
def test_part_tables_change_no_verdict(forced, default_runs, monkeypatch):
    """Keying each part of a step by its function's own arguments, and
    filing read-fwd and release steps whole by (entry, phys), gives what
    keying each part by the entry as well and taking every step once per
    auxiliary part gives: the same reports, kept records and violation
    lists, step stamps included.  An argument list that left out what its
    function reads would hand one entry's part to another."""
    if forced:
        _force_violations(monkeypatch)
    narrow = default_runs["forced" if forced else "plain"]
    assert all(violations for *_, violations in narrow) == forced
    _widen_part_keys(monkeypatch)
    assert _runs() == narrow


def test_a_step_filed_aux_blind_must_be_blind(monkeypatch):
    """A step filed by (entry, phys) alone must fail no edge check;
    explore refuses one that does, naming its kind, rather than drop a
    violation."""
    _force_violations(monkeypatch)
    monkeypatch.setattr(harness, "_FILED_WHOLE", harness._FILED_WHOLE | {"read"})
    with pytest.raises(GuardViolationError, match="a read step"):
        explore(client_e())


def _explored_edge_checks(monkeypatch, progs):
    """The arguments of every ``check_transition`` call whose two histories
    are equal, and of every ``check_scan_post`` call, that explore makes on
    ``progs``, each distinct call once."""
    check_transition, check_scan_post = invariants.check_transition, invariants.check_scan_post
    equal, scans = {}, {}

    def transition(pre, post):
        if history_key(pre) == history_key(post):
            equal[id(pre), id(post)] = pre, post
        return check_transition(pre, post)

    def scan_post(mask, ret, r, witness):
        scans[mask, id(ret), r, witness] = mask, ret, r, witness
        return check_scan_post(mask, ret, r, witness)

    with monkeypatch.context() as patched:
        patched.setattr(invariants, "check_transition", transition)
        patched.setattr(invariants, "check_scan_post", scan_post)
        for prog in progs:
            assert explore(prog).ok
    return list(equal.values()), list(scans.values())


def _scan_post_by_replay(mask, ret, r, witness):
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


def test_the_edge_checks_shortcuts_skip_nothing(monkeypatch):
    """On e and the two-scan clients, every ``check_transition`` call that
    returns early on equal histories finds nothing when the whole check
    runs, and ``check_scan_post``, reading one pass of prefix evaluations,
    gives on every returning scan, its result as returned and bent, the
    verdict of replaying each candidate with ``eval_at``."""
    equal, scans = _explored_edge_checks(monkeypatch, [client_e(), *two_scan_programs()])
    assert len(equal) > 1_000
    assert len(scans) > 1_000
    # a fresh object equals no other, so no history passes as unchanged
    monkeypatch.setattr(invariants, "history_key", lambda aux: object())
    for pre, post in equal:
        assert invariants.check_transition(pre, post) == []
    bent = 0
    for mask, ret, (x, y), witness in scans:
        for r in {(x, y), (x + 1, y), (x, y + 1), (y, x)}:
            got = invariants.check_scan_post(mask, ret, r, witness)
            assert got == _scan_post_by_replay(mask, ret, r, witness)
            bent += bool(got)
    assert bent > 0


def test_check_memo_is_scoped_to_one_run(monkeypatch):
    """A second explore checks afresh (no verdict leaks from the first),
    and within one explore equal parts reached on different paths share
    one id.  With 0-bit digits no id but 0 fits one, so explore derives no
    key from its parent's and ``state_key`` sees every edge's ids."""
    prog = next(p for p in generated_programs() if p.name == "gen-x1-y1")
    assert explore(prog).ok
    monkeypatch.setattr(harness, "_ID_BITS", 0)
    calls = _watch_state_key(monkeypatch)
    checkers = _record_checkers(monkeypatch)
    entries = _watch_entries(monkeypatch, prog)
    levels = {"check_history": "history", "check_phases": "phase", "check_memory": "memory"}
    for name, level in levels.items():
        forced = [Violation(f"forced-{level}", "every state")]
        monkeypatch.setattr(invariants, name, lambda *parts, forced=forced: list(forced))
    report = explore(prog)
    names = ["forced-history", "forced-phase", "forced-memory"]
    assert [v.name for v in report.violations] == names * report.states
    [checker] = checkers
    ids, seen = {}, 0
    for _, (pid, aid, eids) in calls:
        state = _state_of(checker, entries, pid, aid, eids)
        parts = [(phys_key(state.phys), pid), (aux_key(state.aux), aid)]
        parts += [(_entry_key(*e), eid) for e, eid in zip(state.threads, eids)]
        for key, i in parts:
            ids.setdefault(key, set()).add(i)
        seen += len(parts)
    assert all(len(group) == 1 for group in ids.values())
    assert seen > 2 * len(ids)


def _record_checkers(monkeypatch):
    """The checkers the schedulers make from now on, in order."""
    made = []

    class Recorded(harness._Checker):
        def __init__(self, prog):
            super().__init__(prog)
            made.append(self)

    monkeypatch.setattr(harness, "_Checker", Recorded)
    return made


def _watch_state_key(monkeypatch):
    """Every key ``harness.state_key`` gives from now on, with its ids."""
    keyed, calls = harness.state_key, []

    def watch(*ids):
        key = keyed(*ids)
        calls.append((key, ids))
        return key

    monkeypatch.setattr(harness, "state_key", watch)
    return calls


def _watch_entries(monkeypatch, prog):
    """What each thread holds, with the thread, that the next explore of
    ``prog`` numbers, by id: it numbers each thread's initial frame, then
    each that ``harness._entry_after`` gives, by ``_entry_key`` in order
    of first sight."""
    after, ids, entries = harness._entry_after, {}, []

    def number(tid, frame):
        if ids.setdefault(_entry_key(tid, frame), len(entries)) == len(entries):
            entries.append((tid, frame))

    def watch(prog, frame):
        got = after(prog, frame)
        number(frame.tid, got)
        return got

    for tid, frame in initial_state(prog).threads:
        number(tid, frame)
    monkeypatch.setattr(harness, "_entry_after", watch)
    return entries


def _state_of(checker, entries, pid, aid, eids):
    """The state whose parts have the ids ``pid`` and ``aid`` in
    ``checker`` and the ids ``eids`` in ``entries``."""
    threads = tuple(entries[e] for e in eids)
    return harness.State(checker.phys[pid], checker.aux[aid], threads)


def _full_key(state):
    return (
        phys_key(state.phys),
        aux_key(state.aux),
        tuple((tid, None if f is None else frame_key(f)) for tid, f in state.threads),
    )


@pytest.mark.parametrize(
    "prog, id_bits",
    [
        (next(p for p in generated_programs() if p.name == "gen-x1-y1"), None),
        (two_scan_programs()[0], None),
        # 2-bit digits: ids past 3 overflow, and keys fall back to tuples
        (next(p for p in generated_programs() if p.name == "gen-x1-y1"), 2),
    ],
    ids=["gen-x1-y1", "two-scan", "gen-x1-y1-overflow"],
)
def test_state_key_is_injective(prog, id_bits, monkeypatch):
    """The keys explore files its states under, ``state_key`` of their
    ids, are equal exactly when the states' full keys are.  With 0-bit
    digits explore derives no key from its parent's, so ``state_key`` sees
    the ids of every edge's successor; each is keyed again at the width
    under test (explore's keys at each width are those of
    ``test_derived_keys_are_state_keys``)."""
    key_of, width = harness.state_key, (harness._ID_BITS if id_bits is None else id_bits)
    monkeypatch.setattr(harness, "_ID_BITS", 0)
    calls = _watch_state_key(monkeypatch)
    checkers = _record_checkers(monkeypatch)
    entries = _watch_entries(monkeypatch, prog)
    report = explore(prog)
    [checker] = checkers
    monkeypatch.setattr(harness, "_ID_BITS", width)
    full_keys = {}
    for _, ids in calls:
        full_key = _full_key(_state_of(checker, entries, *ids))
        full_keys.setdefault(key_of(*ids), set()).add(full_key)
    assert all(len(group) == 1 for group in full_keys.values())
    assert len(set().union(*full_keys.values())) == len(full_keys) == report.states
    kinds = {type(key) for key in full_keys}
    assert kinds == ({int} if id_bits is None else {int, tuple})


def _reference_apply_step(step, phys, aux, frame):
    """``apply_step`` as one dispatch that returns the three parts
    together, as it was before it was split into its effects, for a frame
    that holds its invocation mask from the start (``_reference_frame``)."""
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
        aux2, t = aux_ops.register(p, v, aux)
        return phys2, aux2, evolve(frame, pc=nxt, t=t)

    if kind == "check":
        b = snapshot.observed(step, phys)
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
        return phys, aux, evolve(frame, pc=nxt, **{field: snapshot.observed(step, phys)})

    if kind == "read-fwd":
        value = snapshot.observed(step, phys)
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


def _reference_frame(frame, aux):
    """``frame`` as the reference takes it: a call's frame before its
    first step already holds the invocation mask taken from ``aux``."""
    if frame.pc:
        return frame
    return evolve(frame, mask=invariants.capture_spec_snapshot(aux, frame.tid, frame.call.kind))


def _explored_steps(prog):
    """Every distinct (thread, frame, phys, aux) from which explore of
    ``prog`` steps: with 0-bit digits ``state_key`` sees the ids of every
    state reached, and each thread's frame with the state's two parts
    names a step, taken once per distinct triple of ids."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_ID_BITS", 0)
        calls = _watch_state_key(patch)
        checkers = _record_checkers(patch)
        entries = _watch_entries(patch, prog)
        explore(prog)
    [checker] = checkers
    seen = set()
    for _, (pid, aid, eids) in calls:
        for eid in eids:
            if (eid, pid, aid) not in seen:
                seen.add((eid, pid, aid))
                tid, frame = entries[eid]
                phys = checker.phys[pid]
                if snapshot.step_enabled(frame, phys):
                    yield tid, frame, phys, checker.aux[aid]


@pytest.fixture(scope="session")
def explored_steps():
    """Every distinct step of the explores of e and the two-scan clients,
    as (program, thread, frame, phys, aux)."""
    progs = [client_e(), *two_scan_programs()]
    return [(prog, *step) for prog in progs for step in _explored_steps(prog)]


def test_apply_step_composes_the_reference(explored_steps, monkeypatch):
    """``apply_step``, the composition of a step's physical, auxiliary and
    frame effects, gives the post physical part, auxiliary part and frame
    that the one dispatch it replaced gave, on every step from every
    distinct (entry, phys, aux) of the explores of e and the two-scan
    clients, and on every step of 50 random runs of e."""
    for prog, tid, frame, phys, aux in explored_steps:
        step = frame.current_step()
        got = snapshot.apply_step(step, phys, aux, frame)[:3]
        assert got == _reference_apply_step(step, phys, aux, _reference_frame(frame, aux))
    assert len(explored_steps) > 100_000
    log = _record_calls(monkeypatch, "apply_step")
    report = run_random(client_e(), seed=42, runs=50)
    steps = [args for name, args in log if name == "apply_step"]
    assert len(steps) == report.edges
    for step, phys, aux, frame in steps:
        got = snapshot.apply_step(step, phys, aux, frame)[:3]
        assert got == _reference_apply_step(step, phys, aux, _reference_frame(frame, aux))


def _record_states(monkeypatch):
    """The ids and stamp, ``(pid, aid, idx)``, of every ``on_state`` call
    the checkers make from now on, in order."""
    seen, on_state = [], harness._Checker.on_state

    def record(self, pid, aid, idx):
        seen.append((pid, aid, idx))
        on_state(self, pid, aid, idx)

    monkeypatch.setattr(harness._Checker, "on_state", record)
    return seen


@pytest.mark.parametrize(
    "prog",
    [next(p for p in generated_programs() if p.name == "gen-x1-y1"), two_scan_programs()[0]],
    ids=lambda p: p.name,
)
def test_derived_keys_are_state_keys(prog, monkeypatch):
    """explore derives a successor's key from its parent's where the ids
    fit their digits, and calls ``state_key`` elsewhere: at 0-bit digits
    for every key, at 2-bit digits for some (int and tuple keys mix), at
    the default for the first alone.  A derived key other than
    ``state_key``'s would file a state twice or two states as one, yet the
    walk is the same at every width: the same states checked in the same
    order, and the same report and kept records."""
    states = _record_states(monkeypatch)
    calls = _watch_state_key(monkeypatch)
    runs, made, kinds = [], [], []
    for bits in (0, 2, harness._ID_BITS):
        monkeypatch.setattr(harness, "_ID_BITS", bits)
        report = explore(prog)
        violations = [(v.name, v.detail, v.step) for v in report.violations]
        runs.append((states[:], report.render(), report.executions, violations))
        made.append(len(calls))
        kinds.append({type(key) for key, _ in calls})
        states.clear()
        calls.clear()
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0][0]) == report.states
    assert made[0] == report.edges + 1 > made[1] > made[2] == 1
    assert kinds == [{tuple}, {int, tuple}, {int}]


def _record_calls(monkeypatch, *names):
    """Every call from now on of each function ``names`` that ``harness``
    calls by that name, and of ``_Checker._check_edge``, as (name,
    arguments), in order."""
    log = []
    for name in names:
        fn = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *args, fn=fn, name=name: log.append((name, args)) or fn(*args)
        )
    check_edge = harness._Checker._check_edge

    def checked(self, *args):
        log.append(("_check_edge", args))
        return check_edge(self, *args)

    monkeypatch.setattr(harness._Checker, "_check_edge", checked)
    return log


def _count_steps(monkeypatch):
    """Every step a scheduler takes from now on, as ``_record_calls``
    records it: each call of ``apply_step`` (a whole step), of an effect
    that explore calls alone, and of the edge checks."""
    return _record_calls(monkeypatch, "apply_step", "phys_effect", "aux_effect", "frame_effect")


def _whole_steps(log):
    return [args for name, args in log if name == "apply_step"]


def test_explore_steps_only_where_a_table_misses(monkeypatch):
    """On e, explore composes each of the 11,505 half steps its first
    tables miss (one ``observed`` call each) from part tables, and calls
    a function only where its own table misses: 1,168 physical effects,
    2,669 auxiliary effects and 327 frame effects, each once per distinct
    argument list, and 4,088 edge checks, 485 of them for steps it files
    whole.  Of the half steps, 901 (returning relinks and finalizes) miss
    the verdict table alone and call no effect.  It takes no whole step
    (``apply_step`` or ``step_state``; 4,813 ``step_state`` calls when a
    miss took the step whole), folds its kept runs from the trail, and
    would take at least 132,390 steps if it stepped every edge."""
    effects = ("phys_effect", "aux_effect", "frame_effect")
    log = _record_calls(monkeypatch, "observed", "apply_step", "step_state", *effects)
    report = explore(client_e())
    assert (report.edges, report.executions_checked) == (132_390, 120)
    calls = {}
    for name, args in log:
        calls.setdefault(name, []).append(args)
    assert {name: len(args) for name, args in calls.items()} == {
        "observed": 11_505,
        "phys_effect": 1_168,
        "aux_effect": 2_669,
        "frame_effect": 327,
        "_check_edge": 4_088,
    }
    # each effect runs once per distinct argument list, parts by identity
    distinct = {
        "phys_effect": {(step.label, arg, id(part)) for step, arg, part in calls["phys_effect"]},
        "aux_effect": {(step.label, args, id(part)) for step, args, part in calls["aux_effect"]},
        "frame_effect": set(calls["frame_effect"]),
    }
    assert all(len(distinct[name]) == len(calls[name]) for name in effects)
    whole = [step for _, _, step, *_ in calls["_check_edge"] if step.kind in harness._FILED_WHOLE]
    assert len(whole) == 485
    # the calls of each half step follow its ``observed`` call
    fills = []
    for name, args in log:
        if name == "observed":
            fills.append([])
        else:
            fills[-1].append((name, args))
    verdict_only = [
        fill[0][1][2].kind
        for fill in fills
        if [name for name, _ in fill] == ["_check_edge"]
        and fill[0][1][2].kind not in harness._FILED_WHOLE
    ]
    assert len(verdict_only) == 901 and set(verdict_only) == {"finalize", "relink"}


def _count_states(monkeypatch):
    """Every :class:`harness.State` built from now on, by its constructor
    or by ``evolve`` in ``harness``."""
    built = []
    init, evolve = harness.State.__init__, harness.evolve

    def constructed(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def evolved(obj, **changes):
        if isinstance(obj, harness.State):
            built.append(changes)
        return evolve(obj, **changes)

    monkeypatch.setattr(harness.State, "__init__", constructed)
    monkeypatch.setattr(harness, "evolve", evolved)
    return built


def test_random_runs_step_once_per_step(monkeypatch):
    """run_random takes every step of every run afresh: random runs share
    no half steps, so it calls ``apply_step`` once per step it reports.  It
    carries a run as its parts, so it builds one state per run, the
    initial state, and none per step."""
    taken = _count_steps(monkeypatch)
    built = _count_states(monkeypatch)
    report = run_random(client_e(), seed=42, runs=50)
    assert len(_whole_steps(taken)) == report.edges
    assert len(built) == report.schedules == 50


def test_replay_steps_once_per_scheduled_step(monkeypatch):
    """run_schedule takes each step of its schedule once, and folds the
    record from the trail with no step of its own."""
    taken = _count_steps(monkeypatch)
    run_schedule(client_fig1(), FIG1_SCHEDULE)
    assert len(_whole_steps(taken)) == len(FIG1_SCHEDULE) == 28
