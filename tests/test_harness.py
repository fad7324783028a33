"""Schedulers: exhaustive exploration, replay, random scheduling, clients."""

import random
import re

import pytest

from conftest import entry, one_field_changed, primitive, two_scan_programs
from snapcheck import harness, invariants, snapshot
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
    entry_key,
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
from snapcheck.snapshot import MethodCall, aux_digest, call_steps, phys_digest, phys_key
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
        fr = entry(state, tid).frame
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
    rng = random.Random(5)
    state, schedule = initial_state(prog), []
    while enabled := enabled_tids(prog, state):
        schedule.append(rng.choice(enabled))
        state = step_state(prog, state, schedule[-1])[0]
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
    with its program, walked as the schedulers walk: from the start of one
    checker per program, stepping through its ``take``."""
    rng = random.Random(5)
    for prog in two_scan_programs():
        checker = harness._Checker(prog)
        for _ in range(40):
            state = checker.start()
            yield prog, state
            while enabled := enabled_tids(prog, state):
                state = checker.take(state, state.index(rng.choice(enabled)))[0]
                yield prog, state


def test_frame_key_is_primitive_and_complete():
    # A dataclass back in the frame key makes every state key several times
    # slower and fails no other test; a field left out of it merges
    # distinct states.
    frames = [e.frame for _, state in _walk_states() for _, e in state.threads]
    frames = [frame for frame in frames if frame is not None]
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


def test_states_are_equal_exactly_when_their_keys_are():
    """A state is the machine state only: of the states of one checker's
    runs, two are equal exactly when their keys are, whatever paths
    reached them.  A key packs the ids the checker gave the physical and
    auxiliary parts with ids of the entries numbered as explore numbers
    them, by ``entry_key`` in order of first sight."""
    groups, numbers = {}, {}
    for prog, state in _walk_states():
        eids = tuple(numbers.setdefault(entry_key(*e), len(numbers)) for e in state.threads)
        key = harness.state_key(memo(state.phys)["id"], memo(state.aux)["id"], eids)
        groups.setdefault((prog.name, key), []).append(state)
    assert all(state == group[0] for group in groups.values() for state in group)
    distinct = {(name, state) for (name, _), group in groups.items() for state in group}
    assert len(distinct) == len(groups)
    # the walks meet states again, so the test compares something
    assert sum(map(len, groups.values())) > len(groups)


def test_derived_fields_follow_from_the_state():
    """An entry's next step is its frame's, or between calls the first step
    of the thread's next call; it returned its call exactly on the step
    before the release."""
    for prog, state in _walk_states():
        for tid, entry in state.threads:
            frame = entry.frame
            if frame is not None:
                assert entry.step == frame.current_step()
                assert entry.returned == (frame.pc == len(frame.steps) - 1)
                continue
            calls = prog.calls_of(tid)
            if entry.call_idx < len(calls):
                assert entry.step == call_steps(calls[entry.call_idx])[0]
            else:
                assert entry.step is None
            assert not entry.returned


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
    after = entry(post, before.tid)
    fr = after.frame
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
    if after.returned:
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


def test_aux_blind_steps_read_no_aux_part(monkeypatch):
    """Every read-fwd and release half step of the explores of e and the
    two-scan clients, taken once per entry and auxiliary part (the part
    tables keyed by the whole entry), gives with the auxiliary part made
    unreadable the same post physical part, entries and frame and the same
    (empty) edge verdict, and hands the part back as it was: so one
    outcome per (entry, physical part) serves every auxiliary part."""
    kinds = snapshot.AUX_BLIND
    assert kinds == {"read-fwd", "release"}
    monkeypatch.setattr(snapshot, "AUX_BLIND", frozenset())
    _widen_part_keys(monkeypatch)
    taken = _count_steps(monkeypatch)
    for prog in [client_e(), *two_scan_programs()]:
        explore(prog)
    blind, seen = _Unread(), []
    for prog, state, tid in taken:
        i = state.index(tid)
        kind = state.threads[i][1].step.kind
        if kind not in kinds:
            continue
        seen.append(kind)
        post, before = step_state(prog, state, tid)
        hidden, hidden_before = step_state(prog, evolve(state, aux=blind), tid)
        assert post.aux is state.aux and hidden.aux is blind
        assert (hidden.phys, hidden.threads, hidden_before) == (post.phys, post.threads, before)
        checker = harness._Checker(prog)
        verdict = checker._check_edge(state.aux, post.aux, before, post.threads[i][1])
        assert checker._check_edge(blind, blind, before, hidden.threads[i][1]) == verdict == ()
    assert set(seen) == kinds
    assert len(seen) > 10_000


def _widening_changes_nothing(monkeypatch, forced, widen):
    """Check that explore gives the same reports, kept records and
    violation lists on e, the two-scan clients and a thread that first
    writes the value its pointer holds, before and after ``widen`` keys
    some of its tables by more; with a violation forced at every level of
    the state and edge checks where ``forced``."""
    if forced:
        _force_violations(monkeypatch)
    # a's two registers of x start from equal physical parts
    rewrite = parse_program("init 2 0\na: write x 2; write x 3\ns: scan\n", name="rewrite")
    progs = [client_e(), *two_scan_programs(), rewrite]

    def runs():
        reports = [explore(prog) for prog in progs]
        return [
            (r.render(), r.executions, [(v.name, v.detail, v.step) for v in r.violations])
            for r in reports
        ]

    narrow = runs()
    assert all(violations for *_, violations in narrow) == forced
    widen(monkeypatch)
    assert runs() == narrow


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced"])
def test_aux_blind_steps_change_no_verdict(forced, monkeypatch):
    """Filing read-fwd and release steps by (entry, phys) and carrying the
    aux id through gives what taking them once per aux part gives."""
    _widening_changes_nothing(
        monkeypatch, forced, lambda patch: patch.setattr(snapshot, "AUX_BLIND", frozenset())
    )


def _widen_part_keys(monkeypatch):
    """Key explore's part tables by the whole entry: each part of a step
    is then shared only by the steps of one entry, as a half step is."""
    monkeypatch.setattr(harness, "_phys_args", lambda tid, e: entry_key(tid, e))
    monkeypatch.setattr(harness, "_aux_args", lambda tid, e, value: (entry_key(tid, e), value))
    monkeypatch.setattr(
        harness,
        "_verdict_args",
        lambda tid, e, value, outputs, after: (entry_key(tid, e), value, outputs),
    )


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced"])
def test_part_tables_change_no_verdict(forced, monkeypatch):
    """Keying each part of a step by what it reads (``_phys_args``,
    ``_aux_args``, ``_verdict_args``) gives what keying it by the whole
    entry gives.  A projection that drops a field its part reads would
    hand one entry's part to another."""
    _widening_changes_nothing(monkeypatch, forced, _widen_part_keys)


def test_a_step_filed_aux_blind_must_be_blind(monkeypatch):
    """A step filed by (entry, phys) alone must leave the auxiliary part as
    it was and fail no edge check; explore refuses one that does, naming
    its kind, rather than carry a wrong aux id or drop a violation."""
    blind = snapshot.AUX_BLIND
    monkeypatch.setattr(snapshot, "AUX_BLIND", blind | {"register"})
    with pytest.raises(GuardViolationError, match="a register step changed the auxiliary part"):
        explore(client_e())
    _force_violations(monkeypatch)
    monkeypatch.setattr(snapshot, "AUX_BLIND", blind | {"read"})
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
    entries = _watch_entries(monkeypatch)
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
        parts += [(entry_key(tid, e), eid) for (tid, e), eid in zip(state.threads, eids)]
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


def _watch_entries(monkeypatch):
    """The entries, with their threads, that explore numbers from now on,
    by id: it numbers them by ``harness.entry_key``, in order of first
    sight."""
    keyed, ids, entries = harness.entry_key, {}, []

    def watch(tid, entry):
        key = keyed(tid, entry)
        if ids.setdefault(key, len(entries)) == len(entries):
            entries.append((tid, entry))
        return key

    monkeypatch.setattr(harness, "entry_key", watch)
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
        tuple(
            (tid, e.call_idx, None if e.frame is None else frame_key(e.frame))
            for tid, e in state.threads
        ),
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
    entries = _watch_entries(monkeypatch)
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


def _count_steps(monkeypatch):
    """Every call of ``harness.step_state`` from now on, with its
    arguments."""
    taken, step = [], harness.step_state
    monkeypatch.setattr(harness, "step_state", lambda *args: taken.append(args) or step(*args))
    return taken


def test_explore_steps_only_where_a_table_misses(monkeypatch):
    """explore takes a step (``step_state``) on e only where one of its
    part tables misses: a half step whose physical change, auxiliary
    transition, frame update and edge verdict were each seen on another
    entry is composed from them, 4,813 steps in all.  Keyed by the whole
    entry, as half steps are, the parts take 11,505.  It folds its kept
    runs from the trail with no step of their own.  Stepping every edge
    would take at least 132,390."""
    taken = _count_steps(monkeypatch)
    report = explore(client_e())
    assert (report.edges, report.executions_checked) == (132_390, 120)
    assert len(taken) == 4_813
    taken.clear()
    _widen_part_keys(monkeypatch)
    explore(client_e())
    assert len(taken) == 11_505


def test_random_runs_step_once_per_step(monkeypatch):
    """run_random takes every step of every run afresh: random runs share
    no half steps, so it calls ``step_state`` once per step it reports."""
    taken = _count_steps(monkeypatch)
    report = run_random(client_e(), seed=42, runs=50)
    assert len(taken) == report.edges


def test_replay_steps_once_per_scheduled_step(monkeypatch):
    """run_schedule takes each step of its schedule once, and folds the
    record from the trail with no step of its own."""
    taken = _count_steps(monkeypatch)
    run_schedule(client_fig1(), FIG1_SCHEDULE)
    assert len(taken) == len(FIG1_SCHEDULE) == 28
