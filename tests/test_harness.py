"""Schedulers: exhaustive exploration, replay, random scheduling, clients."""

import random
import re

import pytest

from conftest import one_field_changed, primitive, two_scan_programs
from snapcheck import harness, invariants, snapshot
from snapcheck.aux_model import Ptr, aux_key, memo
from snapcheck.cli import main
from snapcheck.errors import BudgetExceededError, OracleSizeError, ScheduleError, TraceParseError
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
    """Every run record explore keeps, method records included, is the one a
    fresh replay of its schedule builds: the records explore rebuilds from
    the schedule stack at its terminal states survive merging and
    backtracking, also where a thread's second call sets its invocation
    index again (the two-scan clients)."""
    report = explore(prog)
    assert report.executions
    assert len(report.executions) == report.executions_checked
    for ex in report.executions:
        trace = run_schedule(prog, ex.schedule)
        assert trace.methods == ex.methods
        assert (trace.phys_digest, trace.aux_digest) == (ex.phys_digest, ex.aux_digest)
        assert trace.steps[-1].phys_digest == ex.phys_digest
        assert trace.steps[-1].aux_digest == ex.aux_digest


def test_oracle_size_is_checked_before_the_first_step(monkeypatch, tmp_path, capsys):
    """A program with more calls than the oracle takes is refused before
    any step, by every scheduler and by ``snapcheck replay`` (exit 2)."""
    text = "a: " + "; ".join(["write x 2"] * 9) + "\n"
    prog = parse_program(text, name="nine-writes")
    taken, step = [], harness.step_state
    monkeypatch.setattr(harness, "step_state", lambda *args: taken.append(args) or step(*args))
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
    with its program."""
    rng = random.Random(5)
    for prog in two_scan_programs():
        for _ in range(40):
            state = initial_state(prog)
            yield prog, state
            while enabled := enabled_tids(prog, state):
                state = step_state(prog, state, rng.choice(enabled))[0]
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
    """A state is the machine state only: of the states one checker
    interned, two are equal exactly when their keys are, whatever paths
    reached them."""
    checkers = {prog.name: harness._Checker(prog) for prog in two_scan_programs()}
    groups = {}
    for prog, state in _walk_states():
        state = checkers[prog.name].intern(state)
        groups.setdefault((prog.name, harness.state_key(*_ids(state))), []).append(state)
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
    """Add a violation naming the state on every state whose scanner is on,
    one naming both aux states on every edge that changes the aux state,
    and one naming its inputs on every call of each other edge check, so
    that a verdict replayed for the wrong state or edge shows."""
    check_state, check_transition = invariants.check_state, invariants.check_transition

    def forced_state(phys, aux):
        rep = check_state(phys, aux)
        if aux.scanner.on:
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

    monkeypatch.setattr(invariants, "check_state", forced_state)
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
    after = post.entry(before.tid)
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


def test_check_memo_is_scoped_to_one_run(monkeypatch):
    """A second explore checks afresh (no verdict leaks from the first),
    and within one explore equal parts reached on different paths share
    one id."""
    prog = next(p for p in generated_programs() if p.name == "gen-x1-y1")
    assert explore(prog).ok
    calls = _watch_state_key(monkeypatch)
    checkers = _record_checkers(monkeypatch)

    def forced_all(phys, aux):
        return [Violation("forced", "every state")]

    monkeypatch.setattr(invariants, "check_all", forced_all)
    report = explore(prog)
    assert [v.name for v in report.violations] == ["forced"] * report.states
    [checker] = checkers
    ids, seen = {}, 0
    for _, (pid, aid, eids) in calls:
        state = _state_of(checker, pid, aid, eids)
        parts = [(phys_key(state.phys), pid), (aux_key(state.aux), aid)]
        parts += [(entry_key(tid, e), eid) for (tid, e), eid in zip(state.threads, eids)]
        for key, i in parts:
            ids.setdefault(key, set()).add(i)
        seen += len(parts)
    assert all(len(group) == 1 for group in ids.values())
    assert seen > 2 * len(ids)


def _ids(state):
    """The ids that the checker which interned ``state`` gave its parts."""
    return (
        memo(state.phys)["id"],
        memo(state.aux)["id"],
        tuple(memo(e)["id"] for _, e in state.threads),
    )


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


def _state_of(checker, pid, aid, eids):
    """The state whose parts have the ids ``pid``, ``aid`` and ``eids`` in
    ``checker``."""
    entries = tuple(zip(checker.tids, (checker.entries[e] for e in eids)))
    return harness.State(checker.phys[pid], checker.aux[aid], entries)


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
    """The keys explore files its states under are equal exactly when the
    states' full keys are."""
    if id_bits is not None:
        monkeypatch.setattr(harness, "_ID_BITS", id_bits)
    calls = _watch_state_key(monkeypatch)
    checkers = _record_checkers(monkeypatch)
    report = explore(prog)
    [checker] = checkers
    full_keys = {}
    for key, ids in calls:
        full_keys.setdefault(key, set()).add(_full_key(_state_of(checker, *ids)))
    assert all(len(group) == 1 for group in full_keys.values())
    assert len(set().union(*full_keys.values())) == len(full_keys) == report.states
    kinds = {type(key) for key in full_keys}
    assert kinds == ({int} if id_bits is None else {int, tuple})


def test_explore_steps_only_where_a_table_misses(monkeypatch):
    """explore takes a step (``step_state``) once per distinct half step of
    e, and again on the replays that rebuild its kept runs: 18,600 and
    3,312 of them.  Stepping every edge would take at least 132,390."""
    taken, step = [], harness.step_state
    monkeypatch.setattr(harness, "step_state", lambda *args: taken.append(args) or step(*args))
    report = explore(client_e())
    assert (report.edges, report.executions_checked) == (132_390, 120)
    assert sum(len(ex.schedule) for ex in report.executions) == 3_312
    assert len(taken) == 18_600 + 3_312
