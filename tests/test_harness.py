"""Schedulers: exhaustive exploration, replay, random scheduling, clients."""

import _blake2
import hashlib
import pickle
import random
import re
from dataclasses import dataclass

import pytest

import reference
from conftest import one_field_changed, primitive, two_scan_programs
from reference import entry_key, frame_of, full_key, random_schedule
from snapcheck import harness, invariants, snapshot
from snapcheck.aux_model import Color, Ptr, WriterPhase, aux_key, evolve, history_key, memo
from snapcheck.cli import main
from snapcheck.errors import (
    BudgetExceededError,
    GuardViolationError,
    OracleSizeError,
    ScheduleError,
    TraceParseError,
    ValueDomainError,
)
from snapcheck.harness import (
    FIG1_SCHEDULE,
    Program,
    client_e,
    client_e_prime,
    client_fig1,
    explore,
    generated_programs,
    initial_state,
    parse_program,
    run_random,
    run_schedule,
)
from snapcheck.invariants import Violation
from snapcheck.snapshot import (
    MethodCall,
    aux_digest,
    frame_key,
    make_frame,
    phys_key,
)
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


def test_a_run_stuck_with_calls_left_is_a_deadlock(monkeypatch):
    """A run that ends where no thread can step while a thread still has a
    call is a ``deadlock`` violation naming that thread, and no completed
    run for the oracle to check, in every scheduler: here a release of the
    x-writer lock leaves it held, so one writer of x waits forever."""
    phys_effect = snapshot.phys_effect

    def kept_lock(step, arg, phys):
        return phys if step.label == "release:wx" else phys_effect(step, arg, phys)

    monkeypatch.setattr(snapshot, "phys_effect", kept_lock)
    report = explore(client_e())
    details = {v.detail for v in report.violations if v.name == "deadlock"}
    assert details == {f"no thread can step, with calls left in {tid}" for tid in "lr"}
    assert len(report.violations) == len(report.executions) == 18
    assert report.executions_checked == 0
    sampled = run_random(client_e(), seed=1, runs=5)
    assert [v.name for v in sampled.violations] == ["deadlock"] * 5
    assert sampled.executions_checked == 0
    [violation] = run_schedule(client_e(), report.executions[0].schedule).violations
    assert "deadlock" in violation


def test_a_step_that_loops_is_refused(monkeypatch):
    """explore counts a state's schedules once its successors are done, so
    a step back to a state on the path that reached it would add none;
    explore refuses it rather than report too few schedules.  The drive
    loop refuses a run longer than its calls' step lists, which a step that
    loops would never end, and a schedule that long.  Here a read-fwd step
    leaves its frame, and so the state, as it was."""
    frame_effect = snapshot.frame_effect

    def stays(frame, value, outputs):
        kind = frame.current_step().kind
        return frame if kind == "read-fwd" else frame_effect(frame, value, outputs)

    monkeypatch.setattr(snapshot, "frame_effect", stays)
    with pytest.raises(GuardViolationError, match="a read-fwd:x step of c loops"):
        explore(client_e())
    # l's two writes, c's scan and r's write: 6 + 6 + 11 + 6 steps
    with pytest.raises(GuardViolationError, match="a run of e takes more than 29 steps"):
        run_random(client_e(), seed=1, runs=1)
    with pytest.raises(GuardViolationError, match="a run of e takes more than 29 steps"):
        run_schedule(client_e(), ("c",) * 30)


def test_a_scan_that_ignores_forwarded_values_is_refused(monkeypatch):
    """The scanner miss of the paper's Fig. 1 made real: a scan whose
    read-fwd steps drop the forwarded value returns the pair it read from
    the pointers, which no last green or yellow event of x wrote once a
    later write of x has landed.  Patched once, on ``snapshot``, it is what
    every scheduler runs, and relink's guard refuses it in each."""
    frame_effect = snapshot.frame_effect

    def ignores_forwarded(frame, value, outputs):
        if frame.current_step().kind == "read-fwd":
            value = None
        return frame_effect(frame, value, outputs)

    monkeypatch.setattr(snapshot, "frame_effect", ignores_forwarded)
    refused = "relink: no last-green-or-yellow x-event with value 5"
    with pytest.raises(GuardViolationError, match=refused):
        explore(client_e())
    with pytest.raises(GuardViolationError, match=refused):
        run_random(client_e(), seed=1, runs=50)
    with pytest.raises(GuardViolationError, match=refused):
        run_schedule(client_fig1(), FIG1_SCHEDULE)


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
def test_exploration_soundness_replay(prog, default_runs):
    """Every run record explore keeps, method records included, is the one
    a fresh replay of its schedule builds, and the one built straight from
    the frames of the steps: the records explore folds from its trail at
    its terminal states survive merging and backtracking, also where a
    thread's second call sets its invocation index again (the two-scan
    clients, whose records are those of their recorded explores)."""
    report = default_runs[prog.name].report if prog.name in default_runs else explore(prog)
    assert report.executions
    assert len(report.executions) == report.executions_checked
    for ex in report.executions:
        trace = run_schedule(prog, ex.schedule)
        assert trace.methods == ex.methods == reference.methods(prog, ex.schedule)
        assert (trace.phys_digest, trace.aux_digest) == (ex.phys_digest, ex.aux_digest)
        assert trace.steps[-1].phys_digest == ex.phys_digest
        assert trace.steps[-1].aux_digest == ex.aux_digest


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
    walk = list(reference.random_walk(prog, random.Random(5)))[1:]
    schedule = [before.tid for _, before in walk]
    steps = run_schedule(prog, schedule).steps
    assert len(steps) == len(schedule) > 30
    for record, (state, _) in zip(steps, walk):
        assert record.phys_digest == snapshot.phys_digest(state.phys)
        assert record.aux_digest == snapshot.aux_digest(state.aux)


def test_digest_is_hashlibs_blake2b(default_runs):
    """``snapshot.digest`` takes ``blake2b`` from ``_blake2``, which is the
    object ``hashlib.blake2b`` is, so every digest is what ``hashlib``
    would give: checked on the key of every physical and auxiliary part
    that e's explore interned."""
    assert hashlib.blake2b is _blake2.blake2b
    checker = default_runs["e"].checker
    keys = [*map(phys_key, checker.phys), *map(aux_key, checker.aux)]
    assert len(keys) > 1000
    for key in keys:
        want = hashlib.blake2b(pickle.dumps(key, protocol=5), digest_size=8).hexdigest()
        assert snapshot.digest(key) == want


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
# complete schedule that ``random_schedule`` draws with
# ``random.Random(seed)`` per (program, seed).
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
        (name, seed): blake(render_trace(run_schedule(prog, schedule)))
        for name, seed in REPLAY_RECORDS
        for prog in [progs[name]]
        for schedule in [random_schedule(prog, random.Random(seed))]
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
    with pytest.raises(TraceParseError, match="line 3: 'init'"):
        parse_program("init 5 0\na: write x 2\ninit 2 1\ns: scan\n")  # repeated
    with pytest.raises(TraceParseError, match="line 4: 'init'"):
        parse_program("# leading comment\n\nc: scan\ninit 2 1\n")  # after the threads
    # a word that only starts with ``init`` is no init line
    for line in ("initial 3 4", "init7 1 2"):
        with pytest.raises(TraceParseError, match="line 1: expected 'tid: call"):
            parse_program(f"{line}\nc: scan\n")


def test_a_program_is_checked_where_it_is_made():
    with pytest.raises(ValueError, match="declares a thread twice"):
        Program("twice", (("l", (MethodCall.scan(),)), ("l", ())))
    with pytest.raises(ValueDomainError):
        MethodCall.write(Ptr.X, 99)
    with pytest.raises(ValueDomainError):
        MethodCall.parse("write x 99")
    with pytest.raises(ValueDomainError):
        Program("big", (("c", (MethodCall.scan(),)),), init_x=99)
    # a call is a write to x or y, or a scan with neither pointer nor value
    with pytest.raises(ValueError, match="a write's pointer is x or y, not 'z'"):
        MethodCall.write("z", 2)
    with pytest.raises(ValueError, match="a scan takes no pointer and no value"):
        MethodCall("scan", Ptr.X, 3)
    with pytest.raises(ValueError, match="a call is a write or a scan, not 'read'"):
        MethodCall("read")


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
        for _ in range(40):
            for state, before in reference.random_walk(prog, rng):
                phys = checker._canon(state.phys, checker.phys, phys_key)
                aux = checker._canon(state.aux, checker.aux, aux_key)
                yield prog, evolve(state, phys=phys, aux=aux), before


def test_frame_key_is_primitive_and_complete():
    # A dataclass back in the frame key makes every state key several times
    # slower and fails no other test; a field left out of it merges
    # distinct states.  It leaves out the calls after the frame's own,
    # which the tid and the call index fix within one program.
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
            if variant.later is frame.later:
                assert frame_key(variant) != frame_key(frame)
            else:
                assert frame_key(variant) == frame_key(frame)
    # the two scans of ``s: scan; scan`` start from frames whose keys differ
    # in their call index alone
    scan = MethodCall.scan()
    first, second = make_frame("s", 0, (scan, scan)), make_frame("s", 1, (scan,))
    assert first in frames and second in frames
    assert frame_key(evolve(first, call_idx=1)) == frame_key(second)


def test_states_are_equal_exactly_when_their_keys_are():
    """A state is the machine state only: of the states of one checker's
    runs, two are equal exactly when their keys are, whatever paths
    reached them.  A key packs the ids the checker gave the physical and
    auxiliary parts with ids of the threads' frames numbered as explore
    numbers them, in order of first sight by ``frame_key``, a done thread
    by its tid."""
    groups, numbers = {}, {}
    for prog, state, _ in _walk_states():
        eids = tuple(numbers.setdefault(entry_key(*e), len(numbers)) for e in state.threads)
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
    call's fresh one; a step returned its call (``snapshot.returns``)
    exactly where it left the frame with only its release to take, the
    frame's last step, and only there hands its edge check an argument,
    which starts with the call's invocation mask."""
    finished = returns = 0
    for prog, state, before in _walk_states():
        if before is None:
            done = {tid: 0 for tid, _ in state.threads}
        else:
            after = frame_of(state, before.tid)
            arg = snapshot.step_args(before.current_step(), before, state.phys)[3]
            last_but_one = after is not None and after.pc == len(snapshot._STEPS[after.call.p]) - 1
            assert snapshot.returns(after) == last_but_one == (arg is not None)
            assert arg is None or arg[0] == before.mask
            returns += last_but_one
            done[before.tid] += before.current_step().kind == "release"
        for tid, frame in state.threads:
            calls = dict(prog.threads)[tid]
            assert (frame is None) == (done[tid] == len(calls))
            finished += frame is None
            if frame is None:
                continue
            assert (frame.tid, frame.call_idx, frame.call, frame.later) == (
                tid,
                done[tid],
                calls[done[tid]],
                calls[done[tid] + 1 :],
            )
            if frame.pc == 0:
                assert frame == make_frame(tid, frame.call_idx, calls[frame.call_idx :])
    assert finished and returns


def _history_digest(aux):
    return snapshot.digest(history_key(aux))


def _view_digest(aux):
    sc = aux.scanner
    return snapshot.digest((history_key(aux), sc.on, sc.sx, sc.sy))


def _force_violations(monkeypatch):
    """Add a violation at each keyed level of the checks, naming exactly
    what that level reads: the history on every history with a write in
    flight, the auxiliary part on every one whose scanner is on, and the
    physical cells and the auxiliary view on every such state where the
    memory part runs.  Add one naming both histories on every edge that
    changes the history, and one naming its inputs on every call of each
    other edge check, the history of each auxiliary part it takes (with
    the scanner's bits for the read lemma).  A verdict replayed for the
    wrong history, auxiliary part, cells and view, or edge shows."""
    check_history, check_phases = invariants.check_history, invariants.check_phases
    check_memory, check_transition = invariants.check_memory, invariants.check_transition

    def forced_history(aux):
        rep = check_history(aux)
        if aux.joint_mask:
            rep.append(Violation("forced-state", _history_digest(aux)))
        return rep

    def forced_phases(aux):
        rep = check_phases(aux)
        if aux.scanner.on:
            rep.append(Violation("forced-state", aux_digest(aux)))
        return rep

    def forced_memory(phys, aux):
        rep = check_memory(phys, aux)
        if aux.scanner.on:
            cells = phys.x, phys.y, phys.fx, phys.fy
            rep.append(Violation("forced-state", f"{cells} {_view_digest(aux)}"))
        return rep

    def forced_transition(pre, post):
        rep = check_transition(pre, post)
        if history_key(pre) != history_key(post):
            detail = f"{_history_digest(pre)} -> {_history_digest(post)}"
            rep.append(Violation("forced-edge", detail))
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
    forced("check_write_fresh", lambda pre, t: f"{_history_digest(pre)} t={t}")
    forced("check_read_lemma", lambda p, value, aux: f"{p}={value} {_view_digest(aux)}")
    forced("check_relink_post", lambda aux, t_x, t_y: f"{_history_digest(aux)} {t_x} {t_y}")
    forced(
        "check_write_post",
        lambda mask, ret, t, tid, p, v: f"{mask} {_history_digest(ret)} {t} {tid} {p}={v}",
    )
    forced(
        "check_scan_post",
        lambda mask, ret, r, witness: f"{mask} {_history_digest(ret)} {r} {witness}",
    )


def test_state_checks_run_once_per_part_they_read(default_runs):
    """On e, explore runs the history part once per distinct history, the
    phase part once per auxiliary part and the memory part once per
    distinct physical cells and auxiliary view: 174, 1,003 and 1,203
    calls, against 6,205 runs of the whole battery, and later of the
    memory part, while they were keyed by the (phys, aux) pair."""
    run = default_runs["e"]
    calls, checker = _calls(run.log), run.checker
    histories = [history_key(aux) for (aux,) in calls["check_history"]]
    phases = [id(aux) for (aux,) in calls["check_phases"]]
    memory = [
        (invariants.cells_key(phys), invariants.view_key(aux))
        for phys, aux in calls["check_memory"]
    ]
    assert (len(histories), len(phases), len(memory)) == (174, 1_003, 1_203)
    assert len(set(histories)) == len(histories)
    assert set(histories) == {history_key(aux) for aux in checker.aux}
    assert len(set(phases)) == len(phases) == len(checker.aux)
    assert len(set(memory)) == len(memory)


class _Unread:
    """A value that fails on any attribute read, comparison, hash or truth
    test."""

    def __getattribute__(self, name):
        raise AssertionError(f"read .{name}")

    def _used(self, *args):
        raise AssertionError("used an unread value")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = __bool__ = _used


def test_history_part_reads_only_the_history(default_runs):
    """The history part's verdict on every aux part of a two-scan explore
    is the same with the writer and scanner records made unreadable: it
    reads only the history, so one verdict per history serves every aux
    part that shares it."""
    checker = default_runs["two-scan"].checker
    blind = _Unread()
    assert len(checker.aux) > 1_000
    for aux in checker.aux:
        hidden = evolve(aux, wx=blind, wy=blind, scanner=blind)
        assert invariants.check_history(hidden) == invariants.check_history(aux)


def _view_only(aux):
    """``aux`` with all but its view unreadable (``invariants.view_key``):
    the writer records and the scanner's ``t_off``."""
    blind = _Unread()
    return evolve(aux, wx=blind, wy=blind, scanner=evolve(aux.scanner, t_off=blind))


def _keyed_reads(runs):
    """Run every ``edge_check`` and ``check_memory`` call logged in
    ``runs`` again, on parts whose fields outside the check's key are
    unreadable (``_Unread``), and assert the verdict of each is the one on
    the whole parts: the edge checks' key holds the two auxiliary parts'
    views, and the memory part's the physical cells
    (``invariants.cells_key``) and the view.  Returns the number of calls
    of each."""
    blind = _Unread()
    edges = memory = 0
    for run in runs:
        calls = _calls(run.log)
        hidden = {id(aux): _view_only(aux) for aux in run.checker.aux}
        for step, pre, post, *args in calls["edge_check"]:
            got = snapshot.edge_check(step, hidden[id(pre)], hidden[id(post)], *args)
            assert got == snapshot.edge_check(step, pre, post, *args)
            edges += 1
        for phys, aux in calls["check_memory"]:
            cells = evolve(phys, s_bit=blind, lock_wx=blind, lock_wy=blind, lock_scan=blind)
            got = invariants.check_memory(cells, hidden[id(aux)])
            assert got == invariants.check_memory(phys, aux)
            memory += 1
    return edges, memory


def test_edge_and_memory_checks_read_only_their_keys(default_runs, monkeypatch):
    """Every distinct edge check and memory part that explore runs on e
    and the two-scan clients gives the same verdict with the writer
    records, the scanner's ``t_off``, the locks and the scanner bit made
    unreadable, so one verdict per key serves every edge and state that
    shares it.  A check that read a writer record would fail the test."""
    runs = [default_runs[name] for name in ("e", "two-scan", "fig1-two-scan")]
    edges, memory = _keyed_reads(runs)
    assert edges > 9_000 and memory > 4_000
    check_transition = invariants.check_transition

    def reads_writer(pre, post):
        return check_transition(pre, post) if pre.wx.phase else []

    monkeypatch.setattr(invariants, "check_transition", reads_writer)
    with pytest.raises(AssertionError, match=r"read \.phase"):
        _keyed_reads(runs[:1])


@pytest.fixture(scope="session")
def default_runs():
    """The one recorded explore (``_explored_states``) of each of e, the
    two-scan clients and a thread that first writes the value its pointer
    holds, by program name, with a violation forced at every level of the
    state and edge checks, each check logged outside its forcing wrapper.
    Neither the 0-bit digits nor forcing change a step, so the reports,
    records and states are the default path's.  Tests read these
    programs' explores here, or compare other ways of exploring them."""
    # a's two registers of x start from equal physical parts
    rewrite = parse_program("init 2 0\na: write x 2; write x 3\ns: scan\n", name="rewrite")
    with pytest.MonkeyPatch.context() as patch:
        _force_violations(patch)
        return {p.name: _explored_states(p) for p in [client_e(), *two_scan_programs(), rewrite]}


def _outcome(report):
    """A report's render, kept records and violation list, as ``(name,
    detail, step)`` tuples.  The render leaves out the violation lines and
    count, which the list determines."""
    violations = [(v.name, v.detail, v.step) for v in report.violations]
    return evolve(report, violations=[]).render(), report.executions, violations


def _widen_part_keys(monkeypatch):
    """Key explore's part tables by the frame that steps as well as by
    their own arguments: each part of a step is then shared only by the
    steps of one entry, as a half step is.  The frame's key rides along in
    each effect's argument, in the outputs and in the check argument, so
    that a key that dropped one of them would still name the frame; the
    functions see their arguments as before."""
    step_args, aux_effect = snapshot.step_args, snapshot.aux_effect
    phys_effect, frame_effect = snapshot.phys_effect, snapshot.frame_effect
    edge_check = snapshot.edge_check

    def widened_args(step, frame, phys):
        value, *args = step_args(step, frame, phys)
        return (value, *((frame_key(frame), arg) for arg in args))

    def widened_aux_effect(step, args, aux):
        post, outputs = aux_effect(step, args[1], aux)
        return post, (args[0], outputs)

    def unwrapped_edge_check(step, pre, post, value, outputs, arg):
        return edge_check(step, pre, post, value, outputs[1], arg[1])

    monkeypatch.setattr(snapshot, "step_args", widened_args)
    monkeypatch.setattr(snapshot, "phys_effect", lambda s, arg, phys: phys_effect(s, arg[1], phys))
    monkeypatch.setattr(snapshot, "aux_effect", widened_aux_effect)
    monkeypatch.setattr(snapshot, "frame_effect", lambda fr, v, out: frame_effect(fr, v, out[1]))
    monkeypatch.setattr(snapshot, "edge_check", unwrapped_edge_check)


@pytest.mark.parametrize("force", [_force_violations], ids=["forced"])
def test_part_tables_change_no_verdict(force, default_runs, monkeypatch):
    """Keying each part of a step by its function's own arguments gives
    what keying each part by the entry as well gives: the same reports,
    kept records and violation lists, step stamps included, with a
    violation forced at every level of the checks (and no other
    violation).  An argument list that left out what its function reads
    would hand one entry's part to another."""
    force(monkeypatch)
    outcomes = {name: run.outcome() for name, run in default_runs.items()}
    assert all(violations for *_, violations in outcomes.values())
    names = {name for *_, violations in outcomes.values() for name, _, _ in violations}
    assert names == {"forced-state", "forced-edge"}
    _widen_part_keys(monkeypatch)
    widened = {name: _outcome(explore(run.checker.prog)) for name, run in default_runs.items()}
    assert widened == outcomes


def test_the_edge_checks_shortcuts_skip_nothing(default_runs, monkeypatch):
    """On e and the two-scan clients, every ``check_transition`` call that
    returns early on equal histories finds nothing when the whole check
    runs, and ``check_scan_post``, reading one pass of prefix evaluations,
    gives on every returning scan, its result as returned and bent, the
    verdict of replaying each candidate with ``eval_at``.  Each distinct
    call that explore makes is checked once, a scan postcondition once per
    distinct mask, history, result and witness: 479 of them."""
    equal, scans = {}, {}
    for name in ("e", "two-scan", "fig1-two-scan"):
        calls = _calls(default_runs[name].log)
        for pre, post in calls["check_transition"]:
            if history_key(pre) == history_key(post):
                equal[id(pre), id(post)] = pre, post
        for mask, ret, r, witness in calls["check_scan_post"]:
            scans[mask, history_key(ret), r, witness] = mask, ret, r, witness
    assert len(equal) > 1_000
    assert len(scans) == 479
    # a fresh object equals no other, so no history passes as unchanged
    monkeypatch.setattr(invariants, "history_key", lambda aux: object())
    for pre, post in equal.values():
        assert invariants.check_transition(pre, post) == []
    bent = 0
    for mask, ret, (x, y), witness in scans.values():
        for r in {(x, y), (x + 1, y), (x, y + 1), (y, x)}:
            got = invariants.check_scan_post(mask, ret, r, witness)
            assert got == reference.scan_post_by_replay(mask, ret, r, witness)
            bent += bool(got)
    assert bent > 0


def test_check_memo_is_scoped_to_one_run(monkeypatch):
    """A second explore checks afresh (no verdict leaks from the first),
    and within one explore equal parts reached on different paths share
    one id.  With 0-bit digits no id but 0 fits one, so explore derives no
    key from its parent's and ``state_key`` sees every edge's ids."""
    prog = next(p for p in generated_programs() if p.name == "gen-x1-y1")
    assert explore(prog).ok
    levels = {"check_history": "history", "check_phases": "phase", "check_memory": "memory"}
    for name, level in levels.items():
        forced = [Violation(f"forced-{level}", "every state")]
        monkeypatch.setattr(invariants, name, lambda *parts, forced=forced: list(forced))
    run = _explored_states(prog)
    names = ["forced-history", "forced-phase", "forced-memory"]
    assert [name for name, _, _ in run.violations] == names * run.report.states
    ids, seen = {}, 0
    for (pid, aid, eids), state in run.states():
        parts = [(phys_key(state.phys), pid), (aux_key(state.aux), aid)]
        parts += [(entry_key(*e), eid) for e, eid in zip(state.threads, eids)]
        for key, i in parts:
            ids.setdefault(key, set()).add(i)
        seen += len(parts)
    assert all(len(group) == 1 for group in ids.values())
    assert seen > 2 * len(ids)


def _watch_state_key(monkeypatch):
    """Every key ``harness.state_key`` gives from now on, with its ids."""
    keyed, calls = harness.state_key, []

    def watch(*ids):
        key = keyed(*ids)
        calls.append((key, ids))
        return key

    monkeypatch.setattr(harness, "state_key", watch)
    return calls


@dataclass(frozen=True)
class _Run:
    """One recorded explore: its report and checker, its violations as
    ``(name, detail, step)`` tuples, the ids ``(pid, aid, eids)`` of each
    distinct state it keys, in order of first keying, the thread entries
    the entry ids number, and its ``_record_calls`` log.  The report's
    violation list, which is the checker's too, is emptied: a forced run
    holds hundreds of thousands of ``Violation`` objects, which every later
    full garbage collection would walk, and the collector untracks a tuple
    of primitives."""

    report: harness.ExplorationReport
    checker: harness._Checker
    violations: list
    ids: list
    entries: list
    log: list

    def outcome(self):
        """``_outcome`` of the report with its violations as recorded."""
        render, executions, _ = _outcome(self.report)
        return render, executions, self.violations

    def states(self):
        """The ids and the state of each distinct state, in order."""
        phys, aux = self.checker.phys, self.checker.aux
        for pid, aid, eids in self.ids:
            threads = tuple(map(self.entries.__getitem__, eids))
            yield (pid, aid, eids), harness.State(phys[pid], aux[aid], threads)


def _calls(log):
    """The arguments of each logged call, by function name."""
    calls = {}
    for name, args in log:
        calls.setdefault(name, []).append(args)
    return calls


def _explored_states(prog):
    """The recorded explore of ``prog`` (a ``_Run``), which logs the
    functions that ``harness`` calls and the state and edge checks.
    With 0-bit digits no id but 0 fits one, so explore derives no key from
    its parent's and ``state_key`` sees the ids of every edge's successor.
    A state's parts are those its checker gave the ids, and its threads'
    entries those explore numbered: each thread's initial frame, then each
    that ``snapshot.frame_effect`` gives, a release's next frame or None
    among them, by ``entry_key`` in order of first sight."""
    frame_effect, numbers, entries, checkers = snapshot.frame_effect, {}, [], []

    class Recorded(harness._Checker):
        def __init__(self, prog):
            super().__init__(prog)
            checkers.append(self)

    def number(tid, frame):
        if numbers.setdefault(entry_key(tid, frame), len(entries)) == len(entries):
            entries.append((tid, frame))

    def watch(frame, value, outputs):
        got = frame_effect(frame, value, outputs)
        number(frame.tid, got)
        return got

    for tid, frame in initial_state(prog).threads:
        number(tid, frame)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_ID_BITS", 0)
        patch.setattr(snapshot, "frame_effect", watch)
        patch.setattr(harness, "_Checker", Recorded)
        calls = _watch_state_key(patch)
        names = "step_args apply_step step_state phys_effect aux_effect frame_effect"
        checks = "check_history check_phases check_memory check_transition check_scan_post"
        log = _record_calls(patch, *names.split(), checks=checks.split())
        report = explore(prog)
    [checker] = checkers
    violations = _outcome(report)[2]
    report.violations.clear()
    ids = list(dict.fromkeys(ids for _, ids in calls))
    return _Run(report, checker, violations, ids, entries, log)


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
def test_state_key_is_injective(prog, id_bits, default_runs, monkeypatch):
    """The keys explore files its states under, ``state_key`` of their
    ids, are equal exactly when the states' full keys are.  With 0-bit
    digits explore derives no key from its parent's, so ``state_key`` sees
    the ids of every edge's successor; each is keyed again at the width
    under test (explore's keys at each width are those of
    ``test_derived_keys_are_state_keys``)."""
    run = default_runs.get(prog.name) or _explored_states(prog)
    if id_bits is not None:
        monkeypatch.setattr(harness, "_ID_BITS", id_bits)
    full_keys = {}
    for ids, state in run.states():
        full_keys.setdefault(harness.state_key(*ids), set()).add(full_key(state))
    assert all(len(group) == 1 for group in full_keys.values())
    assert len(set().union(*full_keys.values())) == len(full_keys) == run.report.states
    kinds = {type(key) for key in full_keys}
    assert kinds == ({int} if id_bits is None else {int, tuple})


@pytest.fixture(scope="session")
def explored_steps(default_runs):
    """Every distinct step of the recorded explores of e and the two-scan
    clients, as (program, thread, frame, phys, aux): each thread's frame
    with a state's two parts names a step, once per distinct triple of ids."""
    steps = []
    for name in ("e", "two-scan", "fig1-two-scan"):
        run, seen = default_runs[name], set()
        phys, aux = run.checker.phys, run.checker.aux
        for pid, aid, eids in run.ids:
            for eid in eids:
                if (eid, pid, aid) not in seen:
                    seen.add((eid, pid, aid))
                    tid, frame = run.entries[eid]
                    if snapshot.step_enabled(frame, phys[pid]):
                        steps.append((run.checker.prog, tid, frame, phys[pid], aux[aid]))
    return steps


def test_apply_step_composes_the_reference(explored_steps, monkeypatch):
    """``apply_step``, the composition of a step's physical, auxiliary and
    frame effects, gives the post physical part, auxiliary part and frame
    that the one dispatch it replaced gave, on every step from every
    distinct (entry, phys, aux) of the explores of e and the two-scan
    clients, and on every step of 50 random runs of e."""
    for prog, tid, frame, phys, aux in explored_steps:
        step = frame.current_step()
        got = snapshot.apply_step(step, phys, aux, frame)[:3]
        assert got == reference.apply_step(step, phys, aux, reference.masked_frame(frame, aux))
    assert len(explored_steps) > 100_000
    log = _record_calls(monkeypatch, "apply_step")
    report = run_random(client_e(), seed=42, runs=50)
    steps = _whole_steps(log)
    assert len(steps) == report.edges
    for step, phys, aux, frame in steps:
        got = snapshot.apply_step(step, phys, aux, frame)[:3]
        assert got == reference.apply_step(step, phys, aux, reference.masked_frame(frame, aux))


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
    # the ids and stamp of every ``on_state`` call, in order
    states, on_state = [], harness._Checker.on_state

    def record(self, pid, aid, idx):
        states.append((pid, aid, idx))
        on_state(self, pid, aid, idx)

    monkeypatch.setattr(harness._Checker, "on_state", record)
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


def _record_calls(monkeypatch, *names, checks=()):
    """Every call from now on of each function ``names`` that ``harness``
    calls, of ``snapshot.edge_check`` and of each check ``checks`` on
    ``invariants``, as (name, arguments), in order.  Each function is
    patched on the module that ``harness`` reads it from: its own globals
    for what it defines or imports by name, else ``snapshot``."""
    log = []
    calls = [(harness if hasattr(harness, n) else snapshot, n) for n in (*names, "edge_check")]
    for module, name in calls + [(invariants, c) for c in checks]:
        fn = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, fn=fn, name=name: log.append((name, args)) or fn(*args)
        )
    return log


def _count_steps(monkeypatch):
    """Every step a scheduler takes from now on, as ``_record_calls``
    records it: each call of ``apply_step`` (a whole step), of an effect
    that explore calls alone, and of the edge checks."""
    return _record_calls(monkeypatch, "apply_step", "phys_effect", "aux_effect", "frame_effect")


def _whole_steps(log):
    return [args for name, args in log if name == "apply_step"]


def test_explore_steps_only_where_a_table_misses(default_runs):
    """On e, explore files each step as a physical half by (entry, phys)
    and an auxiliary half by aux part, and composes a half only where its
    own table misses.  A physical miss reads the step's arguments (one
    ``step_args`` call each, once per distinct enabled (entry, phys) pair:
    4,789; it was 11,505 when an auxiliary miss took the physical half
    again) and takes the physical effect; an auxiliary miss starts from
    what the physical half read.  Each function runs only where its own
    table misses: 1,168 physical effects, 4,306 auxiliary effects and 327
    frame effects, each once per distinct argument list, and 2,929 edge
    checks, one per distinct step, value, outputs, check argument and
    two auxiliary views (5,656 when the parts were keyed by aux id), with
    1,676 ``check_transition`` calls (3,183).  At least 569
    auxiliary halves (returning relinks and finalizes, and read-fwds) miss
    the verdict table alone and call no effect: no effect call comes
    between their edge check and the call before it.  It takes no whole step (``apply_step`` or ``step_state``;
    4,813 ``step_state`` calls when a miss took the step whole), folds its
    kept runs from the trail, and would take at least 132,390 steps if it
    stepped every edge."""
    effects = ("phys_effect", "aux_effect", "frame_effect")
    run = default_runs["e"]
    assert (run.report.edges, run.report.executions_checked) == (132_390, 120)
    log = [(name, args) for name, args in run.log if not name.startswith("check_")]
    calls = _calls(log)
    assert {name: len(args) for name, args in calls.items()} == {
        "step_args": 4_789,
        "phys_effect": 1_168,
        "aux_effect": 4_306,
        "frame_effect": 327,
        "edge_check": 2_929,
    }
    assert len(_calls(run.log)["check_transition"]) == 1_676
    views = run.checker.views
    checked = {
        (step.label, value, outputs, arg, views[memo(pre)["id"]], views[memo(post)["id"]])
        for step, pre, post, value, outputs, arg in calls["edge_check"]
    }
    assert len(checked) == len(calls["edge_check"])
    # each effect runs once per distinct argument list, parts by identity
    distinct = {
        "phys_effect": {(step.label, arg, id(part)) for step, arg, part in calls["phys_effect"]},
        "aux_effect": {(step.label, args, id(part)) for step, args, part in calls["aux_effect"]},
        "frame_effect": set(calls["frame_effect"]),
    }
    assert all(len(distinct[name]) == len(calls[name]) for name in effects)
    # ``step_args`` runs once per distinct enabled (entry, phys) pair
    phys = run.checker.phys
    pairs = {
        (eid, pid)
        for pid, _, eids in run.ids
        for eid in eids
        if snapshot.step_enabled(run.entries[eid][1], phys[pid])
    }
    read = {(id(frame), id(part)) for _, frame, part in calls["step_args"]}
    assert len(read) == len(pairs) == len(calls["step_args"])
    # an auxiliary half's calls come in a row, its effects before its check
    verdict_only = [
        args[0].kind
        for (before, _), (name, args) in zip([("", ())] + log, log)
        if name == "edge_check" and before not in ("aux_effect", "frame_effect")
    ]
    assert len(verdict_only) == 569
    assert set(verdict_only) == {"finalize", "read-fwd", "relink"}


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


@pytest.fixture(scope="session")
def e_graph():
    """The reference walk of e (``reference.graph``), stepped on whole
    states once per session; the differentials evaluate their checks over
    it.  They come last in this module: the graph's 360,000 objects slow
    every later full garbage collection."""
    return reference.graph(client_e())


def test_memoised_checks_match_unmemoised_reference(default_runs, e_graph, monkeypatch):
    """explore checks each distinct history, auxiliary part, cells and
    view, and edge between two views once and replays the verdict
    elsewhere; with a violation forced at every level, naming what that
    level reads, on every state whose scanner is on and every edge that
    changes the history, its violation list (the forced run of e in
    ``default_runs``) is the one the reference walk that checks everything
    gives, step stamps included."""
    got = default_runs["e"].violations
    _force_violations(monkeypatch)
    names = {name for name, _, _ in got}
    assert names == {"forced-state", "forced-edge"}
    assert got == reference.violations(e_graph)


def test_malformed_states_get_check_alls_verdict(e_graph, monkeypatch):
    """Where the history or phase part reports a ``wellformed`` violation,
    explore records check_all's verdict on the state, which skips every
    other state invariant but order sanity and the chain lemma; the
    history part still runs once per distinct history, malformed or not."""
    _force_violations(monkeypatch)
    check_history, check_phases = invariants.check_history, invariants.check_phases
    histories = []

    def history(aux):
        histories.append(history_key(aux))
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
    got = [(v.name, v.detail, v.step) for v in explore(client_e()).violations]
    assert len(histories) == len(set(histories)) == 174
    assert {"bent history", "bent phase"} <= {detail for _, detail, _ in got}
    assert got == reference.violations(e_graph)
