"""Checker behavior: clean states pass, hand-broken states are reported."""

import ast
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

from conftest import (
    CHECKS,
    TS_X2,
    TS_X3,
    TS_X5,
    TS_Y0,
    TS_Y1,
    hand_built_fig2a,
    run_prefix,
)
from reference import frame_of
from snapcheck.aux_model import (
    Color,
    Ptr,
    WriterPhase,
    WriterState,
    eval_at,
    omega_down,
    other_mask,
)
from snapcheck.errors import UninitializedPointerError
from snapcheck.aux_ops import register, relink
from snapcheck.harness import FIG1_SCHEDULE, client_fig1, parse_program
from snapcheck.invariants import (
    _evals,
    capture_spec_snapshot,
    check_all,
    check_chain_lemma,
    check_omega_properties,
    check_read_lemma,
    check_relink_post,
    check_scan_post,
    check_state,
    check_transition,
    check_write_fresh,
    check_write_post,
)
from snapcheck.snapshot import PhysState, init


def fig2a_phys():
    return PhysState(x=3, y=1, fx=2, fy=1, s_bit=False, lock_scan="c")


def at(values, t, value):
    """A per-event tuple with event t's entry replaced."""
    return values[: t - 1] + (value,) + values[t:]


def test_init_state_clean():
    phys, aux = init(5, 0)
    assert not check_state(phys, aux)
    assert not check_all(phys, aux)


def test_fig2a_state_clean():
    assert not check_all(fig2a_phys(), hand_built_fig2a())


def test_color_pattern_violation():
    # green, red, yellow on the x-history breaks green+/yellow?/red*
    aux = hand_built_fig2a()
    bad = replace(aux, kappa=at(aux.kappa, TS_X2, Color.RED))
    rep = check_state(fig2a_phys(), bad)
    assert any(v.name == "colors" for v in rep)


def test_overlap_violation():
    # the write of 2 terminated (tau=3) before the write of 3 began, so
    # ordering it after in sigma breaks real-time order
    aux = hand_built_fig2a()
    bad = replace(aux, sigma=(1, 2, TS_X3, TS_X2, TS_Y1))
    rep = check_state(fig2a_phys(), bad)
    assert any(v.name == "overlap" for v in rep)


def test_last_write_violation():
    aux = hand_built_fig2a()
    rep = check_state(replace(fig2a_phys(), x=7), aux)
    assert any(v.name == "last-write" for v in rep)


def test_red_zone_violation():
    # a red event squeezed before a green one while the scan is reading
    # forwarding cells
    aux = hand_built_fig2a()
    kappa = at(at(aux.kappa, TS_X2, Color.RED), TS_X3, Color.GREEN)
    bad = replace(aux, kappa=kappa)
    rep = check_state(fig2a_phys(), bad)
    assert any(v.name == "red-zone" for v in rep)


def test_forwarded_values_violation():
    aux = hand_built_fig2a()
    rep = check_state(replace(fig2a_phys(), fx=5), aux)
    assert any(v.name == "forwarded-values" for v in rep)


def test_terminated_events_violation():
    aux = hand_built_fig2a()
    rep = check_state(fig2a_phys(), replace(aux, tau=at(aux.tau, TS_Y1, None)))
    assert any(v.name == "terminated-events" for v in rep)


def _bent_states():
    """fig2a broken in the history, a writer or memory, alone and mixed."""
    aux = hand_built_fig2a()
    red = replace(aux, kappa=at(aux.kappa, TS_X2, Color.RED))  # colors
    lost = replace(aux, sigma=aux.sigma[:-1])  # sigma misses an event
    stray = WriterState(WriterPhase.NEW, t=99, v=2)  # a writer of no event
    phys, moved = fig2a_phys(), replace(fig2a_phys(), x=7)  # last-write
    for bent in (aux, red, lost):
        for wx in (aux.wx, stray):
            for p in (phys, moved):
                yield p, replace(bent, wx=wx)


def test_check_all_runs_what_check_state_runs():
    """check_all runs the history, phase and memory parts, and skips what
    check_state skips: where any clause of wellformed fails, every other
    state invariant, but not order sanity or the chain lemma."""
    seen = set()
    for phys, aux in _bent_states():
        got = check_all(phys, aux)
        want = check_state(phys, aux) + check_omega_properties(aux) + check_chain_lemma(aux)
        assert Counter(map(astuple, got)) == Counter(map(astuple, want))
        names = {v.name for v in got}
        if "wellformed" in names:
            assert not names & {"colors", "last-write"}
        seen |= names
    assert {"wellformed", "colors", "last-write"} <= seen


# ---------------------------------------------------------------------------
# transition invariants


def test_register_grows_history_by_one():
    _, aux = init(5, 0)
    aux2, _ = register(Ptr.X, 3, aux)
    assert aux2.max_ts() == aux.max_ts() + 1
    assert not check_transition(aux, aux2)


def test_relink_preserves_stable_order():
    pre = hand_built_fig2a()
    post, _, _ = relink(2, 1, pre)
    assert all(omega_down(t, pre) <= omega_down(t, post) for t in pre.sigma)
    assert not check_transition(pre, post)


def test_prefix_evaluations_are_eval_at():
    """scanned-eval compares prefix evaluations made in one pass over
    sigma: each is ``eval_at``'s, and None where ``eval_at`` finds a
    pointer not yet written."""
    prog, aux = client_fig1(), hand_built_fig2a()
    states = [run_prefix(prog, FIG1_SCHEDULE[:k]).aux for k in range(len(FIG1_SCHEDULE) + 1)]
    # x's writes ahead of every y write: no y value before event TS_Y0
    states.append(replace(aux, sigma=(TS_X5, TS_X2, TS_X3, TS_Y0, TS_Y1)))
    unwritten = 0
    for aux in states:
        evals = _evals(aux)
        assert list(evals) == list(aux.sigma)
        for t in aux.sigma:
            try:
                want = eval_at(t, aux.sigma, aux)
            except UninitializedPointerError:
                want, unwritten = None, unwritten + 1
            assert evals[t] == want
    # y is unwritten at each state's first event, x's init, and in the
    # reordered state at its first three
    assert unwritten == len(states) + 2


def test_transition_catches_lost_event():
    aux = hand_built_fig2a()
    # TS_Y1 is the last event: drop it from every field
    shrunk = replace(
        aux,
        ptr=aux.ptr[:-1],
        val=aux.val[:-1],
        kappa=aux.kappa[:-1],
        tau=aux.tau[:-1],
        self_masks=(("l", 1 << TS_X2), ("r", 1 << TS_X3)),
        sigma=aux.sigma[:-1],
    )
    rep = check_transition(aux, shrunk)
    assert any(v.name == "hist-mono" for v in rep)


def test_transition_catches_scanned_ideal_change():
    aux = hand_built_fig2a()
    # recolor an already-scanned event red: scanned shrinks
    rep = check_transition(aux, replace(aux, kappa=at(aux.kappa, 1, Color.RED)))
    assert any(v.name.startswith(("scanned", "omega")) for v in rep)


# ---------------------------------------------------------------------------
# method postconditions


def test_write_post_uncontended():
    _, aux = init(5, 0)
    mask = capture_spec_snapshot(aux, "a", "write")
    from snapcheck.aux_ops import check as check_op, finalize

    aux2, t = register(Ptr.X, 3, aux)
    aux2 = check_op(Ptr.X, False, aux2)
    aux2 = finalize("a", Ptr.X, aux2)
    rep = check_write_post(mask, aux2, t, "a", Ptr.X, 3)
    assert not rep
    # both init events are strictly below the write
    assert mask & 0b110 == 0b110


def test_write_mask_holds_own_scanned_events():
    # a thread's own finished write is outside its environment history, but
    # once its scan has seen it, a later write must still be ordered after it
    prog = parse_program("a: write x 2; scan; write x 3\n")
    state = run_prefix(prog, ("a",) * 16)
    assert frame_of(state, "a").call_idx == 2
    own = 1 << TS_X2
    assert not other_mask(state.aux, "a") & own
    assert capture_spec_snapshot(state.aux, "a", "write") & own


def test_write_post_fault_injection():
    _, aux = init(5, 0)
    mask = capture_spec_snapshot(aux, "a", "write")
    # claim the write used an existing timestamp, which a does not own
    rep = check_write_post(mask, aux, 1, "a", Ptr.X, 5)
    assert rep
    assert any("owned" in v.detail for v in rep)


def test_write_fresh_on_register_edge():
    # the freshness clause runs on the register edge, against the pre-state
    _, aux = init(5, 0)
    for t in range(1, aux.max_ts() + 1):
        rep = check_write_fresh(aux, t)
        assert [v.name for v in rep] == ["write-post"]
        assert "not fresh" in rep[0].detail
    post, t = register(Ptr.X, 3, aux)
    assert t == aux.max_ts() + 1
    assert not check_write_fresh(aux, t)
    # once registered, t is in the domain: reusing it trips the check
    assert check_write_fresh(post, t)
    # the moved clause is still counted with the postconditions
    assert CHECKS["write-post"] == 4


def test_scan_post_uncontended():
    phys, aux = init(5, 0)
    mask = capture_spec_snapshot(aux, "c", "scan")
    rep = check_scan_post(mask, aux, (5, 0), witness=2)
    assert not rep


def test_scan_post_rejects_stale_snapshot():
    aux = hand_built_fig2a()
    post, _, _ = relink(2, 1, aux)
    mask = capture_spec_snapshot(post, "c", "scan")
    # (5, 0) is outdated once the later writes exist
    rep = check_scan_post(mask, post, (5, 0), witness=TS_Y0)
    assert [v.detail for v in rep] == [
        "no witness timestamp validates the snapshot (5, 0)",
        f"constructive witness {TS_Y0} does not qualify",
    ]


def test_scan_post_fig1_result():
    state = run_prefix(client_fig1(), FIG1_SCHEDULE[:26])
    snap_aux = state.aux
    post, t_x, t_y = relink(2, 1, snap_aux)
    mask = 0b110  # timestamps 1 and 2: what existed when the scan started
    pos = {t: i for i, t in enumerate(post.sigma)}
    witness = t_x if pos[t_x] >= pos[t_y] else t_y
    assert witness == TS_Y1
    assert not check_scan_post(mask, post, (2, 1), witness=witness)


# ---------------------------------------------------------------------------
# lemma checks


def test_chain_lemma_init():
    _, aux = init(5, 0)
    assert not check_chain_lemma(aux)


def test_chain_lemma_after_relink():
    aux, _, _ = relink(2, 1, hand_built_fig2a())
    assert not check_chain_lemma(aux)


def test_chain_lemma_red_is_exempt():
    _, aux = init(5, 0)
    aux, _ = register(Ptr.X, 3, aux)  # red event at the end
    assert not check_chain_lemma(aux)


def test_read_lemma():
    off = hand_built_fig2a()  # the scanner is off, both bits set
    aux = replace(off, scanner=replace(off.scanner, on=True))
    assert not check_read_lemma(Ptr.X, 2, aux)  # last green's value
    assert not check_read_lemma(Ptr.X, 3, aux)  # the yellow's value
    assert check_read_lemma(Ptr.X, 5, aux)  # an old green's value
    # outside its guard the lemma holds vacuously
    assert not check_read_lemma(Ptr.X, 5, off)
    assert not check_read_lemma(Ptr.X, 5, replace(aux, scanner=replace(aux.scanner, sx=False)))


def test_relink_post_property():
    aux, t_x, t_y = relink(2, 1, hand_built_fig2a())
    assert not check_relink_post(aux, t_x, t_y)
    # fault injection: pretend the yellow event was chosen for x
    assert check_relink_post(aux, TS_X3, t_y)


def test_omega_properties_clean():
    assert not check_omega_properties(hand_built_fig2a())
    aux, _, _ = relink(2, 1, hand_built_fig2a())
    assert not check_omega_properties(aux)


def test_omega_antisymmetry_catches_corruption():
    aux = hand_built_fig2a()
    # forge end times that order two events both ways
    bad = replace(aux, tau=at(at(aux.tau, TS_X2, 1), 1, 1))
    rep = check_omega_properties(bad)
    assert rep


def test_violation_rendering():
    _, aux = init(5, 0)
    rep = check_write_post(capture_spec_snapshot(aux, "a", "write"), aux, 1, "a", Ptr.X, 5)
    rep[0].step = 7
    line = rep[0].render()
    assert line.startswith("INV write-post @step=7: ")


def test_transition_catches_rewritten_value():
    # rewriting a scanned event's value is caught before it can silently
    # change an already-observed snapshot
    aux = hand_built_fig2a()
    forged = replace(aux, val=at(aux.val, 3, 7))
    rep = check_transition(aux, forged)
    assert rep


def test_transition_catches_init_event_made_joint():
    # every thread's environment holds the init events, also a thread that
    # has finished nothing yet
    _, aux = init(5, 0)
    post = replace(aux, init_mask=0b100, joint_mask=0b010)
    rep = check_transition(aux, post)
    assert [(v.name, v.detail) for v in rep] == [
        ("hist-mono", "other history of a thread without finished events shrank")
    ]


def _emitted_names():
    """The first argument of every ``Violation(...)`` call under the package
    source that passes a string literal."""
    src = Path(__file__).resolve().parent.parent / "src" / "snapcheck"
    names = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            if getattr(node.func, "id", None) == "Violation" and isinstance(first, ast.Constant):
                names.add(first.value)
    return names


def test_every_emitted_name_is_registered():
    # a name missing from CHECKS is counted by no acceptance criterion; a
    # registered name nothing emits is a stale entry
    names = _emitted_names()
    assert "write-post" in names and "oracle-linearizable" in names
    assert names == set(CHECKS)
    assert set(CHECKS.values()) == {3, 4, 5, 6, 7}
