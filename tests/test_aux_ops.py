"""The nine auxiliary transitions plus the inspect/push helpers."""

import random

import pytest

from conftest import TS_X2, TS_X3, TS_X5, TS_Y1, hand_built_fig2a
from snapcheck.aux_model import (
    AuxState,
    Color,
    Ptr,
    ScannerState,
    WRITER_OFF,
    WriterPhase,
    hist_p,
    last_green,
    scanned,
    self_mask,
)
from snapcheck.aux_ops import (
    INSPECT_NO,
    check,
    clear,
    finalize,
    forward,
    inspect,
    push,
    register,
    relink,
    set_scanner,
)
from snapcheck.errors import GuardViolationError, UnknownTimestampError
from snapcheck.snapshot import init


def fresh():
    return init(5, 0)[1]


def scanning(aux):
    """Drive the scanner through set(true); clear(x); clear(y)."""
    aux = set_scanner(True, aux)
    aux = clear(Ptr.X, aux)
    return clear(Ptr.Y, aux)


def write_through(tid, p, v, aux, b=False):
    """register; check(b); [forward;] finalize."""
    aux, t = register(p, v, aux)
    aux = check(p, b, aux)
    if b:
        aux = forward(p, aux)
    return finalize(tid, p, aux), t


# ---------------------------------------------------------------------------
# register


def test_register_allocates_max_plus_one():
    aux = fresh()
    aux, t3 = write_through("a", Ptr.X, 1, aux)
    aux, t4 = write_through("a", Ptr.X, 2, aux)
    assert (t3, t4) == (3, 4)
    aux, t5 = register(Ptr.X, 6, aux)
    assert t5 == 5
    assert aux.sigma[-1] == 5
    assert (aux.joint_mask >> 5) & 1


def test_register_color_depends_on_scan_phase():
    aux = scanning(fresh())
    aux2, t = register(Ptr.X, 3, aux)
    assert aux2.kappa[t - 1] == Color.YELLOW
    off, t2 = register(Ptr.X, 3, fresh())
    assert off.kappa[t2 - 1] == Color.RED


def test_register_guard():
    aux, _ = register(Ptr.X, 3, fresh())
    with pytest.raises(GuardViolationError):
        register(Ptr.X, 4, aux)


# ---------------------------------------------------------------------------
# check / forward / finalize


def test_check_branches():
    aux, t = register(Ptr.X, 2, fresh())
    fwd = check(Ptr.X, True, aux)
    assert fwd.wx.phase == WriterPhase.FWD and (fwd.wx.t, fwd.wx.v) == (t, 2)
    done = check(Ptr.X, False, aux)
    assert done.wx.phase == WriterPhase.DONE
    with pytest.raises(GuardViolationError):
        check(Ptr.X, True, fresh())


def test_forward_greens_under_active_scan():
    aux = scanning(fresh())
    aux, t = register(Ptr.X, 3, aux)
    aux = check(Ptr.X, True, aux)
    aux = forward(Ptr.X, aux)
    assert aux.kappa[t - 1] == Color.GREEN
    assert aux.wx.phase == WriterPhase.DONE


def test_forward_keeps_color_when_scan_gone():
    aux = scanning(fresh())
    aux, t = register(Ptr.X, 3, aux)
    aux = check(Ptr.X, True, aux)
    aux = set_scanner(False, aux)  # scan toggles off before the forward
    aux = forward(Ptr.X, aux)
    assert aux.kappa[t - 1] == Color.YELLOW


def test_forward_guard():
    aux, _ = register(Ptr.X, 3, fresh())
    aux = check(Ptr.X, False, aux)
    with pytest.raises(GuardViolationError):
        forward(Ptr.X, aux)


def test_finalize_records_current_max_as_end_time():
    aux = fresh()
    aux, _ = register(Ptr.X, 2, aux)  # t=3, stays in flight
    aux = check(Ptr.X, False, aux)
    aux, _ = write_through("b", Ptr.Y, 1, aux)  # t=4
    aux, _ = register(Ptr.Y, 4, aux)  # t=5
    assert aux.max_ts() == 5
    aux = finalize("a", Ptr.X, aux)
    assert aux.tau[3 - 1] == 5


def test_finalize_moves_ownership():
    aux, t = write_through("a", Ptr.X, 2, fresh())
    assert (self_mask(aux, "a") >> t) & 1
    assert not (aux.joint_mask >> t) & 1
    assert aux.wx.phase == WriterPhase.OFF


def test_finalize_guard():
    aux, _ = register(Ptr.X, 2, fresh())
    aux = check(Ptr.X, True, aux)
    with pytest.raises(GuardViolationError):
        finalize("a", Ptr.X, aux)


# ---------------------------------------------------------------------------
# set / clear


def test_set_true():
    aux = set_scanner(True, fresh())
    sc = aux.scanner
    assert (sc.on, sc.sx, sc.sy) == (True, False, False)


def test_set_false_records_last_timestamp():
    aux = fresh()
    for v in (1, 2, 3, 4, 5):
        aux, _ = write_through("a", Ptr.X, v % 8, aux)
    assert aux.max_ts() == 7
    aux = scanning(aux)
    aux = set_scanner(False, aux)
    assert aux.scanner.t_off == 7
    assert aux.scanner.sx and aux.scanner.sy


def test_set_guards():
    with pytest.raises(GuardViolationError):
        set_scanner(False, fresh())
    aux = set_scanner(True, fresh())
    with pytest.raises(GuardViolationError):
        set_scanner(True, aux)


def test_clear_greens_subhistory(fig2a):
    # reconstruct a mid-scan coloring: make x's history carry a yellow again
    aux = hand_built_fig2a()
    aux = relink(2, 1, aux)[0]
    aux = set_scanner(True, aux)
    aux2 = clear(Ptr.X, aux)
    assert all(aux2.kappa[t - 1] == Color.GREEN for t in hist_p(Ptr.X, aux2))
    # y untouched
    assert [aux2.kappa[t - 1] for t in hist_p(Ptr.Y, aux2)] == [
        aux.kappa[t - 1] for t in hist_p(Ptr.Y, aux)
    ]
    with pytest.raises(GuardViolationError):
        clear(Ptr.X, aux2)


# ---------------------------------------------------------------------------
# inspect


def test_inspect_detects_missed_write(fig2a):
    d = inspect(TS_X2, TS_Y1, fig2a)
    assert d.ptr == Ptr.X and d.target == TS_X3
    assert fig2a.kappa[d.target - 1] == Color.YELLOW


def test_inspect_no_when_earlier_is_yellow(fig2a):
    # t_x yellow and sigma-before t_y: nothing to reorder
    d = inspect(TS_X3, TS_Y1, fig2a)
    assert d == INSPECT_NO


def test_inspect_no_without_event_between():
    # fig2a without the yellow write of 3 (so the write of 1 is event 4):
    # last green of x is 3=TS_X2 and no x-event sits strictly between it
    # and t_y
    g = Color.GREEN
    aux = AuxState(
        ptr=(Ptr.X, Ptr.Y, Ptr.X, Ptr.Y),
        val=(5, 0, 2, 1),
        kappa=(g, g, g, g),
        tau=(2, 2, 3, 4),
        init_mask=0b110,
        joint_mask=0,
        self_masks=(("l", 0b11000),),
        sigma=(1, 2, 3, 4),
        wx=WRITER_OFF,
        wy=WRITER_OFF,
        scanner=ScannerState(on=False, t_off=4, sx=True, sy=True),
    )
    assert inspect(TS_X2, 4, aux) == INSPECT_NO


def test_inspect_precondition(fig2a):
    aux = fresh()  # scanner bits unset
    with pytest.raises(GuardViolationError):
        inspect(1, 2, aux)
    for t in (0, -1, 6):
        with pytest.raises(UnknownTimestampError):
            inspect(t, TS_Y1, fig2a)


# ---------------------------------------------------------------------------
# push


def test_push_fig2_reorder(fig2a):
    assert push(TS_X3, TS_Y1, fig2a.sigma) == (1, 2, 3, 5, 4)


def test_push_middle_segment():
    a, i, b, c, j, d = 10, 11, 12, 13, 14, 15
    assert push(i, j, (a, i, b, c, j, d)) == (a, b, c, j, i, d)


def test_push_adjacent_pair():
    assert push(1, 2, (1, 2)) == (2, 1)


def test_push_is_permutation():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 9)
        sigma = tuple(rng.sample(range(1, 40), n))
        i, j = sorted(rng.sample(range(n), 2))
        out = push(sigma[i], sigma[j], sigma)
        assert sorted(out) == sorted(sigma)


def test_push_errors():
    with pytest.raises(GuardViolationError):
        push(2, 1, (1, 2))
    with pytest.raises(GuardViolationError):
        push(1, 9, (1, 2))
    with pytest.raises(GuardViolationError):
        push(1, 1, (1, 2))


def test_push_mono_clauses():
    # the three monotonicity clauses on a quick random sample
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10)
        sigma = tuple(rng.sample(range(1, 50), n))
        pi, pj = sorted(rng.sample(range(n), 2))
        i, j = sigma[pi], sigma[pj]
        out = push(i, j, sigma)
        pos, pos2 = {t: k for k, t in enumerate(sigma)}, {t: k for k, t in enumerate(out)}
        for a in sigma:
            for b in sigma:
                if pos[a] < pos[b]:
                    if pos[a] < pos[i] or pos[j] < pos[b] or a != i:
                        assert pos2[a] < pos2[b]


# ---------------------------------------------------------------------------
# relink


def test_relink_reorders_missed_write(fig2a):
    aux, t_x, t_y = relink(2, 1, fig2a)
    assert (t_x, t_y) == (TS_X2, TS_Y1)
    assert [aux.val[t - 1] for t in aux.sigma] == [5, 0, 2, 1, 3]
    assert aux.kappa[t_x - 1] == Color.GREEN and aux.kappa[t_y - 1] == Color.GREEN
    assert not aux.scanner.sx and not aux.scanner.sy
    assert t_x == last_green(Ptr.X, aux) and t_y == last_green(Ptr.Y, aux)
    assert {TS_X5, 2, TS_X2, TS_Y1} <= scanned(aux)


def test_relink_keeps_order_when_snapshot_valid(fig2a):
    # returning the missed write's value itself needs no reorder
    aux, t_x, t_y = relink(3, 1, fig2a)
    assert t_x == TS_X3
    assert aux.sigma == fig2a.sigma
    assert aux.kappa[TS_X3 - 1] == Color.GREEN


def test_relink_guard(fig2a):
    with pytest.raises(GuardViolationError):
        relink(7, 1, fig2a)  # no such x-value
    aux, _, _ = relink(2, 1, fig2a)
    with pytest.raises(GuardViolationError):
        relink(2, 1, aux)  # bits already retired
