"""Derived relations over the auxiliary state: stable order, scanned set,
replay evaluation, per-pointer histories."""

import random

import pytest

from conftest import (
    TS_X2,
    TS_X3,
    TS_X5,
    TS_Y0,
    TS_Y1,
    hand_built_fig2a,
    one_field_changed,
    primitive,
    run_prefix,
)
from reference import random_walk
from snapcheck.aux_model import (
    Color,
    Ptr,
    aux_key,
    eval_at,
    hist_p,
    last_gy,
    omega_down,
    omega_leq,
    scanned,
)
from snapcheck.aux_ops import register
from snapcheck.errors import UninitializedPointerError, UnknownTimestampError
from snapcheck.harness import FIG1_SCHEDULE, client_fig1, parse_program
from snapcheck.snapshot import init


def naive_eval(t, order, aux):
    """Independent replay oracle: sort entries by an explicit total-order
    list, fold writes left to right up to t."""
    ranked = sorted(range(1, len(aux.ptr) + 1), key=order.index)
    state = {}
    for s in ranked:
        state[aux.ptr[s - 1]] = aux.val[s - 1]
        if s == t:
            break
    return (state[Ptr.X], state[Ptr.Y])


# ---------------------------------------------------------------------------
# stable order


def test_omega_initial_pair():
    _, aux = init(5, 0)
    assert omega_leq(1, 2, aux) is True


def test_omega_reflexive():
    _, aux = init(5, 0)
    assert omega_leq(1, 1, aux) and omega_leq(2, 2, aux)


def test_omega_unrelated_overlapping_writes(fig2a):
    # the missed write of 3 and the write of 1 overlap and are not green
    # in both directions, so the stable order cannot relate them yet
    assert not omega_leq(TS_X3, TS_Y1, fig2a)
    assert not omega_leq(TS_Y1, TS_X3, fig2a)


def test_omega_unknown_timestamp():
    _, aux = init(5, 0)
    for t in (99, 0, -1):
        with pytest.raises(UnknownTimestampError):
            omega_leq(1, t, aux)
        with pytest.raises(UnknownTimestampError):
            omega_down(t, aux)


def test_omega_down_initial():
    _, aux = init(5, 0)
    assert omega_down(2, aux) == {1, 2}


def test_omega_down_strict_never_contains_self(fig2a):
    for t in fig2a.sigma:
        assert t not in omega_down(t, fig2a, strict=True)


def test_omega_down_excludes_missed_write(fig2a):
    assert TS_X3 not in omega_down(TS_Y1, fig2a)


# ---------------------------------------------------------------------------
# scanned


def test_scanned_initial():
    _, aux = init(5, 0)
    assert scanned(aux) == {1, 2}


def test_scanned_fig2a(fig2a):
    # the events writing 5, 0 and 2 have been observed by the scan
    assert {TS_X5, TS_Y0, TS_X2} <= scanned(fig2a)
    assert TS_X3 not in scanned(fig2a)


def test_red_event_never_scanned():
    _, aux = init(5, 0)
    aux, t = register(Ptr.X, 3, aux)  # no scan active: colored red
    assert aux.kappa[t - 1] == Color.RED
    assert t not in scanned(aux)


# ---------------------------------------------------------------------------
# eval


def test_eval_initial():
    _, aux = init(5, 0)
    assert eval_at(2, aux.sigma, aux) == (5, 0)


def test_eval_relinked_order():
    state = run_prefix(client_fig1(), FIG1_SCHEDULE)
    aux = state.aux
    assert eval_at(TS_Y1, aux.sigma, aux) == (2, 1)


def test_eval_fig2a_missed_write(fig2a):
    assert eval_at(TS_X3, fig2a.sigma, fig2a) == (3, 0)
    assert eval_at(TS_X3, fig2a.sigma, fig2a) == naive_eval(TS_X3, list(fig2a.sigma), fig2a)


def test_eval_agrees_with_naive_replay(fig2a):
    # from the second event on, both pointers have a write
    for t in fig2a.sigma[1:]:
        assert eval_at(t, fig2a.sigma, fig2a) == naive_eval(t, list(fig2a.sigma), fig2a)


def test_eval_errors():
    _, aux = init(5, 0)
    for t in (7, 0, -1):
        with pytest.raises(UnknownTimestampError):
            eval_at(t, aux.sigma, aux)
    with pytest.raises(UninitializedPointerError):
        eval_at(1, (1,), aux)  # replays event 1 (x) alone


# ---------------------------------------------------------------------------
# per-pointer histories


def test_hist_p_initial():
    _, aux = init(5, 0)
    assert hist_p(Ptr.X, aux) == (1,)
    assert hist_p(Ptr.Y, aux) == (2,)


def test_hist_p_fig2a_values(fig2a):
    xs = [fig2a.val[t - 1] for t in hist_p(Ptr.X, fig2a)]
    assert xs == [5, 2, 3]


def test_hist_p_partitions_sigma(fig2a):
    xs, ys = hist_p(Ptr.X, fig2a), hist_p(Ptr.Y, fig2a)
    assert set(xs) | set(ys) == set(fig2a.sigma)
    assert not set(xs) & set(ys)
    merged = sorted(xs + ys, key=fig2a.sigma.index)
    assert tuple(merged) == fig2a.sigma


# ---------------------------------------------------------------------------
# last green-or-yellow


def test_last_gy_initial():
    _, aux = init(5, 0)
    assert last_gy(Ptr.X, 1, aux)
    assert last_gy(Ptr.Y, 2, aux)


def test_last_gy_fig2a(fig2a):
    assert last_gy(Ptr.X, TS_X2, fig2a)  # last green of x
    assert last_gy(Ptr.X, TS_X3, fig2a)  # the yellow of x
    assert not last_gy(Ptr.X, TS_X5, fig2a)  # an older green


def test_last_gy_red_is_false():
    _, aux = init(5, 0)
    aux, t = register(Ptr.X, 3, aux)
    assert not last_gy(Ptr.X, t, aux)


def test_last_gy_unknown():
    _, aux = init(5, 0)
    for t in (42, 0, -1):
        with pytest.raises(UnknownTimestampError):
            last_gy(Ptr.X, t, aux)


def test_hand_built_state_matches_driven(fig2a):
    assert hand_built_fig2a() == fig2a


def test_random_orders_eval_oracle():
    # eval against the naive oracle on shuffled orders of the fig2a history
    aux = hand_built_fig2a()
    rng = random.Random(7)
    base = list(aux.sigma)
    for _ in range(50):
        order = base[:]
        rng.shuffle(order)
        # both pointers must be initialized before the probe point
        if order.index(1) > 2 or order.index(2) > 2:
            continue
        for t in order[2:]:
            assert eval_at(t, tuple(order), aux) == naive_eval(t, order, aux)


# ---------------------------------------------------------------------------
# the canonical key


def test_aux_key_is_primitive_and_complete():
    # An enum or a dataclass back in the state makes every key several times
    # slower and fails no other test; a field left out of the key merges
    # distinct states.
    prog = parse_program("a: write x 2\nd: write y 1\ns: scan; scan\n")
    rng = random.Random(5)
    auxes = [state.aux for _ in range(40) for state, _ in random_walk(prog, rng)]
    groups = {}
    for aux in auxes:
        key = aux_key(aux)
        assert primitive(key)
        groups.setdefault(key, set()).add(aux)
    # equal keys only for equal states, and as many keys as distinct states
    assert all(len(group) == 1 for group in groups.values())
    assert len(groups) == len(set(auxes))
    for variant in one_field_changed(auxes[-1]):
        assert aux_key(variant) != aux_key(auxes[-1])
