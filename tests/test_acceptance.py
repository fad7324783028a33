"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with:

    pytest tests/test_acceptance.py -v -s

The exhaustive sweep (shared session fixture) explores 13 programs: the
bundled clients e and e-prime, all nine generated programs, and the two
clients whose scanning thread scans twice.  It is reused by criteria 2-7
and by the golden-count check.  Each criterion counts the violation names
that ``invariants.CHECKS`` maps to it.
"""

import random
import time

from snapcheck.aux_model import (
    AuxState,
    Color,
    Ptr,
    ScannerState,
    WRITER_OFF,
    hist_p,
    last_green,
    last_gy,
    omega_leq,
    yellow_of,
)
from snapcheck.aux_ops import INSPECT_NO, InspectDecision, inspect, push
from snapcheck.cli import main
from snapcheck.harness import DEFAULT_MAX_STATES, client_e_prime, run_prefix
from snapcheck.invariants import CHECKS

PAPER_RESULT_SET = frozenset({(5, 0), (2, 0), (3, 0), (2, 1), (3, 1)})


def _criterion(n):
    return tuple(name for name, criterion in CHECKS.items() if criterion == n)


INVARIANTS = _criterion(3)
POSTCONDITIONS = _criterion(4)
ORACLE_CHECKS = _criterion(5)
RELINK_CHECKS = _criterion(6)
ORDER_SANITY = _criterion(7)

# Every swept program's (states, edges, schedules, executions checked, scan
# results).  Schedules and results are facts about the program; states,
# edges and executions checked count the distinct states the state key
# tells apart, so a key change that splits or merges states shows here.
SWEEP_GOLDEN = {
    "gen-x2-y2": (
        1_488_962,
        3_871_106,
        219_344_977_766_012,
        1_551,
        {(2, 0), (2, 1), (2, 4), (3, 0), (3, 1), (3, 4), (5, 0), (5, 1), (5, 4)},
    ),
    "e": (53_872, 132_390, 11_745_301_774, 120, PAPER_RESULT_SET),
    "gen-x1-y2": (
        149_434,
        377_324,
        238_893_901_531,
        261,
        {(2, 0), (2, 1), (2, 4), (5, 0), (5, 1), (5, 4)},
    ),
    "gen-x2-y1": (
        153_270,
        389_426,
        238_893_901_531,
        257,
        {(2, 0), (2, 1), (3, 0), (3, 1), (5, 0), (5, 1)},
    ),
    "gen-x1-y1": (20_647, 50_455, 761_913_936, 66, {(2, 0), (2, 1), (5, 0), (5, 1)}),
    "gen-x0-y2": (1_162, 2_084, 771_525, 10, {(5, 0), (5, 1), (5, 4)}),
    "gen-x2-y0": (1_217, 2_189, 771_525, 10, {(2, 0), (3, 0), (5, 0)}),
    "gen-x0-y1": (290, 492, 9_974, 5, {(5, 0), (5, 1)}),
    "gen-x1-y0": (303, 515, 9_974, 5, {(2, 0), (5, 0)}),
    "e-prime": (17, 16, 1, 1, {(5, 0)}),
    "gen-x0-y0": (12, 11, 1, 1, {(5, 0)}),
    "two-scan": (46_930, 116_262, 170_607_959_160, 72, {(2, 0), (2, 1), (5, 0), (5, 1)}),
    "fig1-two-scan": (124_676, 310_869, 34_002_525_175_854, 126, PAPER_RESULT_SET),
}


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _named(report, names):
    return [v for v in report.violations if v.name.startswith(names)]


def test_criterion_1_fig1_golden_run(capsys):
    t0 = time.perf_counter()
    code = main(["demo-fig1"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.splitlines()
    with capsys.disabled():
        ok = (
            code == 0
            and "(2,1)" in out
            and "sigma: 5 0 2 1 3" in out
            and any("confirmed" in line for line in out)
            and elapsed < 1.0
        )
        _report(
            "criterion-1 fig1-golden-run",
            ok,
            f"scan=(2,1), sigma=(5,0,2,1,3), sequentialization confirmed, {elapsed:.2f}s < 1s",
        )


def test_criterion_2_client_e_result_set(sweep_reports, capsys):
    reports, _ = sweep_reports
    report, elapsed = reports["e"]
    with capsys.disabled():
        ok = report.scan_results == PAPER_RESULT_SET and elapsed < 60.0
        _report(
            "criterion-2 client-e-result-set",
            ok,
            f"results={sorted(report.scan_results)} over {report.schedules} "
            f"schedules, {elapsed:.1f}s < 60s",
        )


def test_sweep_golden_counts(sweep_reports, capsys):
    reports, _ = sweep_reports
    wrong = {}
    for name, golden in SWEEP_GOLDEN.items():
        report = reports[name][0]
        got = (
            report.states,
            report.edges,
            report.schedules,
            report.executions_checked,
            report.scan_results,
        )
        if got != golden:
            wrong[name] = got
    with capsys.disabled():
        ok = not wrong and set(reports) == set(SWEEP_GOLDEN)
        _report(
            "sweep golden-counts",
            ok,
            f"{len(SWEEP_GOLDEN)} programs; swept {sorted(reports)}; mismatches: {wrong or 'none'}",
        )


def test_default_budget_covers_the_sweep():
    # the sweep explores every program with explore's default state budget
    assert max(golden[0] for golden in SWEEP_GOLDEN.values()) <= DEFAULT_MAX_STATES


def test_criterion_3_invariant_sweep(sweep_reports, capsys):
    reports, wall = sweep_reports
    bad = []
    not_ok = []
    states = edges = 0
    for name, (report, _) in reports.items():
        states += report.states
        edges += report.edges
        bad += _named(report, INVARIANTS)
        if not report.ok:
            not_ok.append(name)
    with capsys.disabled():
        ok = not bad and not not_ok and wall < 600.0
        _report(
            "criterion-3 invariant-sweep",
            ok,
            f"{len(reports)} programs, {states} states, {edges} transitions, "
            f"{len(bad)} violations, programs not ok: {not_ok or 'none'}, "
            f"{wall:.0f}s < 600s",
        )


def test_criterion_4_method_postconditions(sweep_reports, capsys):
    reports, _ = sweep_reports
    bad = []
    returns = 0
    for name, (report, _) in reports.items():
        bad += _named(report, POSTCONDITIONS)
        returns += sum(len(ex.methods) for ex in report.executions)
    # client e-prime: the scan's witness is strictly below the write's event
    eprime = reports["e-prime"][0]
    seq_ok = True
    for ex in eprime.executions:
        scan = next(m for m in ex.methods if m.call.kind == "scan")
        write = next(m for m in ex.methods if m.call.kind == "write")
        t_s, t_x = scan.witness, write.t
        final_aux = run_prefix(client_e_prime(), ex.schedule).aux
        if t_s == t_x or not omega_leq(t_s, t_x, final_aux):
            seq_ok = False
    with capsys.disabled():
        ok = not bad and seq_ok and returns > 0
        _report(
            "criterion-4 method-postconditions",
            ok,
            f"{len(bad)} postcondition failures; e-prime scan-before-write "
            f"ordering {'holds' if seq_ok else 'FAILS'}",
        )


def test_criterion_5_oracle_agreement(sweep_reports, capsys):
    reports, _ = sweep_reports
    bad = []
    checked = 0
    for name, (report, _) in reports.items():
        bad += _named(report, ORACLE_CHECKS)
        checked += report.executions_checked
    with capsys.disabled():
        ok = not bad and checked > 0
        _report(
            "criterion-5 oracle-agreement",
            ok,
            f"{checked} completed executions validated, {len(bad)} disagreements",
        )


# ---------------------------------------------------------------------------
# criterion 6: appendix property suite


def _push_mono_cases(n_cases):
    rng = random.Random(0xC0FFEE)
    failures = 0
    for _ in range(n_cases):
        n = rng.randrange(2, 11)
        sigma = tuple(rng.sample(range(1, 64), n))
        pi, pj = sorted(rng.sample(range(n), 2))
        i, j = sigma[pi], sigma[pj]
        out = push(i, j, sigma)
        pos = {t: k for k, t in enumerate(sigma)}
        pos2 = {t: k for k, t in enumerate(out)}
        for a in sigma:
            for b in sigma:
                if not pos[a] < pos[b]:
                    continue
                # the three monotonicity clauses
                if pos[a] < pos[i] and not pos2[a] < pos2[b]:
                    failures += 1
                if pos[j] < pos[b] and not pos2[a] < pos2[b]:
                    failures += 1
                if a != i and not pos2[a] < pos2[b]:
                    failures += 1
        if sorted(out) != sorted(sigma):
            failures += 1
    return failures


def _random_relink_precondition_state(rng):
    """A state satisfying relink's precondition: scanner off with both bits
    set, per-pointer colors green+/yellow?/red*, reds a global suffix."""
    while True:
        n = rng.randrange(2, 7)
        ptrs = [Ptr.X, Ptr.Y] + [rng.choice((Ptr.X, Ptr.Y)) for _ in range(n - 2)]
        rng.shuffle(ptrs)
        red_suffix = rng.randrange(0, n - 1)
        pre = list(range(1, n + 1 - red_suffix))
        if {ptrs[t - 1] for t in pre} != {Ptr.X, Ptr.Y}:
            continue  # every pointer needs a pre-suffix (non-red) write
        kappa = [Color.RED] * n
        for p in (Ptr.X, Ptr.Y):
            pre_mine = [t for t in pre if ptrs[t - 1] == p]
            for t in pre_mine:
                kappa[t - 1] = Color.GREEN
            if len(pre_mine) >= 2 and rng.random() < 0.6:
                kappa[pre_mine[-1] - 1] = Color.YELLOW
        aux = AuxState(
            ptr=tuple(ptrs),
            val=tuple(t % 8 for t in range(1, n + 1)),
            kappa=tuple(kappa),
            tau=(n,) * n,
            init_mask=(1 << (n + 1)) - 2,
            joint_mask=0,
            self_masks=(),
            sigma=tuple(range(1, n + 1)),
            wx=WRITER_OFF,
            wy=WRITER_OFF,
            scanner=ScannerState(on=False, t_off=n, sx=True, sy=True),
        )
        t_x = rng.choice([t for t in (last_green(Ptr.X, aux), yellow_of(Ptr.X, aux)) if t])
        t_y = rng.choice([t for t in (last_green(Ptr.Y, aux), yellow_of(Ptr.Y, aux)) if t])
        return aux, t_x, t_y


def _expected_by_case_analysis(t_x, t_y, aux):
    """The three-case analysis, written independently of inspect."""
    pos = {t: i for i, t in enumerate(aux.sigma)}
    if pos[t_x] < pos[t_y]:
        p, lo, hi = Ptr.X, t_x, t_y
    else:
        p, lo, hi = Ptr.Y, t_y, t_x
    if aux.kappa[lo - 1] == Color.YELLOW:
        return INSPECT_NO  # case 1
    between = [s for s in hist_p(p, aux) if pos[lo] < pos[s] < pos[hi]]
    if not between:
        return INSPECT_NO  # case 2
    assert len(between) == 1
    return InspectDecision(p, between[0])  # case 3


def _inspect_cases(n_cases):
    rng = random.Random(0xBEEF)
    failures = 0
    for _ in range(n_cases):
        aux, t_x, t_y = _random_relink_precondition_state(rng)
        assert last_gy(Ptr.X, t_x, aux) and last_gy(Ptr.Y, t_y, aux)
        got = inspect(t_x, t_y, aux)
        want = _expected_by_case_analysis(t_x, t_y, aux)
        if got != want:
            failures += 1
        elif got.ptr is not None and aux.kappa[got.target - 1] != Color.YELLOW:
            failures += 1
    return failures


def test_criterion_6_appendix_properties(sweep_reports, capsys):
    reports, _ = sweep_reports
    t0 = time.perf_counter()
    push_failures = _push_mono_cases(10_000)
    inspect_failures = _inspect_cases(1_000)
    elapsed = time.perf_counter() - t0
    relink_bad = []
    for name, (report, _) in reports.items():
        relink_bad += _named(report, RELINK_CHECKS)
    with capsys.disabled():
        ok = push_failures == 0 and inspect_failures == 0 and not relink_bad and elapsed < 30.0
        _report(
            "criterion-6 appendix-properties",
            ok,
            f"push-mono 10^4 cases ({push_failures} failures), inspect case "
            f"analysis 10^3 states ({inspect_failures} failures), relink main "
            f"property at every relink ({len(relink_bad)} failures), "
            f"{elapsed:.1f}s < 30s",
        )


def test_criterion_7_order_sanity(sweep_reports, capsys):
    reports, _ = sweep_reports
    bad = []
    states = 0
    for name, (report, _) in reports.items():
        bad += _named(report, ORDER_SANITY)
        states += report.states
    with capsys.disabled():
        ok = not bad
        _report(
            "criterion-7 order-sanity",
            ok,
            f"stable order is a partial order and scanned is a linear "
            f"downward-closed suborder on all {states} states, {len(bad)} failures",
        )
