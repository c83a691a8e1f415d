"""Every verdict the program prints can flip.

One test per verdict site: it drives the site with an input, or an
injected fault, on which the verdict fails, and where it can, with one
on its boundary, where the verdict just holds. A site that a correct
program can never fail is reached through an injected fault. The
mutants in tests/verdict_mutants.py show which of these tests catch a
changed condition.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

import irrmeasure.bound
from irrmeasure import (PermutationEvent, RigidityOutcome, TrajectoryReport,
                        Verdict, parse_spec, scan_coincidences, sqrt_of,
                        surd_to_cf, sweep, verify_with_retries)
from irrmeasure.cli import main
from irrmeasure.errors import VerificationFailed
from irrmeasure.screening import _check

DATA = Path(__file__).resolve().parent / "data"


# ------------------------------------------------ rigidity conclusion

#: synthetic convergent rows (p, q, q_prev); only q and q_prev are read.
#: q_2 = 2 = r_2 = r_3, q_1 = 1 = r_1 and both stars are 1/2, so every
#: hypothesis and every equality of the conclusion holds except d = 2
ROWS_A = [(0, 1, 0), (0, 1, 1), (0, 2, 1)]
ROWS_B = [(0, 1, 0), (0, 1, 1), (0, 2, 1), (0, 2, 2)]


@pytest.mark.parametrize("d, outcome", [(2, RigidityOutcome.CONFIRMED),
                                        (3, RigidityOutcome.VIOLATION)])
def test_rigidity_conclusion_needs_d_equal_2(d, outcome):
    # _check, behind check_rigidity: with xi_nu = eta_mu and
    # xi_{nu+1} = eta_{mu+d-1} all four gates pass, so the record is
    # CONFIRMED at d = 2 and a VIOLATION at any other d
    rec = _check(ROWS_A, ROWS_B, 0, 0, d, lambda i, j: 0)
    assert rec.failed_hypothesis is None
    assert rec.outcome is outcome
    assert rec.detail["star_a(nu+2)"] == rec.detail["star_b(mu+2)"]


# ------------------------------------------------ screening verdict

@pytest.mark.parametrize("depth, verdict", [(38, Verdict.UNDECIDED),
                                            (39, Verdict.INDEPENDENT_LIKELY)])
def test_screening_needs_every_coincidence_in_the_first_half(depth, verdict):
    # scan_coincidences: INDEPENDENT_LIKELY needs
    # 2 * (max(last_nu, last_mu) + 1) < depth. The last shared pair of
    # m1 and m2 is (18, 18), so depth 38 sits on the boundary, where < and
    # <= differ, and 39 is the first depth that passes
    spec = parse_spec((DATA / "verify_pairs3.spec").read_text())
    m1, m2 = (number.to_cf() for number in spec.numbers[:2])
    log = scan_coincidences(m1, m2, depth=depth)
    assert log.shared_pairs[-1] == (18, 18)
    assert log.verdict is verdict


# ------------------------------------ problems of verify_with_retries

def _members(n):
    return [surd_to_cf(sqrt_of(d)) for d in (2, 3, 5, 6)[:n]]


def _first_line(cfs, t_max, burn_in):
    """The first line of the VerificationFailed that verify_with_retries
    raises with no retry; None if it passes."""
    try:
        verify_with_retries(cfs, t_max=t_max, burn_in=burn_in, retries=0)
    except VerificationFailed as exc:
        return str(exc).splitlines()[0]
    return None


def _failure(monkeypatch, fake_sweep, n, t_max):
    """_first_line on n members from burn-in 1, when the sweep is
    fake_sweep."""
    monkeypatch.setattr(irrmeasure.bound, "sweep", fake_sweep)
    return _first_line(_members(n), t_max, 1)


@pytest.mark.parametrize("t_max, problem", [
    (3, "jump coverage incomplete at t_max = 3"), (4, None)])
def test_verify_fails_when_the_window_is_too_short_for_every_pair_to_flip(
        t_max, problem):
    # sqrt 3, 5 and 13 from burn-in 2: sigma_1 = (1, 2, 3), and by t_max 3
    # only the pair (1, 2) has flipped. The one new ordering's jumpers are
    # 1 and 3, so member 2, ranked above the last, lies in no I_j, and
    # coverage is the only check that fails. At t_max 4 member 2 jumps
    # into I_3: the smallest window on which coverage holds, and every
    # check passes there
    cfs = [surd_to_cf(sqrt_of(d)) for d in (3, 5, 13)]
    assert _first_line(cfs, t_max, 2) == (
        problem and f"[bound.verify_with_retries] {problem}")


def _replay(events, k_hat, max_tau):
    """A sweep that reports `events`, (time, before, after, jumpers) on
    the labels 1..n."""
    replayed = tuple(PermutationEvent(t, before, after, frozenset(jumpers))
                     for t, before, after, jumpers in events)

    def fake(ctx):
        return TrajectoryReport(t0=ctx.t0, t_max=ctx.t_max, events=replayed,
                                perm_spans={}, k_hat=k_hat, max_tau=max_tau)
    return fake


@pytest.mark.parametrize("excess, problem", [
    (0, None), (1, "max_tau 3 > k_hat 2 at t_max = 10000")])
def test_verify_fails_when_more_members_jump_than_orderings_seen(
        monkeypatch, excess, problem):
    # a real sweep of the pair, with max_tau set to k_hat + excess
    def fake(ctx):
        report = sweep(ctx)
        return dataclasses.replace(report, max_tau=report.k_hat + excess)

    assert _failure(monkeypatch, fake, 2, 10_000) == (
        problem and f"[bound.verify_with_retries] {problem}")


@pytest.mark.parametrize("sigma_2, problem", [
    ((2, 1, 3), "restricted orderings disagree"),
    ((1, 3, 2), None)])
def test_verify_fails_when_restricted_orderings_disagree(monkeypatch, sigma_2,
                                                         problem):
    # I_3 = {1, 2}: sigma_1 ranks 1 above 2, and sigma_2 either swaps them
    # or keeps them; n_3 = 2 = k - 3 + 2 sits on the per-step bound
    events = [(2, (1, 2, 3), sigma_2, {3}), (3, sigma_2, (3, 2, 1), {1, 2})]
    assert _failure(monkeypatch, _replay(events, 3, 2), 3, 10) == (
        problem and f"[bound.verify_with_retries] {problem} at t_max = 10")


@pytest.mark.parametrize("jumpers_2, jumpers_3, problem", [
    ({4}, {1, 2, 3}, "per-step size bound violated"), ({3}, {1, 2}, None)])
def test_verify_fails_when_a_step_adds_too_many_members(
        monkeypatch, jumpers_2, jumpers_3, problem):
    # k = 3, so I_3 may hold k - 3 + 2 = 2 members. With 3 it breaks only
    # the per-step bound: 1 + 1 + 3 = 5 <= k(k+1)/2 = 6, and sigma_2 keeps
    # sigma_1's order on 1, 2, 3. With 2 every check holds, and
    # 1 + sum n_j = 4 = n puts the count bound's first margin at 0
    events = [(2, (1, 2, 3, 4), (1, 2, 4, 3), jumpers_2),
              (3, (1, 2, 4, 3), (3, 2, 1, 4), jumpers_3)]
    fake = _replay(events, 3, len(jumpers_3))
    assert _failure(monkeypatch, fake, 4, 10) == (
        problem and f"[bound.verify_with_retries] {problem} at t_max = 10")


# ------------------------------------------------ internal-fault guards

def test_a_removal_that_closes_a_misordered_pair_exits_3(monkeypatch, capsys):
    # the removal check certifies the pair a leaving jumper closes; a move
    # check always holds the jumper's new term, whose q is the event time,
    # the largest q any check has held yet. Every removal of an event comes
    # before its moves, so a removal's two terms have q at most the largest
    # of the earlier checks. A certificate that fails when both q are below
    # it fails only removals, and on this spec it is first met at one: the
    # two members it names flank the event's single jumper
    spec = DATA / "replay_wide8.spec"
    assert main(["trace", str(spec)]) == 0
    records = capsys.readouterr().out.split("\n\n")[0].splitlines()
    sweep_module = importlib.import_module("irrmeasure.sweep")
    certified_above = sweep_module.certified_above
    latest = [0]

    def fault(upper, lower, *rest):
        if max(upper.q, lower.q) < latest[0]:
            return False
        latest[0] = max(latest[0], upper.q, lower.q)
        return certified_above(upper, lower, *rest)

    monkeypatch.setattr(sweep_module, "certified_above", fault)
    assert main(["trace", str(spec)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    words = captured.err.split()
    assert captured.err.startswith("internal error: members ")
    upper, lower, time = int(words[3]), int(words[5]), words[-1]
    _, before, _, jumpers = next(line.split("\t") for line in records
                                 if line.split("\t")[0] == time)
    before = [int(m) for m in before.split(",")]
    at = before.index(upper)
    assert before[at + 1:at + 3] == [int(jumpers), lower]


def test_breakpoint_terms_that_do_not_decrease_exit_3(monkeypatch, capsys):
    # build_trajectory certifies each member's breakpoint error terms
    # strictly decreasing; a failed certificate is a program fault
    stepfunc = importlib.import_module("irrmeasure.stepfunc")
    monkeypatch.setattr(stepfunc, "first_misordered", lambda *args: 0)
    assert main(["trace", str(DATA / "replay_wide8.spec")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("internal error: breakpoint error terms are not "
                            "strictly decreasing\n")
    assert captured.out == ""
