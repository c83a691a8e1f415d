"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with `pytest -s` to see them all).
Every expected value is either structural, produced by an independent
oracle in this file or conftest, or exact by construction; nothing is
tuned after the fact.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from irrmeasure import (CombinationKind, TupleContext, brute_force_psi_sweep,
                        build_trajectory, convergents, psi_at,
                        rigidity_scan, scan_coincidences, serialize_report,
                        sign_change_count, surd_to_cf, sweep,
                        verify_with_retries)
from irrmeasure.cli import main as cli_main
from irrmeasure.corpus import (random_independent_members, random_periodic_cf,
                               random_shared_prefix_pair, random_surd)
from irrmeasure.errors import WindowTooShort
from irrmeasure.screening import RIGIDITY_GATES

from conftest import (fib_sequence, oracle_min_scan, oracle_value_interval,
                      pell_denominators, pell_numerators)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


# ----------------------------------------------------------- criterion 1

def test_criterion_1_psi_oracle_equivalence():
    """20 seeded random periodic streams, every t <= 10**4: the trajectory
    breakpoint equals the brute-force argmin and the oracle interval lies
    inside the certified enclosure; under 60 s."""
    rng = random.Random(52_01)
    t_max = 10_000
    started = time.monotonic()
    mismatches = 0
    for _ in range(20):
        cf = random_periodic_cf(rng)  # coefficients drawn from [1, 9]
        lo, hi = oracle_value_interval(cf, Fraction(1, 10 ** 12))
        oracle_rows = oracle_min_scan(lo, hi, t_max)          # local oracle
        package_rows = brute_force_psi_sweep(lo, hi, t_max)   # library oracle
        traj = build_trajectory(cf, t_max)
        for t in range(1, t_max + 1):
            o_q, o_lo, o_hi = oracle_rows[t - 1]
            row = package_rows[t - 1]
            term = psi_at(traj, t)
            if not (term.q == o_q == row.q):
                mismatches += 1
            elif not (term.lo <= o_lo and o_hi <= term.hi):
                mismatches += 1
            elif not (term.lo <= row.lo and row.hi <= term.hi):
                mismatches += 1
    elapsed = time.monotonic() - started
    _report(1, "step trajectory matches the brute-force scan",
            mismatches == 0 and elapsed < 60,
            f"{mismatches} mismatches, {elapsed:.1f}s")


# ----------------------------------------------------------- criterion 2

def test_criterion_2_classical_identities(sqrt2_cf, phi_cf):
    """Convergents of sqrt2 and the golden ratio through depth 40 match
    the recurrence oracles exactly."""
    r2 = convergents(sqrt2_cf, 40)
    phi = convergents(phi_cf, 40)
    ok = ([c.q for c in r2] == pell_denominators(40)
          and [c.p for c in r2] == pell_numerators(40)
          and [c.q for c in phi] == fib_sequence(40)
          and [c.p for c in phi] == fib_sequence(41)[1:])
    _report(2, "classical convergent identities to depth 40", ok)


# ----------------------------------------------------------- criterion 3

def test_criterion_3_pair_sign_changes():
    """20 seeded independent quadratic pairs: the pair ordering flips at
    least twice, with at most 20 horizon doublings from 10**3."""
    rng = random.Random(52_03)
    failures = []
    for index in range(20):
        cfs = random_independent_members(rng, 2)
        t_max = 1000
        flips = 0
        for _ in range(21):
            try:
                ctx = TupleContext(cfs, t_max=t_max)
                flips = sign_change_count(ctx, 1, 2)
            except WindowTooShort:
                flips = 0
            if flips >= 2:
                break
            t_max *= 2
        if flips < 2:
            failures.append(index)
    _report(3, "independent pairs keep flipping (two flips floor)",
            not failures, f"failed pairs: {failures}" if failures else "")


# ------------------------------------------------- corpus for criteria 4+5

@pytest.fixture(scope="module")
def corpus_runs():
    rng = random.Random(52_45)
    runs = []
    sizes = [2, 3, 4, 5]
    for index in range(30):
        n = sizes[index % len(sizes)]
        cfs = random_independent_members(rng, n)
        runs.append(verify_with_retries(cfs, t_max=2000, retries=8))
    return runs


# ----------------------------------------------------------- criterion 4

def test_criterion_4_jump_count_bounded_by_k_hat(corpus_runs):
    """30 seeded tuples (n in 2..5): max tau over the window never
    exceeds the window's distinct-ordering count, after retries."""
    violations = [run for run in corpus_runs
                  if run.report.max_tau > run.report.k_hat]
    _report(4, "jump multiplicity bounded by the ordering count",
            not violations,
            f"{len(corpus_runs)} tuples, max doublings "
            f"{max(run.doublings for run in corpus_runs)}")


# ----------------------------------------------------------- criterion 5

def test_criterion_5_count_bound_chain(corpus_runs):
    """Same corpus: n <= k(k+1)/2 and n <= 1 + sum(n_j), with disjoint
    index sets and equal restricted orderings in every trace."""
    bad = []
    for run in corpus_runs:
        trace, verdict = run.trace, run.bound
        k = verdict.k
        checks = [
            verdict.n <= k * (k + 1) // 2,
            verdict.n <= 1 + verdict.sum_nj,
            verdict.ok,
            trace.coverage_ok,
            all(trace.restricted_ok.values()),
            all(c.ok for c in trace.nj_checks),
        ]
        # disjointness, re-checked from the raw sets
        union_size = sum(len(s) for s in trace.i_sets.values())
        checks.append(len(frozenset().union(*trace.i_sets.values())) == union_size)
        if not all(checks):
            bad.append((run.bound, checks))
    _report(5, "count bound chain holds on every trace", not bad,
            f"{len(bad)} failing traces" if bad else "")


# ----------------------------------------------------------- criterion 6

def test_criterion_6_rigidity_scan_zero_violations():
    """Exhaustive scans yield no VIOLATION outcome, and not vacuously:
    10 seeded independent surd pairs (nu, mu <= 25, d <= 4) plus 10
    independent periodic pairs sharing a 10-25 coefficient prefix
    (nu, mu <= 50, d <= 4), where triples get past every hypothesis gate
    but the last one."""
    tally = Counter()
    rng = random.Random(52_06)
    for _ in range(10):
        a, b = random_independent_members(rng, 2)
        tally.update(rigidity_scan(a, b, max_index=25, max_d=4).tally)
    rng = random.Random(52_061)
    for _ in range(10):
        a, b = random_shared_prefix_pair(rng)
        tally.update(rigidity_scan(a, b, max_index=50, max_d=4).tally)
    last_gate = (tally[RIGIDITY_GATES[-1]] + tally["CONFIRMED"]
                 + tally["VIOLATION"])
    _report(6, "matched-jump rigidity never violated",
            tally["VIOLATION"] == 0 and last_gate > 0,
            f"{sum(tally.values())} instances, {last_gate} at the last "
            f"gate; {dict(tally)}")


# ----------------------------------------------------------- criterion 7

def test_criterion_7_equal_stars_force_equal_denominators(corpus_runs,
                                                          phi_cf, sqrt2_cf):
    """Every equal-star coincidence logged across the corpus has matching
    denominators at both index pairs, exactly."""
    rng = random.Random(52_07)
    logs = [(phi_cf, sqrt2_cf, scan_coincidences(phi_cf, sqrt2_cf, depth=40))]
    for run in corpus_runs:
        for (i, j), log in run.ctx.screen_logs.items():
            logs.append((run.ctx.cfs[i - 1], run.ctx.cfs[j - 1], log))
    # periodic pairs collide at small indices far more often than the
    # surd corpus; add them so the check is not vacuous
    for _ in range(40):
        a, b = random_periodic_cf(rng), random_periodic_cf(rng)
        logs.append((a, b, scan_coincidences(a, b, depth=40)))
    total = 0
    bad = 0
    for a, b, log in logs:
        if not log.equal_stars:
            continue
        qa = [c.q for c in convergents(a, log.depth + 1)]
        rb = [c.q for c in convergents(b, log.depth + 1)]
        for nu, mu in log.equal_stars:
            total += 1
            if qa[nu - 1] != rb[mu - 1] or qa[nu] != rb[mu]:
                bad += 1
    _report(7, "equal stars force equal denominator pairs",
            bad == 0 and total > 0, f"{total} coincidences checked")


# ----------------------------------------------------------- criterion 8

def test_criterion_8_determinism(tmp_path, capsys):
    """Identical seeds and inputs produce byte-identical reports."""
    spec = tmp_path / "pair.spec"
    spec.write_text("t_max = 2000\nburn_in = 100\n\n[phi]\nkind = periodic\n"
                    "preperiod = [1]\nperiod = [1]\n\n[root2]\nkind = surd\n"
                    "rational = 0\nroot = 1\nradicand = 2\n")
    outputs = []
    for _ in range(2):
        assert cli_main(["trace", str(spec)]) == 0
        assert cli_main(["verify", str(spec), "--max-index", "8"]) == 0
        assert cli_main(["proof-trace", str(spec)]) == 0
        outputs.append(capsys.readouterr().out)
    cli_ok = outputs[0] == outputs[1]

    def seeded_report() -> str:
        rng = random.Random(52_08)
        cfs = random_independent_members(rng, 3)
        return serialize_report(sweep(TupleContext(cfs, t_max=3000)))

    api_ok = seeded_report() == seeded_report()
    with capsys.disabled():
        _report(8, "byte-identical reports under identical seeds",
                cli_ok and api_ok)
