"""Structural coincidence scans between two expansions.

Two streams can share convergent structure only in limited ways: equal
reversed-word ratios force equal denominator pairs, and infinitely many
shared (q, q') pairs would force the values' sum or difference into Z.
This module logs such coincidences, screens pairs for independence, and
runs the executable forms of the rigidity and order-reversal consequences
on concrete index windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .cf import (CombinationKind, ContinuedFraction, ErrorTerm, Ordering,
                 certified_order, compare_errors, convergents,
                 integer_combination_check, star_value)
from .stepfunc import build_trajectory, psi_at


class Verdict(Enum):
    INDEPENDENT_LIKELY = "INDEPENDENT_LIKELY"
    DEPENDENT = "DEPENDENT"
    UNDECIDED = "UNDECIDED"


@dataclass
class CoincidenceLog:
    """Shared structure found between two streams up to a scan depth.

    shared_pairs: (nu, mu) with (q_nu, q_{nu+1}) = (r_mu, r_{mu+1});
    equal_stars: (nu, mu) with q_{nu-1}/q_nu = r_{mu-1}/r_mu;
    time_horizon: the largest denominator involved in any coincidence.
    """

    depth: int
    shared_pairs: tuple[tuple[int, int], ...]
    equal_stars: tuple[tuple[int, int], ...]
    verdict: Verdict
    combination: CombinationKind | None
    time_horizon: int

    def serialize(self) -> str:
        lines = [f"shared_pair\t{nu}\t{mu}" for nu, mu in self.shared_pairs]
        lines += [f"equal_star\t{nu}\t{mu}" for nu, mu in self.equal_stars]
        lines.append(f"verdict\t{self.verdict.value}")
        if self.combination is not None:
            lines.append(f"combination\t{self.combination.value}")
        lines.append(f"coincidence_horizon\t{self.time_horizon}")
        return "\n".join(lines) + "\n"


def scan_coincidences(a: ContinuedFraction, b: ContinuedFraction,
                      depth: int = 40) -> CoincidenceLog:
    """Exhaustive coincidence log over indices <= depth.

    DEPENDENT needs a symbolic proof (sum or difference in Z) from exact
    values, which periodic backings derive automatically. Otherwise the
    verdict is INDEPENDENT_LIKELY only when every coincidence sits in the
    first half of the scanned range; late coincidences force UNDECIDED
    because finiteness of coincidences carries no a-priori bound.
    """
    if depth < 2:
        raise ValueError("scan depth must be >= 2")
    qa = [c.q for c in convergents(a, depth + 1)]
    rb = [c.q for c in convergents(b, depth + 1)]

    pair_index: dict[tuple[int, int], list[int]] = {}
    for mu in range(depth):
        pair_index.setdefault((rb[mu], rb[mu + 1]), []).append(mu)
    shared_pairs = []
    for nu in range(depth):
        for mu in pair_index.get((qa[nu], qa[nu + 1]), ()):
            shared_pairs.append((nu, mu))

    star_index: dict[Fraction, list[int]] = {}
    for mu in range(1, depth + 1):
        star_index.setdefault(Fraction(rb[mu - 1], rb[mu]), []).append(mu)
    equal_stars = []
    for nu in range(1, depth + 1):
        for mu in star_index.get(Fraction(qa[nu - 1], qa[nu]), ()):
            equal_stars.append((nu, mu))
            # equal stars force equal denominators at both indices:
            # consecutive denominators are coprime, so the reduced
            # fractions expose them directly
            if qa[nu - 1] != rb[mu - 1] or qa[nu] != rb[mu]:
                raise AssertionError(
                    f"equal stars at ({nu}, {mu}) without matching denominators")

    combination = None
    va, vb = a.exact_value(), b.exact_value()
    if va is not None and vb is not None:
        combination = integer_combination_check(va, vb)

    locations = [max(nu + 1, mu + 1) for nu, mu in shared_pairs]
    locations += [max(nu, mu) for nu, mu in equal_stars]
    if combination in (CombinationKind.SUM_INTEGER, CombinationKind.DIFF_INTEGER):
        verdict = Verdict.DEPENDENT
    elif not locations or 2 * max(locations) < depth:
        verdict = Verdict.INDEPENDENT_LIKELY
    else:
        verdict = Verdict.UNDECIDED

    horizon = 0
    for nu, _ in shared_pairs:
        horizon = max(horizon, qa[nu + 1])
    for nu, _ in equal_stars:
        horizon = max(horizon, qa[nu])
    return CoincidenceLog(depth=depth,
                          shared_pairs=tuple(shared_pairs),
                          equal_stars=tuple(equal_stars),
                          verdict=verdict,
                          combination=combination,
                          time_horizon=horizon)


class RigidityOutcome(Enum):
    NOT_APPLICABLE = "NOT_APPLICABLE"
    CONFIRMED = "CONFIRMED"
    VIOLATION = "VIOLATION"


@dataclass
class RigidityRecord:
    """One instance of the matched-jump rigidity check, with enough data
    to dump a full certificate when something is off."""

    nu: int
    mu: int
    d: int
    outcome: RigidityOutcome
    failed_hypothesis: str | None = None
    detail: dict = field(default_factory=dict)

    def serialize(self) -> str:
        parts = [f"rigidity\t{self.nu}\t{self.mu}\t{self.d}\t{self.outcome.value}"]
        if self.failed_hypothesis:
            parts.append(self.failed_hypothesis)
        for key in sorted(self.detail):
            parts.append(f"{key}={self.detail[key]}")
        return "\t".join(parts)


def _error_sign(a: ContinuedFraction, nu: int, b: ContinuedFraction, mu: int,
                max_depth: int) -> int:
    """Sign of xi_nu(a) - eta_mu(b); 0 only via exact symbolic equality."""
    ta, tb = ErrorTerm(a, nu), ErrorTerm(b, mu)
    ea, eb = ta.exact_value(), tb.exact_value()
    if ea is not None and eb is not None:
        return ea.compare(eb)
    return -1 if compare_errors(ta, tb, max_depth) is Ordering.LESS else 1


def check_rigidity(a: ContinuedFraction, b: ContinuedFraction,
                   nu: int, mu: int, d: int, *,
                   max_compare_depth: int = 64) -> RigidityRecord:
    """Tests the forced-equality pattern at matched denominators.

    Hypotheses: xi_nu <= eta_mu, xi_{nu+1} <= eta_{mu+d-1},
    q_{nu+1} <= r_{mu+1}, and q_{nu+2} = r_{mu+d}. Whenever all four hold,
    the three inequalities must collapse to equalities, d must equal 2,
    and the reversed-word ratios two steps later must agree. The pattern
    is proven, so a VIOLATION certificate flags an arithmetic bug, never
    new mathematics.
    """
    if nu < 0 or mu < 0 or d < 1:
        raise ValueError("need nu, mu >= 0 and d >= 1")
    qa = [c.q for c in convergents(a, nu + 3)]
    rb = [c.q for c in convergents(b, max(mu + d, mu + 2) + 1)]
    rec = RigidityRecord(nu=nu, mu=mu, d=d, outcome=RigidityOutcome.NOT_APPLICABLE)
    if qa[nu + 2] != rb[mu + d]:
        rec.failed_hypothesis = "q_{nu+2} = r_{mu+d}"
        return rec
    if qa[nu + 1] > rb[mu + 1]:
        rec.failed_hypothesis = "q_{nu+1} <= r_{mu+1}"
        return rec
    head = _error_sign(a, nu, b, mu, max_compare_depth)
    if head > 0:
        rec.failed_hypothesis = "xi_nu <= eta_mu"
        return rec
    tail_sign = _error_sign(a, nu + 1, b, mu + d - 1, max_compare_depth)
    if tail_sign > 0:
        rec.failed_hypothesis = "xi_{nu+1} <= eta_{mu+d-1}"
        return rec
    # all hypotheses hold; the conclusion is forced
    star_a = star_value(a, nu + 2)
    star_b = star_value(b, mu + 2)
    rec.detail = {
        "sign_head": head,
        "sign_tail": tail_sign,
        "q_nu+1": qa[nu + 1],
        "r_mu+1": rb[mu + 1],
        "q_nu+2": qa[nu + 2],
        "r_mu+d": rb[mu + d],
        "star_a(nu+2)": star_a,
        "star_b(mu+2)": star_b,
    }
    conclusion = (head == 0 and tail_sign == 0 and qa[nu + 1] == rb[mu + 1]
                  and d == 2 and star_a == star_b)
    rec.outcome = RigidityOutcome.CONFIRMED if conclusion else RigidityOutcome.VIOLATION
    return rec


def rigidity_scan(a: ContinuedFraction, b: ContinuedFraction, *,
                  max_index: int = 25, max_d: int = 4,
                  max_compare_depth: int = 64) -> list[RigidityRecord]:
    """Exhaustive rigidity check over nu, mu <= max_index and d <= max_d."""
    records = []
    for nu in range(max_index + 1):
        for mu in range(max_index + 1):
            for d in range(1, max_d + 1):
                records.append(check_rigidity(a, b, nu, mu, d,
                                              max_compare_depth=max_compare_depth))
    return records


@dataclass
class ReversalRecord:
    """A shared denominator q_nu(a) = r_mu(b) with the order comparison
    just before it and at the two candidate earlier times.

    The predicted reversal is read at the a-side previous denominator;
    the b-side reading is recorded as raw data because the statement's
    earlier time is ambiguous between the two, and this checker reports
    rather than normalizes.
    """

    shared_q: int
    nu: int
    mu: int
    applicable: bool
    alpha_prev_time: int
    beta_prev_time: int
    reversal_at_alpha_prev: bool | None
    reversal_at_beta_prev: bool | None
    enclosures: dict[str, tuple[Fraction, Fraction]] = field(default_factory=dict)

    def serialize(self) -> str:
        return (f"reversal\t{self.shared_q}\t{self.nu}\t{self.mu}\t"
                f"{'APPLICABLE' if self.applicable else 'NOT_APPLICABLE'}\t"
                f"{self.alpha_prev_time}\t{self.reversal_at_alpha_prev}\t"
                f"{self.beta_prev_time}\t{self.reversal_at_beta_prev}")


def check_reversal_pattern(a: ContinuedFraction, b: ContinuedFraction,
                           depth: int = 40, *, burn_in: int = 0,
                           max_compare_depth: int = 64) -> list[ReversalRecord]:
    """At every shared denominator q_nu(a) = r_mu(b) past burn_in: when
    the a-side step sits strictly below the b-side just before the shared
    jump, the order one a-side step earlier is predicted to be reversed.

    Returns one record per shared denominator (hypothesis failures are
    kept, marked not applicable); each record carries the compared
    enclosures so the raw data survives into reports.
    """
    qa = [c.q for c in convergents(a, depth + 1)]
    rb = [c.q for c in convergents(b, depth + 1)]
    r_pos: dict[int, int] = {}
    for mu in range(2, depth + 1):
        r_pos.setdefault(rb[mu], mu)
    sites = []
    for nu in range(2, depth + 1):
        mu = r_pos.get(qa[nu])
        if mu is None:
            continue
        if qa[nu] <= burn_in or qa[nu - 1] < 2 or rb[mu - 1] < 2:
            continue
        sites.append((nu, mu))
    if not sites:
        return []
    t_top = max(qa[nu] for nu, _ in sites)
    traj_a = build_trajectory(a, t_top)
    traj_b = build_trajectory(b, t_top)

    def order(t: int) -> Ordering:
        return certified_order(psi_at(traj_a, t), psi_at(traj_b, t),
                               max_compare_depth, time=t, pair=(1, 2),
                               names=("a", "b"),
                               origin="screening.check_reversal_pattern")

    records = []
    for nu, mu in sites:
        shared_q = qa[nu]
        t_hyp = shared_q - 1
        order_hyp = order(t_hyp)
        applicable = order_hyp is Ordering.LESS
        t_alpha = qa[nu - 1] - 1
        t_beta = rb[mu - 1] - 1
        rev_alpha = rev_beta = None
        if applicable:
            rev_alpha = order(t_alpha) is Ordering.GREATER
            rev_beta = order(t_beta) is Ordering.GREATER
        enclosures = {
            "a@shared-1": psi_at(traj_a, t_hyp).interval(),
            "b@shared-1": psi_at(traj_b, t_hyp).interval(),
            "a@alpha_prev": psi_at(traj_a, t_alpha).interval(),
            "b@alpha_prev": psi_at(traj_b, t_alpha).interval(),
            "a@beta_prev": psi_at(traj_a, t_beta).interval(),
            "b@beta_prev": psi_at(traj_b, t_beta).interval(),
        }
        records.append(ReversalRecord(
            shared_q=shared_q, nu=nu, mu=mu, applicable=applicable,
            alpha_prev_time=t_alpha, beta_prev_time=t_beta,
            reversal_at_alpha_prev=rev_alpha, reversal_at_beta_prev=rev_beta,
            enclosures=enclosures))
    return records
