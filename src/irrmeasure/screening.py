"""Structural coincidence scans between two expansions.

Two streams can share convergent structure only in limited ways: equal
reversed-word ratios force equal denominator pairs, and infinitely many
shared (q, q') pairs would force the values' sum or difference into Z.
This module logs such coincidences, screens pairs for independence
(exactly for exact quadratic values: they are dependent exactly when
they share a field), and runs the executable forms of the rigidity and
order-reversal consequences on concrete index windows.

A coincidence scan is one intersection of the two streams' pair indexes
(q_nu, q_{nu+1}) -> nu, each built once per stream in O(depth). Equal
stars need no second join: consecutive denominators are coprime, so
equal star values are exactly the shared pairs shifted by (1, 1).

The rigidity scan indexes the second stream's denominators by row,
r_j -> j, and looks up q_{nu+2} once for every row nu: the matched
triples are (j - d, d) over the window's d, only they run the full
check, and every other triple is counted, not stored. Both convergent
tables are grown to the window before any check, so a stream too short
for it fails the scan with its own growth error, before any comparison.
Each error-term sign is evaluated once per scan. A scan costs
O(max_index + max_d) steps for the index, O(1) table reads per row and
per matched triple, and one certified comparison per distinct sign,
instead of O(triples x table length).

The check's error-term signs need no enclosure where two streams share
convergent rows: there xi_nu - eta_mu has the sign of y' - x', the
difference of the two tails, and the first tail coefficient pair that
differs, at most max_compare_depth places in, decides it. Every other
sign, and one whose tails agree through that budget or whose reads
raise, comes from the integer enclosure kernel: a strict separation of
the two enclosures proves the sign. Exact surd algebra runs only on a
tie, when the enclosures still overlap at the refinement budget or the
depth cap, and a sign 0 comes only from that exact equality.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType

from .cf import (DEFAULT_COMPARE_DEPTH, CombinationKind, ContinuedFraction,
                 ErrorTerm, Ordering, certified_order, compare_errors)
from .errors import (DepthCapExceeded, DepthExhausted, LabError,
                     UndecidedComparison)
from .stepfunc import build_trajectory, psi_at

#: default index bound of the coincidence and reversal scans, and the
#: default rigidity window nu, mu <= DEFAULT_MAX_INDEX, d <= DEFAULT_MAX_D
DEFAULT_SCAN_DEPTH = 40
DEFAULT_MAX_INDEX = 25
DEFAULT_MAX_D = 4


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
                      depth: int = DEFAULT_SCAN_DEPTH) -> CoincidenceLog:
    """Exhaustive coincidence log over indices <= depth.

    Shared pairs are the index keys both streams hold with nu, mu < depth.
    The index asserts every row coprime, so q_{nu-1}/q_nu = r_{mu-1}/r_mu
    exactly when (nu - 1, mu - 1) is a shared pair.

    Exact values (surd and periodic backings carry one) are dependent
    exactly when they lie in one quadratic field: SAME_FIELD, equal
    square-free radicands, gives DEPENDENT. Otherwise the verdict is
    INDEPENDENT_LIKELY only when every coincidence sits in the first half
    of the scanned range; late coincidences force UNDECIDED because
    finiteness of coincidences carries no a-priori bound.
    """
    if depth < 2:
        raise ValueError("scan depth must be >= 2")
    ia, ib = a.pair_index(depth), b.pair_index(depth)
    # (nu, mu, q_{nu+1}) sorted by nu; q_{nu+1} = r_{mu+1} grows strictly
    # with nu and with mu, so the last one is the latest in both streams
    # and has the largest denominator
    shared = sorted((ia[key], ib[key], key[1]) for key in ia.keys() & ib.keys()
                    if ia[key] < depth and ib[key] < depth)
    last_nu, last_mu, horizon = shared[-1] if shared else (0, 0, 0)
    shared_pairs = tuple((nu, mu) for nu, mu, _ in shared)

    combination = None
    va, vb = a.exact_value(), b.exact_value()
    if va is not None and vb is not None:
        combination = (CombinationKind.SAME_FIELD if va.radicand == vb.radicand
                       else CombinationKind.NEITHER)

    if combination is CombinationKind.SAME_FIELD:
        verdict = Verdict.DEPENDENT
    elif not shared or 2 * (max(last_nu, last_mu) + 1) < depth:
        verdict = Verdict.INDEPENDENT_LIKELY
    else:
        verdict = Verdict.UNDECIDED
    return CoincidenceLog(depth=depth,
                          shared_pairs=shared_pairs,
                          equal_stars=tuple((nu + 1, mu + 1) for nu, mu in shared_pairs),
                          verdict=verdict,
                          combination=combination,
                          time_horizon=horizon)


class RigidityOutcome(Enum):
    NOT_APPLICABLE = "NOT_APPLICABLE"
    CONFIRMED = "CONFIRMED"
    VIOLATION = "VIOLATION"


#: the hypotheses check_rigidity tests, in order; a NOT_APPLICABLE record
#: names the first one that failed
RIGIDITY_GATES = ("q_{nu+2} = r_{mu+d}", "q_{nu+1} <= r_{mu+1}",
                  "xi_nu <= eta_mu", "xi_{nu+1} <= eta_{mu+d-1}")


@dataclass
class RigidityRecord:
    """One instance (nu, mu, d) of the matched-jump rigidity check, with
    enough data to dump a full certificate when something is off.

    failed_hypothesis is set exactly when the outcome is NOT_APPLICABLE;
    detail is filled only when all four hypotheses hold.
    """

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


def _tail_sign(a: ContinuedFraction, nu: int, b: ContinuedFraction, mu: int,
               max_depth: int) -> int | None:
    """Sign of xi_nu(a) - eta_mu(b) when the two convergent rows share
    (q, q_prev), read from the first differing tail coefficient; None when
    the rows differ or the tails agree up to index +max_depth.

    On shared rows xi = 1/(q*x' + q_prev) and eta = 1/(q*y' + q_prev), so
    the sign is that of y' - x'. At the first k with c_k = a_{nu+1+k} !=
    d_k = b_{mu+1+k}, y' > x' exactly when d_k > c_k at even k, or
    d_k < c_k at odd k. Until then both enclosures are the same cylinder
    and compare_errors refines them in lockstep, reading c_0, d_0, c_1,
    d_1, ...; first_difference reads them in that order, behind the same
    row reads (c_0 before b's row), and stops at its deepest index, where
    cylinders with c_k != d_k touch or part and so count as separated.
    """
    _, q, q_prev = a.convergent_row(nu)
    a.coefficient(nu + 1)       # c_0 is read before b's row
    if b.convergent_row(mu)[1:] != (q, q_prev):
        return None
    k = a.first_difference(nu + 1, b, mu + 1, max_depth + 1)
    if k is None:
        return None
    c, d = a.coefficient(nu + 1 + k), b.coefficient(mu + 1 + k)
    return 1 if (d > c) == (k % 2 == 0) else -1


def _error_sign(a: ContinuedFraction, nu: int, b: ContinuedFraction, mu: int,
                max_depth: int) -> int:
    """Sign of xi_nu(a) - eta_mu(b); 0 only via exact symbolic equality.

    On shared convergent rows _tail_sign decides first, with no enclosure
    built. It decides exactly the keys compare_errors decides, since
    neither reads a coefficient past index +max_depth. Otherwise, and when
    one of its reads raises, the enclosures decide: a strict separation
    proves the sign. When they still overlap at max_depth or at a depth
    cap (equal values never separate), the exact surds decide in a fixed
    number of operations, if both members carry one; otherwise the
    comparison's error is raised as is. A read that raised in _tail_sign
    raises again there (a source error repeats on retry), so signs of 0,
    error classes and messages are those of the enclosures alone;
    compare_errors also rejects a budget below 1.
    """
    if max_depth >= 1:
        try:
            sign = _tail_sign(a, nu, b, mu, max_depth)
        except (LabError, ValueError):
            sign = None
        if sign is not None:
            return sign
    ta, tb = ErrorTerm(a, nu), ErrorTerm(b, mu)
    try:
        return -1 if compare_errors(ta, tb, max_depth) is Ordering.LESS else 1
    except (UndecidedComparison, DepthCapExceeded, DepthExhausted):
        ea, eb = ta.exact_value(), tb.exact_value()
        if ea is None or eb is None:
            raise
        return ea.compare(eb)


def check_rigidity(a: ContinuedFraction, b: ContinuedFraction,
                   nu: int, mu: int, d: int, *,
                   max_compare_depth: int = DEFAULT_COMPARE_DEPTH) -> RigidityRecord:
    """Tests the forced-equality pattern at matched denominators.

    Hypotheses: xi_nu <= eta_mu, xi_{nu+1} <= eta_{mu+d-1},
    q_{nu+1} <= r_{mu+1}, and q_{nu+2} = r_{mu+d}. Whenever all four hold,
    the three inequalities must collapse to equalities, d must equal 2,
    and the reversed-word ratios two steps later must agree. The pattern
    is proven, so a VIOLATION certificate flags an arithmetic bug, never
    new mathematics.

    CONFIRMED cannot occur when 1, a and b are linearly independent over
    Q. The conclusion needs sign_head = 0, that is xi_nu = eta_mu exactly,
    and then q_nu*a - p_nu = +-(r_mu*b - s_mu) is a rational relation
    among 1, a and b. On such a pair every record is NOT_APPLICABLE or a
    VIOLATION, so what a scan shows there is that no triple passes the
    fourth gate, xi_{nu+1} <= eta_{mu+d-1}.

    Each sign of xi - eta at shared convergent rows comes from the first
    differing tail coefficient, read at most max_compare_depth places in.
    Any other sign, or one that rule leaves open, comes from a strict
    enclosure separation, or from exact surd algebra when the enclosures
    tie; a sign of 0 (the equality the conclusion needs) is only ever an
    exact equality.
    """
    if nu < 0 or mu < 0 or d < 1:
        raise ValueError("need nu, mu >= 0 and d >= 1")
    return _check(a.rows(nu + 3), b.rows(mu + max(d, 2) + 1), nu, mu, d,
                  lambda i, j: _error_sign(a, i, b, j, max_compare_depth))


def _check(rows_a: Sequence[tuple[int, int, int]],
           rows_b: Sequence[tuple[int, int, int]], nu: int, mu: int, d: int,
           sign: Callable[[int, int], int]) -> RigidityRecord:
    """check_rigidity on the two streams' convergent tables, grown to
    index nu + 2 and to max(mu + d, mu + 2), with sign(i, j) giving the
    sign of xi_i - eta_j.
    """
    _, q_top, q_next = rows_a[nu + 2]    # q_{nu+2}, q_{nu+1}
    r_top = rows_b[mu + d][1]
    rec = RigidityRecord(nu=nu, mu=mu, d=d, outcome=RigidityOutcome.NOT_APPLICABLE)
    if q_top != r_top:
        rec.failed_hypothesis = "q_{nu+2} = r_{mu+d}"
        return rec
    r_next = rows_b[mu + 1][1]
    if q_next > r_next:
        rec.failed_hypothesis = "q_{nu+1} <= r_{mu+1}"
        return rec
    head = sign(nu, mu)
    if head > 0:
        rec.failed_hypothesis = "xi_nu <= eta_mu"
        return rec
    tail_sign = sign(nu + 1, mu + d - 1)
    if tail_sign > 0:
        rec.failed_hypothesis = "xi_{nu+1} <= eta_{mu+d-1}"
        return rec
    # all hypotheses hold; the conclusion is forced. Star values
    # q_{nu+1}/q_{nu+2} and r_{mu+1}/r_{mu+2}
    _, r_star, r_star_prev = rows_b[mu + 2]
    star_a = Fraction(q_next, q_top)
    star_b = Fraction(r_star_prev, r_star)
    rec.detail = {
        "sign_head": head,
        "sign_tail": tail_sign,
        "q_nu+1": q_next,
        "r_mu+1": r_next,
        "q_nu+2": q_top,
        "r_mu+d": r_top,
        "star_a(nu+2)": star_a,
        "star_b(mu+2)": star_b,
    }
    conclusion = (head == 0 and tail_sign == 0 and q_next == r_next
                  and d == 2 and star_a == star_b)
    rec.outcome = RigidityOutcome.CONFIRMED if conclusion else RigidityOutcome.VIOLATION
    return rec


class RigidityScan:
    """The records of the triples (nu, mu, d) with nu, mu <= max_index and
    1 <= d <= max_d that pass the denominator gate, in lexicographic
    order; len() and iteration read those.

    `checked` counts every triple of the window. `tally` counts them by
    first failed hypothesis (RIGIDITY_GATES, in order) and by outcome
    ("CONFIRMED", "VIOLATION"), so its first gate counts the triples with
    no record. `violations` holds the VIOLATION records in scan order.
    """

    def __init__(self, max_index: int, max_d: int,
                 examined: dict[tuple[int, int, int], RigidityRecord]) -> None:
        self.checked = max(max_index + 1, 0) ** 2 * max(max_d, 0)
        self._records = tuple(examined.values())
        tally = dict.fromkeys(RIGIDITY_GATES + ("CONFIRMED", "VIOLATION"), 0)
        tally[RIGIDITY_GATES[0]] = self.checked - len(self._records)
        for rec in self._records:
            tally[rec.failed_hypothesis or rec.outcome.value] += 1
        self.tally = MappingProxyType(tally)
        self.violations = tuple(rec for rec in self._records
                                if rec.outcome is RigidityOutcome.VIOLATION)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RigidityRecord]:
        return iter(self._records)


def rigidity_scan(a: ContinuedFraction, b: ContinuedFraction, *,
                  max_index: int = DEFAULT_MAX_INDEX,
                  max_d: int = DEFAULT_MAX_D,
                  max_compare_depth: int = DEFAULT_COMPARE_DEPTH) -> RigidityScan:
    """Exhaustive rigidity check over nu, mu <= max_index and d <= max_d.

    The records are those of the triple loop that runs check_rigidity on
    every (nu, mu, d) in order, less the ones stopped at the denominator
    gate; the tally counts all of that loop's records. Both convergent
    tables are grown to the window first, a to row max_index + 2 and then b to
    row max_index + max(max_d, 2), the deepest rows that loop reads; a
    stream that cannot fill the window fails the scan with its own
    growth error, a's before b's, and no sign is evaluated. One index of
    the second stream's table, r_j -> j for j >= 1 (injective: r_j grows
    strictly from j = 1 on), serves every row nu: the triples with
    q_{nu+2} = r_j are (j - d, d) for d from min(max_d, j) down to
    max(1, j - max_index), in the loop's order, and only they are
    checked. Each sign of xi_nu - eta_mu is evaluated once per scan: the
    tail key (nu + 1, mu + d - 1) of one triple is the head key of a
    later one. A failing sign ends the scan, so no error is cached.

    Cost: O(max_index + max_d) table rows for the index, O(1) table reads
    per row nu and per matched triple, and one certified comparison per
    distinct sign key.
    """
    examined: dict[tuple[int, int, int], RigidityRecord] = {}
    if max_index < 0 or max_d < 1:
        return RigidityScan(max_index, max_d, examined)
    signs: dict[tuple[int, int], int] = {}

    def sign(nu: int, mu: int) -> int:
        value = signs.get((nu, mu))
        if value is None:
            value = signs[nu, mu] = _error_sign(a, nu, b, mu, max_compare_depth)
        return value

    rows_a = a.rows(max_index + 3)
    rows_b = b.rows(max_index + max(max_d, 2) + 1)
    index = {rows_b[j][1]: j for j in range(1, max_index + max_d + 1)}
    for nu in range(max_index + 1):
        j = index.get(rows_a[nu + 2][1])
        if j is not None:
            for d in range(min(max_d, j), max(1, j - max_index) - 1, -1):
                examined[nu, j - d, d] = _check(rows_a, rows_b, nu, j - d, d, sign)
    return RigidityScan(max_index, max_d, examined)


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

    def serialize(self) -> str:
        return (f"reversal\t{self.shared_q}\t{self.nu}\t{self.mu}\t"
                f"{'APPLICABLE' if self.applicable else 'NOT_APPLICABLE'}\t"
                f"{self.alpha_prev_time}\t{self.reversal_at_alpha_prev}\t"
                f"{self.beta_prev_time}\t{self.reversal_at_beta_prev}")


def check_reversal_pattern(a: ContinuedFraction, b: ContinuedFraction,
                           depth: int = DEFAULT_SCAN_DEPTH, *, burn_in: int = 0,
                           max_compare_depth: int = DEFAULT_COMPARE_DEPTH,
                           names: tuple[str, str] = ("a", "b")
                           ) -> list[ReversalRecord]:
    """At every shared denominator q_nu(a) = r_mu(b) past burn_in: when
    the a-side step sits strictly below the b-side just before the shared
    jump, the order one a-side step earlier is predicted to be reversed.

    Returns one record per shared denominator (hypothesis failures are
    kept, marked not applicable). An order that cannot be certified
    raises UndecidedOrdering naming a and b by `names`.
    """
    qa = a.denominators(depth + 1)
    rb = b.denominators(depth + 1)
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
                               names=names,
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
        records.append(ReversalRecord(
            shared_q=shared_q, nu=nu, mu=mu, applicable=applicable,
            alpha_prev_time=t_alpha, beta_prev_time=t_beta,
            reversal_at_alpha_prev=rev_alpha, reversal_at_beta_prev=rev_beta))
    return records
