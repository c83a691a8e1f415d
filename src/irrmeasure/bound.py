"""Replay of the permutation-count bound on a concrete window.

The trace records the first times T_2 < ... < T_k at which orderings
distinct from all earlier ones appear, the sets I_j of members jumping at
T_j and at no earlier T_i, and the restricted orderings on each I_j. The
inequality chain n <= 1 + sum(n_j) <= k(k+1)/2 is then checked with
explicit margins. A failed check on a finite window is classified as a
window artifact first: the verifier doubles the horizon before declaring
it hard.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .cf import DEFAULT_COMPARE_DEPTH
from .errors import VerificationFailed, WindowTooShort
from .screening import DEFAULT_SCAN_DEPTH
from .sweep import TrajectoryReport, TupleContext, format_permutation, sweep


@dataclass
class ProofTrace:
    """Combinatorial skeleton of the bound on one window.

    All member labels are the caller's original 1-based labels. The
    relabeling that makes sigma(T_1) the identity, relabeling[i-1] = the
    label of rank i, is sigma_1; n_counts maps j to n_j = |I_j|.
    restricted maps j to sigma_1 restricted to I_j, only where I_j has two
    or more members: views on fewer members agree by definition.
    """

    t1: int
    new_times: tuple[int, ...]                 # T_2 .. T_k
    sigmas: tuple[tuple[int, ...], ...]        # sigma_1 .. sigma_k
    i_sets: dict[int, frozenset[int]]          # j -> original labels
    restricted: dict[int, tuple[int, ...]]     # j -> sigma_1 on I_j, |I_j| >= 2
    restricted_ok: dict[int, bool]
    coverage_ok: bool
    n: int

    @property
    def k(self) -> int:
        return len(self.sigmas)

    @property
    def relabeling(self) -> tuple[int, ...]:
        return self.sigmas[0]

    @cached_property
    def n_counts(self) -> dict[int, int]:
        """Built once per trace: render_proof_trace reads it for every j."""
        return {j: len(s) for j, s in self.i_sets.items()}

    @cached_property
    def nj_checks(self) -> tuple[NjCheck, ...]:
        """Per-j verdicts for n_j <= k - j + 2, built once per trace."""
        k = self.k
        return tuple(NjCheck(j, n_j, k - j + 2, n_j <= k - j + 2)
                     for j, n_j in sorted(self.n_counts.items()))


def _covered_once(members: Iterable[int],
                  sets: Iterable[frozenset[int]]) -> bool:
    """Whether each of members lies in exactly one of sets, counted in one
    pass over the sets: O(len(members) + total set size)."""
    counts = Counter(chain.from_iterable(sets))
    return all(counts[m] == 1 for m in members)


#: the I_j of every T_j whose jumpers all jumped at an earlier T_i
_NONE: frozenset[int] = frozenset()


def build_proof_trace(ctx: TupleContext,
                      report: TrajectoryReport | None = None) -> ProofTrace:
    """T_1 is the burn-in time; T_j (j >= 2) is the first time after T_1
    whose ordering differs from all of sigma_1 .. sigma_{j-1}, exactly as
    the inductive definition reads. sigma_1 is the first event's `before`,
    the ordering the sweep certified at T_1.

    I_j collects members jumping at T_j and at no earlier T_i (i >= 2).
    One walk over the events finds the new orderings and builds each I_j
    as it finds T_j; a jumper set already fully seen gets one shared empty
    set. The restricted orderings of sigma_1 .. sigma_{j-1} on each I_j
    must coincide, and that equality is evaluated, not assumed: each
    earlier ordering's view is compared with sigma_1's through
    per-ordering rank maps, so the check costs O(k n log n) rather than
    building k^2 views. The maps are built only when some I_j has two or
    more members, and `restricted` keeps sigma_1's view on each such I_j,
    the view every earlier one was compared with.
    """
    if report is None:
        report = sweep(ctx)
    # an empty event list leaves no sigma_1 and fails the k >= 2 check below
    sigmas: list[tuple[int, ...]] = [ev.before for ev in report.events[:1]]
    seen_sigmas = set(sigmas)
    new_times: list[int] = []
    i_sets: dict[int, frozenset[int]] = {}
    seen: set[int] = set()
    for time, _, after, jumpers in report.events:
        if after not in seen_sigmas:
            seen_sigmas.add(after)
            sigmas.append(after)
            new_times.append(time)
            if jumpers <= seen:
                i_sets[len(sigmas)] = _NONE
            else:
                i_sets[len(sigmas)] = jumpers - seen
                seen |= jumpers
    if len(sigmas) < 2:
        raise WindowTooShort(
            f"only one ordering appears in ({ctx.t0}, {ctx.t_max}]",
            origin="bound.build_proof_trace")
    k = len(sigmas)
    # rank maps of sigma_1, sigma_2, ..., built only as far as some I_j
    # with two or more members needs them
    ranks: list[dict[int, int]] = []
    restricted: dict[int, tuple[int, ...]] = {}
    restricted_ok: dict[int, bool] = {}
    for j in range(2, k + 1):
        members = i_sets[j]
        # views on fewer than two members agree by definition
        if len(members) <= 1:
            restricted_ok[j] = True
            continue
        while len(ranks) < j - 1:
            ranks.append({m: r for r, m in enumerate(sigmas[len(ranks)])})
        first = sorted(members, key=ranks[0].__getitem__)
        restricted[j] = tuple(first)
        restricted_ok[j] = all(sorted(members, key=ranks[s].__getitem__) == first
                               for s in range(1, j - 1))
    # under the window ordering, every member except the last-ranked one
    # must land in exactly one I_j once the window saw all pair flips
    coverage_ok = _covered_once(sigmas[0][:-1], i_sets.values())
    return ProofTrace(t1=ctx.t0, new_times=tuple(new_times),
                      sigmas=tuple(sigmas), i_sets=i_sets,
                      restricted=restricted, restricted_ok=restricted_ok,
                      coverage_ok=coverage_ok, n=ctx.n)


class NjCheck(NamedTuple):
    j: int
    n_j: int
    bound: int
    ok: bool


@dataclass(frozen=True)
class BoundVerdict:
    n: int
    k: int
    sum_nj: int
    margin_count: int   # (1 + sum n_j) - n
    margin_k: int       # k(k+1)/2 - (1 + sum n_j)
    ok: bool


def check_theorem_bound(trace: ProofTrace) -> BoundVerdict:
    """Margins of n <= 1 + sum(n_j) and 1 + sum(n_j) <= k(k+1)/2."""
    total = sum(trace.n_counts.values())
    margin_count = 1 + total - trace.n
    margin_k = trace.k * (trace.k + 1) // 2 - (1 + total)
    return BoundVerdict(n=trace.n, k=trace.k, sum_nj=total,
                        margin_count=margin_count, margin_k=margin_k,
                        ok=margin_count >= 0 and margin_k >= 0)


@dataclass
class VerifiedRun:
    ctx: TupleContext
    report: TrajectoryReport
    trace: ProofTrace
    bound: BoundVerdict
    doublings: int


#: default number of horizon doublings before a window artifact is final
DEFAULT_RETRIES = 8


def verify_with_retries(cfs, *, t_max: int, names=None, burn_in: int | None = None,
                        retries: int = DEFAULT_RETRIES,
                        screen_depth: int = DEFAULT_SCAN_DEPTH,
                        max_compare_depth: int = DEFAULT_COMPARE_DEPTH
                        ) -> VerifiedRun:
    """Build, sweep, trace and check; double the horizon on window
    artifacts (short windows, missing pair flips, bound failures) up to
    `retries` times before raising the failure as hard.

    A proven dependence is never retried: it propagates immediately. So
    does a burn-in at or past t_max * 2^retries, which no allowed doubling
    can put inside the window: the first attempt's screening finds it.
    The pairs are screened once per call; every attempt reads those logs.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    cur = t_max
    last_error: Exception | None = None
    screen_logs: dict = {}
    for attempt in range(retries + 1):
        try:
            ctx = TupleContext(cfs, t_max=cur, burn_in=burn_in, names=names,
                               screen_depth=screen_depth,
                               max_compare_depth=max_compare_depth,
                               screen_logs=screen_logs)
            report = sweep(ctx)
            trace = build_proof_trace(ctx, report)
            bound = check_theorem_bound(trace)
            problems = []
            if report.max_tau > report.k_hat:
                problems.append(f"max_tau {report.max_tau} > k_hat {report.k_hat}")
            if not trace.coverage_ok:
                problems.append("jump coverage incomplete")
            if not all(trace.restricted_ok.values()):
                problems.append("restricted orderings disagree")
            if not all(c.ok for c in trace.nj_checks):
                problems.append("per-step size bound violated")
            if not bound.ok:
                problems.append("count bound violated")
            if not problems:
                return VerifiedRun(ctx=ctx, report=report, trace=trace,
                                   bound=bound, doublings=attempt)
            last_error = VerificationFailed(
                "; ".join(problems) + f" at t_max = {cur}\n" +
                render_proof_trace(trace),
                origin="bound.verify_with_retries")
        except WindowTooShort as exc:
            # burn_in >= t_max * 2^retries, without building that number
            if exc.burn_in is not None and exc.burn_in >> retries >= t_max:
                raise WindowTooShort(
                    f"burn-in {exc.burn_in} is not below t_max = {t_max}, nor "
                    f"below {t_max << retries}, its value after {retries} "
                    "doublings", origin="bound.verify_with_retries") from exc
            last_error = exc
        cur *= 2
    raise last_error


def render_proof_trace(trace: ProofTrace) -> str:
    """Structured text report: T_j / sigma_j, I_j / n_j tables, the
    restricted-equality flags, and the bound margins."""
    # the sigmas are distinct, so each is formatted once; sigma_1 is also
    # the relabeling
    text = [format_permutation(sigma) for sigma in trace.sigmas]
    n_counts, restricted_ok = trace.n_counts, trace.restricted_ok
    lines = [f"T_1\t{trace.t1}\tsigma_1\t{text[0]}",
             *[f"T_{j}\t{t}\tsigma_{j}\t{sigma}" for j, t, sigma
               in zip(range(2, trace.k + 1), trace.new_times, text[1:])],
             f"relabeling\t{text[0]}",
             *[f"I_{j}\t{{{format_permutation(sorted(members)) if members else '-'}}}"
               f"\tn_{j}\t{n_counts[j]}\trestricted_equal\t{restricted_ok[j]}"
               for j, members in sorted(trace.i_sets.items())],
             *[f"n_{j}\t{n_j}\t<=\t{bound}\t{'ok' if ok else 'FAIL'}"
               for j, n_j, bound, ok in trace.nj_checks]]
    verdict = check_theorem_bound(trace)
    lines.append(f"coverage\t{'ok' if trace.coverage_ok else 'FAIL'}")
    lines.append(f"count_bound\tn={verdict.n}\t1+sum={1 + verdict.sum_nj}\t"
                 f"k(k+1)/2={verdict.k * (verdict.k + 1) // 2}\t"
                 f"margins\t{verdict.margin_count}\t{verdict.margin_k}\t"
                 f"{'ok' if verdict.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
