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

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

from .errors import VerificationFailed, WindowTooShort
from .sweep import (TrajectoryReport, TupleContext, format_permutation,
                    sigma_at, sweep)


class RestrictedViews(Mapping[tuple[int, int], tuple[int, ...]]):
    """Read-only mapping (j, s) -> sigma_s restricted to I_j, for j in
    2..k and s in 1..k, in that key order. A view is computed when it is
    looked up; nothing is stored but the orderings and the sets."""

    def __init__(self, sigmas: tuple[tuple[int, ...], ...],
                 i_sets: dict[int, frozenset[int]]) -> None:
        self._sigmas = sigmas
        self._i_sets = i_sets

    def __getitem__(self, key: tuple[int, int]) -> tuple[int, ...]:
        j, s = key
        if j not in self._i_sets or not 1 <= s <= len(self._sigmas):
            raise KeyError(key)
        members = self._i_sets[j]
        return tuple(m for m in self._sigmas[s - 1] if m in members)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((j, s) for j in self._i_sets
                for s in range(1, len(self._sigmas) + 1))

    def __len__(self) -> int:
        return len(self._i_sets) * len(self._sigmas)


@dataclass
class ProofTrace:
    """Combinatorial skeleton of the bound on one window.

    All member labels are the caller's original 1-based labels; the
    relabeling that makes sigma(T_1) the identity is recorded so the
    window-ordering view can be reconstructed.
    """

    t1: int
    new_times: tuple[int, ...]                 # T_2 .. T_k
    sigmas: tuple[tuple[int, ...], ...]        # sigma_1 .. sigma_k
    relabeling: tuple[int, ...]                # relabeling[i-1] = original label of rank i
    i_sets: dict[int, frozenset[int]]          # j -> original labels
    n_counts: dict[int, int]
    restricted: RestrictedViews                # (j, s) -> restricted ordering, lazy
    restricted_ok: dict[int, bool]
    coverage_ok: bool
    n: int

    @property
    def k(self) -> int:
        return len(self.sigmas)

    @cached_property
    def nj_checks(self) -> tuple[NjCheck, ...]:
        """Per-j verdicts for n_j <= k - j + 2, built once per trace."""
        k = self.k
        return tuple(NjCheck(j, n_j, k - j + 2, n_j <= k - j + 2)
                     for j, n_j in sorted(self.n_counts.items()))


def build_proof_trace(ctx: TupleContext,
                      report: TrajectoryReport | None = None) -> ProofTrace:
    """T_1 is the burn-in time; T_j (j >= 2) is the first time after T_1
    whose ordering differs from all of sigma_1 .. sigma_{j-1}, exactly as
    the inductive definition reads.

    I_j collects members jumping at T_j and at no earlier T_i (i >= 2);
    the restricted orderings of sigma_1 .. sigma_{j-1} on each I_j must
    coincide, and that equality is evaluated, not assumed: each earlier
    ordering's view is compared with sigma_1's through per-ordering rank
    maps, so the check costs O(k n log n) rather than building k^2 views.
    The maps are built only when some I_j has two or more members.
    """
    if report is None:
        report = sweep(ctx)
    t1 = ctx.t0
    sigma1 = sigma_at(ctx, t1)
    sigmas: list[tuple[int, ...]] = [sigma1]
    seen_sigmas = {sigma1}
    new_times: list[int] = []
    jumpers_at: dict[int, frozenset[int]] = {}
    for ev in report.events:
        if ev.after not in seen_sigmas:
            seen_sigmas.add(ev.after)
            sigmas.append(ev.after)
            new_times.append(ev.time)
            jumpers_at[len(sigmas)] = ev.jumpers
    if len(sigmas) < 2:
        raise WindowTooShort(
            f"only one ordering appears in ({ctx.t0}, {ctx.t_max}]",
            origin="bound.build_proof_trace")
    k = len(sigmas)
    i_sets: dict[int, frozenset[int]] = {}
    seen: set[int] = set()
    for j in range(2, k + 1):
        i_sets[j] = frozenset(jumpers_at[j] - seen)
        seen |= jumpers_at[j]
    n_counts = {j: len(s) for j, s in i_sets.items()}
    # rank maps of sigma_1, sigma_2, ..., built only as far as some I_j
    # with two or more members needs them
    ranks: list[dict[int, int]] = []
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
        restricted_ok[j] = all(sorted(members, key=ranks[s].__getitem__) == first
                               for s in range(1, j - 1))
    # under the window ordering, every member except the last-ranked one
    # must land in exactly one I_j once the window saw all pair flips
    coverage_ok = all(
        sum(1 for s in i_sets.values() if member in s) == 1
        for member in sigma1[:-1]
    )
    frozen = tuple(sigmas)
    return ProofTrace(t1=t1, new_times=tuple(new_times), sigmas=frozen,
                      relabeling=sigma1, i_sets=i_sets, n_counts=n_counts,
                      restricted=RestrictedViews(frozen, i_sets),
                      restricted_ok=restricted_ok,
                      coverage_ok=coverage_ok, n=ctx.n)


@dataclass(frozen=True)
class NjCheck:
    j: int
    n_j: int
    bound: int
    ok: bool


def check_nj_bound(trace: ProofTrace) -> list[NjCheck]:
    """Per-j verdicts for n_j <= k - j + 2, read from the trace's
    nj_checks, so a verification and its report share one evaluation."""
    return list(trace.nj_checks)


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
    nj_checks: list[NjCheck]
    bound: BoundVerdict
    doublings: int


def verify_with_retries(cfs, *, t_max: int, names=None, burn_in: int | None = None,
                        retries: int = 8, screen_depth: int = 40,
                        max_compare_depth: int = 64) -> VerifiedRun:
    """Build, sweep, trace and check; double the horizon on window
    artifacts (short windows, missing pair flips, bound failures) up to
    `retries` times before raising the failure as hard.

    A proven dependence is never retried: it propagates immediately.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    cur = t_max
    last_error: Exception | None = None
    for attempt in range(retries + 1):
        try:
            ctx = TupleContext(cfs, t_max=cur, burn_in=burn_in, names=names,
                               screen_depth=screen_depth,
                               max_compare_depth=max_compare_depth)
            report = sweep(ctx)
            trace = build_proof_trace(ctx, report)
            nj_checks = check_nj_bound(trace)
            bound = check_theorem_bound(trace)
            problems = []
            if report.max_tau > report.k_hat:
                problems.append(f"max_tau {report.max_tau} > k_hat {report.k_hat}")
            if not trace.coverage_ok:
                problems.append("jump coverage incomplete")
            if not all(trace.restricted_ok.values()):
                problems.append("restricted orderings disagree")
            if not all(c.ok for c in nj_checks):
                problems.append("per-step size bound violated")
            if not bound.ok:
                problems.append("count bound violated")
            if not problems:
                return VerifiedRun(ctx=ctx, report=report, trace=trace,
                                   nj_checks=nj_checks, bound=bound,
                                   doublings=attempt)
            last_error = VerificationFailed(
                "; ".join(problems) + f" at t_max = {cur}\n" +
                render_proof_trace(trace),
                origin="bound.verify_with_retries")
        except WindowTooShort as exc:
            last_error = exc
        cur *= 2
    raise last_error


def render_proof_trace(trace: ProofTrace) -> str:
    """Structured text report: T_j / sigma_j, I_j / n_j tables, the
    restricted-equality flags, and the bound margins."""
    lines = [
        f"T_1\t{trace.t1}\tsigma_1\t{format_permutation(trace.sigmas[0])}",
    ]
    for j, t in enumerate(trace.new_times, start=2):
        lines.append(f"T_{j}\t{t}\tsigma_{j}\t{format_permutation(trace.sigmas[j - 1])}")
    lines.append(f"relabeling\t{format_permutation(trace.relabeling)}")
    for j in sorted(trace.i_sets):
        members = ",".join(map(str, sorted(trace.i_sets[j]))) or "-"
        lines.append(f"I_{j}\t{{{members}}}\tn_{j}\t{trace.n_counts[j]}\t"
                     f"restricted_equal\t{trace.restricted_ok[j]}")
    for check in check_nj_bound(trace):
        lines.append(f"n_{check.j}\t{check.n_j}\t<=\t{check.bound}\t"
                     f"{'ok' if check.ok else 'FAIL'}")
    verdict = check_theorem_bound(trace)
    lines.append(f"coverage\t{'ok' if trace.coverage_ok else 'FAIL'}")
    lines.append(f"count_bound\tn={verdict.n}\t1+sum={1 + verdict.sum_nj}\t"
                 f"k(k+1)/2={verdict.k * (verdict.k + 1) // 2}\t"
                 f"margins\t{verdict.margin_count}\t{verdict.margin_k}\t"
                 f"{'ok' if verdict.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
