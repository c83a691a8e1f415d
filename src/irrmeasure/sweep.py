"""Permutation trajectory of a tuple of independent numbers.

sigma(t) orders the members by strictly decreasing step-function value,
certified by enclosure comparison; it is constant between convergent
denominators, so a sweep only visits the merged breakpoint times. The
sweep is a kinetic sorted list in the sense of Basch, Guibas and
Hershberger ("Data Structures for Mobile Data", SODA 1997): its events
come from one schedule of all members' breakpoints, merged and sorted
once; at each event only the jumping members' step values change, so it
carries the ordering forward and re-inserts just those members; and its
certificates are the adjacencies of the ordering, and an event
re-certifies only those it created: any other adjacency holds the same
two enclosures that an earlier event certified separated, and enclosures
only nest. The report counts distinct orderings on the window (the
finite-horizon surrogate of the infinitely-recurring count) and the jump
multiplicities; the per-pair order flips are derived from its events on
first read, so analyses that never print them never pay for them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

# the sweep no longer calls compare_errors directly; the name stays bound
# here because the benchmark's self-tests read sweep.compare_errors
from .cf import (DEFAULT_COMPARE_DEPTH, ContinuedFraction, ErrorTerm, Ordering,
                 certified_order, compare_errors, first_misordered)
from .errors import DependentTuple, WindowTooShort
from .screening import (DEFAULT_SCAN_DEPTH, CoincidenceLog, Verdict,
                        scan_coincidences)
from .stepfunc import build_trajectory, psi_at

#: default lower bound for the burn-in time; the structural statements
#: hold "eventually", so tiny windows are never trusted by default
DEFAULT_BURN_IN_FLOOR = 100


class TupleContext:
    """n >= 2 numbers with their trajectories over a window [t0, t_max].

    Construction screens every pair: a proven dependence aborts with
    DependentTuple. The default burn-in t0 is the largest structural
    coincidence time seen by screening, floored at 100; an explicit
    burn_in overrides the policy.
    """

    def __init__(self, cfs, *, t_max: int, burn_in: int | None = None,
                 names=None, screen_depth: int = DEFAULT_SCAN_DEPTH,
                 max_compare_depth: int = DEFAULT_COMPARE_DEPTH) -> None:
        cfs = tuple(cfs)
        if len(cfs) < 2:
            raise ValueError("a tuple context needs at least two members")
        if names is None:
            names = tuple(f"x{i}" for i in range(1, len(cfs) + 1))
        names = tuple(names)
        if len(names) != len(cfs):
            raise ValueError("need exactly one name per member")
        if len(set(names)) != len(names):
            raise ValueError("member names must be unique")
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.cfs = cfs
        self.names = names
        self.t_max = t_max
        self.max_compare_depth = max_compare_depth
        self.screen_logs: dict[tuple[int, int], CoincidenceLog] = {}
        horizon = 0
        for i in range(len(cfs)):
            for j in range(i + 1, len(cfs)):
                log = scan_coincidences(cfs[i], cfs[j], depth=screen_depth)
                self.screen_logs[(i + 1, j + 1)] = log
                if log.verdict is Verdict.DEPENDENT:
                    raise DependentTuple(
                        f"members {names[i]} and {names[j]} are dependent "
                        f"({log.combination.value})", origin="sweep.TupleContext")
                horizon = max(horizon, log.time_horizon)
        self.coincidence_horizon = horizon
        t0 = burn_in if burn_in is not None else max(DEFAULT_BURN_IN_FLOOR, horizon)
        if not 1 <= t0 < t_max:
            raise WindowTooShort(
                f"burn-in {t0} does not satisfy 1 <= burn_in < t_max = {t_max}",
                origin="sweep.TupleContext")
        self.t0 = t0
        self.trajectories = tuple(build_trajectory(cf, t_max) for cf in cfs)

    @cached_property
    def jump_sets(self) -> tuple[frozenset[int], ...]:
        """Each member's jump times, built on first read: only tau_at and
        sign_change_count look times up; the sweep reads the breakpoints."""
        return tuple(frozenset(tr.jump_times()) for tr in self.trajectories)

    @property
    def n(self) -> int:
        return len(self.cfs)


def sigma_at(ctx: TupleContext, t: int) -> tuple[int, ...]:
    """Member labels (1-based) ordered by strictly decreasing step value,
    every adjacency certified."""
    if not ctx.t0 <= t <= ctx.t_max:
        raise ValueError(f"t = {t} outside the window [{ctx.t0}, {ctx.t_max}]")
    terms = [psi_at(tr, t) for tr in ctx.trajectories]

    def cmp(i: int, j: int) -> int:
        order = _member_order(ctx, t, i, terms[i - 1], j, terms[j - 1],
                              "sweep.sigma_at")
        return -1 if order is Ordering.GREATER else 1

    return tuple(sorted(range(1, ctx.n + 1), key=cmp_to_key(cmp)))


def _member_order(ctx: TupleContext, t: int, i: int, x: ErrorTerm, j: int,
                  y: ErrorTerm, origin: str) -> Ordering:
    """Certified order of members i and j, whose step values at t are x
    and y."""
    return certified_order(x, y, ctx.max_compare_depth, time=t, pair=(i, j),
                           names=(ctx.names[i - 1], ctx.names[j - 1]),
                           origin=origin)


def tau_at(ctx: TupleContext, t: int) -> int:
    """How many members have t as a convergent denominator (and so jump)."""
    if not 1 <= t <= ctx.t_max:
        raise ValueError(f"t = {t} outside [1, {ctx.t_max}]")
    return sum(1 for js in ctx.jump_sets if t in js)


class PermutationEvent(NamedTuple):
    """One merged breakpoint time with the orderings around it."""

    time: int
    before: tuple[int, ...]
    after: tuple[int, ...]
    jumpers: frozenset[int]


@dataclass
class TrajectoryReport:
    """Sweep output over (t0, t_max].

    perm_spans maps each ordering seen on [t0, t_max] to the first and
    last integer time it is in effect; k_hat is the number of distinct
    orderings, a finite-window surrogate for the infinitely-recurring
    count (never claimed to equal it).
    """

    t0: int
    t_max: int
    events: tuple[PermutationEvent, ...]
    perm_spans: dict[tuple[int, ...], tuple[int, int]]
    k_hat: int
    max_tau: int

    @cached_property
    def sign_changes(self) -> dict[tuple[int, int], int]:
        """(i, j) -> order flips of members i < j across the events, zeros
        included, n = len(sigma(t0)). Only pairs with a jumper can flip; a
        pair of jumpers counts once, in the smaller label's row."""
        n = len(next(iter(self.perm_spans)))
        members = range(1, n + 1)
        flips = [[0] * (n + 1) for _ in range(n + 1)]
        for ev in self.events:
            pos, new_pos = _ranks(ev.before), _ranks(ev.after)
            for i in ev.jumpers:
                bi, ai, row = pos[i], new_pos[i], flips[i]
                for m in members:
                    if ((pos[m] < bi) != (new_pos[m] < ai)
                            and not (m < i and m in ev.jumpers)):
                        row[m] += 1
        return {(i, j): flips[i][j] + flips[j][i]
                for i in members for j in range(i + 1, n + 1)}

    @cached_property
    def perm_text(self) -> dict[tuple[int, ...], str]:
        """Each ordering seen, formatted once by format_permutation;
        perm_spans holds every event's before and after."""
        return {perm: format_permutation(perm) for perm in self.perm_spans}


def sweep(ctx: TupleContext) -> TrajectoryReport:
    """Visit exactly the merged breakpoint times in (t0, t_max].

    The schedule holds every breakpoint (q, label, term) of every member
    with t0 < q <= t_max, sorted once; equal q form one event, whose
    jumpers come in ascending label order with their new step values.
    Each event's before is the running ordering. After keeps the other
    members in their running order and puts each jumper back by a
    certified binary search. Then first_misordered certifies, on this
    event's enclosures, the adjacencies of after that the event created,
    and one out of order is an internal fault: all of after at the first
    event and at events with two or more jumpers; otherwise the slice that
    spans the jumper's two new neighbours and, when it left an inner slot,
    the two members that closed its gap. Every other adjacency joins two
    members that kept their term objects since an earlier event certified
    them separated, and refinement only nests enclosures, so its integer
    separation test would pass without a refinement step. Step
    values live in a list indexed by label (slot 0 unused); after is the
    next event's before. The loop keeps no ranks and counts no flips: the
    report derives its sign_changes from the events when they are first
    read.
    """
    t0 = ctx.t0
    depth, names = ctx.max_compare_depth, ctx.names
    schedule = sorted((q, i, term)
                      for i, tr in enumerate(ctx.trajectories, start=1)
                      for q, term in tr.breakpoints if t0 < q <= ctx.t_max)
    terms = [None, *(psi_at(tr, t0) for tr in ctx.trajectories)]
    sigma = sigma_at(ctx, t0)
    n = len(sigma)
    events: list[PermutationEvent] = []
    spans: dict[tuple[int, ...], tuple[int, int]] = {}
    seg_start = t0
    max_tau = 0
    for t, group in groupby(schedule, itemgetter(0)):
        jumpers = []
        for _, i, term in group:
            terms[i] = term
            jumpers.append(i)
        if len(jumpers) > max_tau:
            max_tau = len(jumpers)
        single = len(jumpers) == 1 and bool(events)
        if single:
            order = list(sigma)
            left = order.index(jumpers[0])
            del order[left]
        else:
            order = [m for m in sigma if m not in jumpers]
        for i in jumpers:
            x = terms[i]
            lo, hi = 0, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                m = order[mid]
                y = terms[m]
                # compare_errors' own separation tests, then the certified
                # comparison only for overlapping enclosures
                if y.hi_num * x.lo_den <= x.lo_num * y.hi_den:
                    above = True
                elif x.hi_num * y.lo_den <= y.lo_num * x.hi_den:
                    above = False
                else:
                    above = certified_order(
                        x, y, depth, time=t, pair=(i, m),
                        names=(names[i - 1], names[m - 1]),
                        origin="sweep.sweep") is Ordering.GREATER
                if above:
                    hi = mid
                else:
                    lo = mid + 1
            order.insert(lo, i)
        after = tuple(order)
        start, end = 0, n
        if single:
            # the jumper's neighbours at lo, and the pair that closed the
            # gap it left at sigma[left]: after[left:left + 2] when it moved
            # up, after[left - 1:left + 1] when it moved down
            start, end = max(lo - 1, 0), lo + 2
            if lo < left < n - 1:
                end = left + 2
            elif 0 < left < lo:
                start = left - 1
        bad = first_misordered([terms[m] for m in after[start:end]], depth)
        if bad is not None:
            raise AssertionError(f"members {after[start + bad]} and "
                                 f"{after[start + bad + 1]} are out of order "
                                 f"at t = {t}")
        events.append(PermutationEvent(t, sigma, after, frozenset(jumpers)))
        span = spans.get(sigma)
        spans[sigma] = (seg_start if span is None else span[0], t - 1)
        sigma, seg_start = after, t
    span = spans.get(sigma)
    spans[sigma] = (seg_start if span is None else span[0], ctx.t_max)
    return TrajectoryReport(t0=t0, t_max=ctx.t_max, events=tuple(events),
                            perm_spans=spans, k_hat=len(spans),
                            max_tau=max_tau)


def _ranks(perm: tuple[int, ...]) -> list[int]:
    """The rank of each member in perm, as a list indexed by label."""
    ranks = [0] * (len(perm) + 1)
    for r, m in enumerate(perm):
        ranks[m] = r
    return ranks


def sign_change_count(ctx: TupleContext, i: int, j: int) -> int:
    """How often the certified order of members i and j flips across the
    merged evaluation times in (t0, t_max]; i and j are labels in 1..n."""
    if not (1 <= i <= ctx.n and 1 <= j <= ctx.n):
        raise ValueError(f"member labels must lie in 1..{ctx.n}, got {i} and {j}")
    if i == j:
        raise ValueError("need two distinct members")
    times = sorted(t for t in (ctx.jump_sets[i - 1] | ctx.jump_sets[j - 1])
                   if ctx.t0 < t <= ctx.t_max)

    def order(t: int) -> Ordering:
        return _member_order(ctx, t, i, psi_at(ctx.trajectories[i - 1], t),
                             j, psi_at(ctx.trajectories[j - 1], t),
                             "sweep.sign_change_count")

    current = order(ctx.t0)
    flips = 0
    for t in times:
        nxt = order(t)
        if nxt is not current:
            flips += 1
            current = nxt
    return flips


class _LabelStrings(dict):
    """str(m) for each member label m, made on first use."""

    def __missing__(self, m: int) -> str:
        self[m] = text = str(m)
        return text


_LABELS = _LabelStrings()


def format_permutation(perm: Sequence[int]) -> str:
    """perm as comma-separated labels, read from a table of label strings."""
    return ",".join([_LABELS[m] for m in perm])


def summary_lines(report: TrajectoryReport) -> list[str]:
    """The window, k_hat, max_tau and one `perm` line per ordering seen."""
    text = report.perm_text
    return [f"window\t{report.t0}\t{report.t_max}", f"k_hat\t{report.k_hat}",
            f"max_tau\t{report.max_tau}",
            *(f"perm\t{text[perm]}\t{first}\t{last}"
              for perm, (first, last) in report.perm_spans.items())]


def serialize_report(report: TrajectoryReport) -> str:
    """Event records `t <tab> before <tab> after <tab> jumpers`, then a
    blank line, the summary lines and the per-pair sign changes."""
    text = report.perm_text
    lines = [
        f"{ev.time}\t{text[ev.before]}\t{text[ev.after]}\t"
        f"{format_permutation(sorted(ev.jumpers))}"
        for ev in report.events
    ]
    lines += ["", *summary_lines(report)]
    for (i, j), count in sorted(report.sign_changes.items()):
        lines.append(f"sign_changes\t{i},{j}\t{count}")
    return "\n".join(lines) + "\n"
