"""Permutation trajectory of a tuple of independent numbers.

sigma(t) orders the members by strictly decreasing step-function value,
certified by enclosure comparison; it is constant between convergent
denominators, so a sweep only visits the merged breakpoint times. The
sweep is a kinetic sorted list in the sense of Basch, Guibas and
Hershberger ("Data Structures for Mobile Data", SODA 1997): its events
come from one schedule of all members' breakpoints, merged and sorted
once; at each event only the jumping members' step values change, so it
carries the ordering forward: the jumpers leave their slots, and each
jump is one move that puts its member back; and its certificates are
the adjacencies of the ordering, each checked by the step that creates
it: a removal checks the pair it closes, a move the jumper's two new
neighbours. Any other adjacency holds the same two enclosures that an
earlier step certified separated, and enclosures only nest. The report
counts distinct orderings on the window (the finite-horizon surrogate of
the infinitely-recurring count) and the jump multiplicities; the
per-pair order flips are derived from its events on first read, so
analyses that never print them never pay for them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from operator import itemgetter
from typing import NamedTuple

# the sweep no longer calls compare_errors directly; the name stays bound
# here because the benchmark's self-tests read sweep.compare_errors
from .cf import (DEFAULT_COMPARE_DEPTH, ContinuedFraction, Ordering,
                 certified_above, certified_order, compare_errors,
                 first_misordered)
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
    burn_in overrides the policy; a burn-in outside [1, t_max) raises
    WindowTooShort, which carries it as `burn_in`. Screening does not
    depend on t_max, so a caller that builds several contexts over the
    same members, names and screen depth may pass one `screen_logs`
    dict to all of them: the first fills it before it checks the window,
    unless a pair is dependent, and the others read it instead of
    screening again.

    Every breakpoint term is built at depth 1 by build_trajectory,
    except each member's last, which stays at depth 0. A refined term of
    index nu is read off row nu + 1 and a_{nu+2}, which the trajectory
    already grew and read to find next_q, so it reads no new coefficient
    and takes no refinement step. A depth-0 enclosure is up to a factor
    2 wide, and one step decides most of the sweep's overlapping probes.
    """

    def __init__(self, cfs, *, t_max: int, burn_in: int | None = None,
                 names=None, screen_depth: int = DEFAULT_SCAN_DEPTH,
                 max_compare_depth: int = DEFAULT_COMPARE_DEPTH,
                 screen_logs: dict[tuple[int, int], CoincidenceLog] | None = None
                 ) -> None:
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
        if screen_logs is None:
            screen_logs = {}
        if not screen_logs:
            screen_logs.update(_screen_pairs(cfs, names, screen_depth))
        self.screen_logs = screen_logs
        horizon = max(log.time_horizon for log in screen_logs.values())
        self.coincidence_horizon = horizon
        t0 = burn_in if burn_in is not None else max(DEFAULT_BURN_IN_FLOOR, horizon)
        if not 1 <= t0 < t_max:
            raise WindowTooShort(
                f"burn-in {t0} does not satisfy 1 <= burn_in < t_max = {t_max}",
                origin="sweep.TupleContext", burn_in=t0)
        self.t0 = t0
        self.trajectories = tuple(build_trajectory(cf, t_max, depth=1)
                                  for cf in cfs)

    @cached_property
    def jump_sets(self) -> tuple[frozenset[int], ...]:
        """Each member's jump times, built on first read: only tau_at and
        sign_change_count look times up; the sweep reads the breakpoints."""
        return tuple(frozenset(tr.jump_times()) for tr in self.trajectories)

    @property
    def n(self) -> int:
        return len(self.cfs)


def _screen_pairs(cfs: tuple[ContinuedFraction, ...], names: tuple[str, ...],
                  depth: int) -> dict[tuple[int, int], CoincidenceLog]:
    """Every pair's coincidence log, keyed by 1-based labels; a proven
    dependence raises DependentTuple."""
    logs = {}
    for i in range(len(cfs)):
        for j in range(i + 1, len(cfs)):
            log = scan_coincidences(cfs[i], cfs[j], depth=depth)
            if log.verdict is Verdict.DEPENDENT:
                raise DependentTuple(
                    f"members {names[i]} and {names[j]} are dependent "
                    f"({log.combination.value})", origin="sweep.TupleContext")
            logs[(i + 1, j + 1)] = log
    return logs


def sigma_at(ctx: TupleContext, t: int) -> tuple[int, ...]:
    """Member labels (1-based) ordered by strictly decreasing step value,
    every adjacency certified."""
    if not ctx.t0 <= t <= ctx.t_max:
        raise ValueError(f"t = {t} outside the window [{ctx.t0}, {ctx.t_max}]")
    terms = [psi_at(tr, t) for tr in ctx.trajectories]

    def cmp(i: int, j: int) -> int:
        order = certified_order(terms[i - 1], terms[j - 1],
                                ctx.max_compare_depth, time=t, pair=(i, j),
                                names=ctx.names, origin="sweep.sigma_at")
        return -1 if order is Ordering.GREATER else 1

    return tuple(sorted(range(1, ctx.n + 1), key=cmp_to_key(cmp)))


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

    The schedule holds every breakpoint (q, label, term) with t0 < q <=
    t_max, sorted once by q; the sort is stable, so the entries of one q,
    an event, come in ascending label order, with new step values at the
    depth TupleContext gave them. sigma(t0) is certified whole before the
    loop. An event's first entry takes all its jumpers out of the running
    ordering, so a binary search never probes a co-jumper's old step
    value, which a rational relation that screening lets through can make
    equal to the new one; a removal that leaves members on both sides
    certifies the pair it closes. Every entry is then one move: the member
    takes its new step value, is put back by a certified binary search,
    and certified_above certifies it against its two new neighbours, the
    one above first; one out of order is an internal fault. So a closed
    pair of members that do not jump is checked on its final terms by the
    removal that closed it, one that holds a co-jumper still to leave on
    terms certified earlier (extra, but harmless), and every adjacency
    that holds a jumper by the last move that made it; every other joins
    two members that kept their term objects since an earlier step
    certified them separated, and enclosures only nest. Step values live
    in a list indexed by label (slot 0 unused), and so do the one-member
    jumper sets that events of a single jumper share. The loop keeps no
    ranks and counts no flips: the report derives its sign_changes from
    the events when first read.
    """
    t0 = ctx.t0
    depth, names = ctx.max_compare_depth, ctx.names
    schedule = sorted(((q, i, term)
                       for i, tr in enumerate(ctx.trajectories, start=1)
                       for q, term in tr.breakpoints if t0 < q <= ctx.t_max),
                      key=itemgetter(0))
    terms = [None, *(psi_at(tr, t0) for tr in ctx.trajectories)]
    sigma = sigma_at(ctx, t0)
    bad = first_misordered([terms[m] for m in sigma], depth)
    if bad is not None:
        raise AssertionError(f"members {sigma[bad]} and {sigma[bad + 1]} "
                             f"are out of order at t = {t0}")
    order = list(sigma)
    alone = [frozenset((m,)) for m in range(ctx.n + 1)]
    events: list[PermutationEvent] = []
    spans: dict[tuple[int, ...], tuple[int, int]] = {}
    seg_start, max_tau = t0, 0
    stop, nxt, jumping = len(schedule), 0, []
    for k, (t, i, x) in enumerate(schedule):
        while nxt < stop and schedule[nxt][0] == t:
            m = schedule[nxt][1]
            left = order.index(m)
            del order[left]
            if 0 < left < len(order) and not certified_above(
                    terms[order[left - 1]], terms[order[left]], depth):
                raise AssertionError(f"members {order[left - 1]} and {order[left]} "
                                     f"are out of order at t = {t}")
            jumping.append(m)
            nxt += 1
        terms[i] = x
        x_lo_num, x_lo_den, x_hi_num, x_hi_den = (
            x.lo_num, x.lo_den, x.hi_num, x.hi_den)
        # probes take compare_errors' own separation tests; only
        # overlapping enclosures are compared certified
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            m = order[mid]
            y = terms[m]
            if y.hi_num * x_lo_den <= x_lo_num * y.hi_den:
                hi = mid
            elif x_hi_num * y.lo_den <= y.lo_num * x_hi_den:
                lo = mid + 1
            else:
                if certified_order(x, y, depth, time=t, pair=(i, m),
                                   names=names,
                                   origin="sweep.sweep") is Ordering.GREATER:
                    hi = mid
                else:
                    lo = mid + 1
                # the comparison may have refined the jumper
                x_lo_num, x_lo_den, x_hi_num, x_hi_den = (
                    x.lo_num, x.lo_den, x.hi_num, x.hi_den)
        order.insert(lo, i)
        if lo and not certified_above(terms[order[lo - 1]], x, depth):
            raise AssertionError(f"members {order[lo - 1]} and {i} are out "
                                 f"of order at t = {t}")
        if lo + 1 < len(order) and not certified_above(
                x, terms[order[lo + 1]], depth):
            raise AssertionError(f"members {i} and {order[lo + 1]} are out "
                                 f"of order at t = {t}")
        if nxt > k + 1:
            continue
        after = tuple(order)
        if len(jumping) > max_tau:
            max_tau = len(jumping)
        events.append(PermutationEvent(
            t, sigma, after, alone[i] if len(jumping) == 1 else frozenset(jumping)))
        span = spans.get(sigma)
        spans[sigma] = (seg_start if span is None else span[0], t - 1)
        sigma, seg_start = after, t
        jumping = []
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
        return certified_order(psi_at(ctx.trajectories[i - 1], t),
                               psi_at(ctx.trajectories[j - 1], t),
                               ctx.max_compare_depth, time=t, pair=(i, j),
                               names=ctx.names,
                               origin="sweep.sign_change_count")

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
