"""Tuple orderings, jump counts, sweeps, and their serialization."""

import importlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from irrmeasure import (ContinuedFraction, ErrorTerm, Ordering,
                        PermutationEvent, TrajectoryReport, TupleContext,
                        build_proof_trace, build_trajectory, compare_errors,
                        psi_at, serialize_report, sigma_at, sign_change_count,
                        sqrt_of, surd_to_cf, sweep, tau_at)
from irrmeasure.corpus import (random_independent_members, random_periodic_cf,
                               random_shared_prefix_pair)
from irrmeasure.errors import (DependentTuple, UndecidedOrdering,
                               WindowTooShort)
from irrmeasure.cf import certified_order

from conftest import GOLDEN

#: the sweep module itself; the package's `sweep` is the function
SWEEP = importlib.import_module("irrmeasure.sweep")


@pytest.fixture
def pair_ctx(phi_cf, sqrt2_cf):
    return TupleContext([phi_cf, sqrt2_cf], t_max=10_000, burn_in=1,
                        names=["phi", "root2"])


def shared_prefix_triple(seed: int) -> TupleContext:
    """A shared-prefix pair plus one periodic member, burn-in 2: the pair's
    common denominators make events where two or three members jump."""
    rng = random.Random(seed)
    members = [*random_shared_prefix_pair(rng), random_periodic_cf(rng)]
    return TupleContext(members, t_max=10 ** 30, burn_in=2)


def naive_sweep(ctx: TupleContext) -> tuple[TrajectoryReport,
                                             dict[tuple[int, int], int]]:
    """The sweep before the merged schedule, kept as the reference: it scans
    every member's jump set per event, bisects each jumper's step value,
    re-certifies each adjacency with compare_errors, and counts flips
    through per-event position dicts. Returns the report and those counts,
    which the report itself derives from its events."""
    times = sorted(t for t in frozenset().union(*ctx.jump_sets)
                   if ctx.t0 < t <= ctx.t_max)
    events: list[PermutationEvent] = []
    spans: dict[tuple[int, ...], tuple[int, int]] = {}

    def stamp(perm: tuple[int, ...], start: int, end: int) -> None:
        first, _ = spans.get(perm, (start, end))
        spans[perm] = (first, end)

    members = range(1, ctx.n + 1)
    counts = {(i, j): 0 for i in members for j in range(i + 1, ctx.n + 1)}
    terms = [psi_at(tr, ctx.t0) for tr in ctx.trajectories]
    sigma_cur = sigma_at(ctx, ctx.t0)
    seg_start = ctx.t0
    max_tau = 0
    for t in times:
        jumpers = frozenset(i for i in members if t in ctx.jump_sets[i - 1])
        max_tau = max(max_tau, len(jumpers))
        for i in jumpers:
            terms[i - 1] = psi_at(ctx.trajectories[i - 1], t)
        order = [m for m in sigma_cur if m not in jumpers]
        for i in sorted(jumpers):
            lo, hi = 0, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                m = order[mid]
                if certified_order(terms[i - 1], terms[m - 1],
                                   ctx.max_compare_depth, time=t, pair=(i, m),
                                   names=ctx.names,
                                   origin="sweep.sweep") is Ordering.GREATER:
                    hi = mid
                else:
                    lo = mid + 1
            order.insert(lo, i)
        after = tuple(order)
        for upper, lower in zip(after, after[1:]):
            if compare_errors(terms[upper - 1], terms[lower - 1],
                              ctx.max_compare_depth) is not Ordering.GREATER:
                raise AssertionError(
                    f"members {upper} and {lower} are out of order at t = {t}")
        events.append(PermutationEvent(time=t, before=sigma_cur, after=after,
                                       jumpers=jumpers))
        stamp(sigma_cur, seg_start, t - 1)
        bpos = {m: r for r, m in enumerate(sigma_cur)}
        apos = {m: r for r, m in enumerate(after)}
        for i in jumpers:
            for m in members:
                if m == i or (m in jumpers and m < i):   # each pair once
                    continue
                if (bpos[i] < bpos[m]) != (apos[i] < apos[m]):
                    counts[(min(i, m), max(i, m))] += 1
        sigma_cur = after
        seg_start = t
    stamp(sigma_cur, seg_start, ctx.t_max)
    return TrajectoryReport(t0=ctx.t0, t_max=ctx.t_max, events=tuple(events),
                            perm_spans=spans, k_hat=len(spans),
                            max_tau=max_tau), counts


# ---------------------------------------------------------------- sigma

def test_sigma_orders_by_decreasing_value(pair_ctx):
    # psi_root2(4) = 0.1716 > psi_phi(4) = 0.1459
    assert sigma_at(pair_ctx, 4) == (2, 1)
    # at t = 1: psi_root2(1) = 0.4142 > psi_phi(1) = 2 - phi = 0.3819,
    # the min over q <= 1 of ||q*phi|| (the nearest integer to phi is 2)
    assert sigma_at(pair_ctx, 1) == (2, 1)
    # t = 5..7 sit in one gap of both members: sigma is constant there
    assert sigma_at(pair_ctx, 5) == sigma_at(pair_ctx, 6) == sigma_at(pair_ctx, 7)


def test_sigma_window_precondition(pair_ctx):
    with pytest.raises(ValueError):
        sigma_at(pair_ctx, 0)
    with pytest.raises(ValueError):
        sigma_at(pair_ctx, pair_ctx.t_max + 1)


def test_undecided_ordering_surfaces_pair_and_time():
    # two formally distinct rule streams with identical coefficients:
    # no symbolic backend, equal step values everywhere, so ordering at
    # any time must refuse rather than guess
    a = ContinuedFraction.from_rule(lambda nu: 2, depth_cap=400)
    b = ContinuedFraction.from_rule(lambda nu: 2, depth_cap=400)
    ctx = TupleContext([a, b], t_max=50, burn_in=1, max_compare_depth=10)
    with pytest.raises(UndecidedOrdering) as info:
        sigma_at(ctx, 3)
    assert info.value.time == 3
    assert set(info.value.pair) == {1, 2}


# ------------------------------------------------------------------ tau

def test_tau_counts_jumping_members(pair_ctx):
    assert tau_at(pair_ctx, 5) == 2    # 5 is a denominator of both
    assert tau_at(pair_ctx, 4) == 0
    assert tau_at(pair_ctx, 12) == 1   # only root2
    assert tau_at(pair_ctx, 1) == 0    # t = 1 is the domain start, not a jump


# ---------------------------------------------------------------- sweep

@pytest.mark.parametrize("make", [lambda: TupleContext(
    [surd_to_cf(GOLDEN), surd_to_cf(sqrt_of(2))], t_max=10_000, burn_in=1),
    lambda: shared_prefix_triple(6101)], ids=["pair_ctx", "shared_prefix"])
def test_jump_sets_are_built_only_for_the_readers_of_jump_times(make):
    # the sweep and the proof trace read breakpoints, never jump_sets;
    # tau_at, sign_change_count and the naive sweep read the same sets
    # the context once built up front
    ctx = make()
    report = sweep(ctx)
    build_proof_trace(ctx, report)
    assert "jump_sets" not in ctx.__dict__
    eager = tuple(frozenset(tr.jump_times()) for tr in ctx.trajectories)
    times = sorted(frozenset().union(*eager))
    assert [tau_at(ctx, t) for t in times + [4, 7]] == [
        sum(t in js for js in eager) for t in times + [4, 7]]
    assert ctx.jump_sets == eager and ctx.jump_sets is ctx.jump_sets
    reference, flips = naive_sweep(ctx)
    assert reference.events == report.events
    assert list(reference.perm_spans.items()) == list(report.perm_spans.items())
    assert flips == report.sign_changes == {
        pair: sign_change_count(ctx, *pair) for pair in flips}


def test_pair_sweep_reaches_both_orderings(pair_ctx):
    report = sweep(pair_ctx)
    assert report.k_hat == 2
    assert set(report.perm_spans) == {(1, 2), (2, 1)}
    assert report.max_tau == 2
    assert report.max_tau <= pair_ctx.n
    assert report.sign_changes[(1, 2)] >= 2


def test_event_invariants(pair_ctx):
    report = sweep(pair_ctx)
    for ev in report.events:
        assert ev.jumpers
        assert len(ev.jumpers) == tau_at(pair_ctx, ev.time)
        for member in range(1, pair_ctx.n + 1):
            jumped = ev.time in pair_ctx.jump_sets[member - 1]
            assert (member in ev.jumpers) == jumped
        assert pair_ctx.t0 < ev.time <= pair_ctx.t_max
    # events are exactly the merged breakpoint times in the window
    merged = sorted(t for t in set().union(*pair_ctx.jump_sets)
                    if pair_ctx.t0 < t <= pair_ctx.t_max)
    assert [ev.time for ev in report.events] == merged


@pytest.mark.parametrize("n", [None, *range(2, 7), "shared_prefix"],
                         ids=["pair_ctx", *(f"random_n{n}" for n in range(2, 7)),
                              "shared_prefix"])
def test_incremental_orderings_match_sigma_at(n, pair_ctx):
    # the sweep carries the ordering forward and re-inserts the jumpers;
    # the full certified sort at t - 1 and at t is the reference
    if n is None:
        ctx = pair_ctx
    elif n == "shared_prefix":
        ctx = shared_prefix_triple(6100)
    else:
        ctx = TupleContext(random_independent_members(random.Random(5150 + n), n),
                           t_max=10 ** 30)
    report = sweep(ctx)
    assert report.events
    for ev in report.events:
        assert ev.before == sigma_at(ctx, ev.time - 1)
        assert ev.after == sigma_at(ctx, ev.time)
    if n is None:
        assert report.max_tau == 2
    else:
        for i in range(1, ctx.n + 1):
            for j in range(i + 1, ctx.n + 1):
                assert report.sign_changes[(i, j)] == sign_change_count(ctx, i, j)


def _equivalence_cases():
    yield "pair_ctx", lambda: TupleContext(
        [surd_to_cf(GOLDEN), surd_to_cf(sqrt_of(2))], t_max=10_000, burn_in=1,
        names=["phi", "root2"])
    for n in range(2, 9):
        members = random_independent_members(random.Random(6200 + n), n)
        yield f"random_n{n}", lambda members=members: TupleContext(members,
                                                                   t_max=10 ** 30)
    for seed in range(6100, 6106):
        yield f"shared_prefix_{seed}", lambda seed=seed: shared_prefix_triple(seed)
    # one quadratic field, neither sum nor difference an integer, so
    # screening lets the pair through: both jump at t = 3, and the new
    # step value of 1/3 + sqrt2 equals the one 1/2 + (3/2)sqrt2 held
    # until then, so a jumper must never be probed against a co-jumper
    # that has not moved yet
    yield "same_field_tie", lambda: TupleContext(
        [surd_to_cf(sqrt_of(2).plus_rational(Fraction(1, 3))),
         surd_to_cf(sqrt_of(2).times_rational(Fraction(3, 2))
                    .plus_rational(Fraction(1, 2)))],
        t_max=50, burn_in=1)


@pytest.mark.parametrize("case", list(_equivalence_cases()),
                         ids=lambda case: case[0])
def test_schedule_sweep_matches_the_naive_sweep(case, monkeypatch):
    # each sweep gets a fresh context, so both start from the terms as
    # TupleContext refined them; every refinement step is logged with the
    # enclosure it refines, so the two sweeps must refine the same terms
    # in the same order
    name, make = case
    fresh, reference = make(), make()
    steps = []
    refine_once = ErrorTerm.refine_once

    def logged(term):
        steps.append((term.lo_num, term.lo_den, term.hi_num, term.hi_den))
        refine_once(term)

    monkeypatch.setattr(ErrorTerm, "refine_once", logged)
    got = sweep(fresh)
    got_steps = steps[:]
    steps.clear()
    want, want_counts = naive_sweep(reference)
    assert got.events == want.events
    assert list(got.perm_spans.items()) == list(want.perm_spans.items())
    assert (got.k_hat, got.max_tau) == (want.k_hat, want.max_tau)
    assert list(got.sign_changes.items()) == list(want_counts.items())
    assert got_steps == steps
    if name.startswith(("shared_prefix", "same_field")):
        assert got.max_tau >= 2


def _sweep_outcome(ctx: TupleContext):
    """The report's fields, or the class, text, time and pair of the
    undecided ordering the sweep raised."""
    try:
        report = sweep(ctx)
    except UndecidedOrdering as exc:
        return type(exc), str(exc), exc.time, exc.pair
    return (report.events, list(report.perm_spans.items()), report.k_hat,
            report.max_tau, list(report.sign_changes.items()))


@pytest.mark.parametrize("max_compare_depth", [1, 2, None],
                         ids=["depth1", "depth2", "default"])
@pytest.mark.parametrize("case", list(_equivalence_cases()),
                         ids=lambda case: case[0])
def test_refined_terms_change_no_result(case, max_compare_depth):
    # TupleContext hands the sweep depth-1 terms, a member's last one at
    # depth 0; the same sweep on terms that build_trajectory left at
    # depth 0 must give the same report at every comparison budget
    _, make = case
    refined, plain = make(), make()
    plain.trajectories = tuple(build_trajectory(cf, plain.t_max)
                               for cf in plain.cfs)
    for tr in refined.trajectories:
        assert [term.depth for _, term in tr.breakpoints] == (
            [1] * (len(tr.breakpoints) - 1) + [0])
    if max_compare_depth is not None:
        refined.max_compare_depth = plain.max_compare_depth = max_compare_depth
    assert _sweep_outcome(refined) == _sweep_outcome(plain)


def rising_steps(ctx: TupleContext) -> TupleContext:
    """ctx with every third breakpoint of each member set back to the term
    two breakpoints earlier: a step value that rises, so a jumper can move
    up, which a real step function never does."""
    for k, tr in enumerate(ctx.trajectories):
        points = list(tr.breakpoints)
        for r in range(4, len(points), 3):
            points[r] = (points[r][0], points[r - 2][1])
        ctx.trajectories = (*ctx.trajectories[:k],
                            replace(tr, breakpoints=tuple(points)),
                            *ctx.trajectories[k + 1:])
    return ctx


def _random_n8() -> TupleContext:
    return TupleContext(random_independent_members(random.Random(6208), 8),
                        t_max=10 ** 30)


def _shared_prefix_quad(seed: int) -> TupleContext:
    """shared_prefix_triple with a second periodic member: when the pair
    jumps together, removing it can close a gap between the other two."""
    rng = random.Random(seed)
    members = [*random_shared_prefix_pair(rng), random_periodic_cf(rng),
               random_periodic_cf(rng)]
    return TupleContext(members, t_max=10 ** 30, burn_in=2)


@pytest.mark.parametrize("make, shows", [
    (lambda: shared_prefix_triple(6100), "paired"),
    (_random_n8, "narrowed"),
    (lambda: rising_steps(_random_n8()), "rose"),
    (lambda: _shared_prefix_quad(6104), "closed"),
], ids=["shared_prefix", "random_n8", "rising_n8", "shared_prefix_quad"])
def test_each_event_certifies_the_adjacencies_it_created(make, shows, monkeypatch):
    # first_misordered gets all of sigma(t0); then, per event, one
    # two-term run for each removal that closes a pair, and one run of at
    # most three terms per jump. Every jumper of an event leaves the
    # ordering, in label order, before any is put back, and a removal that
    # leaves members on both sides checks the pair it closed, on the terms
    # in effect before the event. The reference puts each jumper back by
    # counting the members certified above it: the ones that do not jump,
    # and the co-jumpers already put back. Its run is the jumper and its
    # new neighbours. Over an event, the runs check every adjacency of
    # after that holds a jumper or was not adjacent in before, on its
    # final term objects. The rising steps make jumpers leave an inner
    # slot upwards as well
    ctx = make()
    passed = []
    certify = SWEEP.first_misordered

    def spy(terms, max_depth):
        passed.append(list(terms))
        return certify(terms, max_depth)

    monkeypatch.setattr(SWEEP, "first_misordered", spy)
    report = sweep(ctx)
    n, depth = ctx.n, ctx.max_compare_depth
    current = [None, *(psi_at(tr, ctx.t0) for tr in ctx.trajectories)]
    runs = iter(passed)
    first = next(runs)
    assert len(first) == n
    assert all(a is current[m]
               for a, m in zip(first, sigma_at(ctx, ctx.t0), strict=True))
    paired = closed = narrowed = rose = 0
    for ev in report.events:
        old = set(zip(ev.before, ev.before[1:]))
        order = list(ev.before)
        checked = set()
        for i in sorted(ev.jumpers):
            left = order.index(i)
            del order[left]
            if 0 < left < len(order):
                run = next(runs)
                assert all(a is current[m] for a, m in
                           zip(run, order[left - 1:left + 1], strict=True))
                checked.add((id(run[0]), id(run[1])))
        gaps = set(zip(order, order[1:])) - old
        for i in sorted(ev.jumpers):
            run = next(runs)
            x = current[i] = psi_at(ctx.trajectories[i - 1], ev.time)
            slot = sum(compare_errors(current[m], x, depth) is Ordering.GREATER
                       for m in order)
            new = [*order[:slot], i, *order[slot:]]
            assert all(a is current[m] for a, m in
                       zip(run, new[max(slot - 1, 0):slot + 2], strict=True))
            checked.update((id(a), id(b)) for a, b in zip(run, run[1:]))
            narrowed += len(run) < n
            rose += slot < ev.before.index(i) < n - 1
            order = new
        assert tuple(order) == ev.after
        if len(ev.jumpers) > 1:
            adjacent = set(zip(order, order[1:]))
            paired += any(ev.jumpers >= set(pair) for pair in adjacent)
            closed += bool(gaps & adjacent)
        for upper, lower in zip(ev.after, ev.after[1:]):
            if (upper, lower) not in old or ev.jumpers & {upper, lower}:
                assert (id(current[upper]), id(current[lower])) in checked
    assert next(runs, None) is None
    assert narrowed > 0
    # events with co-jumpers that end up adjacent, and ones whose removals
    # closed a pair that after keeps
    counts = {"paired": paired, "closed": closed, "narrowed": narrowed,
              "rose": rose}
    assert counts[shows] > 0


def test_serialize_report_formats_each_ordering_once(monkeypatch):
    report = sweep(shared_prefix_triple(6100))
    formatted = []
    fmt = SWEEP.format_permutation

    def spy(perm):
        formatted.append(perm)
        return fmt(perm)

    monkeypatch.setattr(SWEEP, "format_permutation", spy)
    text = serialize_report(report)
    # orderings are tuples; the jumper sets go through as sorted lists
    orderings = [perm for perm in formatted if isinstance(perm, tuple)]
    assert sorted(orderings) == sorted(report.perm_spans)
    assert all(fmt(perm) == ",".join(map(str, perm)) for perm in formatted)
    # the same bytes as each record formatted on its own
    lines = text.splitlines()
    for line, ev in zip(lines, report.events):
        assert line == (f"{ev.time}\t{','.join(map(str, ev.before))}\t"
                        f"{','.join(map(str, ev.after))}\t"
                        f"{','.join(map(str, sorted(ev.jumpers)))}")


def _undecided(call):
    with pytest.raises(UndecidedOrdering) as info:
        call()
    return info.value


def test_sweep_undecided_ordering_matches_sigma_at():
    # the rule-stream tie above: the ordering is undecided from t0 on
    a = ContinuedFraction.from_rule(lambda nu: 2, depth_cap=400)
    b = ContinuedFraction.from_rule(lambda nu: 2, depth_cap=400)
    ctx = TupleContext([a, b], t_max=50, burn_in=1, max_compare_depth=10)
    swept = _undecided(lambda: sweep(ctx))
    direct = _undecided(lambda: sigma_at(ctx, swept.time))
    assert swept.time == direct.time == 1
    assert set(swept.pair) == set(direct.pair) == {1, 2}


def test_sweep_undecided_at_an_event_names_the_jumper_pair():
    # ||12*sqrt2|| = ||6*sqrt8||: sqrt2 jumps at 12 onto the value sqrt8
    # has held since 6, and at t0 = 5 the two still differ
    from irrmeasure import sqrt_of, surd_to_cf
    ctx = TupleContext([surd_to_cf(sqrt_of(2)), surd_to_cf(sqrt_of(8))],
                       t_max=20, burn_in=5, max_compare_depth=12)
    swept = _undecided(lambda: sweep(ctx))
    direct = _undecided(lambda: sigma_at(ctx, swept.time))
    assert swept.time == direct.time == 12
    assert swept.origin == "sweep.sweep"
    assert set(swept.pair) == set(direct.pair) == {1, 2}


def test_event_free_window_has_single_permutation(phi_cf, sqrt2_cf):
    # phi jumps at 144 and 233, root2 at 169: (170, 230] is event-free
    ctx = TupleContext([phi_cf, sqrt2_cf], t_max=230, burn_in=170)
    report = sweep(ctx)
    assert report.events == ()
    assert report.k_hat == 1


def test_sign_changes_match_report(pair_ctx):
    report = sweep(pair_ctx)
    assert sign_change_count(pair_ctx, 1, 2) == report.sign_changes[(1, 2)]
    assert sign_change_count(pair_ctx, 2, 1) == report.sign_changes[(1, 2)]
    with pytest.raises(ValueError):
        sign_change_count(pair_ctx, 1, 1)


@pytest.mark.parametrize("i, j", [(0, 1), (1, 4), (-2, 1)])
def test_sign_change_count_rejects_labels_outside_the_tuple(i, j):
    # label 0 would read member n, label n + 1 past the end, and a
    # negative label some member under the wrong name
    ctx = shared_prefix_triple(6100)
    with pytest.raises(ValueError, match=r"1\.\.3"):
        sign_change_count(ctx, i, j)


def test_sweep_deterministic_and_consistent_under_splitting(phi_cf, sqrt2_cf):
    whole = TupleContext([phi_cf, sqrt2_cf], t_max=5000, burn_in=1)
    report = sweep(whole)
    again = sweep(TupleContext([phi_cf, sqrt2_cf], t_max=5000, burn_in=1))
    assert report.events == again.events
    assert serialize_report(report) == serialize_report(again)
    # concatenating two half-window sweeps yields the same event list
    mid = 700
    first = sweep(TupleContext([phi_cf, sqrt2_cf], t_max=mid, burn_in=1))
    second = sweep(TupleContext([phi_cf, sqrt2_cf], t_max=5000, burn_in=mid))
    assert first.events + second.events == report.events


def test_serialized_report_shape(pair_ctx):
    text = serialize_report(sweep(pair_ctx))
    lines = text.splitlines()
    blank = lines.index("")
    for line in lines[:blank]:
        t, before, after, jumpers = line.split("\t")
        assert int(t) > pair_ctx.t0
        assert set(before.split(",")) == {"1", "2"}
        assert set(after.split(",")) == {"1", "2"}
        assert jumpers
    summary = lines[blank + 1:]
    assert summary[0] == f"window\t{pair_ctx.t0}\t{pair_ctx.t_max}"
    assert summary[1] == "k_hat\t2"
    assert any(line.startswith("sign_changes\t1,2\t") for line in summary)


# ------------------------------------------------------------- screening

def test_dependent_members_abort_construction(sqrt2_cf):
    from fractions import Fraction

    from irrmeasure import QuadraticSurd, surd_to_cf
    shifted = surd_to_cf(QuadraticSurd(Fraction(1), Fraction(1), 2))
    with pytest.raises(DependentTuple):
        TupleContext([sqrt2_cf, shifted], t_max=1000)


def test_default_burn_in_policy(phi_cf, sqrt2_cf):
    ctx = TupleContext([phi_cf, sqrt2_cf], t_max=1000)
    # the structural coincidences of this pair end at time 2, so the
    # floor of 100 wins
    assert ctx.coincidence_horizon == 2
    assert ctx.t0 == 100


def test_window_too_short_when_burn_in_reaches_horizon(phi_cf, sqrt2_cf):
    with pytest.raises(WindowTooShort):
        TupleContext([phi_cf, sqrt2_cf], t_max=50)   # default burn-in is 100
    with pytest.raises(WindowTooShort):
        TupleContext([phi_cf, sqrt2_cf], t_max=100, burn_in=100)


def test_random_tuples_sweep_within_bounds():
    rng = random.Random(8711)
    for n in (2, 3, 4):
        cfs = random_independent_members(rng, n)
        ctx = TupleContext(cfs, t_max=3000)
        report = sweep(ctx)
        assert 1 <= report.k_hat
        assert report.max_tau <= n
        for perm in report.perm_spans:
            assert sorted(perm) == list(range(1, n + 1))
