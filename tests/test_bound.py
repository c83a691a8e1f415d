"""Window replay of the distinct-ordering count bound."""

import importlib
import random

import pytest

from irrmeasure import (TupleContext, build_proof_trace, check_theorem_bound,
                        render_proof_trace, sigma_at, sweep,
                        verify_with_retries)
from irrmeasure.bound import _covered_once
from irrmeasure.corpus import random_independent_members
from irrmeasure.errors import VerificationFailed, WindowTooShort


@pytest.fixture
def pair_ctx(phi_cf, sqrt2_cf):
    return TupleContext([phi_cf, sqrt2_cf], t_max=10_000, burn_in=1,
                        names=["phi", "root2"])


def test_pair_trace_structure(pair_ctx):
    trace = build_proof_trace(pair_ctx)
    assert trace.k >= 2
    # T_2 is the first order flip; for this pair it is t = 2, where both
    # members jump and the ordering reverses
    assert trace.new_times[0] == 2
    assert trace.i_sets[2]
    assert trace.relabeling == trace.sigmas[0]
    assert sum(trace.n_counts.values()) >= trace.n - 1
    assert trace.coverage_ok
    assert all(trace.restricted_ok.values())


def test_trace_i_sets_disjoint_and_within_jumpers(pair_ctx):
    report = sweep(pair_ctx)
    trace = build_proof_trace(pair_ctx, report)
    events_by_time = {ev.time: ev for ev in report.events}
    seen = set()
    for j in sorted(trace.i_sets):
        members = trace.i_sets[j]
        assert not (members & seen)
        seen |= members
        t_j = trace.new_times[j - 2]
        assert members <= events_by_time[t_j].jumpers


def test_restricted_orderings_recorded_where_compared(pair_ctx):
    trace = build_proof_trace(pair_ctx)
    compared = [j for j, members in trace.i_sets.items() if len(members) >= 2]
    assert compared and list(trace.restricted) == compared
    for j in compared:
        assert trace.restricted[j] == tuple(m for m in trace.sigmas[0]
                                            if m in trace.i_sets[j])


def _naive_proof_trace(ctx, report):
    """Reference copy of the quadratic construction: a list scan per event
    and every restricted view materialised."""
    sigmas = [sigma_at(ctx, ctx.t0)]
    new_times, jumpers_at = [], {}
    for ev in report.events:
        if ev.after not in sigmas:
            sigmas.append(ev.after)
            new_times.append(ev.time)
            jumpers_at[len(sigmas)] = ev.jumpers
    k = len(sigmas)
    i_sets, seen = {}, set()
    for j in range(2, k + 1):
        i_sets[j] = frozenset(jumpers_at[j] - seen)
        seen |= jumpers_at[j]
    restricted, restricted_ok = {}, {}
    for j in range(2, k + 1):
        earlier_views = []
        for s in range(1, k + 1):
            view = tuple(m for m in sigmas[s - 1] if m in i_sets[j])
            restricted[(j, s)] = view
            if s < j:
                earlier_views.append(view)
        restricted_ok[j] = len(set(earlier_views)) <= 1
    return tuple(sigmas), tuple(new_times), i_sets, restricted, restricted_ok


@pytest.mark.parametrize("n", [None, *range(2, 7)],
                         ids=["pair_ctx", *(f"random_n{n}" for n in range(2, 7))])
def test_proof_trace_matches_naive_reference(n, pair_ctx):
    if n is None:
        ctx = pair_ctx
    else:
        ctx = TupleContext(random_independent_members(random.Random(6160 + n), n),
                           t_max=10 ** 30)
    report = sweep(ctx)
    trace = build_proof_trace(ctx, report)
    sigmas, new_times, i_sets, restricted, restricted_ok = \
        _naive_proof_trace(ctx, report)
    assert trace.sigmas == sigmas
    assert trace.new_times == new_times
    assert trace.i_sets == i_sets
    assert trace.restricted_ok == restricted_ok
    assert len(restricted) == (trace.k - 1) * trace.k
    # the views the check compared: sigma_1's, on each I_j of two or more
    assert trace.restricted == {j: restricted[j, 1]
                                for j, members in i_sets.items()
                                if len(members) >= 2}


def test_restricted_disagreement_is_detected(phi_cf, sqrt2_cf):
    # no certified window disagrees, so replay a hand-made event list in
    # which sigma_1 and sigma_2 order I_3 = {a, b} differently
    from irrmeasure import (PermutationEvent, TrajectoryReport, sqrt_of,
                            surd_to_cf)
    ctx = TupleContext([phi_cf, sqrt2_cf, surd_to_cf(sqrt_of(3))],
                       t_max=10, burn_in=1)
    a, b, c = sigma_at(ctx, 1)
    events = (PermutationEvent(time=2, before=(a, b, c), after=(b, a, c),
                               jumpers=frozenset({c})),
              PermutationEvent(time=3, before=(b, a, c), after=(c, b, a),
                               jumpers=frozenset({a, b})))
    report = TrajectoryReport(t0=1, t_max=10, events=events, perm_spans={},
                              k_hat=3, max_tau=2)
    trace = build_proof_trace(ctx, report)
    *_, restricted_ok = _naive_proof_trace(ctx, report)
    assert trace.restricted_ok == restricted_ok == {2: True, 3: False}


def test_nj_bound_and_theorem_bound(pair_ctx):
    trace = build_proof_trace(pair_ctx)
    checks = trace.nj_checks
    assert all(c.ok for c in checks)
    assert checks[0].j == 2 and checks[0].bound == trace.k  # weakest bound
    verdict = check_theorem_bound(trace)
    assert verdict.ok
    assert verdict.n == 2 and verdict.k == 2
    assert verdict.margin_count >= 0 and verdict.margin_k >= 0
    # n = 2 <= k(k+1)/2 = 3
    assert verdict.n <= verdict.k * (verdict.k + 1) // 2


def test_counts_are_derived_once_from_the_sets(pair_ctx):
    trace = build_proof_trace(pair_ctx)
    assert trace.relabeling is trace.sigmas[0]
    assert trace.n_counts == {j: len(s) for j, s in trace.i_sets.items()}
    # render reads n_counts[j] for every j: one dict per trace, not per read
    assert trace.n_counts is trace.n_counts


def test_one_attempt_sorts_the_burn_in_ordering_once(pair_ctx, phi_cf,
                                                      sqrt2_cf, monkeypatch):
    # the sweep certifies sigma(t0); the trace takes sigma_1 from its first
    # event instead of sorting the members again. irrmeasure.sweep is also
    # a function name, so the modules come from importlib
    bound_module = importlib.import_module("irrmeasure.bound")
    sweep_module = importlib.import_module("irrmeasure.sweep")
    calls = []

    def counting(ctx, t):
        calls.append(t)
        return original(ctx, t)

    original = sweep_module.sigma_at
    for module in (sweep_module, bound_module):
        if "sigma_at" in vars(module):
            monkeypatch.setattr(module, "sigma_at", counting)
    run = verify_with_retries([phi_cf, sqrt2_cf], t_max=10_000, burn_in=1,
                              retries=0)
    assert run.doublings == 0
    assert calls == [1]
    assert run.trace.sigmas[0] == original(pair_ctx, 1)


def _old_coverage(members, i_sets):
    """The coverage verdict as it was first written: one pass over every
    I_j per member. Kept as the reference."""
    return all(sum(1 for s in i_sets.values() if member in s) == 1
               for member in members)


@pytest.mark.parametrize("n", range(2, 13))
def test_coverage_matches_the_per_member_count(n):
    ctx = TupleContext(random_independent_members(random.Random(6300 + n), n),
                       t_max=10 ** 20)
    trace = build_proof_trace(ctx)
    assert trace.coverage_ok == _old_coverage(trace.sigmas[0][:-1], trace.i_sets)
    # layouts the trace never builds: members missing, or placed twice
    rng = random.Random(6400 + n)
    members = tuple(range(1, n + 1))
    for _ in range(50):
        i_sets = {j: frozenset(rng.sample(members, rng.randint(0, n)))
                  for j in range(2, rng.randint(2, 6))}
        verdict = _covered_once(members[:-1], i_sets.values())
        assert verdict == _old_coverage(members[:-1], i_sets)
    by_hand = {2: frozenset({1}), 3: frozenset(members[1:]), 4: frozenset({1})}
    assert not _old_coverage(members[:-1], by_hand)
    assert not _covered_once(members[:-1], by_hand.values())
    assert _covered_once(members[:-1], {**by_hand, 4: frozenset()}.values())


def test_window_too_short_without_second_permutation(phi_cf, sqrt2_cf):
    # (170, 230] contains no breakpoint of either member
    ctx = TupleContext([phi_cf, sqrt2_cf], t_max=230, burn_in=170)
    with pytest.raises(WindowTooShort):
        build_proof_trace(ctx)


def test_retry_doubling_recovers_from_short_window(phi_cf, sqrt2_cf):
    run = verify_with_retries([phi_cf, sqrt2_cf], t_max=230, burn_in=170,
                              retries=8)
    assert run.doublings >= 1
    assert run.bound.ok


def test_retry_exhaustion_raises(phi_cf, sqrt2_cf):
    with pytest.raises(WindowTooShort):
        verify_with_retries([phi_cf, sqrt2_cf], t_max=171, burn_in=170,
                            retries=0)


@pytest.mark.parametrize("burn_in, origin", [
    (800, "bound.verify_with_retries"),     # 100 * 2^3: no doubling reaches it
    (799, "bound.build_proof_trace"),       # (799, 800] holds no event
])
def test_only_a_burn_in_past_every_doubling_fails_at_once(phi_cf, sqrt2_cf,
                                                         burn_in, origin):
    with pytest.raises(WindowTooShort) as info:
        verify_with_retries([phi_cf, sqrt2_cf], t_max=100, burn_in=burn_in,
                            retries=3)
    assert info.value.origin == origin


def test_a_bound_failure_is_retried_and_then_raised_with_its_trace():
    # at t_max 3 the window holds two orderings, too few to place every
    # member in one I_j or to meet the count bound; at t_max 12 the
    # tuple verifies, after two doublings
    rng = random.Random(0)
    cfs = random_independent_members(rng, rng.randint(2, 6))
    with pytest.raises(VerificationFailed) as info:
        verify_with_retries(cfs, t_max=3, burn_in=1, retries=0)
    ctx = TupleContext(cfs, t_max=3, burn_in=1)
    assert str(info.value) == (
        "[bound.verify_with_retries] jump coverage incomplete; count bound "
        "violated at t_max = 3\n" + render_proof_trace(build_proof_trace(ctx)))
    run = verify_with_retries(cfs, t_max=3, burn_in=1, retries=8)
    assert (run.doublings, run.report.t_max) == (2, 12)
    assert run.bound.ok
    with pytest.raises(ValueError, match="retries must be >= 0"):
        verify_with_retries(cfs, t_max=3, burn_in=1, retries=-1)


def test_pairs_are_screened_once_per_call(phi_cf, sqrt2_cf, monkeypatch):
    # screening does not depend on t_max, so every doubling reads the first
    # attempt's logs, also after windows too short to build a context at
    # t_max 100, 200 and 400; the doublings and the errors stay as they were
    sweep_module = importlib.import_module("irrmeasure.sweep")
    scan = sweep_module.scan_coincidences
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "scan_coincidences", counted)
    with pytest.raises(WindowTooShort) as info:
        verify_with_retries([phi_cf, sqrt2_cf], t_max=100, burn_in=799,
                            retries=3)
    assert str(info.value) == ("[bound.build_proof_trace] only one ordering "
                               "appears in (799, 800]")
    assert len(calls) == 1
    run = verify_with_retries([phi_cf, sqrt2_cf], t_max=230, burn_in=170,
                              retries=8)
    assert (run.doublings, run.ctx.t_max) == (1, 460)
    assert len(calls) == 2
    assert list(run.ctx.screen_logs) == [(1, 2)]


def test_random_tuples_verify(seed=4001):
    rng = random.Random(seed)
    for n in (2, 3, 4, 5):
        cfs = random_independent_members(rng, n)
        run = verify_with_retries(cfs, t_max=2000, retries=8)
        trace, verdict = run.trace, run.bound
        assert verdict.ok
        assert trace.coverage_ok
        assert all(trace.restricted_ok.values())
        assert all(c.ok for c in trace.nj_checks)
        assert run.report.max_tau <= run.report.k_hat
        # every member except the lowest-ranked appears in exactly one set
        for member in trace.relabeling[:-1]:
            assert sum(1 for s in trace.i_sets.values() if member in s) == 1


def test_render_is_structured(pair_ctx):
    text = render_proof_trace(build_proof_trace(pair_ctx))
    lines = text.splitlines()
    assert lines[0].startswith("T_1\t1\tsigma_1\t")
    assert any(line.startswith("I_2\t") for line in lines)
    assert lines[-1].startswith("count_bound\t")
    assert lines[-1].endswith("ok")


def test_render_formats_each_ordering_once(monkeypatch):
    # sigma_1 is printed twice (T_1 and the relabeling) but formatted once
    rng = random.Random(4107)
    ctx = TupleContext(random_independent_members(rng, 5), t_max=10 ** 20)
    trace = build_proof_trace(ctx)
    bound_module = importlib.import_module("irrmeasure.bound")
    fmt = bound_module.format_permutation
    formatted = []

    def spy(perm):
        formatted.append(perm)
        return fmt(perm)

    monkeypatch.setattr(bound_module, "format_permutation", spy)
    lines = render_proof_trace(trace).splitlines()
    # orderings are tuples; the I_j members go through as sorted lists
    assert [perm for perm in formatted if isinstance(perm, tuple)] == list(trace.sigmas)
    head = [f"T_{j}\t{t}\tsigma_{j}\t{','.join(map(str, sigma))}"
            for j, t, sigma in zip(range(1, trace.k + 1),
                                   (trace.t1, *trace.new_times), trace.sigmas)]
    assert lines[:trace.k + 1] == [*head,
                                   f"relabeling\t{','.join(map(str, trace.sigmas[0]))}"]
