"""Window replay of the distinct-ordering count bound."""

import random

import pytest

from irrmeasure import (TupleContext, build_proof_trace, check_nj_bound,
                        check_theorem_bound, render_proof_trace, sigma_at,
                        sweep, verify_with_retries)
from irrmeasure.corpus import random_independent_members
from irrmeasure.errors import WindowTooShort


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


def test_restricted_orderings_recorded_for_all_s(pair_ctx):
    trace = build_proof_trace(pair_ctx)
    for j in trace.i_sets:
        for s in range(1, trace.k + 1):
            view = trace.restricted[(j, s)]
            assert set(view) <= set(range(1, trace.n + 1))
            assert len(view) == len(trace.i_sets[j])


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
    assert len(trace.restricted) == len(restricted) == (trace.k - 1) * trace.k
    assert list(trace.restricted) == list(restricted)
    for key, view in restricted.items():
        assert trace.restricted[key] == view
    assert (1, 1) not in trace.restricted
    assert (2, trace.k + 1) not in trace.restricted


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
                              k_hat=3, max_tau=2, sign_changes={})
    trace = build_proof_trace(ctx, report)
    *_, restricted_ok = _naive_proof_trace(ctx, report)
    assert trace.restricted_ok == restricted_ok == {2: True, 3: False}


def test_nj_bound_and_theorem_bound(pair_ctx):
    trace = build_proof_trace(pair_ctx)
    checks = check_nj_bound(trace)
    assert all(c.ok for c in checks)
    assert checks[0].j == 2 and checks[0].bound == trace.k  # weakest bound
    verdict = check_theorem_bound(trace)
    assert verdict.ok
    assert verdict.n == 2 and verdict.k == 2
    assert verdict.margin_count >= 0 and verdict.margin_k >= 0
    # n = 2 <= k(k+1)/2 = 3
    assert verdict.n <= verdict.k * (verdict.k + 1) // 2


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


def test_random_tuples_verify(seed=4001):
    rng = random.Random(seed)
    for n in (2, 3, 4, 5):
        cfs = random_independent_members(rng, n)
        run = verify_with_retries(cfs, t_max=2000, retries=8)
        trace, verdict = run.trace, run.bound
        assert verdict.ok
        assert trace.coverage_ok
        assert all(trace.restricted_ok.values())
        assert all(c.ok for c in check_nj_bound(trace))
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
