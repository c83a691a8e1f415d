"""Step trajectories against the brute-force oracle."""

import contextlib
import random
from fractions import Fraction
from math import ceil, floor

import pytest

from irrmeasure import (ContinuedFraction, ErrorTerm, Ordering,
                        brute_force_psi_sweep, build_trajectory, compare_errors,
                        psi_at, serialize_trajectory)
from irrmeasure.corpus import random_periodic_cf
from irrmeasure.errors import (DepthCapExceeded, DepthExhausted, OutOfHorizon,
                               PrecisionInsufficient)
from irrmeasure.stepfunc import _dist_bracket

from conftest import (GOLDEN, oracle_min_scan, oracle_sqrt_interval,
                      oracle_value_interval, term_slots)


# ------------------------------------------------------------ construction

def test_breakpoints_of_sqrt2(sqrt2_cf):
    traj = build_trajectory(sqrt2_cf, 12)
    assert traj.qs == (1, 2, 5, 12)
    assert traj.next_q == 29
    assert traj.horizon == 28
    assert traj.jump_times() == (2, 5, 12)


def test_single_breakpoint_at_one(sqrt2_cf, phi_cf):
    for cf in (sqrt2_cf, phi_cf):
        traj = build_trajectory(cf, 1)
        assert traj.qs == (1,)


def test_phi_collision_collapses_to_later_index(phi_cf):
    traj = build_trajectory(phi_cf, 8)
    assert traj.qs == (1, 2, 3, 5, 8)
    # at q = 1 the stored term is the later index: value 2 - phi = 0.381...
    first = traj.breakpoints[0][1]
    assert first.index == 1
    glo, ghi = GOLDEN.enclosure(30)
    assert first.lo < 2 - ghi and 2 - glo < first.hi


def test_breakpoints_strictly_decrease(sqrt2_cf, phi_cf):
    for cf in (sqrt2_cf, phi_cf):
        traj = build_trajectory(cf, 1000)
        terms = [e for _, e in traj.breakpoints]
        for hi_term, lo_term in zip(terms, terms[1:]):
            assert compare_errors(lo_term, hi_term) is Ordering.LESS


def test_best_approximation_bound_at_breakpoints():
    rng = random.Random(2718)
    for _ in range(10):
        cf = random_periodic_cf(rng)
        traj = build_trajectory(cf, 5000)
        for (q, e), q_next in zip(traj.breakpoints, traj.qs[1:] + (traj.next_q,)):
            assert e.hi <= Fraction(1, q_next)
            assert q_next > q
            assert e.hi <= Fraction(1, q_next) < Fraction(1, q)


def walked_trajectory(cf: ContinuedFraction, t_max: int):
    """The breakpoints (q_nu, nu) and next_q as build_trajectory found them
    before it grew the table in one pass: one convergent_row call per row
    until q_nu > t_max. Kept as the reference for that growth."""
    kept = []
    nu = 0
    _, q, _ = cf.convergent_row(0)
    while q <= t_max:
        kept.append((q, nu))
        nu += 1
        _, q, _ = cf.convergent_row(nu)
    if len(kept) >= 2 and kept[1][0] == 1:
        kept = kept[1:]
    return kept, q


def _built(cf: ContinuedFraction, t_max: int):
    traj = build_trajectory(cf, t_max)
    return [(q, term.index) for q, term in traj.breakpoints], traj.next_q


def _refined(cf: ContinuedFraction, t_max: int):
    """_built with the terms built one step refined. Every term but the
    last equals ErrorTerm(cf, nu) refined once, slot for slot, and the
    last is at depth 0; building those references reads nothing new."""
    traj = build_trajectory(cf, t_max, depth=1)
    memo = len(cf._coeffs), len(cf._table)
    *refined, (_, last) = traj.breakpoints
    for _, term in refined:
        want = ErrorTerm(cf, term.index)
        want.refine_once()
        assert term_slots(term) == term_slots(want)
    assert term_slots(last) == term_slots(ErrorTerm(cf, last.index))
    assert (len(cf._coeffs), len(cf._table)) == memo
    return [(q, term.index) for q, term in traj.breakpoints], traj.next_q


#: name -> (preperiod, period, t_max): sqrt2; phi, whose q_0 = q_1 = 1
#: collide, with t_max = 1 too; and a longer stream with a preperiod
GROWTH_STREAMS = {"sqrt2@12": ((1,), (2,), 12), "phi@8": ((1,), (1,), 8),
                  "phi@1": ((1,), (1,), 1),
                  "mixed@1e9": ((3, 1, 4), (1, 5, 9, 2), 10 ** 9)}


def _growth_cases():
    """(id, make, t_max, need): need is the first nu with q_nu > t_max, so
    the trajectory reads a_0 .. a_need; the N of the ids is need - 1, the
    last breakpoint's index."""
    for name, (pre, per, t_max) in GROWTH_STREAMS.items():
        full = ContinuedFraction.periodic(pre, per)
        need = walked_trajectory(full, t_max)[0][-1][1] + 1
        coeffs = full.prefix(need + 1)
        for tag, kept in [("exact", coeffs), ("one_short", coeffs[:-1])]:
            yield (f"{name}-{tag}", lambda c=kept: ContinuedFraction.from_coefficients(c),
                   t_max, need)
        for cap, tag in [(need - 1, "N"), (need, "N+1"), (need + 1, "N+2")]:
            yield (f"{name}-cap_{tag}", lambda pre=pre, per=per, cap=cap:
                   ContinuedFraction.periodic(pre, per, depth_cap=cap), t_max, need)


@pytest.mark.parametrize("make, t_max, need", [case[1:] for case in _growth_cases()],
                         ids=[case[0] for case in _growth_cases()])
@pytest.mark.parametrize("grown", ["fresh", "two_rows", "past_t_max"])
def test_one_pass_growth_reads_what_the_row_walk_read(make, t_max, need, grown):
    # the same breakpoints, or the same error, and the same coefficients
    # and rows memoized, from a fresh table, one holding two rows, or one
    # already grown past t_max where the stream has the coefficients; the
    # refined build reads and adds what the depth-0 one does
    def outcome(build):
        cf = make()
        with contextlib.suppress(DepthExhausted, DepthCapExceeded):
            cf.rows({"fresh": 0, "two_rows": 2, "past_t_max": need + 1}[grown])
        try:
            result = build(cf, t_max)
        except (DepthExhausted, DepthCapExceeded) as exc:
            result = type(exc), str(exc)
        return result, len(cf._coeffs), len(cf._table)

    assert outcome(_built) == outcome(walked_trajectory) == outcome(_refined)


# ------------------------------------------------------------- evaluation

def test_psi_at_examples(sqrt2_cf, phi_cf):
    t2 = build_trajectory(sqrt2_cf, 20)
    tp = build_trajectory(phi_cf, 20)
    lo, hi = oracle_sqrt_interval(2, 30)
    # psi_sqrt2(4) = |2*sqrt2 - 3| = 3 - 2*sqrt2
    e = psi_at(t2, 4)
    assert e.q == 2
    assert e.lo < 3 - 2 * hi and 3 - 2 * lo < e.hi
    # psi_phi(4) = |3*phi - 5|
    glo, ghi = GOLDEN.enclosure(30)
    e = psi_at(tp, 4)
    assert e.q == 3
    assert e.lo < 5 - 3 * ghi and 5 - 3 * glo < e.hi
    # t = 1 only has q = 1 available
    assert psi_at(t2, 1).q == 1 and psi_at(t2, 1).index == 0
    assert psi_at(tp, 1).q == 1 and psi_at(tp, 1).index == 1


def test_monotone_non_increasing(sqrt2_cf):
    traj = build_trajectory(sqrt2_cf, 50)
    jumps = set(traj.jump_times())
    for t in range(2, traj.horizon + 1):
        prev, cur = psi_at(traj, t - 1), psi_at(traj, t)
        if t in jumps:
            assert compare_errors(cur, prev) is Ordering.LESS
        else:
            assert cur is prev


def test_out_of_horizon(sqrt2_cf):
    traj = build_trajectory(sqrt2_cf, 12)
    with pytest.raises(OutOfHorizon):
        psi_at(traj, traj.horizon + 1)
    with pytest.raises(ValueError):
        psi_at(traj, 0)


def test_serialization_format(sqrt2_cf):
    traj = build_trajectory(sqrt2_cf, 12)
    lines = serialize_trajectory(traj).splitlines()
    assert lines[0] == "1\t1/3\t1/2"
    assert lines[1] == "2\t1/7\t1/5"
    assert len(lines) == 4
    for line in lines:
        q, lo, hi = line.split("\t")
        num, den = lo.split("/")
        assert int(q) > 0 and int(den) > 0


# ------------------------------------------------------------ brute force

def test_brute_force_examples():
    lo, hi = oracle_sqrt_interval(2, 30)
    got = brute_force_psi_sweep(lo, hi, 4)[-1]
    assert got.q == 2
    # |2*sqrt2 - 3| = 0.1715728752...
    assert Fraction(171572, 10 ** 6) < got.lo < got.hi < Fraction(171573, 10 ** 6)
    got = brute_force_psi_sweep(lo, hi, 12)[-1]
    assert got.q == 12
    # |12*sqrt2 - 17| = 0.0294372515...
    assert Fraction(29437, 10 ** 6) < got.lo < got.hi < Fraction(29438, 10 ** 6)
    # phi at t = 1: the nearest integer to phi is 2, so the minimum is
    # 2 - phi = 0.3819660112..., attained at q = 1
    glo, ghi = GOLDEN.enclosure(30)
    got = brute_force_psi_sweep(glo, ghi, 1)[-1]
    assert got.q == 1
    assert Fraction(381966, 10 ** 6) < got.lo < got.hi < Fraction(381967, 10 ** 6)


def test_brute_force_rejects_wide_enclosures():
    with pytest.raises(PrecisionInsufficient):
        brute_force_psi_sweep(Fraction(141, 100), Fraction(142, 100), 10)
    with pytest.raises(ValueError):
        brute_force_psi_sweep(Fraction(1, 2), Fraction(1, 2), 3)


def test_dist_bracket_is_the_exact_range_of_the_distance():
    # ||y|| is piecewise linear, so over (lo, hi) its extremes lie at the
    # ends or at the integers and half-integers inside; every interval
    # narrower than 1/2 with its lower end in [-2, 2), on denominators
    # 2..20, among them ones with a half-integer inside and ones that
    # reach an integer
    half = straddle = 0
    for den in range(2, 21):
        for lo_num in range(-2 * den, 2 * den):
            for hi_num in range(lo_num + 1, lo_num + (den - 1) // 2 + 1):
                lo, hi = Fraction(lo_num, den), Fraction(hi_num, den)
                points = [lo, hi, *(Fraction(k, 2) for k in
                                    range(floor(2 * lo) + 1, ceil(2 * hi)))]
                dist = [abs(y - round(y)) for y in points]
                low, high = _dist_bracket(lo_num, hi_num, den)
                assert (Fraction(low, 2 * den), Fraction(high, 2 * den)) == (
                    min(dist), max(dist))
                straddle += floor(lo) != floor(hi)
                half += floor(lo) == floor(hi) and Fraction(1, 2) in dist[2:]
    assert half > 0 and straddle > 0


def test_trajectory_agrees_with_oracle_scan():
    rng = random.Random(31415)
    for _ in range(4):
        cf = random_periodic_cf(rng)
        t_max = 600
        lo, hi = oracle_value_interval(cf, Fraction(1, 10 ** 12))
        oracle_rows = oracle_min_scan(lo, hi, t_max)
        traj = build_trajectory(cf, t_max)
        pkg_rows = brute_force_psi_sweep(lo, hi, t_max)
        for t in range(1, t_max + 1):
            o_q, o_lo, o_hi = oracle_rows[t - 1]
            term = psi_at(traj, t)
            assert term.q == o_q == pkg_rows[t - 1].q
            assert term.lo <= o_lo and o_hi <= term.hi
