"""Continued-fraction core: convergents, stars, tails, error terms,
certified comparison, and the expansion of quadratic values."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm

import pytest

import irrmeasure.surd
from irrmeasure import (ContinuedFraction, ErrorTerm, Ordering, QuadraticSurd,
                        build_trajectory, compare_errors, convergents,
                        scan_coincidences, sqrt_of, squarefree_decompose,
                        star_value, surd_to_cf)
from irrmeasure.cf import certified_above, first_misordered
from irrmeasure.corpus import (random_periodic_cf, random_shared_prefix_pair,
                               random_surd)
from irrmeasure.errors import (DepthCapExceeded, DepthExhausted, LabError,
                               UndecidedComparison)

from conftest import (GOLDEN, fib_sequence, intervals_overlap,
                      oracle_sqrt_interval, pell_denominators, pell_numerators,
                      term_slots)


# ------------------------------------------------------------- convergents

def test_convergents_of_sqrt2(sqrt2_cf):
    got = [(c.p, c.q) for c in convergents(sqrt2_cf, 5)]
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    # each convergent approximates to within 1/q, checked against an
    # independent decimal bracket of sqrt2
    lo, hi = oracle_sqrt_interval(2, 40)
    for p, q in got:
        err_lo, err_hi = sorted((abs(q * lo - p), abs(q * hi - p)))
        assert err_hi < Fraction(1, q)


def test_zero_depth_convergent_is_a0():
    cf = ContinuedFraction.from_coefficients([7])
    assert [(c.p, c.q) for c in convergents(cf, 1)] == [(7, 1)]


def test_phi_denominators_follow_fibonacci(phi_cf):
    got = [c.q for c in convergents(phi_cf, 6)]
    assert got == fib_sequence(6) == [1, 1, 2, 3, 5, 8]


def test_determinant_alternates_on_random_periodic_cfs():
    rng = random.Random(1201)
    for _ in range(200):
        cf = random_periodic_cf(rng)
        cs = convergents(cf, 40)
        for prev, cur in zip(cs, cs[1:]):
            det = cur.p * prev.q - prev.p * cur.q
            assert det == (-1) ** prev.index
        for nu in range(2, 40):
            a = cf.coefficient(nu)
            assert cs[nu].q == a * cs[nu - 1].q + cs[nu - 2].q
            assert cs[nu].p == a * cs[nu - 1].p + cs[nu - 2].p
        qs = [c.q for c in cs]
        assert all(q2 > q1 for q1, q2 in zip(qs[1:], qs[2:]))
        assert qs[0] == 1 and qs[0] <= qs[1]


def test_convergents_depth_errors():
    cf = ContinuedFraction.from_coefficients([3, 1, 4])
    with pytest.raises(DepthExhausted):
        convergents(cf, 4)
    capped = ContinuedFraction.periodic([1], [2], depth_cap=5)
    with pytest.raises(DepthCapExceeded):
        convergents(capped, 7)


def _fresh_rows(cf, count):
    """(p, q, q_prev) for nu = 0 .. count-1 by a walk of its own, reading
    coefficients straight from the stream."""
    rows = []
    p_prev, q_prev, p, q = 1, 0, cf.coefficient(0), 1
    for nu in range(count):
        rows.append((p, q, q_prev))
        if nu + 1 < count:
            a = cf.coefficient(nu + 1)
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
    return rows


@pytest.mark.parametrize("make", [
    lambda: ContinuedFraction.periodic([2, 5], [1, 3, 7]),
    lambda: ContinuedFraction.from_rule(lambda nu: nu % 4 + 1, depth_cap=60),
    lambda: ContinuedFraction.from_coefficients([0, 2, 1, 9, 4, 1, 1, 6, 3, 2, 8]),
], ids=["periodic", "rule", "finite"])
def test_error_term_rows_match_a_fresh_recurrence(make):
    cf = make()
    count = 10        # the finite backing has 11 coefficients: 0 .. 10
    rows = _fresh_rows(make(), count)
    # out of index order, so the memo table is grown piecewise
    for nu in (6, 0, 9, 3, 1, 8, 2, 7, 5, 4):
        term = ErrorTerm(cf, nu)
        assert (term.p, term.q, term.q_prev) == rows[nu]
        if nu >= 1:
            assert star_value(cf, nu) == Fraction(rows[nu][2], rows[nu][1])
    assert [(c.p, c.q) for c in convergents(cf, count)] == [r[:2] for r in rows]
    assert make().denominators(count) == [r[1] for r in rows]


@pytest.mark.parametrize("warm", [0, 3])
def test_depth_errors_surface_at_the_walks_index(warm):
    finite = ContinuedFraction.from_coefficients([3, 1, 4, 1, 5])
    capped = ContinuedFraction.periodic([1], [2], depth_cap=5)
    if warm:          # a partly grown table must fail at the same index
        convergents(finite, warm)
        convergents(capped, warm)
    with pytest.raises(DepthExhausted, match="index 5 requested"):
        convergents(finite, 9)
    with pytest.raises(DepthExhausted, match="index 5 requested"):
        finite.denominators(9)
    with pytest.raises(DepthExhausted, match="index 5 requested"):
        ErrorTerm(finite, 5)
    with pytest.raises(DepthExhausted, match="index 5 requested"):
        ErrorTerm(finite, 4)      # the enclosure reads a_5
    with pytest.raises(DepthCapExceeded, match="index 6 exceeds"):
        convergents(capped, 9)
    with pytest.raises(DepthCapExceeded, match="index 6 exceeds"):
        star_value(capped, 6)
    assert [c.q for c in convergents(finite, 5)] == [1, 1, 5, 6, 35]


def walked_rows(cf, nu):
    """convergent_row(nu) as a row-by-row walk: one coefficient read, then
    one row appended, per step. Returns the rows and the error met."""
    rows = []
    try:
        while len(rows) <= nu:
            a = cf.coefficient(len(rows))
            if not rows:
                rows.append((a, 1, 0))
            else:
                p, q, q_prev = rows[-1]
                p_prev = rows[-2][0] if len(rows) >= 2 else 1
                rows.append((a * p + p_prev, a * q + q_prev, q))
    except (LabError, ValueError) as exc:
        return rows, exc
    return rows, None


def _counted_rule(fail_at, calls, *, once=False):
    """Coefficients nu % 5 + 2, with a ValueError from index fail_at on
    (on the first read of fail_at only, when once); calls logs reads."""
    def rule(nu):
        calls.append(nu)
        if fail_at is not None and nu >= fail_at and (
                not once or calls.count(fail_at) == 1):
            raise ValueError(f"rule has no coefficient at {nu}")
        return nu % 5 + 2
    return rule


@pytest.mark.parametrize("fail_at, warm", [
    (0, 0), (1, 0), (1, 1), (4, 0), (4, 1), (4, 3), (9, 0), (9, 1), (9, 3)])
def test_growth_fails_at_the_walks_index(fail_at, warm):
    cf = ContinuedFraction.from_rule(_counted_rule(fail_at, calls := []), 40)
    rows, error = walked_rows(
        ContinuedFraction.from_rule(_counted_rule(fail_at, []), 40), fail_at + 3)
    if warm:
        cf.convergent_row(warm - 1)
    for attempt in range(2):
        before = list(cf.rows(0))
        assert before == (rows[:warm] if attempt == 0 else rows)
        calls.clear()
        with pytest.raises(ValueError) as info:
            cf.convergent_row(fail_at + 3)
        assert str(info.value) == str(error)
        assert cf.rows(0) == before       # a failed growth adds no row
        # each coefficient is read once; the failing index is asked again
        assert calls == (list(range(warm, fail_at + 1)) if attempt == 0
                         else [fail_at])
        calls.clear()
        assert [cf.convergent_row(nu) for nu in range(fail_at)] == rows
        assert calls == []
        if fail_at:
            assert cf.denominators(fail_at) == [q for _, q, _ in rows]


def test_growth_after_a_source_that_failed_once():
    rows = walked_rows(ContinuedFraction.from_rule(_counted_rule(None, []), 40), 7)[0]
    for warm in (0, 3):
        cf = ContinuedFraction.from_rule(_counted_rule(4, calls := [], once=True), 40)
        if warm:
            cf.convergent_row(warm - 1)
        with pytest.raises(ValueError, match="no coefficient at 4"):
            cf.convergent_row(7)
        assert cf.rows(0) == rows[:warm]
        assert cf.convergent_row(7) == rows[7] and cf.rows(0) == rows
        assert calls == [0, 1, 2, 3, 4, 4, 5, 6, 7]


@pytest.mark.parametrize("warm", [0, 2, 6])
def test_growth_past_the_cap_names_index_cap_plus_one(warm):
    cap = 5
    cf = ContinuedFraction.from_rule(_counted_rule(None, calls := []), cap)
    fresh = ContinuedFraction.from_rule(_counted_rule(None, []), cap)
    rows = walked_rows(fresh, cap)[0]
    if warm:
        cf.convergent_row(warm - 1)
    with pytest.raises(DepthCapExceeded,
                       match=f"index {cap + 1} exceeds the depth cap {cap}$"):
        cf.convergent_row(cap + 3)
    # every coefficient below the cap was read first, each once, and the
    # failed growth added no row
    assert calls == list(range(cap + 1))
    assert cf.rows(0) == rows[:warm]
    assert cf.rows(cap + 1) == rows
    assert calls == list(range(cap + 1))


@pytest.mark.parametrize("warm", [1, 2, 5, 17])
def test_growth_from_a_warm_table(warm):
    cf = ContinuedFraction.from_rule(_counted_rule(None, calls := []), 100)
    fresh = ContinuedFraction.from_rule(_counted_rule(None, []), 100)
    assert cf.convergent_row(warm - 1) == walked_rows(fresh, warm - 1)[0][-1]
    cf.coefficient(warm + 4)          # coefficients may run ahead of the rows
    assert cf.rows(40) == walked_rows(fresh, 39)[0]
    assert calls == list(range(40))
    assert cf.rows(3) is cf.rows(40) and len(cf.rows(0)) == 40


def test_first_difference_reads_pairs_in_turn_and_skips_the_memo():
    reads = []

    def logged(name, values):
        def rule(nu):
            reads.append((name, nu))
            return values(nu)
        return ContinuedFraction.from_rule(rule, depth_cap=50)

    # a_{2+k} = b_{5+k} for k < 6, then a_8 = 1 != b_11 = 2
    a = logged("a", lambda nu: 1 if nu == 8 else 2 + nu % 3)
    b = logged("b", lambda nu: 2 if nu == 11 else 2 + (nu - 3) % 3)
    a.prefix(5)
    b.prefix(9)
    reads.clear()
    assert a.first_difference(2, b, 5, 10) == 6
    # memo hits (a_2 .. a_4, b_5 .. b_8) make no call; the other reads
    # come pair by pair, a_{2+k} before b_{5+k}
    assert reads == [("a", 5), ("a", 6), ("b", 9), ("a", 7), ("b", 10),
                     ("a", 8), ("b", 11)]
    assert a.first_difference(2, b, 5, 6) is None
    assert b.first_difference(5, a, 2, 7) == 6
    assert a.first_difference(2, b, 5, 0) is None
    for i, j in ((-1, 5), (2, -1)):
        with pytest.raises(ValueError, match="index must be >= 0"):
            a.first_difference(i, b, j, 3)


def test_pair_index_maps_consecutive_denominators_to_their_row(phi_cf):
    # phi: q = 1, 1, 2, 3, 5, ..., so rows 0 and 1 both start with 1
    index = phi_cf.pair_index(6)
    assert index == {(1, 1): 0, (1, 2): 1, (2, 3): 2, (3, 5): 3, (5, 8): 4,
                     (8, 13): 5}
    # one memo: a shorter request reads it as it is, a longer one grows it
    assert phi_cf.pair_index(3) is index and len(index) == 6
    assert len(phi_cf.pair_index(40)) == 40
    assert index[(1, 1)] == 0


def test_pair_index_stops_at_a_missing_row_and_retries_the_same_way():
    finite = ContinuedFraction.from_coefficients([3, 1, 4, 1, 5])
    for _ in range(2):
        with pytest.raises(DepthExhausted, match="index 5 requested"):
            finite.pair_index(5)
        assert finite.pair_index(0) == {}
    assert list(finite.pair_index(4).values()) == [0, 1, 2, 3]


def test_pair_index_asserts_each_row_is_coprime(monkeypatch):
    import irrmeasure.cf
    cf = ContinuedFraction.periodic([1], [2])     # q = 1, 2, 5, 12, 29
    cf.pair_index(2)
    monkeypatch.setattr(irrmeasure.cf, "gcd", lambda x, y: 3 if y == 29 else 1)
    with pytest.raises(AssertionError, match=r"row 3 \(12, 29\) is not coprime"):
        cf.pair_index(6)
    assert len(cf.pair_index(0)) == 3


# ------------------------------------------------------------- star values

def test_star_values_match_examples(sqrt2_cf, phi_cf):
    assert star_value(sqrt2_cf, 3) == Fraction(5, 12)
    assert star_value(phi_cf, 5) == Fraction(5, 8)
    for cf in (sqrt2_cf, phi_cf):
        assert star_value(cf, 1) == Fraction(1, cf.coefficient(1))


def test_star_equals_reversed_word_fold():
    # independent evaluation path: fold [0; a_nu, ..., a_1] directly
    rng = random.Random(77)
    for _ in range(25):
        cf = random_periodic_cf(rng)
        for nu in (1, 2, 5, 9):
            r = Fraction(cf.coefficient(1))
            for i in range(2, nu + 1):
                r = cf.coefficient(i) + 1 / r
            assert star_value(cf, nu) == 1 / r


# ------------------------------------------------------------------- tails

def test_tail_of_sqrt2_is_purely_periodic(sqrt2_cf):
    t = sqrt2_cf.tail(1)
    assert t.prefix(5) == (2, 2, 2, 2, 2)


def test_tail_of_finite_list_shifts():
    cf = ContinuedFraction.from_coefficients([3, 1, 4, 1, 5])
    assert cf.tail(2).prefix(3) == (4, 1, 5)


def test_tail_of_phi_is_fixed_point(phi_cf):
    for k in (1, 3, 10):
        assert phi_cf.tail(k).prefix(8) == phi_cf.prefix(8)


def test_tail_of_a_stream_without_exact_value_has_none():
    finite = ContinuedFraction.from_coefficients([3, 1, 4, 1, 5])
    rule = ContinuedFraction(lambda j: j + 1, depth_cap=50)
    assert finite.tail(2).exact_value() is None
    assert rule.tail(3).exact_value() is None


def test_tail_depth_check():
    cf = ContinuedFraction.from_coefficients([3, 1])
    with pytest.raises(DepthExhausted):
        cf.tail(2)


def _backings():
    """One stream per constructor, each with a small cap."""
    return {
        "finite": ContinuedFraction.from_coefficients([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
                                                      depth_cap=40),
        "periodic": ContinuedFraction.periodic([2, 5], [1, 3, 7], depth_cap=40),
        "rule": ContinuedFraction.from_rule(lambda j: j % 4 + 1, depth_cap=40),
        "surd": surd_to_cf(QuadraticSurd(Fraction(-3, 2), Fraction(5, 3), 7),
                           depth_cap=40),
    }


@pytest.mark.parametrize("kind", ["finite", "periodic", "rule", "surd"])
def test_tail_reads_the_parent_under_a_shifted_cap(kind):
    parent = _backings()[kind]
    length = 11 if kind == "finite" else parent.depth_cap + 1
    for nu in (1, 2, 4, 7):
        t = parent.tail(nu)
        k = min(length - nu, 20)
        assert t.prefix(k) == parent.prefix(nu + k)[nu:]
        assert t.depth_cap == parent.depth_cap - nu
        assert t.tail(2).prefix(k - 2) == parent.prefix(nu + k)[nu + 2:]
    t = parent.tail(5)
    if kind == "finite":
        # the parent's source raises, at the parent's index
        with pytest.raises(DepthExhausted, match="index 11 requested"):
            t.coefficient(6)
    else:
        assert t.prefix(t.depth_cap + 1) == parent.prefix(parent.depth_cap + 1)[5:]
        with pytest.raises(DepthCapExceeded, match=f"index {t.depth_cap + 1} exceeds"):
            t.coefficient(t.depth_cap + 1)
        last = parent.tail(parent.depth_cap)
        assert last.prefix(1) == (parent.coefficient(parent.depth_cap),)
        with pytest.raises(DepthCapExceeded, match="index 1 exceeds the depth cap 0"):
            last.coefficient(1)


def test_rule_error_repeats_on_retry():
    calls = []

    def rule(j):
        calls.append(j)
        return 0 if j == 3 else j + 1

    cf = ContinuedFraction.from_rule(rule, depth_cap=20)
    for _ in range(2):
        with pytest.raises(ValueError, match="a_3 = 0"):
            cf.coefficient(3)
        assert cf.coefficient(2) == 3
    # the memo fills in index order, so a read past a_3 meets its error
    with pytest.raises(ValueError, match="a_3 = 0"):
        cf.coefficient(5)
    # every read of a_3 asks the rule again; earlier indices come from
    # the memo
    assert calls == [0, 1, 2, 3, 3, 3]
    assert cf.prefix(3) == (1, 2, 3)


def test_finite_exhaustion_repeats_on_retry():
    cf = ContinuedFraction.from_coefficients([3, 1, 4])
    for _ in range(3):
        with pytest.raises(DepthExhausted, match="index 3 requested"):
            cf.coefficient(3)
        assert cf.prefix(3) == (3, 1, 4)


# ------------------------------------------------------------- error terms

def test_error_enclosure_examples(sqrt2_cf, phi_cf):
    e = ErrorTerm(sqrt2_cf, 1)
    assert e.interval() == (Fraction(1, 7), Fraction(1, 5))
    # |2*sqrt2 - 3| from the decimal oracle
    lo, hi = oracle_sqrt_interval(2, 30)
    assert e.lo < abs(2 * lo - 3) and abs(2 * hi - 3) < e.hi

    e0 = ErrorTerm(phi_cf, 0)
    assert e0.interval() == (Fraction(1, 2), Fraction(1, 1))
    glo, ghi = GOLDEN.enclosure(30)
    assert e0.lo < glo - 1 and ghi - 1 < e0.hi


def test_refinement_nests_and_strictly_shrinks(sqrt2_cf, phi_cf):
    for cf, nu in ((sqrt2_cf, 1), (phi_cf, 0), (phi_cf, 3)):
        term = ErrorTerm(cf, nu)
        prev = term.interval()
        for _ in range(12):
            term.refine_once()
            lo, hi = term.interval()
            assert prev[0] <= lo < hi <= prev[1]
            assert hi - lo < prev[1] - prev[0]
            prev = (lo, hi)


def _determinant_streams(kind):
    rng = random.Random(8107)
    streams = {
        "periodic": [random_periodic_cf(rng) for _ in range(3)],
        "surd": [surd_to_cf(random_surd(rng)) for _ in range(3)],
        "rule": [ContinuedFraction.from_rule(lambda j: (j * j) % 7 + 1, depth_cap=400),
                 ContinuedFraction.from_rule(lambda j: 1 + j % 3, depth_cap=400)],
    }
    if kind == "tail":
        parents = [cf for group in streams.values() for cf in group]
        return [cf.tail(shift) for cf, shift in zip(parents, range(1, 9))]
    return streams[kind]


@pytest.mark.parametrize("kind", ["periodic", "surd", "rule", "tail"])
def test_width_is_q_over_the_end_denominators_at_every_depth(kind):
    # the ends' cross difference is the Moebius determinant
    # e*h - f*g = -q_nu*(-1)^depth, so the width's numerator is q_nu and
    # the depth's parity says which end is lower
    for cf, nu in product(_determinant_streams(kind), (0, 1, 4, 11)):
        term = ErrorTerm(cf, nu)
        for depth in range(21):
            assert term.depth == depth
            e, f, g, h, b = term._e, term._f, term._g, term._h, term._b
            assert e * h - f * g == -term.q * (-1) ** depth
            assert term.hi_num * term.lo_den - term.lo_num * term.hi_den == term.q
            at_b = (e * b + f, g * b + h)
            at_b1 = (e * (b + 1) + f, g * (b + 1) + h)
            lower, upper = (at_b1, at_b) if depth % 2 == 0 else (at_b, at_b1)
            assert (term.lo_num, term.lo_den) == lower
            assert (term.hi_num, term.hi_den) == upper
            assert Fraction(*lower) < Fraction(*upper)
            assert term.hi - term.lo == Fraction(term.q, term.hi_den * term.lo_den)
            term.refine_once()


@pytest.mark.parametrize("kind", ["periodic", "surd", "rule", "tail"])
def test_a_term_built_at_depth_1_is_the_term_refined_once(kind):
    for cf, nu in product(_determinant_streams(kind), (0, 1, 4, 11)):
        term = ErrorTerm(cf, nu)
        term.refine_once()
        assert term_slots(ErrorTerm(cf, nu, depth=1)) == term_slots(term)
    # the first step needs a_{nu+2}: past the cap, the build fails where
    # the step does
    capped = ContinuedFraction.periodic([1], [2], depth_cap=9)
    for make in (lambda: ErrorTerm(capped, 8).refine_once(),
                 lambda: ErrorTerm(capped, 8, depth=1)):
        with pytest.raises(DepthCapExceeded, match="index 10 exceeds"):
            make()
    with pytest.raises(ValueError, match="depth 0 or 1"):
        ErrorTerm(capped, 0, depth=2)


def test_initial_enclosure_formula_everywhere():
    rng = random.Random(4242)
    for _ in range(30):
        cf = random_periodic_cf(rng)
        cs = convergents(cf, 12)
        for nu in range(10):
            e = ErrorTerm(cf, nu)
            q, q_next = cs[nu].q, cs[nu + 1].q
            assert e.interval() == (Fraction(1, q_next + q), Fraction(1, q_next))
            assert e.q == q


def test_error_recurrence_interval_consistency():
    # xi_{nu-1} = a_{nu+1} * xi_nu + xi_{nu+1}; the enclosures of both
    # sides must intersect at every refinement depth
    rng = random.Random(909)
    for _ in range(15):
        cf = random_periodic_cf(rng)
        for nu in (1, 2, 4):
            for depth in (0, 1, 3):
                before = ErrorTerm(cf, nu - 1).refine_to(depth)
                mid = ErrorTerm(cf, nu).refine_to(depth)
                after = ErrorTerm(cf, nu + 1).refine_to(depth)
                a = cf.coefficient(nu + 1)
                combined = (a * mid.lo + after.lo, a * mid.hi + after.hi)
                assert intervals_overlap(before.interval(), combined)


def test_exact_error_value_when_backed_by_surd(sqrt2_cf):
    e = ErrorTerm(sqrt2_cf, 1)
    exact = e.exact_value()
    assert exact == QuadraticSurd(Fraction(3), Fraction(-2), 2)  # 3 - 2*sqrt2
    assert exact.compare_rational(e.lo) > 0 > exact.compare_rational(e.hi)


# ---------------------------------------------------------- compare_errors

def test_compare_errors_across_numbers(sqrt2_cf, phi_cf):
    # xi_1(sqrt2) = 0.1716 vs xi_3(phi) = 0.1459
    assert compare_errors(ErrorTerm(sqrt2_cf, 1), ErrorTerm(phi_cf, 3)) is Ordering.GREATER
    assert compare_errors(ErrorTerm(phi_cf, 3), ErrorTerm(sqrt2_cf, 1)) is Ordering.LESS


def test_compare_errors_same_number_strict_decrease(sqrt2_cf, phi_cf):
    for cf in (sqrt2_cf, phi_cf):
        for nu in range(6):
            assert compare_errors(ErrorTerm(cf, nu), ErrorTerm(cf, nu + 1)) is Ordering.GREATER


def test_equal_values_never_separate(sqrt2_cf):
    x, y = ErrorTerm(sqrt2_cf, 2), ErrorTerm(sqrt2_cf, 2)
    with pytest.raises(UndecidedComparison) as info:
        compare_errors(x, y, max_depth=12)
    assert info.value.left is x and info.value.right is y


def test_compare_errors_antisymmetric_and_transitive():
    rng = random.Random(555)
    cfs = [random_periodic_cf(rng) for _ in range(5)]
    terms = [ErrorTerm(cf, nu) for cf in cfs for nu in (1, 3)]
    # sort by certified comparison, then check total-order consistency
    ordered = sorted(terms, key=lambda t: (t.lo, t.hi))
    for i, x in enumerate(ordered):
        for y in ordered[i + 1:]:
            fresh_x = ErrorTerm(x.owner, x.index)
            fresh_y = ErrorTerm(y.owner, y.index)
            try:
                assert compare_errors(fresh_x, fresh_y) is Ordering.LESS
                assert compare_errors(fresh_y, fresh_x) is Ordering.GREATER
            except UndecidedComparison:
                # identically-valued streams drawn twice; equality is the
                # one case a certified comparison must refuse to call
                va, vb = x.exact_value(), y.exact_value()
                assert va is not None and vb is not None
                assert va.compare(vb) == 0


# ------------------------------------------- integer kernel vs Fraction one

class _FractionTerm:
    """The Fraction-normalising error term the integer kernel replaced,
    kept as a reference: same Moebius state, enclosure ends reduced to
    Fractions after every step."""

    def __init__(self, owner, index):
        _, q, q_prev = owner.convergent_row(index)
        self.owner, self.depth = owner, 0
        self._e, self._f, self._g, self._h = 0, 1, q, q_prev
        self._next = index + 1
        self._reevaluate()

    def _reevaluate(self):
        b = self.owner.coefficient(self._next)
        e, f, g, h = self._e, self._f, self._g, self._h
        v1 = Fraction(e * b + f, g * b + h)
        v2 = Fraction(e * (b + 1) + f, g * (b + 1) + h)
        self.lo, self.hi = (v1, v2) if v1 < v2 else (v2, v1)

    def refine_once(self):
        b = self.owner.coefficient(self._next)
        e, f, g, h = self._e, self._f, self._g, self._h
        self._e, self._f = e * b + f, e
        self._g, self._h = g * b + h, g
        self._next += 1
        self.depth += 1
        self._reevaluate()

    @property
    def width(self):
        return self.hi - self.lo


def _reference_compare(x, y, max_depth, ties):
    """compare_errors as it was on Fractions; counts equal-width choices
    in ties[0]."""
    while True:
        if x.hi <= y.lo:
            return Ordering.LESS
        if y.hi <= x.lo:
            return Ordering.GREATER
        refinable = [t for t in (x, y) if t.depth < max_depth]
        if not refinable:
            raise UndecidedComparison(
                f"enclosures still overlap at depth {max_depth}: "
                f"({x.lo}, {x.hi}) vs ({y.lo}, {y.hi})",
                origin="cf.compare_errors")
        if len(refinable) == 2 and x.width == y.width:
            ties[0] += 1
        max(refinable, key=lambda t: t.width).refine_once()


def _kernel_streams(rng):
    """Periodic, surd-backed and rule streams, plus shared-prefix pairs
    whose error terms have equal widths while their coefficients agree."""
    streams = [random_periodic_cf(rng) for _ in range(4)]
    streams += [surd_to_cf(random_surd(rng)) for _ in range(4)]
    streams += [ContinuedFraction.from_rule(lambda j: (j * j) % 7 + 1, depth_cap=400),
                ContinuedFraction.from_rule(lambda j: 1 + j % 3, depth_cap=400)]
    for _ in range(3):
        streams += random_shared_prefix_pair(rng)
    return streams


def _assert_same_enclosure(term, ref):
    assert term.interval() == (ref.lo, ref.hi)
    assert term.depth == ref.depth
    assert min(term.lo_den, term.hi_den) > 0


def test_integer_enclosures_match_the_fraction_kernel():
    rng = random.Random(8101)
    for cf in _kernel_streams(rng):
        for nu in rng.sample(range(30), 6):
            term, ref = ErrorTerm(cf, nu), _FractionTerm(cf, nu)
            _assert_same_enclosure(term, ref)
            for _ in range(rng.randint(1, 12)):
                term.refine_once()
                ref.refine_once()
                _assert_same_enclosure(term, ref)


def test_integer_compare_matches_the_fraction_kernel():
    rng = random.Random(8102)
    streams = _kernel_streams(rng)
    ties, compared = [0], 0
    # shared-prefix partners side by side: equal indices inside the prefix
    # give identical enclosures, so the equal-width rule picks the side
    # that refines first
    pairs = [(streams[i], streams[i + 1], nu, nu)
             for i in range(len(streams) - 6, len(streams), 2) for nu in range(8)]
    pairs += [(rng.choice(streams), rng.choice(streams),
               rng.randrange(25), rng.randrange(25)) for _ in range(300)]
    for a, b, nu, mu in pairs:
        depth_x, depth_y = rng.randint(0, 3), rng.randint(0, 3)
        max_depth = rng.choice((4, 8, 64))
        x, y = ErrorTerm(a, nu).refine_to(depth_x), ErrorTerm(b, mu).refine_to(depth_y)
        rx, ry = _FractionTerm(a, nu), _FractionTerm(b, mu)
        for _ in range(depth_x):
            rx.refine_once()
        for _ in range(depth_y):
            ry.refine_once()
        try:
            expected = _reference_compare(rx, ry, max_depth, ties)
        except UndecidedComparison as exc:
            expected = str(exc)
        try:
            got = compare_errors(x, y, max_depth)
        except UndecidedComparison as exc:
            got = str(exc)
        assert got == expected
        assert (x.depth, y.depth) == (rx.depth, ry.depth)
        compared += isinstance(got, Ordering)
    assert ties[0] > 0 and compared > 250


def test_equal_terms_raise_the_reference_message():
    rng = random.Random(8103)
    for cf in _kernel_streams(rng):
        twins = [cf]
        value = cf.exact_value()
        if value is not None:     # x + 1 has the same error terms as x
            twins.append(surd_to_cf(value.plus_rational(1)))
        for twin in twins:
            for nu in (0, 3):
                with pytest.raises(UndecidedComparison) as ref:
                    _reference_compare(_FractionTerm(cf, nu), _FractionTerm(twin, nu),
                                       6, [0])
                with pytest.raises(UndecidedComparison) as got:
                    compare_errors(ErrorTerm(cf, nu), ErrorTerm(twin, nu), 6)
                assert str(got.value) == str(ref.value)


def test_refinement_reads_one_coefficient_per_step(monkeypatch):
    reads = []
    coefficient = ContinuedFraction.coefficient

    def counted(cf, nu):
        reads.append(nu)
        return coefficient(cf, nu)

    capped = ContinuedFraction.periodic([1], [2], depth_cap=9)
    capped.denominators(6)
    monkeypatch.setattr(ContinuedFraction, "coefficient", counted)
    term = ErrorTerm(capped, 5).refine_to(3)
    assert reads == [6, 7, 8, 9]
    # a step past the cap fails at the same index every time and leaves
    # the enclosure and depth as they were
    ends, depth = term.interval(), term.depth
    for _ in range(2):
        with pytest.raises(DepthCapExceeded, match="index 10 exceeds"):
            term.refine_once()
        assert (term.interval(), term.depth) == (ends, depth)


# ------------------------------------------------------- first_misordered

def test_first_misordered_finds_the_out_of_order_adjacency(sqrt2_cf, phi_cf):
    rng = random.Random(8105)
    streams = [sqrt2_cf, phi_cf, *_kernel_streams(rng)]
    for cf in streams[:2]:
        terms = [e for _, e in build_trajectory(cf, 10 ** 20).breakpoints]
        assert first_misordered(terms) is None
        assert first_misordered(terms[::-1]) == 0
    for cf in streams:
        terms = [ErrorTerm(cf, nu) for nu in range(25)]
        assert first_misordered(terms) is None
        r = rng.randrange(24)
        terms[r], terms[r + 1] = terms[r + 1], terms[r]
        assert first_misordered(terms) == r
    assert first_misordered([]) is first_misordered(terms[:1]) is None


def _check_agrees_with_compare_errors(certify):
    """certify(x, y, max_depth) must give compare_errors(x, y) is GREATER,
    or raise its UndecidedComparison message, and leave both terms at the
    depths and enclosures compare_errors leaves them."""
    rng = random.Random(8106)
    streams = _kernel_streams(rng)
    # shared-prefix partners at equal indices overlap, so compare_errors
    # refines; the same term twice never separates
    pairs = [(streams[i], streams[i + 1], nu, nu)
             for i in range(len(streams) - 6, len(streams), 2) for nu in range(8)]
    pairs += [(cf, cf, 3, 3) for cf in streams[:3]]
    pairs += [(rng.choice(streams), rng.choice(streams),
               rng.randrange(25), rng.randrange(25)) for _ in range(300)]
    refined = undecided = 0
    for a, b, nu, mu in pairs:
        depth_x, depth_y = rng.randint(0, 3), rng.randint(0, 3)
        max_depth = rng.choice((4, 8, 64))
        x, y = ErrorTerm(a, nu).refine_to(depth_x), ErrorTerm(b, mu).refine_to(depth_y)
        rx, ry = ErrorTerm(a, nu).refine_to(depth_x), ErrorTerm(b, mu).refine_to(depth_y)
        try:
            expected = compare_errors(rx, ry, max_depth) is Ordering.GREATER
        except UndecidedComparison as exc:
            expected = str(exc)
        try:
            got = certify(x, y, max_depth)
        except UndecidedComparison as exc:
            got = str(exc)
            undecided += 1
        assert got == expected
        assert (x.depth, y.depth) == (rx.depth, ry.depth)
        assert (x.interval(), y.interval()) == (rx.interval(), ry.interval())
        refined += (x.depth, y.depth) != (depth_x, depth_y)
    assert refined > 20
    assert undecided >= 3


def test_first_misordered_agrees_with_compare_errors():
    _check_agrees_with_compare_errors(
        lambda x, y, max_depth: first_misordered([x, y], max_depth) is None)


def test_certified_above_agrees_with_compare_errors():
    _check_agrees_with_compare_errors(certified_above)


class _NoFraction:
    def __new__(cls, *args, **kwargs):
        raise AssertionError("Fraction built on the certified-comparison path")


def test_comparison_path_builds_no_fraction(monkeypatch):
    import irrmeasure.cf
    import irrmeasure.screening
    rng = random.Random(8104)
    members = [surd_to_cf(random_surd(rng, radicand=d)) for d in (2, 3, 5, 7)]
    partner = surd_to_cf(members[0].exact_value().plus_rational(2))
    for cf in members + [partner]:
        cf.denominators(45)      # the memo rows are plain integers anyway
    monkeypatch.setattr(irrmeasure.cf, "Fraction", _NoFraction)
    monkeypatch.setattr(irrmeasure.screening, "Fraction", _NoFraction)
    terms = [ErrorTerm(cf, nu) for cf in members for nu in (2, 5)]
    terms[0].refine_to(6)
    # same index on different members: overlapping depth-0 enclosures
    assert compare_errors(ErrorTerm(members[1], 4), ErrorTerm(members[2], 4)) in Ordering
    assert compare_errors(ErrorTerm(members[0], 1), ErrorTerm(members[0], 9)) is Ordering.GREATER
    for x in terms:
        for y in terms:
            if x is not y:
                compare_errors(x, y)
    for a in members:
        for b in members + [partner]:
            scan_coincidences(a, b, depth=40)


# ----------------------------------------------------------- surd expansion

def test_surd_to_cf_classical_expansions():
    assert surd_to_cf(sqrt_of(2)).prefix(6) == (1, 2, 2, 2, 2, 2)
    assert surd_to_cf(GOLDEN).prefix(6) == (1, 1, 1, 1, 1, 1)
    two_plus = surd_to_cf(QuadraticSurd(Fraction(2), Fraction(1), 2))
    assert two_plus.prefix(6) == (3, 2, 2, 2, 2, 2)
    # negative value: 1 - sqrt2 = [-1; 1, 1, 2, 2, 2, ...]
    neg = surd_to_cf(QuadraticSurd(Fraction(1), Fraction(-1), 2))
    assert neg.prefix(6) == (-1, 1, 1, 2, 2, 2)


def test_surd_to_cf_larger_radicands():
    assert surd_to_cf(sqrt_of(7)).prefix(9) == (2, 1, 1, 1, 4, 1, 1, 1, 4)
    assert surd_to_cf(sqrt_of(13)).prefix(11) == (3, 1, 1, 1, 1, 6, 1, 1, 1, 1, 6)


def test_expansion_reconverges_to_the_surd():
    rng = random.Random(333)
    for _ in range(20):
        d = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
        s = QuadraticSurd(Fraction(rng.randint(0, 3), rng.randint(1, 2)),
                          Fraction(rng.randint(1, 3), rng.randint(1, 2)), d)
        cf = surd_to_cf(s)
        assert cf.exact_value() == s
        for c in convergents(cf, 12):
            err = s.times_rational(c.q).plus_rational(-c.p).abs()
            assert err.compare_rational(Fraction(1, c.q)) < 0


def test_periodic_backing_derives_its_value(sqrt2_periodic, phi_periodic):
    assert sqrt2_periodic.exact_value() == sqrt_of(2)
    assert phi_periodic.exact_value() == GOLDEN
    rng = random.Random(17)
    for _ in range(20):
        cf = random_periodic_cf(rng)
        value = cf.exact_value()
        assert value is not None
        # the derived value re-expands to the same stream
        assert surd_to_cf(value).prefix(30) == cf.prefix(30)


def stepwise_periodic_value(preperiod, period):
    """The periodic value as _periodic_value computed it before the
    preperiod became one homographic map: the fixed point of the period
    word, then one reciprocal() and plus_rational() per preperiod
    coefficient. Kept as the reference."""
    a11, a12, a21, a22 = 1, 0, 0, 1
    for a in period:
        a11, a12, a21, a22 = a11 * a + a12, a11, a21 * a + a22, a21
    disc = (a11 - a22) ** 2 + 4 * a12 * a21
    v = QuadraticSurd(Fraction(a11 - a22, 2 * a21), Fraction(1, 2 * a21), disc)
    for a in reversed(preperiod):
        v = v.reciprocal().plus_rational(a)
    return v


def _fields(s):
    return s.rational, s.coef, s.radicand


def test_periodic_value_matches_the_stepwise_fold():
    rng = random.Random(5301)
    lengths = set()
    checked = negative_a0 = 0
    while checked < 300:
        m = rng.randint(0, 30)
        pre = ([rng.randint(-12, 12)] + [rng.randint(1, 40) for _ in range(m - 1)]
               if m else [])
        period = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        cf = ContinuedFraction.periodic(pre, period)
        value = cf.exact_value()
        assert _fields(value) == _fields(stepwise_periodic_value(pre, period))
        # tails past the preperiod are purely periodic (empty preperiod,
        # rotated period); their value is x_{k+1} = 1/(x_k - a_k) stepped
        # forward from the whole stream's
        step = value
        for nu in range(m + 2 * len(period) + 1):
            assert _fields(cf.tail(nu).exact_value()) == _fields(step)
            step = step.plus_rational(-cf.coefficient(nu)).reciprocal()
        lengths.add(m)
        checked += 1
        negative_a0 += m > 0 and pre[0] < 0
    assert lengths == set(range(31))
    assert negative_a0 > 0


def test_periodic_value_matches_the_fold_on_long_periods():
    # periods of up to 8 coefficients of 1..40, preperiods empty or led by
    # a negative a0: the closed form gives the fold's value
    rng = random.Random(5303)
    lengths, kinds = set(), Counter()
    for _ in range(60):
        period = [rng.randint(1, 40) for _ in range(rng.randint(1, 8))]
        pre = []
        if rng.random() < 0.75:
            pre = [rng.randint(-12, 12)] + [rng.randint(1, 40)
                                            for _ in range(rng.randint(0, 5))]
        value = ContinuedFraction.periodic(pre, period).exact_value()
        assert _fields(value) == _fields(stepwise_periodic_value(pre, period))
        lengths.add(len(period))
        kinds["empty" if not pre else "negative" if pre[0] < 0 else "other"] += 1
    assert lengths == set(range(1, 9))
    assert min(kinds.values()) > 0, kinds


def test_periodic_value_certifies_its_radicand_once(monkeypatch, no_factoring):
    # the value is built once, and its radicand, the discriminant, is
    # checked a non-square by one isqrt; nothing is factored
    calls = []
    root = irrmeasure.surd.isqrt

    def counted(n):
        calls.append(n)
        return root(n)

    monkeypatch.setattr(irrmeasure.surd, "isqrt", counted)
    for pre, period in (([], [1]), ([-3, 2], [1, 2, 3]), ([7], [40, 1, 9, 2])):
        calls.clear()
        cf = ContinuedFraction.periodic(pre, period)
        value = cf.exact_value()
        assert value is not None and value is cf.exact_value()
        assert calls == [value.radicand]


def test_every_short_period_word_has_a_value_with_a_nonsquare_radicand():
    # the fixed point's discriminant tr^2 - 4*det is never a square for a
    # word of positive entries, so every period of 1 to 4 entries over
    # 1..4 gets an exact value, which re-expands to the same stream
    words = [period for length in range(1, 5)
             for period in product(range(1, 5), repeat=length)]
    assert len(words) == 340
    for period in words:
        cf = ContinuedFraction.periodic([], period)
        value = cf.exact_value()
        assert value is not None and value.radicand >= 2
        assert surd_to_cf(value).prefix(12) == cf.prefix(12)


def test_periodic_value_exists_past_the_printable_digit_limit(no_factoring):
    # the period [1]*12000 + [2] has a fixed-point discriminant of more
    # than 4,300 digits, which str() refuses to print; it is the radicand
    # as it stands, never factored, and the value re-expands to the stream
    cf = ContinuedFraction.periodic([1], [1] * 12000 + [2])
    value = cf.exact_value()
    assert value is not None and value.radicand.bit_length() > 16000
    assert surd_to_cf(value).prefix(60) == cf.prefix(60)


def _round_trip_surds():
    rng = random.Random(5302)
    return [QuadraticSurd(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                          Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                   rng.randint(1, 6)),
                          rng.choice((2, 3, 5, 6, 7, 10, 11, 13, 14, 15)))
            for _ in range(100)]


def test_periodic_value_round_trips_random_surds():
    # long periods (up to 322 coefficients here) give fixed-point
    # discriminants k^2*d with large k; each is the radicand as it
    # stands, so every rebuilt stream has its exact value
    for s in _round_trip_surds():
        pre, period = eager_expansion(s)
        value = ContinuedFraction.periodic(pre, period).exact_value()
        assert value is not None and value == s, s
        assert _fields(value) == _fields(stepwise_periodic_value(pre, period))


def test_surd_tails_step_the_exact_value():
    # a tail's value is its parent's stepped forward, in the parent's
    # radicand, not a periodic rebuild of the tail
    for s in _round_trip_surds():
        cf = surd_to_cf(s)
        step = s
        for nu in range(12):
            t = cf.tail(nu)
            value = t.exact_value()
            assert _fields(value) == _fields(step)
            assert surd_to_cf(value).prefix(10) == t.prefix(10)
            step = step.plus_rational(-cf.coefficient(nu)).reciprocal()


# ------------------------------------------------ lazy surd expansion

def _initial_state(s):
    """(P, Q, N, rescaled): s = (P + sqrt(N))/Q with Q | N - P^2; rescaled
    tells whether the divisibility needed P, Q, N scaled by |Q|, Q^2."""
    f = lcm(s.rational.denominator, s.coef.denominator)
    e, g = int(s.rational * f), int(s.coef * f)
    n = g * g * s.radicand
    p, q = (e, f) if g > 0 else (-e, -f)
    if (n - p * p) % q == 0:
        return p, q, n, False
    return p * abs(q), q * abs(q), n * q * q, True


def eager_expansion(s):
    """(preperiod, period) of s by the eager loop surd_to_cf ran before it
    became lazy: complete quotients up to the first repeated state. Kept
    as the reference for the lazy expansion."""
    p, q, n, _ = _initial_state(s)
    sq = isqrt(n)
    seen, coeffs = {}, []
    while (p, q) not in seen:
        seen[(p, q)] = len(coeffs)
        a = (p + sq) // q if q > 0 else (-p - sq - 1) // (-q)
        coeffs.append(a)
        p = a * q - p
        q = (n - p * p) // q
    start = seen[(p, q)]
    return coeffs[:start], coeffs[start:]


def test_lazy_expansion_matches_the_eager_one():
    rng = random.Random(5303)
    radicands = (2, 3, 5, 6, 7, 10, 13, 19, 22, 31, 43, 46, 94, 103, 151, 331)
    negative = fractional = rescaled = 0
    for _ in range(240):
        s = QuadraticSurd(Fraction(rng.randint(-20, 20), rng.randint(1, 8)),
                          Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                                   rng.randint(1, 8)),
                          rng.choice(radicands))
        cap = rng.choice((8, 64, 512))
        pre, period = eager_expansion(s)
        expected = pre + [period[i % len(period)] for i in range(cap + 1)]
        cf = surd_to_cf(s, depth_cap=cap)
        assert cf.prefix(cap + 1) == tuple(expected[:cap + 1])
        for _ in range(2):
            with pytest.raises(DepthCapExceeded, match=f"index {cap + 1} exceeds"):
                cf.coefficient(cap + 1)
        assert len(cf._coeffs) == cap + 1
        negative += s.compare_rational(0) < 0
        fractional += s.rational.denominator > 1 or s.coef.denominator > 1
        rescaled += _initial_state(s)[3]
    assert min(negative, fractional, rescaled) >= 50


def test_surd_expansion_computes_only_what_is_read():
    # the whole period of this root has 1,103,497 coefficients
    cf = surd_to_cf(sqrt_of(999999999989))
    assert cf.prefix(12)[0] == 999999
    assert len(cf._coeffs) == 12


# ----------------------------------------------------- one field per value

def test_same_field_agrees_with_square_free_parts_of_exact_values():
    # exact values keep the radicand they were built with, square factors
    # included: surds given with one, periodic fixed points (the
    # discriminant), tails and error terms. same_field still reads one
    # quadratic field exactly where the square-free parts agree
    rng = random.Random(2805)
    streams = [surd_to_cf(QuadraticSurd(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                         Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                                         d * k * k))
               for d in (2, 3, 5, 6, 7, 10) for k in (1, 2, 3, 6)]
    streams += [random_periodic_cf(rng) for _ in range(40)]
    streams += [cf.tail(nu) for cf in streams[::3] for nu in (1, 2, 5)]
    values = [cf.exact_value() for cf in streams]
    values += [ErrorTerm(cf, nu).exact_value()
               for cf in streams[::2] for nu in (0, 1, 4)]
    assert None not in values
    parts = [squarefree_decompose(value.radicand)[1] for value in values]
    assert sum(part != value.radicand for value, part in zip(values, parts)) >= 20
    same = 0
    for (x, px), (y, py) in combinations(zip(values, parts), 2):
        assert x.same_field(y) == (px == py), (x, y)
        same += px == py and x.radicand != y.radicand
    assert same >= 100


# ------------------------------------------------------------- validation

def test_zero_and_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        ContinuedFraction.from_coefficients([1, 0, 2])
    with pytest.raises(ValueError):
        ContinuedFraction.periodic([1], [2, 0])
    with pytest.raises(ValueError):
        ContinuedFraction.periodic([1, -2], [3])
    with pytest.raises(ValueError):
        ContinuedFraction.periodic([1], [])
    # a0 itself may be any integer
    ContinuedFraction.from_coefficients([-5, 1, 2])


def test_rule_backing_requires_cap_and_validates():
    cf = ContinuedFraction.from_rule(lambda nu: 2 + nu % 3, depth_cap=10)
    assert cf.prefix(4) == (2, 3, 4, 2)
    with pytest.raises(DepthCapExceeded):
        cf.coefficient(11)
    bad = ContinuedFraction.from_rule(lambda nu: 0, depth_cap=10)
    with pytest.raises(ValueError):
        bad.coefficient(1)
