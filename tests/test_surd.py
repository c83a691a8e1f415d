"""Exact quadratic-field elements: value equality, fields, signs,
enclosures."""

import decimal
import random
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

import irrmeasure.surd as surd_module
from irrmeasure import (SQUAREFREE_POOL, QuadraticSurd, sqrt_of,
                        squarefree_decompose)
from irrmeasure.errors import RadicandError

from conftest import oracle_sqrt_interval


def test_squarefree_decompose_extracts_square_factors():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)
    assert squarefree_decompose(97) == (1, 97)


def test_squarefree_decompose_rejects_uncertifiable_residual():
    # residual 10**9+7 is prime and exceeds bound**2 = 10**4
    with pytest.raises(RadicandError):
        squarefree_decompose(10 ** 9 + 7, bound=100)
    with pytest.raises(RadicandError):
        squarefree_decompose(0)


def test_uncertifiable_residual_past_the_printable_digit_limit():
    # str() refuses integers of more than 4,300 digits, so the message
    # gives bit lengths; the error is a RadicandError, not a ValueError
    n = 10 ** 4999 + 7      # 5,000 digits, no prime factor below 100
    with pytest.raises(RadicandError, match="16607-bit radicand"):
        squarefree_decompose(n, bound=100)


@given(st.integers(min_value=2, max_value=5000))
def test_squarefree_decompose_roundtrip(n):
    s, d = squarefree_decompose(n)
    assert s * s * d == n
    for f in range(2, 71):
        assert d % (f * f) != 0


def test_radicand_is_kept_and_equality_is_by_value():
    a = QuadraticSurd(Fraction(0), Fraction(1), 8)
    b = QuadraticSurd(Fraction(0), Fraction(2), 2)
    assert a == b and hash(a) == hash(b)
    assert a.radicand == 8 and a.coef == 1
    assert a.same_field(b)


def test_value_equality_and_hash_across_square_factors():
    # r + c*sqrt(d) and r + (c/k)*sqrt(k*k*d) are one value; flipping the
    # root's sign or scaling only the radicand gives another
    rng = random.Random(2906)
    for _ in range(300):
        d = rng.choice(SQUAREFREE_POOL)
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        k = rng.randint(2, 12)
        x = QuadraticSurd(r, c, d)
        y = QuadraticSurd(r, c / k, d * k * k)
        assert x == y and hash(x) == hash(y) and x.compare(y) == 0
        assert len({x, y, QuadraticSurd(r, c * k, d)}) == 2
        assert {x: "x"}[y] == "x"
        for other in (QuadraticSurd(r, -c, d), QuadraticSurd(r, c / k, d),
                      QuadraticSurd(r + 1, c / k, d * k * k), -y):
            assert x != other and other != y
    assert sqrt_of(2) != 2 ** 0.5 and sqrt_of(2) != (0, 1, 2)


def test_same_field_agrees_with_square_free_parts():
    # Q(sqrt(a)) = Q(sqrt(b)) exactly when a and b have one square-free
    # part; same_field decides it without factoring
    nonsquares = [n for n in range(2, 301) if isqrt(n) ** 2 != n]
    parts = {n: squarefree_decompose(n)[1] for n in nonsquares}
    roots = {n: sqrt_of(n) for n in nonsquares}
    same = 0
    for a in nonsquares:
        for b in nonsquares:
            assert roots[a].same_field(roots[b]) == (parts[a] == parts[b]), (a, b)
            same += a != b and parts[a] == parts[b]
    assert len(nonsquares) == 283 and same >= 300


def test_degenerate_surds_rejected():
    with pytest.raises(RadicandError):
        QuadraticSurd(Fraction(1), Fraction(0), 2)   # rational value
    with pytest.raises(RadicandError):
        QuadraticSurd(Fraction(1), Fraction(1), 9)   # perfect square
    with pytest.raises(RadicandError):
        QuadraticSurd(Fraction(1), Fraction(1), -3)


def test_sign_and_rational_comparison():
    r2 = sqrt_of(2)
    assert r2.sign() == 1
    assert (-r2).sign() == -1
    assert QuadraticSurd(Fraction(1), Fraction(-1), 2).sign() == -1   # 1 - sqrt2
    assert QuadraticSurd(Fraction(2), Fraction(-1), 2).sign() == 1    # 2 - sqrt2
    assert r2.compare_rational(Fraction(3, 2)) == -1
    assert r2.compare_rational(Fraction(7, 5)) == 1
    assert r2.compare_rational(1) == 1


def test_same_field_compare_is_exact():
    x = QuadraticSurd(Fraction(1), Fraction(2), 2)
    y = QuadraticSurd(Fraction(3), Fraction(1), 2)
    # 1 + 2*sqrt2 = 3.828..., 3 + sqrt2 = 4.414...
    assert x.compare(y) == -1
    assert y.compare(x) == 1
    assert x.compare(x) == 0


def test_cross_field_compare_terminates():
    assert sqrt_of(2).compare(sqrt_of(3)) == -1
    assert sqrt_of(5).compare(sqrt_of(3)) == 1
    # values close together: 1 + sqrt(2) = 2.4142 vs sqrt(6) = 2.4495
    close = QuadraticSurd(Fraction(1), Fraction(1), 2)
    assert close.compare(sqrt_of(6)) == -1


@pytest.fixture
def no_enclosures(monkeypatch):
    """compare must decide without any decimal enclosure."""
    def refuse(*args):
        raise AssertionError("compare computed an enclosure")

    monkeypatch.setattr(QuadraticSurd, "enclosure", refuse)
    monkeypatch.setattr(surd_module, "sqrt_enclosure", refuse)


@pytest.mark.parametrize("p, q, sign", [
    # convergents 42 and 41 of sqrt(2), below and above it
    (14398739476117879, 10181446324101389, 1),
    (5964153172084899, 4217293152016490, -1),
])
def test_cross_field_compare_refines_past_30_digits(no_enclosures, p, q, sign):
    # sqrt(2) - p/q is about 3.4e-33, so 30-digit enclosures of sqrt(2)
    # and p/q + 1e-40*sqrt(3) would overlap; compare squares instead
    close = QuadraticSurd(Fraction(p, q), Fraction(1, 10 ** 40), 3)
    assert sqrt_of(2).compare(close) == sign
    assert close.compare(sqrt_of(2)) == -sign


def test_compare_accepts_non_square_radicands_that_are_not_square_free(
        no_enclosures):
    # the constructor keeps radicand 8 as given; equal values give 0
    def surd(r, c, d):
        return QuadraticSurd(Fraction(r), Fraction(c), d)

    assert surd(0, 1, 8).radicand == 8

    pairs = [(surd(0, 2, 2), surd(0, 1, 8), 0),                  # 2√2 = √8
             (surd(0, 1, 2), surd(0, 1, 8), -1),                 # √2 < √8
             (surd(1, 1, 2), surd(1, Fraction(1, 2), 8), 0)]     # 1 + ½√8
    for x, y, sign in pairs:
        assert x.compare(y) == sign
        assert y.compare(x) == -sign


def _decimal_sign(x: QuadraticSurd, y: QuadraticSurd) -> int:
    """Sign of x - y from 220-digit decimal arithmetic; == is value
    equality."""
    if x == y:
        return 0
    with decimal.localcontext() as ctx:
        ctx.prec = 220

        def value(s):
            return (Decimal(s.rational.numerator) / s.rational.denominator
                    + Decimal(s.coef.numerator) / s.coef.denominator
                    * Decimal(s.radicand).sqrt())

        gap = value(x) - value(y)
    assert abs(gap) > Decimal(10) ** -200, (x, y)
    return 1 if gap > 0 else -1


def test_compare_matches_a_decimal_oracle():
    rng = random.Random(26)

    def part(nonzero=False):
        num = rng.randint(-30, 30)
        while nonzero and num == 0:
            num = rng.randint(-30, 30)
        return Fraction(num, rng.randint(1, 12))

    equal = same_field = 0
    for _ in range(2400):
        x = QuadraticSurd(part(), part(True), rng.choice(SQUAREFREE_POOL))
        kind = rng.random()
        if kind < 0.05:
            # the same value, built from a radicand with a square factor
            s = rng.randint(1, 4)
            y = QuadraticSurd(x.rational, x.coef / s, x.radicand * s * s)
        elif kind < 0.35:
            y = QuadraticSurd(rng.choice((x.rational, part())),
                              rng.choice((x.coef, -x.coef, part(True))),
                              x.radicand)
        else:
            y = QuadraticSurd(part(), part(True), rng.choice(SQUAREFREE_POOL))
        sign = _decimal_sign(x, y)
        equal += sign == 0
        same_field += x.same_field(y)
        assert x.compare(y) == sign, (x, y)
        assert y.compare(x) == -sign, (x, y)
    assert equal >= 100 and 700 <= same_field <= 1000


def _sqrt2_convergent(k: int) -> tuple[int, int]:
    """The first convergent p/q of sqrt(2) with q*q > 10**(k + 5)."""
    p, q = 1, 1
    while q * q <= 10 ** (k + 5):
        p, q = p + 2 * q, p + q
    return p, q


@pytest.mark.parametrize("k", [40, 80, 150])
@pytest.mark.parametrize("coef_sign", [1, -1])
def test_compare_near_ties_match_a_decimal_oracle(no_enclosures, k, coef_sign):
    # |sqrt(2) - p/q| < 1/q**2 < 10**-(k+5), so the gap is about 10**-k*sqrt(3)
    p, q = _sqrt2_convergent(k)
    close = QuadraticSurd(Fraction(p, q), Fraction(coef_sign, 10 ** k), 3)
    sign = _decimal_sign(close, sqrt_of(2))
    assert sign == coef_sign
    assert close.compare(sqrt_of(2)) == sign
    assert sqrt_of(2).compare(close) == -sign


def test_enclosure_brackets_the_value():
    lo, hi = sqrt_of(2).enclosure(30)
    olo, ohi = oracle_sqrt_interval(2, 30)
    assert lo == olo and hi == ohi
    neg = QuadraticSurd(Fraction(1), Fraction(-1), 2)   # 1 - sqrt2 < 0
    lo, hi = neg.enclosure(20)
    assert lo < hi < 0
    assert (hi - lo) == Fraction(1, 10 ** 20)


def test_reciprocal_and_shift_arithmetic():
    x = QuadraticSurd(Fraction(1), Fraction(1), 2)      # 1 + sqrt2
    assert x.reciprocal() == QuadraticSurd(Fraction(-1), Fraction(1), 2)
    assert x.reciprocal().reciprocal() == x
    assert x.plus_rational(Fraction(1, 2)).rational == Fraction(3, 2)
    assert x.times_rational(2) == QuadraticSurd(Fraction(2), Fraction(2), 2)
    assert (-x).abs() == x


def test_field_preserving_operations_skip_recertification(no_factoring):
    # each derived surd keeps its radicand, square factors included, and
    # is the one the constructor builds from the same parts; no operation
    # and no construction factors a radicand
    rng = random.Random(2026)
    surds = [QuadraticSurd(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                           Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                    rng.randint(1, 9)),
                           rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
                           * rng.randint(1, 6) ** 2)
             for _ in range(40)]
    xs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
          for _ in surds]

    def derived():
        for s, x in zip(surds, xs):
            norm = s.rational ** 2 - s.coef ** 2 * s.radicand
            yield s.plus_rational(x), (s.rational + x, s.coef, s.radicand)
            yield s.times_rational(x), (s.rational * x, s.coef * x, s.radicand)
            yield -s, (-s.rational, -s.coef, s.radicand)
            yield s.reciprocal(), (s.rational / norm, -s.coef / norm, s.radicand)

    for value, parts in derived():
        assert (value.rational, value.coef, value.radicand) == parts
        assert value == QuadraticSurd(*parts)
    with pytest.raises(ValueError, match="scaling a surd by zero"):
        surds[0].times_rational(0)


@given(st.fractions(min_value=-3, max_value=3),
       st.fractions(min_value=-3, max_value=3).filter(lambda f: f != 0),
       st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]))
def test_sign_matches_float_oracle(r, c, d):
    surd = QuadraticSurd(r, c, d)
    value = float(surd)
    if abs(value) > 1e-9:
        assert surd.sign() == (1 if value > 0 else -1)
