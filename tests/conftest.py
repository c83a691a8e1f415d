"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's convergent and
error-term machinery: values are enclosed by folding coefficient
prefixes with plain Fraction interval arithmetic, square roots come from
integer isqrt at explicit decimal scales, and minima are found by direct
scans. That keeps the oracle path disjoint from the code it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import settings

import irrmeasure.surd
from irrmeasure import (ContinuedFraction, ErrorTerm, QuadraticSurd, sqrt_of,
                        surd_to_cf)


# the property tests draw the same examples on every run, and no example
# database carries a failure from one run into the next
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


# ---------------------------------------------------------------- oracles

def oracle_sqrt_interval(d: int, digits: int) -> tuple[Fraction, Fraction]:
    """Strict bracket of sqrt(d) from integer isqrt; d not a square."""
    scale = 10 ** digits
    s = isqrt(d * scale * scale)
    assert s * s != d * scale * scale
    return Fraction(s, scale), Fraction(s + 1, scale)


def oracle_fold_interval(cf, depth: int) -> tuple[Fraction, Fraction]:
    """Enclosure of the stream's value by backward-folding `depth`
    coefficients: the final tail lies in (a_depth, a_depth + 1)."""
    a = cf.coefficient(depth)
    lo, hi = Fraction(a), Fraction(a + 1)
    for i in range(depth - 1, -1, -1):
        a = cf.coefficient(i)
        lo, hi = a + 1 / hi, a + 1 / lo
    return lo, hi


def oracle_value_interval(cf, width: Fraction) -> tuple[Fraction, Fraction]:
    """Fold until the enclosure is narrower than `width`."""
    depth = 4
    while True:
        lo, hi = oracle_fold_interval(cf, depth)
        if hi - lo < width:
            return lo, hi
        depth += 4


def oracle_min_scan(lo: Fraction, hi: Fraction, t_max: int):
    """Independent incremental scan of min ||q*x|| for q <= t, t = 1..t_max.

    Integer arithmetic over a common denominator; returns one
    (argmin, lo, hi) triple per t with the interval over denominator
    2*den. Raises if the enclosure cannot separate the candidates.
    """
    den = lo.denominator * hi.denominator
    a = lo.numerator * hi.denominator
    b = hi.numerator * lo.denominator
    rows = []
    best_q = best_lo = best_hi = None
    for t in range(1, t_max + 1):
        ta, tb = t * a, t * b
        fa, ra = divmod(ta, den)
        fb, rb = divmod(tb, den)
        if fa == fb:
            if 2 * rb <= den:
                dlo, dhi = 2 * ra, 2 * rb
            elif 2 * ra >= den:
                dlo, dhi = 2 * (den - rb), 2 * (den - ra)
            else:
                dlo, dhi = min(2 * ra, 2 * (den - rb)), den
        else:
            dlo, dhi = 0, max(2 * (den - ra), 2 * rb)
        if best_q is None or dhi <= best_lo:
            best_q, best_lo, best_hi = t, dlo, dhi
        elif dlo < best_hi:
            raise AssertionError(f"oracle enclosure too wide at t={t}")
        rows.append((best_q, Fraction(best_lo, 2 * den), Fraction(best_hi, 2 * den)))
    return rows


def fib_sequence(count: int) -> list[int]:
    """1, 1, 2, 3, 5, 8, ... (the golden-ratio convergent denominators)."""
    seq = [1, 1]
    while len(seq) < count:
        seq.append(seq[-1] + seq[-2])
    return seq[:count]


def pell_denominators(count: int) -> list[int]:
    """1, 2, 5, 12, 29, ... (the sqrt(2) convergent denominators)."""
    seq = [1, 2]
    while len(seq) < count:
        seq.append(2 * seq[-1] + seq[-2])
    return seq[:count]


def pell_numerators(count: int) -> list[int]:
    """1, 3, 7, 17, 41, ... (the sqrt(2) convergent numerators)."""
    seq = [1, 3]
    while len(seq) < count:
        seq.append(2 * seq[-1] + seq[-2])
    return seq[:count]


def term_slots(term: ErrorTerm) -> list:
    """Every slot of an error term, in __slots__ order."""
    return [getattr(term, name) for name in ErrorTerm.__slots__]


def intervals_overlap(a: tuple[Fraction, Fraction],
                      b: tuple[Fraction, Fraction]) -> bool:
    return max(a[0], b[0]) <= min(a[1], b[1])


# ---------------------------------------------------------------- fixtures

GOLDEN = QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)


@pytest.fixture
def no_factoring(monkeypatch):
    """No radicand may be factored: squarefree_decompose raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a radicand was factored")

    monkeypatch.setattr(irrmeasure.surd, "squarefree_decompose", refuse)


@pytest.fixture
def sqrt2_cf() -> ContinuedFraction:
    return surd_to_cf(sqrt_of(2))


@pytest.fixture
def phi_cf() -> ContinuedFraction:
    return surd_to_cf(GOLDEN)


@pytest.fixture
def sqrt2_periodic() -> ContinuedFraction:
    """sqrt(2) as an explicit periodic description, no attached value."""
    return ContinuedFraction.periodic([1], [2])


@pytest.fixture
def phi_periodic() -> ContinuedFraction:
    return ContinuedFraction.periodic([1], [1])
