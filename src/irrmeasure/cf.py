"""Continued-fraction streams, convergents, and certified error terms.

Coefficient access is lazy behind a hard depth cap. Convergents follow the
classical two-term recurrence. The error terms |q_nu*x - p_nu| are kept as
strict rational enclosures driven by an integer Moebius state: consuming
one further coefficient tightens the bracket by a factor greater than two,
so certified comparisons terminate quickly whenever the values differ.

The enclosure ends are unreduced integer pairs num/den with positive
denominators, and compare_errors orders them by cross-multiplication
alone. Fractions appear only where a caller asks for one: ErrorTerm.lo,
.hi and .interval(), convergent and star values, and the exact values of
periodic backings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Sequence

from .errors import (DepthCapExceeded, DepthExhausted, RadicandError,
                     UndecidedComparison, UndecidedOrdering)
from .surd import QuadraticSurd

#: default hard cap on coefficient indices, so periodic and rule backings
#: can never be consumed forever by a runaway analysis
DEFAULT_DEPTH_CAP = 512


def _validate_coeffs(values: Sequence[int], *, first_is_a0: bool, what: str) -> None:
    for i, a in enumerate(values):
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"{what}: coefficient {a!r} is not an integer")
        if (i > 0 or not first_is_a0) and a < 1:
            raise ValueError(f"{what}: coefficient a_{i} = {a} must be >= 1")


class ContinuedFraction:
    """A stream a0; a1, a2, ... of partial quotients of an irrational.

    Backings: explicit finite list (test inputs only), eventually periodic
    (preperiod + period), or a generator rule under a declared depth cap.
    Instances are immutable apart from the cached exact value and the memo
    table of convergent rows (p_nu, q_nu, q_{nu-1}), which grows on demand
    up to the depth cap and is shared by every reader of the stream. Growth
    is not synchronised: share a stream across threads only for reading
    rows it already holds.
    """

    __slots__ = ("_finite", "_preperiod", "_period", "_rule", "depth_cap",
                 "_exact", "_exact_known", "_table")

    def __init__(self, *, finite=None, preperiod=None, period=None, rule=None,
                 depth_cap: int = DEFAULT_DEPTH_CAP, exact=None):
        if depth_cap < 1:
            raise ValueError("depth cap must be positive")
        self._finite = None
        self._preperiod = None
        self._period = None
        self._rule = None
        self.depth_cap = depth_cap
        self._exact = exact
        self._exact_known = exact is not None
        self._table: list[tuple[int, int, int]] = []
        if finite is not None:
            finite = tuple(finite)
            if not finite:
                raise ValueError("finite backing needs at least a0")
            _validate_coeffs(finite, first_is_a0=True, what="finite backing")
            self._finite = finite
        elif period is not None:
            preperiod = tuple(preperiod or ())
            period = tuple(period)
            if not period:
                raise ValueError("periodic backing needs a nonempty period")
            _validate_coeffs(preperiod, first_is_a0=True, what="preperiod")
            # period entries recur at indices >= 1, so all must be >= 1
            _validate_coeffs(period, first_is_a0=False, what="period")
            self._preperiod = preperiod
            self._period = period
        elif rule is not None:
            self._rule = rule
        else:
            raise ValueError("one of finite/period/rule is required")

    @classmethod
    def from_coefficients(cls, coefficients: Sequence[int],
                          depth_cap: int = DEFAULT_DEPTH_CAP) -> "ContinuedFraction":
        return cls(finite=coefficients, depth_cap=depth_cap)

    @classmethod
    def periodic(cls, preperiod: Sequence[int], period: Sequence[int],
                 depth_cap: int = DEFAULT_DEPTH_CAP) -> "ContinuedFraction":
        return cls(preperiod=preperiod, period=period, depth_cap=depth_cap)

    @classmethod
    def from_rule(cls, rule: Callable[[int], int], depth_cap: int) -> "ContinuedFraction":
        """Rule backings require an explicit hard cap."""
        return cls(rule=rule, depth_cap=depth_cap)

    @property
    def a0(self) -> int:
        return self.coefficient(0)

    def coefficient(self, nu: int) -> int:
        if nu < 0:
            raise ValueError("coefficient index must be >= 0")
        if nu > self.depth_cap:
            raise DepthCapExceeded(
                f"coefficient index {nu} exceeds the depth cap {self.depth_cap}",
                origin="cf.coefficient")
        if self._finite is not None:
            if nu >= len(self._finite):
                raise DepthExhausted(
                    f"finite backing has {len(self._finite)} coefficients, "
                    f"index {nu} requested", origin="cf.coefficient")
            return self._finite[nu]
        if self._period is not None:
            if nu < len(self._preperiod):
                return self._preperiod[nu]
            return self._period[(nu - len(self._preperiod)) % len(self._period)]
        a = self._rule(nu)
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"rule produced non-integer coefficient {a!r} at {nu}")
        if nu >= 1 and a < 1:
            raise ValueError(f"rule produced coefficient a_{nu} = {a} < 1")
        return a

    def convergent_row(self, nu: int) -> tuple[int, int, int]:
        """(p_nu, q_nu, q_{nu-1}) by the standard recurrence, read from the
        memo table. Growing the table reads coefficients in index order, so
        depth errors surface at the same index as a fresh walk from 0."""
        if nu < 0:
            raise ValueError("convergent index must be >= 0")
        table = self._table
        while len(table) <= nu:
            i = len(table)
            a = self.coefficient(i)
            if i == 0:
                table.append((a, 1, 0))
            else:
                p, q, q_prev = table[-1]
                p_prev = table[-2][0] if i >= 2 else 1
                table.append((a * p + p_prev, a * q + q_prev, q))
        return table[nu]

    def denominators(self, count: int) -> list[int]:
        """q_0 .. q_{count-1} from the memo table, grown as by
        convergent_row(count - 1)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self.convergent_row(count - 1)
        return [q for _, q, _ in self._table[:count]]

    def prefix(self, count: int) -> tuple[int, ...]:
        return tuple(self.coefficient(i) for i in range(count))

    def tail(self, nu: int) -> "ContinuedFraction":
        """The shifted stream a_nu; a_{nu+1}, ... (periodicity preserved)."""
        if nu < 0:
            raise ValueError("tail index must be >= 0")
        if nu == 0:
            return self
        self.coefficient(nu)  # availability check up front
        if self._finite is not None:
            return ContinuedFraction(finite=self._finite[nu:], depth_cap=self.depth_cap)
        if self._period is not None:
            m = len(self._preperiod)
            if nu < m:
                return ContinuedFraction(preperiod=self._preperiod[nu:],
                                         period=self._period, depth_cap=self.depth_cap)
            shift = (nu - m) % len(self._period)
            rotated = self._period[shift:] + self._period[:shift]
            return ContinuedFraction(preperiod=(), period=rotated,
                                     depth_cap=self.depth_cap)
        rule = self._rule
        return ContinuedFraction(rule=lambda j: rule(j + nu),
                                 depth_cap=self.depth_cap - nu)

    def exact_value(self) -> QuadraticSurd | None:
        """Exact quadratic value when derivable: attached by surd_to_cf or
        reconstructed from a periodic backing. None for rule and finite
        backings (and for periodic ones whose radicand cannot be certified
        square-free)."""
        if not self._exact_known:
            self._exact_known = True
            if self._period is not None:
                try:
                    self._exact = _periodic_value(self._preperiod, self._period)
                except RadicandError:
                    self._exact = None
        return self._exact

    def __repr__(self) -> str:
        if self._finite is not None:
            return f"ContinuedFraction(finite={list(self._finite)})"
        if self._period is not None:
            return (f"ContinuedFraction(preperiod={list(self._preperiod)}, "
                    f"period={list(self._period)})")
        return f"ContinuedFraction(rule=..., depth_cap={self.depth_cap})"


def _periodic_value(preperiod: tuple[int, ...], period: tuple[int, ...]) -> QuadraticSurd:
    """Exact value of an eventually periodic stream.

    The purely periodic part is the fixed point y > 1 of the Moebius map
    of one period word. The preperiod folds into one more integer map
    (P, Q; R, S), the homographic form of [a_0; a_1, ..., a_{m-1}, y], so
    the value is (P*y + Q)/(R*y + S): one division in y's field.
    """
    a11, a12, a21, a22 = 1, 0, 0, 1
    for a in period:
        a11, a12, a21, a22 = a11 * a + a12, a11, a21 * a + a22, a21
    disc = (a11 - a22) ** 2 + 4 * a12 * a21
    y = QuadraticSurd(Fraction(a11 - a22, 2 * a21), Fraction(1, 2 * a21), disc)
    if y.compare_rational(1) <= 0:
        raise AssertionError("periodic fixed point is not > 1")
    if not preperiod:
        return y
    P, Q, R, S = 1, 0, 0, 1
    for a in preperiod:
        P, Q, R, S = P * a + Q, P, R * a + S, R
    # (P*y + Q)/(R*y + S) = n/m with n = nr + nc*sqrt(d), m = mr + mc*sqrt(d);
    # multiplying by the conjugate of m leaves the root part c*(P*S - Q*R)
    d = y.radicand
    nr, nc = P * y.rational + Q, P * y.coef
    mr, mc = R * y.rational + S, R * y.coef
    norm = mr * mr - mc * mc * d
    return QuadraticSurd._trusted((nr * mr - nc * mc * d) / norm,
                                  y.coef * (P * S - Q * R) / norm, d)


@dataclass(frozen=True)
class Convergent:
    """The nu-th best rational approximation p/q of a stream."""

    index: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("convergent denominator must be positive")

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def convergents(cf: ContinuedFraction, count: int) -> list[Convergent]:
    """Convergents nu = 0 .. count-1 from the stream's memo table."""
    if count < 1:
        raise ValueError("count must be >= 1")
    cf.convergent_row(count - 1)
    return [Convergent(nu, p, q) for nu, (p, q, _) in enumerate(cf._table[:count])]


def star_value(cf: ContinuedFraction, nu: int) -> Fraction:
    """q_{nu-1}/q_nu in lowest terms; equals the reversed-word value
    [0; a_nu, a_{nu-1}, ..., a_1]."""
    if nu < 1:
        raise ValueError("star values need nu >= 1")
    _, q, q_prev = cf.convergent_row(nu)
    return Fraction(q_prev, q)


def tail(cf: ContinuedFraction, nu: int) -> ContinuedFraction:
    return cf.tail(nu)


class ErrorTerm:
    """Strict rational enclosure of xi_nu = |q_nu*x - p_nu|.

    Exactly xi_nu = 1/(q_nu*x_{nu+1} + q_{nu-1}) with x_{nu+1} the first
    unconsumed tail. The state is an integer Moebius map (e, f; g, h)
    applied to that tail; evaluating it at the next coefficient b and at
    b + 1 gives the two ends (e*b + f)/(g*b + h) and (e*(b+1) + f)/(g*(b+1) + h),
    and each refinement step consumes one more coefficient.

    The ends are stored unreduced as integer pairs (lo_num, lo_den) and
    (hi_num, hi_den), ordered by cross-multiplication. Every denominator
    is positive: g >= 1 and h >= 0 are sums of convergent denominators
    and b >= 1. Certified comparisons work on these pairs alone; `lo`,
    `hi` and `interval()` build the reduced Fractions on demand, for
    display and for callers that want rationals.

    Refinement mutates only this term; share terms read-only across
    threads and serialize refinement per term.
    """

    __slots__ = ("owner", "index", "depth", "p", "q", "q_prev",
                 "_e", "_f", "_g", "_h", "_next", "_b",
                 "lo_num", "lo_den", "hi_num", "hi_den")

    def __init__(self, owner: ContinuedFraction, index: int) -> None:
        if index < 0:
            raise ValueError("error-term index must be >= 0")
        p, q, q_prev = owner.convergent_row(index)
        self.owner = owner
        self.index = index
        self.depth = 0
        self.p, self.q, self.q_prev = p, q, q_prev
        self._advance(0, 1, q, q_prev, index + 1)

    def _advance(self, e: int, f: int, g: int, h: int, nxt: int) -> None:
        """Take the Moebius state (e, f; g, h), whose first unconsumed
        coefficient has index nxt, and evaluate the ends at that b. The
        coefficient is read before anything is assigned, so a depth error
        leaves the term as it was."""
        b = self.owner.coefficient(nxt)
        n1, d1 = e * b + f, g * b + h
        n2, d2 = n1 + e, d1 + g
        # the ends differ (the map is invertible), so one order is strict
        if n1 * d2 < n2 * d1:
            self.lo_num, self.lo_den, self.hi_num, self.hi_den = n1, d1, n2, d2
        else:
            self.lo_num, self.lo_den, self.hi_num, self.hi_den = n2, d2, n1, d1
        self._e, self._f, self._g, self._h, self._next, self._b = e, f, g, h, nxt, b

    def refine_once(self) -> None:
        """Consume one coefficient; the interval strictly shrinks and the
        new enclosure nests inside the old one. The coefficient consumed
        is the b the current ends were evaluated at, kept from that
        evaluation, so each step reads one coefficient."""
        b, e, g = self._b, self._e, self._g
        self._advance(e * b + self._f, e, g * b + self._h, g, self._next + 1)
        self.depth += 1

    def refine_to(self, depth: int) -> "ErrorTerm":
        while self.depth < depth:
            self.refine_once()
        return self

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.lo_den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.hi_den)

    def interval(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def exact_value(self) -> QuadraticSurd | None:
        """|q_nu*x - p_nu| as an exact surd when the owner has one."""
        value = self.owner.exact_value()
        if value is None:
            return None
        return value.times_rational(self.q).plus_rational(-self.p).abs()

    def __repr__(self) -> str:
        return (f"ErrorTerm(index={self.index}, q={self.q}, depth={self.depth}, "
                f"lo={self.lo}, hi={self.hi})")


def error_enclosure(cf: ContinuedFraction, nu: int, depth: int = 0) -> ErrorTerm:
    """Error term for index nu refined with `depth` extra coefficients."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return ErrorTerm(cf, nu).refine_to(depth)


class Ordering(Enum):
    LESS = "LESS"
    GREATER = "GREATER"


def compare_errors(x: ErrorTerm, y: ErrorTerm, max_depth: int = 64) -> Ordering:
    """Certified order of two error terms.

    Refines the wider enclosure first (x on equal widths) until the
    intervals separate. Raises UndecidedComparison when both refinement
    budgets are spent with the intervals still overlapping; equal values
    (dependent inputs) can never separate, which is exactly what this
    error reports. All tests are integer cross-multiplications, valid
    because every enclosure denominator is positive.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    while True:
        if x.hi_num * y.lo_den <= y.lo_num * x.hi_den:
            return Ordering.LESS
        if y.hi_num * x.lo_den <= x.lo_num * y.hi_den:
            return Ordering.GREATER
        if x.depth < max_depth:
            if y.depth < max_depth:
                # width = (hi_num*lo_den - lo_num*hi_den) / (hi_den*lo_den)
                x_den, y_den = x.hi_den * x.lo_den, y.hi_den * y.lo_den
                x_wider = ((x.hi_num * x.lo_den - x.lo_num * x.hi_den) * y_den
                           >= (y.hi_num * y.lo_den - y.lo_num * y.hi_den) * x_den)
                (x if x_wider else y).refine_once()
            else:
                x.refine_once()
        elif y.depth < max_depth:
            y.refine_once()
        else:
            raise UndecidedComparison(
                f"enclosures still overlap at depth {max_depth}: "
                f"({x.lo}, {x.hi}) vs ({y.lo}, {y.hi})",
                origin="cf.compare_errors", left=x, right=y)


def first_misordered(terms: Sequence[ErrorTerm], max_depth: int = 64) -> int | None:
    """Certify that terms[0] > terms[1] > ... strictly; return the index r
    of the first adjacency (terms[r], terms[r + 1]) that is not certified
    GREATER, or None when every one is.

    Each adjacency first gets the integer separation test compare_errors
    starts with, lower.hi <= upper.lo by cross-multiplication; only
    overlapping enclosures go to compare_errors, so the refinement steps
    taken are exactly those of one compare_errors(upper, lower) call per
    adjacency. An undecided adjacency raises UndecidedComparison.
    """
    for r in range(len(terms) - 1):
        upper, lower = terms[r], terms[r + 1]
        if lower.hi_num * upper.lo_den <= upper.lo_num * lower.hi_den:
            continue
        if compare_errors(upper, lower, max_depth) is not Ordering.GREATER:
            return r
    return None


def certified_order(x: ErrorTerm, y: ErrorTerm, max_depth: int, *, time: int,
                    pair: tuple[int, int], names: tuple[str, str],
                    origin: str) -> Ordering:
    """compare_errors for the step values of two tuple members at one time.

    An undecided comparison becomes UndecidedOrdering naming the time, the
    member pair (labels as the caller numbers them) and the calling step.
    """
    try:
        return compare_errors(x, y, max_depth)
    except UndecidedComparison as exc:
        raise UndecidedOrdering(
            f"cannot order members {names[0]} and {names[1]} at t = {time}",
            origin=origin, time=time, pair=pair) from exc


class CombinationKind(Enum):
    SUM_INTEGER = "SUM_INTEGER"
    DIFF_INTEGER = "DIFF_INTEGER"
    NEITHER = "NEITHER"


def integer_combination_check(a: QuadraticSurd, b: QuadraticSurd) -> CombinationKind:
    """Exact symbolic test whether a+b or a-b is an integer.

    Canonical forms make this field-wise: the root parts must cancel
    (sum) or agree (difference) and the rational part must be integral.
    """
    if a.radicand == b.radicand:
        if a.coef == -b.coef and (a.rational + b.rational).denominator == 1:
            return CombinationKind.SUM_INTEGER
        if a.coef == b.coef and (a.rational - b.rational).denominator == 1:
            return CombinationKind.DIFF_INTEGER
    return CombinationKind.NEITHER


def _floor_quadratic(p: int, s: int, q: int) -> int:
    """floor((p + sqrt(n))/q) with s = isqrt(n) and n not a perfect square."""
    if q > 0:
        return (p + s) // q
    # floor(-x) = -floor(x) - 1 for irrational x
    return (-p - s - 1) // (-q)


def surd_to_cf(s: QuadraticSurd, depth_cap: int = DEFAULT_DEPTH_CAP) -> ContinuedFraction:
    """Eventually periodic expansion of a quadratic surd.

    Classical complete-quotient iteration on (P + sqrt(N))/Q states with
    the invariant Q | N - P^2; the cycle is detected by the first repeated
    state. The exact value is attached to the result.
    """
    f = lcm(s.rational.denominator, s.coef.denominator)
    e = int(s.rational * f)
    g = int(s.coef * f)
    n = g * g * s.radicand
    if g > 0:
        p, q = e, f
    else:
        p, q = -e, -f
    if (n - p * p) % q:
        p *= abs(q)
        n *= q * q
        q *= abs(q)
    sq = isqrt(n)
    seen: dict[tuple[int, int], int] = {}
    coeffs: list[int] = []
    while (p, q) not in seen:
        if len(coeffs) > 8 * isqrt(n) + 10_000:
            raise AssertionError("complete-quotient iteration failed to cycle")
        seen[(p, q)] = len(coeffs)
        a = _floor_quadratic(p, sq, q)
        coeffs.append(a)
        p = a * q - p
        q = (n - p * p) // q
    start = seen[(p, q)]
    cf = ContinuedFraction(preperiod=coeffs[:start], period=coeffs[start:],
                           depth_cap=depth_cap, exact=s)
    return cf
