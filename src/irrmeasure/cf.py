"""Continued-fraction streams, convergents, and certified error terms.

Every stream reads its coefficients from one memo list, filled lazily by
a source behind a hard depth cap. Convergents follow the classical
two-term recurrence. The error terms |q_nu*x - p_nu| are kept as
strict rational enclosures driven by an integer Moebius state: consuming
one further coefficient tightens the bracket by a factor greater than two,
so certified comparisons terminate quickly whenever the values differ.

The enclosure ends are unreduced integer pairs num/den with positive
denominators, and compare_errors orders them by cross-multiplication
alone; their widths come from the Moebius state's determinant. Fractions
appear only where a caller asks for one: ErrorTerm.lo, .hi and
.interval(), convergent and star values, and the exact values of
periodic backings.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import Callable, Sequence

from . import surd
from .errors import (DepthCapExceeded, DepthExhausted, RadicandError,
                     UndecidedComparison, UndecidedOrdering)
from .surd import QuadraticSurd

#: default hard cap on coefficient indices, so no stream can be read
#: forever by a runaway analysis
DEFAULT_DEPTH_CAP = 512

#: default refinement budget of a certified comparison: how many further
#: coefficients each enclosure may consume before the order is undecided
DEFAULT_COMPARE_DEPTH = 64


def _validate_coeffs(values: Sequence[int], what: str, start: int = 0) -> None:
    """Check the coefficients a_start, a_{start+1}, ... = values: each is
    an int (not a bool), and those at index >= 1 are >= 1. Messages name
    the absolute index."""
    for i, a in enumerate(values, start):
        if type(a) is not int:
            raise ValueError(f"{what}: coefficient a_{i} = {a!r} is not an integer")
        if a < 1 and i:
            raise ValueError(f"{what}: coefficient a_{i} = {a} must be >= 1")


class ContinuedFraction:
    """A stream a0; a1, a2, ... of partial quotients of an irrational.

    Every stream reads its coefficients one way: from a memo list that a
    source fills in index order. The source is a callable taking the next
    index. The constructors differ only in the source and the exact value
    they pass:

    - from_coefficients: an explicit list (test inputs only); reading past
      its end raises DepthExhausted;
    - periodic: the preperiod, then the period cycled; the exact value is
      the period word's fixed point, computed on first request;
    - from_rule: rule(i), validated, under a declared depth cap;
    - surd_to_cf: complete quotients of a quadratic surd, computed only as
      far as a reader asks.

    No index past depth_cap is ever read. A source error leaves the memo
    as it was, so the next read of that index asks the source again and
    meets the same error. Three memos grow on demand, in index order, and
    are shared by every reader of the stream: the coefficients, the table
    of convergent rows (p_nu, q_nu, q_{nu-1}), and the pair index
    (q_nu, q_{nu+1}) -> nu. The table grows to an index in one pass: the
    missing coefficients are read first, in index order and up to the
    depth cap, then the rows are extended by the recurrence from the last
    two. When a read fails, the error propagates before any row is added,
    so a failed growth leaves the table as it was; the coefficients read
    before the failing index stay memoized. Growth to a bound on q_nu
    (first_row_past) cannot know the last index before it reads, so it
    adds one row per coefficient read. The index is injective (q_nu
    grows strictly from nu = 1 on), its size is the number of rows it
    covers, and each row it adds is asserted coprime and new. Growth is
    not synchronised: share a stream across threads only for reading what
    it already holds.
    """

    __slots__ = ("_source", "_coeffs", "depth_cap", "_exact", "_table", "_pairs")

    def __init__(self, source: Callable[[int], int],
                 depth_cap: int = DEFAULT_DEPTH_CAP, exact=None):
        """`exact` is the stream's value, None, or a callable without
        arguments that returns one of those on first request. A depth cap
        of 0, as on the tail at the cap, leaves only a0 readable."""
        if depth_cap < 0:
            raise ValueError("depth cap must be >= 0")
        self._source = source
        self._coeffs: list[int] = []
        self.depth_cap = depth_cap
        self._exact = exact
        self._table: list[tuple[int, int, int]] = []
        self._pairs: dict[tuple[int, int], int] = {}

    @classmethod
    def from_coefficients(cls, coefficients: Sequence[int],
                          depth_cap: int = DEFAULT_DEPTH_CAP) -> "ContinuedFraction":
        values = tuple(coefficients)
        if not values:
            raise ValueError("finite backing needs at least a0")
        _validate_coeffs(values, "finite backing")

        def source(i: int) -> int:
            if i < len(values):
                return values[i]
            raise DepthExhausted(
                f"finite backing has {len(values)} coefficients, "
                f"index {i} requested", origin="cf.coefficient")
        return cls(source, depth_cap)

    @classmethod
    def periodic(cls, preperiod: Sequence[int], period: Sequence[int],
                 depth_cap: int = DEFAULT_DEPTH_CAP) -> "ContinuedFraction":
        preperiod, period = tuple(preperiod), tuple(period)
        if not period:
            raise ValueError("periodic backing needs a nonempty period")
        m = len(preperiod)
        _validate_coeffs(preperiod, "preperiod")
        # period[j] is a_{start + j}, with start >= 1 as the period recurs
        _validate_coeffs(period, "period", m or len(period))
        return cls(lambda i: preperiod[i] if i < m else period[(i - m) % len(period)],
                   depth_cap, exact=lambda: _periodic_value(preperiod, period))

    @classmethod
    def from_rule(cls, rule: Callable[[int], int], depth_cap: int) -> "ContinuedFraction":
        """Rule backings require an explicit hard cap."""
        def source(nu: int) -> int:
            a = rule(nu)
            _validate_coeffs((a,), "rule", nu)
            return a
        return cls(source, depth_cap)

    def coefficient(self, nu: int) -> int:
        coeffs = self._coeffs
        if 0 <= nu < len(coeffs):
            return coeffs[nu]
        if nu < 0:
            raise ValueError("coefficient index must be >= 0")
        if nu > self.depth_cap:
            raise DepthCapExceeded(
                f"coefficient index {nu} exceeds the depth cap {self.depth_cap}",
                origin="cf.coefficient")
        while len(coeffs) <= nu:
            coeffs.append(self._source(len(coeffs)))
        return coeffs[nu]

    def first_difference(self, i: int, other: "ContinuedFraction", j: int,
                         count: int) -> int | None:
        """The first k < count with a_{i+k} != b_{j+k}, this stream being a
        and other b, or None. Reads come in index order, a_{i+k} before
        b_{j+k}; those the memos already hold make no call."""
        if i < 0 or j < 0:
            raise ValueError("coefficient index must be >= 0")
        ca, cb = self._coeffs, other._coeffs
        for k in range(count):
            c = ca[i + k] if i + k < len(ca) else self.coefficient(i + k)
            d = cb[j + k] if j + k < len(cb) else other.coefficient(j + k)
            if c != d:
                return k
        return None

    def convergent_row(self, nu: int) -> tuple[int, int, int]:
        """(p_nu, q_nu, q_{nu-1}) by the standard recurrence, read from the
        memo table; a row already there is returned at once. Growth reads
        the missing coefficients in index order, up to the depth cap, then
        extends the rows, so depth errors surface at the same index as a
        fresh walk from 0, and a failed growth adds no row."""
        table = self._table
        if nu < len(table) and nu >= 0:
            return table[nu]
        if nu < 0:
            raise ValueError("convergent index must be >= 0")
        coeffs = self._coeffs
        if len(coeffs) <= nu:
            cap = self.depth_cap
            self.coefficient(nu if nu <= cap else cap)
            if nu > cap:
                self.coefficient(cap + 1)    # raises the walk's cap error
        p, p_prev, q, q_prev = self._last_rows()
        for a in coeffs[len(table):nu + 1]:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            table.append((p, q, q_prev))
        return table[nu]

    def first_row_past(self, t: int) -> int:
        """The first nu with q_nu > t. The table grows one row per
        coefficient read and stops at that row, so the coefficients read,
        the rows added and any depth error are those of convergent_row(0),
        convergent_row(1), ... up to that nu."""
        table = self._table
        nu = bisect_right(table, t, key=itemgetter(1))    # q_nu never falls
        if nu < len(table):
            return nu
        coeffs = self._coeffs
        p, p_prev, q, q_prev = self._last_rows()
        while True:
            a = coeffs[nu] if nu < len(coeffs) else self.coefficient(nu)
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            table.append((p, q, q_prev))
            if q > t:
                return nu
            nu += 1

    def _last_rows(self) -> tuple[int, int, int, int]:
        """(p, p_prev, q, q_prev) of the table's last two rows, the rows at
        -1 and -2 standing in for missing ones."""
        table = self._table
        if not table:
            return 1, 0, 0, 1
        p, q, q_prev = table[-1]
        return p, table[-2][0] if len(table) > 1 else 1, q, q_prev

    def rows(self, count: int) -> list[tuple[int, int, int]]:
        """The memo table, read-only for callers, grown to at least count
        rows as by convergent_row(count - 1)."""
        if len(self._table) < count:
            self.convergent_row(count - 1)
        return self._table

    def denominators(self, count: int) -> list[int]:
        """q_0 .. q_{count-1} from the memo table, grown as by
        convergent_row(count - 1)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [q for _, q, _ in self.rows(count)[:count]]

    def pair_index(self, count: int) -> dict[tuple[int, int], int]:
        """The pair index, read-only for callers, grown to cover at least
        nu < count once the table has grown as by convergent_row(count), so
        a depth error leaves it as it was; each added row is asserted
        coprime, gcd(q_nu, q_{nu+1}) = 1, and new."""
        pairs = self._pairs
        if len(pairs) < count:
            table = self.rows(count + 1)
            for nu in range(len(pairs), count):
                _, q_next, q = table[nu + 1]
                # setdefault adds the row, or returns the row that holds its key
                if gcd(q, q_next) != 1 or pairs.setdefault((q, q_next), nu) != nu:
                    raise AssertionError(f"denominator row {nu} ({q}, {q_next}) "
                                         "is not coprime or repeats an earlier row")
        return pairs

    def prefix(self, count: int) -> tuple[int, ...]:
        return tuple(self.coefficient(i) for i in range(count))

    def tail(self, nu: int) -> "ContinuedFraction":
        """The shifted stream a_nu; a_{nu+1}, ..., read from this one, with
        depth cap depth_cap - nu."""
        if nu < 0:
            raise ValueError("tail index must be >= 0")
        if nu == 0:
            return self
        self.coefficient(nu)  # availability check up front

        def value() -> QuadraticSurd | None:
            x = self.exact_value()
            if x is None:
                return None
            for j in range(nu):
                x = x.plus_rational(-self.coefficient(j)).reciprocal()
            return x
        return ContinuedFraction(lambda j: self.coefficient(nu + j),
                                 self.depth_cap - nu, exact=value)

    def exact_value(self) -> QuadraticSurd | None:
        """Exact quadratic value when derivable, computed once: the surd
        given to surd_to_cf, or the fixed-point value of a periodic
        backing. A tail steps its parent's value forward by
        x -> 1/(x - a_j), so it has a value exactly when the parent has.
        None for rule and finite backings, and for periodic ones whose
        radicand cannot be certified square-free."""
        if callable(self._exact):
            self._exact = self._exact()
        return self._exact

    def __repr__(self) -> str:
        return f"ContinuedFraction(read={self._coeffs}, depth_cap={self.depth_cap})"


def _periodic_value(preperiod: tuple[int, ...],
                    period: tuple[int, ...]) -> QuadraticSurd | None:
    """Exact value of an eventually periodic stream, or None when the
    fixed point's discriminant cannot be certified square-free.

    The purely periodic part is the fixed point y = (A + sqrt(D))/(2c) > 1
    of the period word's Moebius map (a11, a12; c, a22): A = a11 - a22 and
    D = A^2 + 4*a12*c. The preperiod folds into one more integer map
    (P, Q; R, S), the homographic form of [a_0; a_1, ..., a_{m-1}, y], so
    the value is (P*y + Q)/(R*y + S). With n = P*A + 2c*Q and
    m = R*A + 2c*S, multiplying by the conjugate of m + R*sqrt(D) gives

        (n*m - P*R*D + 2c*(P*S - Q*R)*sqrt(D)) / (m^2 - R^2*D),

    all in integers: D is decomposed once, s^2*d with d square-free, and
    only the two parts become Fractions. D is never a square, so d >= 2:
    D = tr^2 - 4*det for the word's trace tr = a11 + a22 and determinant
    det = (-1)^len. At odd length D = tr^2 + 4 with tr >= 1, and at even
    length D = tr^2 - 4 with tr >= 3 (a11 >= 2 and a22 >= 1, as every
    entry is >= 1), and no square lies 4 from tr^2 for such tr.
    """
    a11, a12, c, a22 = 1, 0, 0, 1
    for a in period:
        a11, a12, c, a22 = a11 * a + a12, a11, c * a + a22, c
    A = a11 - a22
    D = A * A + 4 * a12 * c
    try:
        s, d = surd.squarefree_decompose(D)
    except RadicandError:
        return None
    # y > 1 means sqrt(D) > 2c - A
    if 2 * c - A >= 0 and D <= (2 * c - A) ** 2:
        raise AssertionError("periodic fixed point is not > 1")
    P, Q, R, S = 1, 0, 0, 1
    for a in preperiod:
        P, Q, R, S = P * a + Q, P, R * a + S, R
    n, m = P * A + 2 * c * Q, R * A + 2 * c * S
    norm = m * m - R * R * D
    return QuadraticSurd._trusted(Fraction(n * m - P * R * D, norm),
                                  Fraction(2 * c * (P * S - Q * R) * s, norm), d)


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
    return [Convergent(nu, p, q) for nu, (p, q, _) in enumerate(cf.rows(count)[:count])]


def star_value(cf: ContinuedFraction, nu: int) -> Fraction:
    """q_{nu-1}/q_nu in lowest terms; equals the reversed-word value
    [0; a_nu, a_{nu-1}, ..., a_1]."""
    if nu < 1:
        raise ValueError("star values need nu >= 1")
    _, q, q_prev = cf.convergent_row(nu)
    return Fraction(q_prev, q)


class ErrorTerm:
    """Strict rational enclosure of xi_nu = |q_nu*x - p_nu|.

    Exactly xi_nu = 1/(q_nu*x_{nu+1} + q_{nu-1}) with x_{nu+1} the first
    unconsumed tail. The state is an integer Moebius map (e, f; g, h)
    applied to that tail; evaluating it at the next coefficient b and at
    b + 1 gives the two ends (e*b + f)/(g*b + h) and (e*(b+1) + f)/(g*(b+1) + h),
    and each refinement step consumes one more coefficient.

    The ends are stored unreduced as integer pairs (lo_num, lo_den) and
    (hi_num, hi_den). Every denominator is positive: g >= 1 and h >= 0 are
    sums of convergent denominators and b >= 1. Certified comparisons work
    on these pairs alone; `lo`, `hi` and `interval()` build the reduced
    Fractions on demand, for display and for callers that want rationals.

    The ends' cross difference is the state's determinant: with
    n1/d1 = (e*b + f)/(g*b + h) and n2/d2 = (n1 + e)/(d1 + g),
    n2*d1 - n1*d2 = e*h - f*g. The first state (0, 1; q_nu, q_{nu-1}) has
    determinant -q_nu and each step negates it, so it is -q_nu*(-1)^depth.
    Hence the ends need no comparison to be ordered (at even depth the
    b + 1 end is the lower one, at odd depth the b end), and
    hi_num*lo_den - lo_num*hi_den = q_nu at every depth: the width is
    q_nu/(hi_den*lo_den).

    A term is built at depth 0 or, with depth=1, one step refined: the
    first step consumes a_{nu+1} and leaves the state
    (1, 0; q_{nu+1}, q_nu), whose ends are a_{nu+2}/q_{nu+2} and
    (a_{nu+2} + 1)/(q_{nu+2} + q_{nu+1}). That state is read off row
    nu + 1, so the term is the depth-0 one refined once, slot for slot,
    without the step.

    Refinement mutates only this term; share terms read-only across
    threads and serialize refinement per term.
    """

    __slots__ = ("owner", "index", "depth", "p", "q", "q_prev",
                 "_e", "_f", "_g", "_h", "_next", "_b",
                 "lo_num", "lo_den", "hi_num", "hi_den")

    def __init__(self, owner: ContinuedFraction, index: int, *,
                 depth: int = 0) -> None:
        if index < 0:
            raise ValueError("error-term index must be >= 0")
        if depth not in (0, 1):
            raise ValueError("an error term is built at depth 0 or 1")
        # growing the table to row index + depth grows it to row index too
        q_next = owner.convergent_row(index + depth)[1]
        p, q, q_prev = owner._table[index]
        self.owner = owner
        self.index = index
        self.p, self.q, self.q_prev = p, q, q_prev
        if depth:
            self._advance(1, 0, q_next, q, index + 2)
        else:
            self._advance(0, 1, q, q_prev, index + 1)

    def _advance(self, e: int, f: int, g: int, h: int, nxt: int) -> None:
        """Take the Moebius state (e, f; g, h), whose first unconsumed
        coefficient has index nxt, at depth nxt - index - 1, and evaluate
        the ends at that b, ordered by the depth's parity. The coefficient
        is read before anything is assigned, so a depth error leaves the
        term as it was; one the memo holds is taken without a call, as in
        first_difference."""
        coeffs = self.owner._coeffs
        b = coeffs[nxt] if nxt < len(coeffs) else self.owner.coefficient(nxt)
        n1, d1 = e * b + f, g * b + h
        depth = nxt - self.index - 1
        if depth & 1:
            self.lo_num, self.lo_den, self.hi_num, self.hi_den = n1, d1, n1 + e, d1 + g
        else:
            self.lo_num, self.lo_den, self.hi_num, self.hi_den = n1 + e, d1 + g, n1, d1
        self._e, self._f, self._g, self._h, self._next, self._b = e, f, g, h, nxt, b
        self.depth = depth

    def refine_once(self) -> None:
        """Consume one coefficient; the interval strictly shrinks and the
        new enclosure nests inside the old one. The coefficient consumed
        is the b the current ends were evaluated at, kept from that
        evaluation, so each step reads one coefficient."""
        b, e, g = self._b, self._e, self._g
        self._advance(e * b + self._f, e, g * b + self._h, g, self._next + 1)

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


class Ordering(Enum):
    LESS = "LESS"
    GREATER = "GREATER"


def compare_errors(x: ErrorTerm, y: ErrorTerm,
                   max_depth: int = DEFAULT_COMPARE_DEPTH) -> Ordering:
    """Certified order of two error terms.

    Refines the wider enclosure first (x on equal widths) until the
    intervals separate. Raises UndecidedComparison when both refinement
    budgets are spent with the intervals still overlapping; equal values
    (dependent inputs) can never separate, which is exactly what this
    error reports. All tests are integer cross-multiplications, valid
    because every enclosure denominator is positive; a width is
    q/(hi_den*lo_den), by the determinant identity of ErrorTerm.
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
                if x.q * y.hi_den * y.lo_den >= y.q * x.hi_den * x.lo_den:
                    x.refine_once()
                else:
                    y.refine_once()
            else:
                x.refine_once()
        elif y.depth < max_depth:
            y.refine_once()
        else:
            raise UndecidedComparison(
                f"enclosures still overlap at depth {max_depth}: "
                f"({x.lo}, {x.hi}) vs ({y.lo}, {y.hi})",
                origin="cf.compare_errors", left=x, right=y)


def certified_above(upper: ErrorTerm, lower: ErrorTerm,
                    max_depth: int = DEFAULT_COMPARE_DEPTH) -> bool:
    """Whether upper > lower is certified: the adjacency certificate.

    It first runs the integer separation test compare_errors starts with,
    lower.hi <= upper.lo by cross-multiplication; only overlapping
    enclosures go to compare_errors, so the refinement steps taken are
    exactly those of one compare_errors(upper, lower) call. An undecided
    pair raises UndecidedComparison.
    """
    return (lower.hi_num * upper.lo_den <= upper.lo_num * lower.hi_den
            or compare_errors(upper, lower, max_depth) is Ordering.GREATER)


def first_misordered(terms: Sequence[ErrorTerm],
                     max_depth: int = DEFAULT_COMPARE_DEPTH) -> int | None:
    """Certify that terms[0] > terms[1] > ... strictly; return the index r
    of the first adjacency (terms[r], terms[r + 1]) that certified_above
    does not certify, or None when every one is. An undecided adjacency
    raises UndecidedComparison.
    """
    for r in range(len(terms) - 1):
        if not certified_above(terms[r], terms[r + 1], max_depth):
            return r
    return None


def certified_order(x: ErrorTerm, y: ErrorTerm, max_depth: int, *, time: int,
                    pair: tuple[int, int], names: Sequence[str],
                    origin: str) -> Ordering:
    """compare_errors for the step values of two tuple members at one time.

    An undecided comparison becomes UndecidedOrdering naming the time, the
    member pair (labels as the caller numbers them, from 1) and the calling
    step; names is the caller's whole label-to-name sequence, read at pair.
    """
    try:
        return compare_errors(x, y, max_depth)
    except UndecidedComparison as exc:
        i, j = pair
        raise UndecidedOrdering(
            f"cannot order members {names[i - 1]} and {names[j - 1]} "
            f"at t = {time}", origin=origin, time=time, pair=pair) from exc


class CombinationKind(Enum):
    """Two exact values in one quadratic field (SAME_FIELD) or in two."""
    SAME_FIELD = "SAME_FIELD"
    NEITHER = "NEITHER"


def _floor_quadratic(p: int, s: int, q: int) -> int:
    """floor((p + sqrt(n))/q) with s = isqrt(n) and n not a perfect square."""
    if q > 0:
        return (p + s) // q
    # floor(-x) = -floor(x) - 1 for irrational x
    return (-p - s - 1) // (-q)


def surd_to_cf(s: QuadraticSurd, depth_cap: int = DEFAULT_DEPTH_CAP) -> ContinuedFraction:
    """Lazy expansion of a quadratic surd, with s as its exact value.

    Classical complete-quotient iteration (Khinchin, Continued Fractions,
    section 10): x_i = (P + sqrt(N))/Q with Q | N - P^2 gives a_i = floor(x_i),
    then P' = a_i*Q - P and Q' = (N - P'^2)/Q. Each new index takes one
    step, so only the quotients a reader asks for are computed, and never
    one past the depth cap.
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

    def source(_: int) -> int:
        nonlocal p, q
        a = _floor_quadratic(p, sq, q)
        p = a * q - p
        q = (n - p * p) // q
        return a
    return ContinuedFraction(source, depth_cap, exact=s)
