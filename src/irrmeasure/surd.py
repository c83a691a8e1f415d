"""Exact elements rational + coef*sqrt(radicand) of real quadratic fields.

Radicands are normalized square-free, so equality is field-wise. Every
comparison is decided exactly by rational sign tests: the sign of
r + c*sqrt(d) follows from comparing r*r with c*c*d, and two surds, in one
field or two, are ordered by squaring once (see QuadraticSurd.compare).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt

from .errors import RadicandError

#: trial-division bound used when certifying square-freeness of radicands
SQUAREFREE_BOUND = 10 ** 6


def squarefree_decompose(n: int, bound: int = SQUAREFREE_BOUND) -> tuple[int, int]:
    """Split ``n = s*s*d`` with ``d`` square-free; returns ``(s, d)``.

    Rejects inputs whose unfactored residual exceeds ``bound**2``, since
    such a residual could still hide a square factor. That message gives
    sizes, not digits: the interpreter refuses to print an integer of more
    than 4,300 digits.
    """
    if n <= 0:
        raise RadicandError(f"radicand must be positive, got {n}",
                            origin="surd.squarefree_decompose")
    s, d, rest = 1, 1, n
    f = 2
    while f * f <= rest:
        if f > bound:
            raise RadicandError(
                f"cannot certify square-freeness of a {n.bit_length()}-bit "
                f"radicand: its {rest.bit_length()}-bit residual exceeds "
                f"{bound}**2", origin="surd.squarefree_decompose")
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    # the residual is 1, a prime, or a product of two distinct primes
    return s, d * rest


def sqrt_enclosure(d: int, digits: int) -> tuple[Fraction, Fraction]:
    """Strict rational bracket of sqrt(d) at 10**-digits resolution.

    d must not be a perfect square; then d*10**(2*digits) is not one
    either, so both bounds are strict.
    """
    scale = 10 ** digits
    s = isqrt(d * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


def _sign_linear(r: Fraction, c: Fraction, d: int) -> int:
    """Exact sign of r + c*sqrt(d) for a non-square d >= 2."""
    if c == 0:
        return (r > 0) - (r < 0)
    if r == 0:
        return 1 if c > 0 else -1
    if r > 0 and c > 0:
        return 1
    if r < 0 and c < 0:
        return -1
    lhs, rhs = c * c * d, r * r
    if lhs == rhs:
        raise AssertionError(f"sqrt({d}) behaved rationally: {r} + {c}*sqrt({d})")
    if c > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _nonzero(coef: Fraction) -> Fraction:
    if coef == 0:
        raise RadicandError("root coefficient must be nonzero (value "
                            "would be rational)", origin="surd.QuadraticSurd")
    return coef


@dataclass(frozen=True)
class QuadraticSurd:
    """Canonical a + b*sqrt(d): d square-free >= 2, b != 0.

    Canonical form makes dataclass equality value equality.
    """

    rational: Fraction
    coef: Fraction
    radicand: int

    def __post_init__(self) -> None:
        rational = Fraction(self.rational)
        coef = _nonzero(Fraction(self.coef))
        s, d = squarefree_decompose(int(self.radicand))
        if d == 1:
            raise RadicandError(
                f"radicand {self.radicand} is a perfect square (value would "
                "be rational)", origin="surd.QuadraticSurd")
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "coef", coef * s)
        object.__setattr__(self, "radicand", d)

    @classmethod
    def _trusted(cls, rational: Fraction, coef: Fraction,
                 radicand: int) -> "QuadraticSurd":
        """Same field as a canonical surd: the radicand is already
        certified square-free, so only the nonzero root part is checked.
        Both parts must already be Fractions."""
        surd = object.__new__(cls)
        object.__setattr__(surd, "rational", rational)
        object.__setattr__(surd, "coef", _nonzero(coef))
        object.__setattr__(surd, "radicand", radicand)
        return surd

    # -- arithmetic used by the expansion and error-term machinery --
    # results stay in this surd's field, so they skip re-certification

    def plus_rational(self, x) -> "QuadraticSurd":
        return QuadraticSurd._trusted(self.rational + Fraction(x), self.coef,
                                      self.radicand)

    def times_rational(self, x) -> "QuadraticSurd":
        x = Fraction(x)
        if x == 0:
            raise ValueError("scaling a surd by zero degenerates it")
        return QuadraticSurd._trusted(self.rational * x, self.coef * x,
                                      self.radicand)

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd._trusted(-self.rational, -self.coef, self.radicand)

    def reciprocal(self) -> "QuadraticSurd":
        norm = self.rational * self.rational - self.coef * self.coef * self.radicand
        # norm == 0 would make sqrt(radicand) rational
        return QuadraticSurd._trusted(self.rational / norm, -self.coef / norm,
                                      self.radicand)

    def sign(self) -> int:
        return _sign_linear(self.rational, self.coef, self.radicand)

    def abs(self) -> "QuadraticSurd":
        return self if self.sign() > 0 else -self

    # -- comparisons --

    def compare_rational(self, x) -> int:
        """Sign of self - x for rational x."""
        return _sign_linear(self.rational - Fraction(x), self.coef, self.radicand)

    def compare(self, other: "QuadraticSurd") -> int:
        """Exact sign of self - other; 0 means exact equality.

        self - other = A - B with A = (r - r') + c*sqrt(d), B = c'*sqrt(d'),
        both nonzero as d, d' are non-squares. A decides if the signs differ,
        else sign(A) * sign(A^2 - B^2) does, A^2 - B^2 being in Q(sqrt(d)).
        Fixed cost in one field or two: two _sign_linear calls, no enclosure.
        """
        dr, c, d = self.rational - other.rational, self.coef, self.radicand
        sign_a = _sign_linear(dr, c, d)
        if (sign_a > 0) != (other.coef > 0):
            return sign_a
        return sign_a * _sign_linear(dr * dr + c * c * d
                                     - other.coef * other.coef * other.radicand,
                                     2 * dr * c, d)

    def enclosure(self, digits: int) -> tuple[Fraction, Fraction]:
        """Strict rational interval containing the value."""
        lo, hi = sqrt_enclosure(self.radicand, digits)
        if self.coef > 0:
            return self.rational + self.coef * lo, self.rational + self.coef * hi
        return self.rational + self.coef * hi, self.rational + self.coef * lo

    # -- display only --

    def __float__(self) -> float:
        return float(self.rational) + float(self.coef) * sqrt(self.radicand)

    def __str__(self) -> str:
        sign = "+" if self.coef > 0 else "-"
        return f"{self.rational} {sign} {abs(self.coef)}*sqrt({self.radicand})"


def sqrt_of(n: int) -> QuadraticSurd:
    """The positive square root of a non-square positive integer."""
    return QuadraticSurd(Fraction(0), Fraction(1), n)
