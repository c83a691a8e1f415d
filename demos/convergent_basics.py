"""Expanding quadratic values and reading off their approximants.

Run: python demos/convergent_basics.py
"""

from fractions import Fraction

from irrmeasure import (QuadraticSurd, convergents, sqrt_of, star_value,
                        surd_to_cf)

sqrt2 = surd_to_cf(sqrt_of(2))
golden = surd_to_cf(QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5))

# expansion is lazy: a stream holds only the coefficients read so far
print("sqrt(2) -> coefficients", sqrt2.prefix(8), "held as", sqrt2)
print("(1+sqrt5)/2 -> coefficients", golden.prefix(8), "held as", golden)
print()

print("best rational approximations of sqrt(2):")
for c in convergents(sqrt2, 8):
    print(f"  nu={c.index}  p/q = {c.p}/{c.q}   ~{c.p / c.q:.10f}")
print()

print("the golden ratio's denominators are the Fibonacci numbers:")
print(" ", [c.q for c in convergents(golden, 12)])
print()

# the reversed-word ratio q_{nu-1}/q_nu condenses the whole prefix
for nu in (1, 2, 3, 6):
    print(f"sqrt(2) star value at nu={nu}: {star_value(sqrt2, nu)}")
print()

# tails shift the stream; their value is x -> 1/(x - a_j) stepped forward
t = sqrt2.tail(1)
print("tail of sqrt(2) at nu=1:", t.prefix(6), "value:", t.exact_value())
print("shifting the golden ratio is a no-op:", golden.tail(5).prefix(6))
