"""Structural coincidences between two expansions: dependence proofs,
the rigidity check, and the order-reversal pattern at shared denominators.

Run: python demos/coincidence_screening.py
"""

from fractions import Fraction

from irrmeasure import (QuadraticSurd, check_reversal_pattern, rigidity_scan,
                        scan_coincidences, sqrt_of, surd_to_cf)

sqrt2 = surd_to_cf(sqrt_of(2))
golden = surd_to_cf(QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5))
shifted = surd_to_cf(QuadraticSurd(Fraction(3), Fraction(1), 2))  # 3 + sqrt2

print("sqrt2 vs 3+sqrt2 -- same tail, so dependence is provable:")
log = scan_coincidences(sqrt2, shifted, depth=30)
print(f"  verdict {log.verdict.value}, combination {log.combination.value}, "
      f"{len(log.shared_pairs)} shared denominator pairs")
print()

print("phi vs sqrt2 -- coincidences die out immediately:")
log = scan_coincidences(golden, sqrt2, depth=40)
print(log.serialize())

print("rigidity scan (phi, sqrt2): hypotheses rarely align, and whenever")
print("they do the forced equalities must hold --")
print(" ", dict(rigidity_scan(golden, sqrt2, max_index=20).tally))
print("on the dependent pair the confirmed cases appear:",
      dict(rigidity_scan(sqrt2, shifted, max_index=10).tally))
print()

print("order reversal at the shared denominator q = 5 of (phi, sqrt2):")
for rec in check_reversal_pattern(golden, sqrt2, depth=12):
    print(f"  shared q={rec.shared_q}: applicable={rec.applicable}, "
          f"reversal one step earlier (t={rec.alpha_prev_time}): "
          f"{rec.reversal_at_alpha_prev}")
