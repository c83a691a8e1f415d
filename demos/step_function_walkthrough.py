"""The measure step function of one number, with its certified enclosures
and the brute-force cross-check.

Run: python demos/step_function_walkthrough.py
"""

from irrmeasure import (brute_force_psi_sweep, build_trajectory, psi_at,
                        serialize_trajectory, sqrt_of, surd_to_cf)

sqrt2 = surd_to_cf(sqrt_of(2))
traj = build_trajectory(sqrt2, 1000)

print("breakpoints of psi for sqrt(2) up to t = 1000:")
print(serialize_trajectory(traj))

t = 100
term = psi_at(traj, t)
print(f"psi(t={t}) is the step of q = {term.q}: "
      f"({term.lo}, {term.hi}) ~{float((term.lo + term.hi) / 2):.8f}")
# all jumps sit at integers, so the left limit at t is the value at t - 1
before = psi_at(traj, 169 - 1)
print(f"left limit at the jump t = 169 is still the q = {before.q} step")
print()

# refining an enclosure consumes one more coefficient per step
print("refinement trail of the q = 169 error term:")
term = psi_at(traj, 169)
for _ in range(4):
    lo, hi = term.interval()
    print(f"  depth {term.depth}: ({lo}, {hi})  width {float(hi - lo):.3e}")
    term.refine_once()
print()

# the brute-force oracle scans every q directly; it needs an enclosure
# of the value itself, here taken from the exact backend
value = sqrt2.exact_value()
vlo, vhi = value.enclosure(30)
result = brute_force_psi_sweep(vlo, vhi, t)[-1]
print(f"brute-force scan at t = {t}: argmin q = {result.q}, "
      f"value in ({result.lo}, {result.hi})")
print("agrees with the trajectory:", result.q == psi_at(traj, t).q)
