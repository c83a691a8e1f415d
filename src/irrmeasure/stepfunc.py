"""The irrationality measure function as an exact step trajectory.

psi(t) = min over 1 <= q <= t of the distance from q*x to the nearest
integer. It is right-continuous, non-increasing, and constant between
convergent denominators, so a trajectory is just the ordered breakpoints
(q_nu, xi_nu) plus the first denominator beyond the horizon.

`brute_force_psi` is the independent oracle: a direct scan over all q
with certified interval arithmetic. It never touches the convergent
machinery, so trajectory and oracle can check each other.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cf import ContinuedFraction, ErrorTerm, first_misordered
from .errors import OutOfHorizon, PrecisionInsufficient


@dataclass(frozen=True)
class StepTrajectory:
    """Breakpoints (q_nu, xi_nu); the value on [q_nu, q_{nu+1}) is xi_nu."""

    owner: ContinuedFraction
    breakpoints: tuple[tuple[int, ErrorTerm], ...]
    qs: tuple[int, ...]
    next_q: int  # first denominator beyond the last breakpoint

    @property
    def horizon(self) -> int:
        return self.next_q - 1

    def jump_times(self) -> tuple[int, ...]:
        """Times where psi actually drops (every breakpoint except t=1)."""
        return self.qs[1:]


def build_trajectory(cf: ContinuedFraction, t_max: int) -> StepTrajectory:
    """All breakpoints with q_nu <= t_max plus the first denominator
    beyond, which closes the last interval.

    When a_1 = 1 the two index-0/1 denominators collide at q = 1; only
    the later index is kept, matching the min semantics of psi.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    kept: list[tuple[int, int]] = []
    nu = 0
    _, q, _ = cf.convergent_row(0)
    while q <= t_max:
        kept.append((nu, q))
        nu += 1
        _, q, _ = cf.convergent_row(nu)
    if len(kept) >= 2 and kept[1][1] == 1:
        kept = kept[1:]
    terms = tuple((qv, ErrorTerm(cf, index)) for index, qv in kept)
    # consecutive terms must be certified strictly decreasing; the
    # depth-0 enclosures already separate, this check just certifies it
    if first_misordered([e for _, e in terms]) is not None:
        raise AssertionError("breakpoint error terms are not strictly decreasing")
    return StepTrajectory(owner=cf, breakpoints=terms,
                          qs=tuple(qv for qv, _ in terms), next_q=q)


def psi_at(traj: StepTrajectory, t: int) -> ErrorTerm:
    """The error term of the unique nu with q_nu <= t < q_{nu+1}."""
    if t < 1:
        raise ValueError("psi is defined for t >= 1")
    if t > traj.horizon:
        raise OutOfHorizon(f"t = {t} beyond horizon {traj.horizon}",
                           origin="stepfunc.psi_at")
    return traj.breakpoints[bisect_right(traj.qs, t) - 1][1]


def psi_left_limit(traj: StepTrajectory, t: int) -> ErrorTerm:
    """The left limit at t; since all jumps sit at integers this is the
    value at t - 1."""
    if t < 2:
        raise ValueError("left limits need t >= 2")
    return psi_at(traj, t - 1)


def serialize_trajectory(traj: StepTrajectory) -> str:
    """Line-delimited records: q <tab> xi_lo <tab> xi_hi, rationals as num/den."""
    lines = []
    for q, e in traj.breakpoints:
        lo, hi = e.interval()
        lines.append(f"{q}\t{lo.numerator}/{lo.denominator}\t{hi.numerator}/{hi.denominator}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BruteForceMin:
    """Certified minimum of ||q*x|| over q <= t: the argmin q and a strict
    rational interval for the minimal value."""

    q: int
    lo: Fraction
    hi: Fraction


def _scaled(value_lo: Fraction, value_hi: Fraction) -> tuple[int, int, int]:
    den = lcm(value_lo.denominator, value_hi.denominator)
    return (value_lo.numerator * (den // value_lo.denominator),
            value_hi.numerator * (den // value_hi.denominator),
            den)


def _dist_bracket(lo_num: int, hi_num: int, den: int) -> tuple[int, int]:
    """Bracket of distance-to-nearest-integer over (lo_num/den, hi_num/den),
    as integer numerators over 2*den. Interval width must be < 1/2."""
    fa, ra = divmod(lo_num, den)
    fb, rb = divmod(hi_num, den)
    if fa == fb:
        if 2 * rb <= den:
            return 2 * ra, 2 * rb
        if 2 * ra >= den:
            return 2 * (den - rb), 2 * (den - ra)
        return min(2 * ra, 2 * (den - rb)), den
    # the interval straddles the integer fb
    return 0, max(2 * (den - ra), 2 * rb)


def _sweep_core(lo_num: int, hi_num: int, den: int, t_max: int,
                origin: str) -> list[tuple[int, int, int]]:
    if not lo_num < hi_num:
        raise ValueError("need a strict enclosure value_lo < value_hi")
    if (hi_num - lo_num) * 4 * t_max * t_max >= den:
        raise PrecisionInsufficient(
            f"enclosure width {Fraction(hi_num - lo_num, den)} is not below "
            f"1/(4*{t_max}^2)", origin=origin)
    results: list[tuple[int, int, int]] = []
    best_q = best_lo = best_hi = None
    for t in range(1, t_max + 1):
        dlo, dhi = _dist_bracket(t * lo_num, t * hi_num, den)
        if best_q is None or dhi <= best_lo:
            best_q, best_lo, best_hi = t, dlo, dhi
        elif dlo < best_hi:
            raise PrecisionInsufficient(
                f"cannot separate ||{t}x|| from ||{best_q}x||", origin=origin)
        results.append((best_q, best_lo, best_hi))
    return results


def brute_force_psi(value_lo: Fraction, value_hi: Fraction, t: int) -> BruteForceMin:
    """Direct certified scan of min ||q*x|| over 1 <= q <= t for x strictly
    inside (value_lo, value_hi).

    The enclosure must be narrower than 1/(4*t^2); when the candidate
    intervals cannot be separated the scan raises PrecisionInsufficient
    instead of guessing, and the caller re-derives a tighter enclosure.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    lo_num, hi_num, den = _scaled(Fraction(value_lo), Fraction(value_hi))
    q, d_lo, d_hi = _sweep_core(lo_num, hi_num, den, t,
                                "stepfunc.brute_force_psi")[-1]
    return BruteForceMin(q, Fraction(d_lo, 2 * den), Fraction(d_hi, 2 * den))


def brute_force_psi_sweep(value_lo: Fraction, value_hi: Fraction,
                          t_max: int) -> list[BruteForceMin]:
    """Batch form of brute_force_psi: the certified minimum for every
    t = 1 .. t_max in one incremental pass."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    lo_num, hi_num, den = _scaled(Fraction(value_lo), Fraction(value_hi))
    rows = _sweep_core(lo_num, hi_num, den, t_max, "stepfunc.brute_force_psi_sweep")
    half = 2 * den
    return [BruteForceMin(q, Fraction(d_lo, half), Fraction(d_hi, half))
            for q, d_lo, d_hi in rows]
