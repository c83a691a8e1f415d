"""The irrationality measure function as an exact step trajectory.

psi(t) = min over 1 <= q <= t of the distance from q*x to the nearest
integer. It is right-continuous, non-increasing, and constant between
convergent denominators, so a trajectory is just the ordered breakpoints
(q_nu, xi_nu) plus the first denominator beyond the horizon.

`brute_force_psi_sweep` is the independent oracle: a direct scan over
all q with certified interval arithmetic. It never touches the convergent
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

    breakpoints: tuple[tuple[int, ErrorTerm], ...]
    qs: tuple[int, ...]
    next_q: int  # first denominator beyond the last breakpoint

    @property
    def horizon(self) -> int:
        return self.next_q - 1

    def jump_times(self) -> tuple[int, ...]:
        """Times where psi actually drops (every breakpoint except t=1)."""
        return self.qs[1:]


def build_trajectory(cf: ContinuedFraction, t_max: int, *,
                     depth: int = 0) -> StepTrajectory:
    """All breakpoints with q_nu <= t_max plus the first denominator
    beyond, which closes the last interval.

    When a_1 = 1 the two index-0/1 denominators collide at q = 1; only
    the later index is kept, matching the min semantics of psi. The
    table grows in one pass up to the first q_nu > t_max, reading a_0 ..
    a_end with end that first nu. The terms are built at depth 0, or
    with depth=1 one step refined, except the last, which stays at
    depth 0: a refined term of index nu reads row nu + 1 and a_{nu+2},
    both held once nu + 2 <= end, while the last one's step would read
    a_{end+1}. So neither depth reads a coefficient or adds a row the
    growth did not.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    end = cf.first_row_past(t_max)
    table = cf.rows(end + 1)
    start = 1 if end >= 2 and table[1][1] == 1 else 0
    qs = tuple(table[nu][1] for nu in range(start, end))
    terms = [ErrorTerm(cf, nu, depth=depth) for nu in range(start, end - 1)]
    terms.append(ErrorTerm(cf, end - 1))
    # consecutive terms must be certified strictly decreasing; the
    # depth-0 enclosures already separate and refined ones nest inside
    # them, so this check just certifies it
    if first_misordered(terms) is not None:
        raise AssertionError("breakpoint error terms are not strictly decreasing")
    return StepTrajectory(breakpoints=tuple(zip(qs, terms)), qs=qs,
                          next_q=table[end][1])


def psi_at(traj: StepTrajectory, t: int) -> ErrorTerm:
    """The error term of the unique nu with q_nu <= t < q_{nu+1}."""
    if t < 1:
        raise ValueError("psi is defined for t >= 1")
    if t > traj.horizon:
        raise OutOfHorizon(f"t = {t} beyond horizon {traj.horizon}",
                           origin="stepfunc.psi_at")
    return traj.breakpoints[bisect_right(traj.qs, t) - 1][1]


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


def brute_force_psi_sweep(value_lo: Fraction, value_hi: Fraction,
                          t_max: int) -> list[BruteForceMin]:
    """Direct certified scan of min ||q*x|| over 1 <= q <= t, for every
    t = 1 .. t_max in one incremental pass, for x strictly inside
    (value_lo, value_hi).

    The enclosure must be narrower than 1/(4*t_max^2); when the candidate
    intervals cannot be separated the scan raises PrecisionInsufficient
    instead of guessing, and the caller re-derives a tighter enclosure.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    value_lo, value_hi = Fraction(value_lo), Fraction(value_hi)
    den = lcm(value_lo.denominator, value_hi.denominator)
    lo_num = value_lo.numerator * (den // value_lo.denominator)
    hi_num = value_hi.numerator * (den // value_hi.denominator)
    if not lo_num < hi_num:
        raise ValueError("need a strict enclosure value_lo < value_hi")
    if (hi_num - lo_num) * 4 * t_max * t_max >= den:
        raise PrecisionInsufficient(
            f"enclosure width {Fraction(hi_num - lo_num, den)} is not below "
            f"1/(4*{t_max}^2)", origin="stepfunc.brute_force_psi_sweep")
    results: list[BruteForceMin] = []
    best_q = best_lo = best_hi = None
    for t in range(1, t_max + 1):
        dlo, dhi = _dist_bracket(t * lo_num, t * hi_num, den)
        if best_q is None or dhi <= best_lo:
            best_q, best_lo, best_hi = t, dlo, dhi
        elif dlo < best_hi:
            raise PrecisionInsufficient(
                f"cannot separate ||{t}x|| from ||{best_q}x||",
                origin="stepfunc.brute_force_psi_sweep")
        results.append(BruteForceMin(best_q, Fraction(best_lo, 2 * den),
                                     Fraction(best_hi, 2 * den)))
    return results
