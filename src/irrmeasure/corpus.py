"""Seeded random inputs for regression corpora.

Everything takes an explicit random.Random; there is no hidden entropy,
so corpora are reproducible from their seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cf import DEFAULT_DEPTH_CAP, ContinuedFraction, surd_to_cf
from .screening import DEFAULT_SCAN_DEPTH, Verdict, scan_coincidences
from .surd import QuadraticSurd

SQUAREFREE_POOL = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23,
                   26, 29, 31, 33, 34, 35, 37, 38, 39, 41, 42, 43, 46, 47)


def random_periodic_cf(rng: random.Random, *, max_coeff: int = 9,
                       max_preperiod: int = 2, max_period: int = 4,
                       depth_cap: int = DEFAULT_DEPTH_CAP) -> ContinuedFraction:
    a0 = rng.randint(1, max_coeff)
    pre = [a0] + [rng.randint(1, max_coeff)
                  for _ in range(rng.randint(0, max_preperiod))]
    per = [rng.randint(1, max_coeff) for _ in range(rng.randint(1, max_period))]
    return ContinuedFraction.periodic(pre, per, depth_cap=depth_cap)


def random_shared_prefix_pair(rng: random.Random, *,
                              prefix: tuple[int, int] = (10, 25),
                              max_coeff: int = 9, max_period: int = 4,
                              depth_cap: int = DEFAULT_DEPTH_CAP
                              ) -> tuple[ContinuedFraction, ContinuedFraction]:
    """Two periodic streams with one random preperiod of prefix[0] ..
    prefix[1] coefficients (a0 included) and periods of 1 .. max_period.

    With m shared coefficients they share q_0 .. q_{m-1}, so matched
    denominators are frequent, yet they lie in distinct quadratic fields,
    which makes 1, a, b linearly independent over Q.
    """
    while True:
        shared = [rng.randint(1, max_coeff) for _ in range(rng.randint(*prefix))]
        periods = [[rng.randint(1, max_coeff)
                    for _ in range(rng.randint(1, max_period))]
                   for _ in range(2)]
        a, b = (ContinuedFraction.periodic(shared, period, depth_cap=depth_cap)
                for period in periods)
        va, vb = a.exact_value(), b.exact_value()
        if va is not None and vb is not None and va.radicand != vb.radicand:
            return a, b


def random_surd(rng: random.Random, *, radicand: int | None = None) -> QuadraticSurd:
    d = radicand if radicand is not None else rng.choice(SQUAREFREE_POOL)
    coef = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    rational = Fraction(rng.randint(0, 3), rng.randint(1, 2))
    return QuadraticSurd(rational, coef, d)


def random_independent_members(rng: random.Random, n: int, *,
                               screen_depth: int = DEFAULT_SCAN_DEPTH,
                               max_attempts: int = 200) -> list[ContinuedFraction]:
    """n pairwise-independent surd-backed streams.

    Members get distinct radicands, so distinct fields: every pair is
    independent, no screening verdict is DEPENDENT, and every cross
    comparison terminates. Screening still rejects late coincidences.
    """
    if n > len(SQUAREFREE_POOL):
        raise ValueError("not enough distinct radicands in the pool")
    for _ in range(max_attempts):
        radicands = rng.sample(SQUAREFREE_POOL, n)
        cfs = [surd_to_cf(random_surd(rng, radicand=d)) for d in radicands]
        ok = all(
            scan_coincidences(cfs[i], cfs[j], depth=screen_depth).verdict
            is Verdict.INDEPENDENT_LIKELY
            for i in range(n) for j in range(i + 1, n)
        )
        if ok:
            return cfs
    raise RuntimeError("could not assemble an independent tuple")
