"""Seeded spec-file generation and output checks for the benchmark workloads.

Every item is one tuple-spec file plus the `irrmeasure` subcommand that
runs on it. Item i of a run draws from its own random.Random seeded with
"<workload>/<seed>/<i>", so an item does not depend on how many items a
run generates. Draws that the CLI would reject or fail on (dependent or
undecided pairs under the coincidence screening `TupleContext` applies,
and members in one quadratic field) are rejected here and tallied, so no
measured item fails by construction.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

from irrmeasure.bound import verify_with_retries
from irrmeasure.cf import ContinuedFraction, surd_to_cf
from irrmeasure.corpus import SQUAREFREE_POOL, random_surd
from irrmeasure.screening import Verdict, scan_coincidences
from irrmeasure.specfile import NumberSpec, TupleSpecFile, serialize_spec

#: screening depth proof-trace passes to `TupleContext`
CONTEXT_SCREEN_DEPTH = verify_with_retries.__kwdefaults__["screen_depth"]


def _period(rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))


def _periodic_member(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) drawn like corpus.random_periodic_cf's defaults:
    coefficients in 1..9, up to 2 preperiod terms after a0, period 1..4."""
    pre = [rng.randint(1, 9)] + [rng.randint(1, 9) for _ in range(rng.randint(0, 2))]
    return tuple(pre), _period(rng)


def _screened(cfs, depth: int, rejected: Counter) -> bool:
    """The pair screening TupleContext applies, required to find every pair
    INDEPENDENT_LIKELY, plus one stricter test: no two members in the same
    quadratic field. Two such members x, y make 1, x, y linearly dependent
    over Q; the screening only proves x +- y in Z, and an exact tie between
    their error terms then stops the analysis as an undecided ordering."""
    fields = [cf.exact_value().radicand for cf in cfs]
    if len(set(fields)) < len(fields):
        rejected["same_field"] += 1
        return False
    for i in range(len(cfs)):
        for j in range(i + 1, len(cfs)):
            verdict = scan_coincidences(cfs[i], cfs[j], depth=depth).verdict
            if verdict is not Verdict.INDEPENDENT_LIKELY:
                rejected[verdict.value.lower()] += 1
                return False
    return True


def replay_wide_spec(rng: random.Random, rejected: Counter, *, n: int,
                     t_max: int) -> str:
    """n surd members on distinct pool radicands, drawn like
    corpus.random_independent_members."""
    while True:
        surds = [random_surd(rng, radicand=d)
                 for d in rng.sample(SQUAREFREE_POOL, n)]
        cfs = [surd_to_cf(s) for s in surds]
        if _screened(cfs, CONTEXT_SCREEN_DEPTH, rejected):
            numbers = tuple(
                NumberSpec(name=f"x{i}", kind="surd", rational=s.rational,
                           root=s.coef, radicand=s.radicand)
                for i, s in enumerate(surds, 1))
            return serialize_spec(TupleSpecFile(numbers=numbers, t_max=t_max))


def verify_pairs_spec(rng: random.Random, rejected: Counter, *,
                      prefix: tuple[int, int], scan_depth: int) -> str:
    """Two periodic members sharing a prefix of `prefix` coefficients with
    different periods (equal ones fail the field test), and one unrelated
    periodic member."""
    while True:
        shared = tuple(rng.randint(1, 9) for _ in range(rng.randint(*prefix)))
        members = [(shared, _period(rng)), (shared, _period(rng)), _periodic_member(rng)]
        cfs = [ContinuedFraction.periodic(pre, per) for pre, per in members]
        if _screened(cfs, scan_depth, rejected):
            numbers = tuple(
                NumberSpec(name=f"m{i}", kind="periodic", preperiod=pre, period=per)
                for i, (pre, per) in enumerate(members, 1))
            return serialize_spec(TupleSpecFile(numbers=numbers))


# ------------------------------------------------------------ output checks
# Each check returns None when the output holds a fact that does not
# depend on the implementation, else a one-line description of the miss.

def check_proof_trace(out: str) -> str | None:
    lines = out.splitlines()
    bound = [line for line in lines if line.startswith("count_bound\t")]
    if len(bound) != 1 or not bound[0].endswith("\tok"):
        return f"count_bound line missing or not ok: {bound}"
    if "coverage\tok" not in lines:
        return "coverage is not ok"
    return None


def check_verify(out: str, pairs: int) -> str | None:
    scans = [line for line in out.splitlines() if line.startswith("rigidity_scan\t")]
    if len(scans) != pairs:
        return f"{len(scans)} rigidity_scan lines for {pairs} pairs"
    bad = [line for line in scans if not line.endswith("\tviolations\t0")]
    if bad:
        return f"rigidity violations: {bad}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]                   # subcommand and flags; the spec path goes second
    make_spec: Callable[[random.Random, Counter], str]
    check: Callable[[str], str | None]
    item_s: float                           # seconds per item on a fast host; sizes the item pool

    def command(self, spec_path: str) -> list[str]:
        return [self.argv[0], spec_path, *self.argv[1:]]


WORKLOADS = {
    w.name: w for w in (
        Workload("replay_wide", ("proof-trace",),
                 partial(replay_wide_spec, n=8, t_max=10 ** 60),
                 check_proof_trace, item_s=0.6),
        Workload("verify_pairs",
                 ("verify", "--max-index", "50", "--max-d", "4", "--scan-depth", "60"),
                 partial(verify_pairs_spec, prefix=(10, 25), scan_depth=60),
                 partial(check_verify, pairs=3), item_s=2.0),
    )
}


def generate(workload: Workload, seed: int, count: int) -> tuple[list[str], Counter]:
    """Spec texts of items 0 .. count-1 and the rejected draws by reason."""
    rejected: Counter = Counter()
    specs = [workload.make_spec(random.Random(f"{workload.name}/{seed}/{i}"), rejected)
             for i in range(count)]
    return specs, rejected
