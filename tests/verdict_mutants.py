"""Mutants of the verdict sites, kept as data, and a runner that scores them.

Each mutant is one exact string replacement in one file under src/. The
runner first runs the tier-1 suite on an unchanged copy of the
repository, which must pass. Then, for each mutant, it applies the
replacement in a fresh temporary copy, runs the suite there, less the
table test that checks the mutants against the unmutated sources, and
prints one table row: how many tests fail, and in which files. A mutant
that no test kills is either equivalent, and its entry gives the reason,
or a verdict no test can flip yet.

pytest does not collect this file. Run it from anywhere, optionally
naming mutants:

    python tests/verdict_mutants.py [NAME ...]

Each mutant costs one tier-1 run, about 30 s on a 2-CPU VM.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: checks each mutant's `old` text against the unmutated sources, so it
#: fails in every mutated copy and kills no mutant by what it tests
TABLE_TEST = "tests/test_verdict_mutants_table.py"


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    old: str            # must occur exactly once in the file
    new: str
    equivalent: str | None = None     # why no test can kill it


MUTANTS = (
    Mutant("margin_k >= 0 -> > 0", "src/irrmeasure/bound.py",
           "margin_k >= 0", "margin_k > 0"),
    Mutant("n_j <= k - j + 2 -> <", "src/irrmeasure/bound.py",
           "k - j + 2, n_j <= k - j + 2)", "k - j + 2, n_j < k - j + 2)"),
    Mutant("margin_count >= 0 -> > 0", "src/irrmeasure/bound.py",
           "ok=margin_count >= 0", "ok=margin_count > 0"),
    Mutant("coverage counts[m] == 1 -> >= 1", "src/irrmeasure/bound.py",
           "counts[m] == 1", "counts[m] >= 1"),
    Mutant("coverage skips the member above the last", "src/irrmeasure/bound.py",
           "_covered_once(sigmas[0][:-1],", "_covered_once(sigmas[0][:-2],"),
    Mutant("coverage problem never raised", "src/irrmeasure/bound.py",
           "if not trace.coverage_ok:", "if False:"),
    Mutant("max_tau > k_hat -> >=", "src/irrmeasure/bound.py",
           "report.max_tau > report.k_hat", "report.max_tau >= report.k_hat"),
    Mutant("restricted check skips the last earlier ordering",
           "src/irrmeasure/bound.py",
           "for s in range(1, j - 1))", "for s in range(1, j - 2))"),
    Mutant("restricted problem never raised", "src/irrmeasure/bound.py",
           "if not all(trace.restricted_ok.values()):", "if False:"),
    Mutant("per-step problem never raised", "src/irrmeasure/bound.py",
           "if not all(c.ok for c in trace.nj_checks):", "if False:"),
    Mutant("screening verdict < depth -> <=", "src/irrmeasure/screening.py",
           "2 * (max(last_nu, last_mu) + 1) < depth",
           "2 * (max(last_nu, last_mu) + 1) <= depth"),
    Mutant("rigidity gate q_next > r_next -> >=", "src/irrmeasure/screening.py",
           "if q_next > r_next:", "if q_next >= r_next:"),
    Mutant("rigidity conclusion d == 2 -> d >= 2", "src/irrmeasure/screening.py",
           "and d == 2 and star_a == star_b)", "and d >= 2 and star_a == star_b)"),
    Mutant("reversal is LESS -> is not GREATER", "src/irrmeasure/screening.py",
           "applicable = order_hyp is Ordering.LESS",
           "applicable = order_hyp is not Ordering.GREATER",
           equivalent="certified_order returns LESS or GREATER, never a "
                      "third value"),
    Mutant("verify ignores a failed reversal", "src/irrmeasure/cli.py",
           "if r.applicable and r.reversal_at_alpha_prev is False:", "if False:"),
    Mutant("sweep removal check never fires", "src/irrmeasure/sweep.py",
           "if 0 < left < len(order) and not certified_above(",
           "if False and not certified_above("),
    Mutant("move check skips the neighbour above", "src/irrmeasure/sweep.py",
           "if lo and not certified_above(", "if False and not certified_above("),
    Mutant("move check skips the neighbour below", "src/irrmeasure/sweep.py",
           "if lo + 1 < len(order) and not certified_above(",
           "if False and not certified_above("),
    Mutant("breakpoint decrease check never fires", "src/irrmeasure/stepfunc.py",
           "if first_misordered(terms) is not None:", "if False:"),
    Mutant("surd compare opposite-sign test inverted", "src/irrmeasure/surd.py",
           "if (sign_a > 0) != (other.coef > 0):",
           "if (sign_a > 0) == (other.coef > 0):"),
    Mutant("surd compare drops the A^2 - B^2 factor", "src/irrmeasure/surd.py",
           "return sign_a * _sign_linear(", "return sign_a or _sign_linear("),
)

def _ignore(directory: str, names: list[str]) -> list[str]:
    """The caches and benchmark outputs a copy does without."""
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    if Path(directory) == ROOT / "bench":
        skip |= {"work", "out"}
    return [name for name in names if name in skip]


def run_suite(mutant: Mutant | None) -> list[str]:
    """The ids of the tier-1 tests that fail in a copy of the repository
    with `mutant` applied, or with none."""
    with tempfile.TemporaryDirectory(prefix="verdict-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs "
                                 f"{text.count(mutant.old)} times in {mutant.path}")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors",
             *(() if mutant is None else (f"--ignore={TABLE_TEST}",))],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in result.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    # exit code 1 is "some tests failed"; any other failure is the run's own
    if result.returncode not in (0, 1) or (result.returncode == 1) != bool(failed):
        raise SystemExit(f"pytest exited {result.returncode}:\n"
                         f"{result.stdout[-2000:]}{result.stderr[-2000:]}")
    return failed


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(names):
        known = {m.name for m in MUTANTS}
        raise SystemExit(f"unknown mutants: {sorted(set(names) - known)}")
    failed = run_suite(None)
    if failed:
        print("the unmutated suite fails:", *failed, sep="\n  ")
        return 1
    print("| mutant (file) | tier-1 tests that fail | in files |")
    print("|---|---|---|")
    for mutant in chosen:
        failed = run_suite(mutant)
        files = Counter(test.split("::")[0].rsplit("/", 1)[-1] for test in failed)
        where = ", ".join(f"{name} ({n})" for name, n in sorted(files.items()))
        count = f"{len(failed)}" if failed else (
            f"0, equivalent: {mutant.equivalent}" if mutant.equivalent
            else "**0**")
        print(f"| {mutant.name} (`{Path(mutant.path).name}`) | {count} | "
              f"{where or '-'} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
