"""Benchmark of the irrmeasure command line, one workload per process.

    python3 bench/run.py --workload replay_wide --seed 3 --seconds 50 --trace 0

Set-up imports the package from ../src, generates the workload's spec
files from --seed and writes them to bench/work/. setup_s is the median
import time of SETUP_REPEATS fresh interpreters plus the median time of
SETUP_REPEATS generations (whose files must be byte-identical). The
timed phase is a closed loop with one client in one thread: each item is
one in-process call of irrmeasure.cli.main on one spec file with stdout
captured, and the next starts when it returns, until --seconds have
passed. Each spec file runs twice in a row, and both runs are timed and
must print the same bytes; the loop goes through the spec files in turn.
Every item's output is checked (exit status, workload facts,
byte-identical repeats, and for the default seed the sha256 digests in
bench/digests.json). Any failed check fails the run.

The fixed reference task of hostspeed.py runs before and after every
untraced item and every set-up repetition. The time metrics, setup_s
too, are stated at one host speed: each timed span is scaled by
REFERENCE_S over the mean of the reference times just before and after
it, so a slow stretch of a shared host does not read as a slower
program. The median reference time and the unscaled items_per_s are
printed as comment lines.

--trace 0 reports the end-to-end metrics. --trace 1 runs the second run
of each pair traced, reports the per-layer metrics averaged per traced
item plus the tracing overhead, and writes the spans to bench/out/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 5
#: run in a fresh interpreter: prints the seconds that set-up's imports take
IMPORT_PROBE = ("import time; start = time.perf_counter(); "
                "import irrmeasure.cli, workloads; print(time.perf_counter() - start)")


def pool_size(workload, seconds: float) -> int:
    """Spec files generated per run: enough for the timed phase's pairs of
    runs on a fast host, so that the loop seldom comes back to one."""
    return max(2, math.ceil(seconds / workload.item_s / 2))


def spec_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def import_seconds() -> float:
    """Median time of set-up's imports over SETUP_REPEATS fresh interpreters,
    at the reference host speed."""
    from hostspeed import scaled_times

    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}

    def probe() -> float:
        return float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                                    check=True, capture_output=True, text=True,
                                    timeout=60).stdout)

    return statistics.median(scaled_times(probe, SETUP_REPEATS))


def load_digests(name: str) -> list[str]:
    """Recorded stdout digests of the default seed's items 0, 1, ..."""
    return json.loads((BENCH / "digests.json").read_text())["workloads"].get(name, [])


class ItemRunner:
    """Runs items and checks every output; counts attempts and keeps misses."""

    def __init__(self, cli_main, workload, paths, digests) -> None:
        self.cli_main = cli_main
        self.workload = workload
        self.paths = paths
        self.digests = digests
        self.first_digest: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []

    def run(self, idx: int, tracer=None) -> float:
        """Wall seconds of one call of irrmeasure.cli.main."""
        argv = self.workload.command(str(self.paths[idx]))
        out, err = io.StringIO(), io.StringIO()
        status, problem = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    status = self.cli_main(argv)
                else:
                    status = tracer.call("cli.main", self.cli_main, argv)
        except (Exception, SystemExit) as exc:   # a crash is a failed item
            problem = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.attempted += 1
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(text.encode())
        digest = hashlib.sha256(text.encode()).hexdigest()
        if problem is None and status != 0:
            problem = f"exit status {status}: {err.getvalue().strip()}"
        if problem is None:
            problem = self.workload.check(text)
        if problem is None and self.first_digest.get(idx, digest) != digest:
            problem = "stdout differs from the same item's earlier run"
        if problem is None and idx < len(self.digests) and self.digests[idx] != digest:
            problem = "stdout digest differs from the recorded one"
        self.first_digest.setdefault(idx, digest)
        if problem is not None:
            self.failures.append((idx, problem))
        return elapsed


def set_up(workload, seed: int, count: int, workdir: Path):
    """Generate and write the spec files SETUP_REPEATS times.

    Returns (paths, median seconds at the reference host speed,
    rejected-draw tally, identical flag).
    """
    from hostspeed import scaled_times
    from workloads import generate

    workdir.mkdir(parents=True, exist_ok=True)
    paths = [workdir / f"item{i:03d}.spec" for i in range(count)]
    copies, tallies = [], []

    def generate_and_write() -> float:
        start = perf_counter()
        specs, rejected = generate(workload, seed, count)
        for path, text in zip(paths, specs):
            path.write_text(text, encoding="utf-8")
        seconds = perf_counter() - start
        copies.append([path.read_bytes() for path in paths])
        tallies.append(rejected)
        return seconds

    times = scaled_times(generate_and_write, SETUP_REPEATS)
    identical = all(copy == copies[0] for copy in copies)
    return paths, statistics.median(times), tallies[0], identical


def run_benchmark(workload, *, seed: int, seconds: float, trace: bool,
                  import_s: float, digests: list[str], workdir: Path,
                  span_path: Path) -> dict:
    """One benchmark run; prints one line per metric and returns the result
    object (the last line of the command's output)."""
    from irrmeasure.cli import main as cli_main
    from hostspeed import REFERENCE_S, at_reference_speed, time_reference
    from tracing import Tracer

    count = pool_size(workload, seconds)
    paths, gen_s, rejected, identical = set_up(workload, seed, count, workdir)
    print(f"# {workload.name} seed {seed}: {count} spec files, "
          f"{SETUP_REPEATS} generations byte-identical: {identical}, "
          f"rejected draws: {sum(rejected.values())} {dict(sorted(rejected.items()))}, "
          f"recorded digests to compare: {len(digests)}")
    print(f"# setup_s parts: import {import_s!r} s, generation {gen_s!r} s")

    runner = ItemRunner(cli_main, workload, paths, digests)
    tracer = Tracer() if trace else None
    calls: list[tuple[int, float]] = []       # (item, wall seconds) of untraced runs
    references = [time_reference()]           # one before and one after each of them
    traced = 0.0
    rounds = 0
    start = perf_counter()
    while True:
        idx = rounds % count
        for repeat in range(2):
            if tracer is not None and repeat == 1:
                tracer.item_id = rounds
                tracer.install()
                try:
                    traced += runner.run(idx, tracer)
                finally:
                    tracer.uninstall()
            else:
                calls.append((idx, runner.run(idx)))
                references.append(time_reference())
        rounds += 1
        if perf_counter() - start >= seconds:
            break

    failed = len(runner.failures)
    for idx, problem in runner.failures[:10]:
        print(f"# FAILED item {idx}: {problem}")
    if not identical:
        print("# FAILED: generations with the same seed differ")

    if tracer is None:
        item_times = defaultdict(list)
        for k, (idx, wall) in enumerate(calls):
            item_times[idx].append(at_reference_speed(wall, references[k], references[k + 1]))
        busy = sum(sum(times) for times in item_times.values())
        unscaled = sum(wall for _, wall in calls)
        print(f"# host: median reference time {statistics.median(references)!r} s "
              f"over {len(references)} runs, REFERENCE_S {REFERENCE_S} s; "
              f"unscaled items_per_s {(len(calls) - failed) / unscaled!r}")
        values = {
            "items_per_s": (len(calls) - failed) / busy,
            "item_p50_s": statistics.median(
                statistics.fmean(times) for times in item_times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + gen_s,
        }
        units = spec_units("end_to_end")
    else:
        untraced = sum(wall for _, wall in calls)
        values = tracer.per_item(rounds, traced / untraced - 1)
        units = spec_units("per_layer")
        span_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(span_path)
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        note = (f" (median over {min(rounds, count)} items of each item's mean time; "
                f"{rounds} pairs of runs)" if name == "item_p50_s" else "")
        print(f"{name}\t{value!r}\t{unit}{note}")
    print(f"error_rate\t{failed / runner.attempted!r}\t"
          f"({failed} of {runner.attempted} items failed)")
    return {
        "correct": failed == 0 and identical,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "irrmeasure" / "__init__.py").is_file():
        print(f"error: the irrmeasure sources are not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = run_benchmark(
        workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        import_s=import_seconds(),
        digests=load_digests(workload.name) if args.seed == DEFAULT_SEED else [],
        workdir=BENCH / "work" / workload.name,
        span_path=BENCH / "out" / f"spans_{workload.name}.tsv.gz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
