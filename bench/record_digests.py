"""Record the sha256 of every item's stdout for the default seed.

    python3 bench/record_digests.py

Writes bench/digests.json for the items a run of BENCHMARK.json's
run_seconds generates. bench/run.py compares each default-seed item with
these digests, so re-record only when a change to the program's output
bytes is intended.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, DEFAULT_SEED, ROOT, ItemRunner, pool_size, set_up


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from irrmeasure.cli import main as cli_main
    from workloads import WORKLOADS

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    recorded = {}
    for name, workload in WORKLOADS.items():
        count = pool_size(workload, seconds)
        paths, _, _, _ = set_up(workload, DEFAULT_SEED, count,
                                BENCH / "work" / "digests" / name)
        runner = ItemRunner(cli_main, workload, paths, [])
        for idx in range(count):
            runner.run(idx)
        if runner.failures:
            print(f"error: {name}: {runner.failures}", file=sys.stderr)
            return 1
        recorded[name] = [runner.first_digest[i] for i in range(count)]
        print(f"{name}: {count} items recorded")
    (BENCH / "digests.json").write_text(json.dumps(
        {"seed": DEFAULT_SEED, "workloads": recorded}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
