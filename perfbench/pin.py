"""Re-pin the output digests the benchmark checks every command against.

    python3 perfbench/pin.py

Run from the repository root, only when a change is meant to alter the
rendered figure tables or the serve report: it runs every workload once
per pinned seed (cold, then warm where the workload is warm) and
rewrites ``digests.json``.  A change meant only to make the program
faster must leave that file untouched.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    try:
        for name, workload in run.WORKLOADS.items():
            bench = run.Bench(workload, seconds=0)
            bench.expected, bench.pinned = {}, set()
            for seed in run.PINNED_SEEDS[workload.command]:
                cache = bench.cold_cache()
                bench.command(seed, cache)
                if workload.warm:
                    bench.command(seed, cache)
            if any(cmd.problem for cmd in bench.commands):
                return 1
            digests[name] = {str(seed): bench.expected[seed] for seed in sorted(bench.expected)}
            print(f"{name}: {digests[name]}", file=sys.stderr)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
