"""Run one ``repro`` CLI command in this process, for the benchmark.

    python launch.py (--stamp PATH | --spans PATH) -- <repro arguments>

``--stamp`` writes ``time.monotonic()`` at the first call of
``run_jobs``, which ends the set-up phase (interpreter start, imports
and planning).  ``--spans`` instead installs the layer wrappers of
:mod:`layers` and writes the span dump to PATH when the command ends.
The command itself is the unmodified CLI entry point.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path


def _stamp_first_job(path: Path) -> None:
    from repro.runner import engine

    original = engine.run_jobs
    stamped = False

    @functools.wraps(original)
    def run_jobs(*args, **kwargs):
        nonlocal stamped
        if not stamped:
            stamped = True
            path.write_text(repr(time.monotonic()))
        return original(*args, **kwargs)

    engine.run_jobs = run_jobs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stamp", type=Path)
    mode.add_argument("--spans", type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    recorder = None
    if args.spans is not None:
        import layers  # this file's directory leads sys.path

        recorder = layers.Recorder()
        layers.install(recorder)
    else:
        _stamp_first_job(args.stamp)

    from repro.__main__ import main as repro_main

    code = repro_main(command)
    if recorder is not None:
        from repro.obs.metrics import registry

        fallbacks = {
            name: entry["value"]
            for name, entry in registry().to_dict().items()
            if name.startswith("batch.fallback.")
        }
        recorder.dump(args.spans, {"fallbacks": fallbacks})
    return code


if __name__ == "__main__":
    sys.exit(main())
