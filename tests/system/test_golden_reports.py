"""Golden report digests: the fixed point every issue-loop change must hit.

For every registered controller and every application profile, a small
trace is replayed through the simulator and the sha256 of the canonical
serialised :class:`~repro.system.metrics.SimulationReport` is compared
with a committed digest.  The scalar reference (``batch_size=None``), the
one-request batches (``batch_size=1``) and the default batch size must all
hit the same digest, so the check holds even though every path now shares
one issue loop: the digests were recorded before that loop existed, from
two independent loops.

Regenerate (only when a report is *meant* to change) with::

    PYTHONPATH=src python tests/system/test_golden_reports.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.registry import available_controllers, build_controller
from repro.nvm.memory import NvmMainMemory
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import ALL_PROFILES

GOLDEN = Path(__file__).with_name("golden_reports.json")
ACCESSES = 150
SEED = 17
BATCH_SIZES = (None, 1, 1024)
CONTROLLERS = sorted(available_controllers())
PROFILES = sorted(profile.name for profile in ALL_PROFILES)

_traces: dict[str, object] = {}


def _trace(profile: str):
    trace = _traces.get(profile)
    if trace is None:
        by_name = {p.name: p for p in ALL_PROFILES}
        trace = _traces[profile] = generate_trace(by_name[profile], ACCESSES, seed=SEED)
    return trace


def report_digest(controller: str, profile: str, batch_size: int | None) -> str:
    """sha256 of one run's canonical report JSON."""
    report = simulate(
        build_controller(controller, NvmMainMemory()), _trace(profile), batch_size=batch_size
    )
    canonical = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def test_golden_covers_every_controller_and_profile():
    assert sorted(_golden()) == sorted(f"{c}/{p}" for c in CONTROLLERS for p in PROFILES)


@pytest.mark.parametrize("controller", CONTROLLERS)
@pytest.mark.parametrize("profile", PROFILES)
def test_report_matches_golden_digest(controller, profile):
    expected = _golden()[f"{controller}/{profile}"]
    for batch_size in BATCH_SIZES:
        assert report_digest(controller, profile, batch_size) == expected, (
            f"{controller}/{profile} batch_size={batch_size} drifted from its golden digest"
        )


def write_golden() -> None:
    """Record the scalar reference's digests (all paths must agree first)."""
    digests = {}
    for controller in CONTROLLERS:
        for profile in PROFILES:
            found = {report_digest(controller, profile, size) for size in BATCH_SIZES}
            if len(found) != 1:
                raise SystemExit(f"{controller}/{profile}: paths disagree, not recording")
            digests[f"{controller}/{profile}"] = found.pop()
    payload = {"accesses": ACCESSES, "seed": SEED, "digests": digests}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_reports.py --write")
    write_golden()
