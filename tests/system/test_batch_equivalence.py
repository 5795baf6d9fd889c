"""Scalar-vs-batched equivalence — the batched kernels' hard correctness bar.

Every registered controller must produce a byte-identical
:class:`~repro.system.metrics.SimulationReport` whether a trace is driven
through the scalar reference (``write()``/``read()``) or through its fused
steps (``service_batch`` at any batch size).  The steps replicate the
scalar float operation order exactly, so the comparison is on the full
serialised report — latencies, energy, wear, IPC — not on rounded values.
"""

from __future__ import annotations

import json

import pytest

from repro.core.registry import available_controllers, build_controller
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.obs.metrics import registry
from repro.obs.trace import Tracer
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.trace import MemoryAccess, Trace

LINE = 256
CONTROLLERS = sorted(available_controllers())


def make_nvm(lines: int = 64 * 1024) -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=lines * LINE))
    )


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def assert_equivalent(
    name: str, trace: Trace, batch_sizes=(1, 7, 1024), lines: int = 64 * 1024
) -> None:
    scalar = canonical(
        simulate(build_controller(name, make_nvm(lines)), trace, batch_size=None)
    )
    for size in batch_sizes:
        batched = canonical(
            simulate(build_controller(name, make_nvm(lines)), trace, batch_size=size)
        )
        assert batched == scalar, f"{name} batch_size={size} diverges from scalar"


def fallback_counts() -> dict[str, float]:
    return {
        name: registry().get(name).value
        for name in registry().names()
        if name.startswith("batch.fallback.")
    }


def wr(address, core=0, gap=10, persistent=False, fill=1):
    return MemoryAccess(
        core=core,
        op="write",
        address=address,
        data=bytes([fill % 256]) * LINE,
        gap_instructions=gap,
        persistent=persistent,
    )


def rd(address, core=0, gap=10):
    return MemoryAccess(core=core, op="read", address=address, gap_instructions=gap)


class TestRandomTraces:
    """Property: byte-identical reports on generated traces."""

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_single_core_trace(self, name):
        # lbm is single-threaded: the issue loop's single-stream fast path.
        trace = generate_trace(profile_by_name("lbm"), 600, seed=3)
        assert_equivalent(name, trace)

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_duplicate_heavy_trace(self, name):
        # sjeng's zero/duplicate-rich mix exercises the dedup hit paths.
        trace = generate_trace(profile_by_name("sjeng"), 400, seed=11)
        assert_equivalent(name, trace, batch_sizes=(1, 64))


class TestEdgeCases:
    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_empty_trace(self, name):
        assert_equivalent(name, Trace("empty", []), batch_sizes=(1, 1024))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_single_access_trace(self, name):
        assert_equivalent(name, Trace("one", [wr(0, persistent=True)]), batch_sizes=(1, 1024))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_bank_conflict_burst(self, name):
        # Every access lands on bank 0: addresses stride by total_banks, so
        # the queueing/backlog arithmetic is exercised under contention.
        stride = make_nvm().config.organization.total_banks
        accesses = []
        for i in range(48):
            accesses.append(wr(i * stride, gap=1, persistent=i % 3 == 0, fill=i % 5))
            accesses.append(rd(i * stride, gap=1))
        assert_equivalent(name, Trace("conflict", accesses), batch_sizes=(1, 16, 1024))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_multi_core_trace_stays_fused(self, name):
        # canneal runs 4 threads: the shared issue loop merges the streams
        # by arrival for the fused steps exactly as for the scalar reference.
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        assert trace.threads > 1
        before = fallback_counts()
        assert_equivalent(name, trace, batch_sizes=(1, 64, 1024), lines=256 * 1024)
        assert fallback_counts() == before

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_multi_core_trace_falls_back(self, name):
        # A tracer sends a multi-stream run to the scalar reference; the
        # report must still be the untraced fused run's, byte for byte.
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        fused = canonical(simulate(build_controller(name, make_nvm(256 * 1024)), trace))
        before = fallback_counts()
        traced = build_controller(name, make_nvm(256 * 1024), tracer=Tracer(sink=None))
        assert canonical(simulate(traced, trace, batch_size=64)) == fused
        after = fallback_counts()
        assert after.get("batch.fallback.tracer", 0.0) > before.get("batch.fallback.tracer", 0.0)


SPLIT_COUNTERS = {"use_split_counters": True, "minor_counter_bits": 2, "lines_per_page": 4}


class TestRarePaths:
    """Paths the default configurations never reach at test scale."""

    @pytest.mark.parametrize(
        ("name", "opts", "counter"),
        [
            # 2-bit minor counters overflow every 4 writes to a 4-line page.
            ("secure-nvm", SPLIT_COUNTERS, "page_reencryptions"),
            ("silent-shredder", SPLIT_COUNTERS, "page_reencryptions"),
            # An 8-line hot set evicts (cold re-encryption) constantly.
            ("i-nvmm", {"hot_set_lines": 8}, "cold_encryptions"),
            # A background page scan every 8 writes.
            ("out-of-line", {"scan_interval_writes": 8}, "scans"),
        ],
    )
    def test_equivalent_under_constrained_config(self, name, opts, counter):
        accesses = []
        for i in range(160):
            fill = 0 if i % 7 == 0 else i % 5 + 1
            accesses.append(wr(i * 5 % 24, persistent=i % 3 == 0, fill=fill))
            accesses.append(rd(i * 3 % 28))
        trace = Trace("constrained", accesses)
        reference = build_controller(name, make_nvm(), **opts)
        scalar = canonical(simulate(reference, trace, batch_size=None))
        assert getattr(reference, counter) > 0, f"{counter} never fired"
        for size in (1, 64):
            fused = build_controller(name, make_nvm(), **opts)
            assert canonical(simulate(fused, trace, batch_size=size)) == scalar
            assert getattr(fused, counter) == getattr(reference, counter)
