"""Batch-size equivalence — the fused steps' hard correctness bar.

Every registered controller must produce a byte-identical
:class:`~repro.system.metrics.SimulationReport` however a trace is sliced
into ``service_batch`` calls: one request per batch (the reference) or
many.  The comparison is on the full serialised report — latencies,
energy, wear, IPC — not on rounded values.  Attached observers (tracer,
timeline) must neither change a report nor send a batch off the fused
steps.  ``test_golden_reports`` pins the bytes themselves.
"""

from __future__ import annotations

import json

import pytest

from repro.core.registry import available_controllers, build_controller
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.obs.metrics import registry
from repro.obs.timeline import TimelineCollector
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
    reference = canonical(
        simulate(build_controller(name, make_nvm(lines)), trace, batch_size=1)
    )
    for size in batch_sizes:
        batched = canonical(
            simulate(build_controller(name, make_nvm(lines)), trace, batch_size=size)
        )
        assert batched == reference, f"{name} batch_size={size} diverges from batch_size=1"


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
        assert_equivalent(name, trace, batch_sizes=(7, 1024))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_duplicate_heavy_trace(self, name):
        # sjeng's zero/duplicate-rich mix exercises the dedup hit paths.
        trace = generate_trace(profile_by_name("sjeng"), 400, seed=11)
        assert_equivalent(name, trace, batch_sizes=(1, 64))


class TestEdgeCases:
    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_empty_trace(self, name):
        assert_equivalent(name, Trace("empty", []), batch_sizes=(1024,))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_single_access_trace(self, name):
        assert_equivalent(name, Trace("one", [wr(0, persistent=True)]), batch_sizes=(1024,))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_bank_conflict_burst(self, name):
        # Every access lands on bank 0: addresses stride by total_banks, so
        # the queueing/backlog arithmetic is exercised under contention.
        stride = make_nvm().config.organization.total_banks
        accesses = []
        for i in range(48):
            accesses.append(wr(i * stride, gap=1, persistent=i % 3 == 0, fill=i % 5))
            accesses.append(rd(i * stride, gap=1))
        assert_equivalent(name, Trace("conflict", accesses), batch_sizes=(16, 1024))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_multi_core_trace_stays_fused(self, name):
        # canneal runs 4 threads: the shared issue loop merges the streams
        # by arrival whatever the batch size.
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        assert trace.threads > 1
        before = fallback_counts()
        assert_equivalent(name, trace, batch_sizes=(64, 1024), lines=256 * 1024)
        assert fallback_counts() == before

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_multi_core_trace_falls_back(self, name):
        # A subclass overriding write() sends a multi-stream run through
        # its own write()/read(), one request at a time; the report must
        # still be the fused run's, byte for byte, and the fallback counted.
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        fused = canonical(simulate(build_controller(name, make_nvm(256 * 1024)), trace))
        controller = build_controller(name, make_nvm(256 * 1024))
        base = type(controller)
        controller.__class__ = type(
            base.__name__, (base,), {"write": lambda self, *args: base.write(self, *args)}
        )
        before = fallback_counts()
        assert canonical(simulate(controller, trace, batch_size=64)) == fused
        after = fallback_counts()
        key = "batch.fallback.overridden_scalar"
        assert after.get(key, 0.0) > before.get(key, 0.0)

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_observed_multi_core_trace_stays_fused(self, name):
        # Observers ride the fused steps: a tracer- or timeline-attached
        # multi-stream run counts no fallback and reports the untraced
        # run's bytes.
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        plain = canonical(simulate(build_controller(name, make_nvm(256 * 1024)), trace))
        for observer in ({"tracer": Tracer(sink=None)}, {"timeline": TimelineCollector()}):
            before = fallback_counts()
            observed = build_controller(name, make_nvm(256 * 1024), **observer)
            assert canonical(simulate(observed, trace, batch_size=64)) == plain, observer
            assert fallback_counts() == before, observer


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
        expected = canonical(simulate(reference, trace, batch_size=1))
        assert getattr(reference, counter) > 0, f"{counter} never fired"
        for size in (64, 1024):
            fused = build_controller(name, make_nvm(), **opts)
            assert canonical(simulate(fused, trace, batch_size=size)) == expected
            assert getattr(fused, counter) == getattr(reference, counter)
