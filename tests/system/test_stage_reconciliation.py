"""Summary-mode reconciliation — the stage accumulator's correctness bar.

The fused steps feed a :class:`~repro.obs.stages.StageAccumulator`
columnar, per batch, while a :class:`~repro.obs.trace.Tracer` forces the
scalar reference and emits one span per stage occurrence.  Both views describe
the same simulated pipeline, so for every registered controller the
summary-mode per-stage (count, total) must equal the aggregation of the
scalar-path trace spans **bit-for-bit**: the steps record the exact
float expressions the spans imply, and both sides sum left-to-right in
arrival order.

Also pinned here: attaching only a stage accumulator never knocks a
kernel off the fused path (``batch.fallback.*`` stays flat) and never
perturbs the serialised :class:`SimulationReport`.
"""

from __future__ import annotations

import json

import pytest

from repro.core.dewrite import DeWriteController
from repro.core.registry import available_controllers, build_controller
from repro.nvm.memory import NvmMainMemory
from repro.obs.metrics import registry
from repro.obs.stages import StageAccumulator
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import Tracer
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name

CONTROLLERS = sorted(available_controllers())

#: Span names that are not pipeline stages: per-device NVM sub-spans
#: (emitted by the memory model, not the controller pipeline) and the
#: batch envelope.
EXCLUDED_PREFIXES = ("nvm.", "batch")


def single_stream_trace(app: str = "lbm", accesses: int = 500, seed: int = 9):
    trace = generate_trace(profile_by_name(app), accesses, seed=seed)
    assert trace.threads == 1
    return trace


def scalar_span_sums(name: str, trace) -> dict[str, tuple[int, float]]:
    tracer = Tracer(sink=None)
    controller = build_controller(name, NvmMainMemory(), tracer=tracer)
    simulate(controller, trace, batch_size=1024)  # tracer forces scalar driving
    return {
        stage: (len(durations), sum(durations))
        for stage, durations in tracer.stage_durations(clock="sim").items()
        if not stage.startswith(EXCLUDED_PREFIXES)
    }


def summary_mode_sums(name: str, trace) -> dict[str, tuple[int, float]]:
    accumulator = StageAccumulator()
    controller = build_controller(name, NvmMainMemory(), stages=accumulator)
    simulate(controller, trace, batch_size=1024)
    counts = accumulator.counts()
    totals = accumulator.totals()
    return {stage: (counts[stage], totals[stage]) for stage in accumulator.stage_names()}


def fallback_deltas(before: dict[str, float]) -> dict[str, float]:
    snapshot = registry()
    return {
        name: delta
        for name in snapshot.names()
        if name.startswith("batch.fallback.")
        and (delta := snapshot.get(name).value - before.get(name, 0.0))
    }


def fallback_snapshot() -> dict[str, float]:
    return {
        name: registry().get(name).value
        for name in registry().names()
        if name.startswith("batch.fallback.")
    }


class TestReconciliation:
    """Summary totals == grouped scalar span sums, exactly."""

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_single_core_trace_reconciles_bitwise(self, name):
        trace = single_stream_trace("lbm", 500, 9)
        assert summary_mode_sums(name, trace) == scalar_span_sums(name, trace)

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_duplicate_heavy_trace_reconciles_bitwise(self, name):
        # sjeng's zero/duplicate-rich mix exercises the dedup hit/short-
        # circuit branches, whose stage expressions differ from the miss
        # paths (cache-hit spans of zero width, wasted-write crypto).
        trace = single_stream_trace("sjeng", 400, 11)
        assert summary_mode_sums(name, trace) == scalar_span_sums(name, trace)

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_multi_core_trace_reconciles_bitwise(self, name):
        # canneal's 4 threads interleave through the arrival-order merge;
        # both views must still sum the same samples in the same order.
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        assert trace.threads > 1
        assert summary_mode_sums(name, trace) == scalar_span_sums(name, trace)

    def test_stage_name_sets_match_scalar_path(self):
        # No phantom stages from unconditional columnar flushes: a stage
        # the scalar path never records must not appear in summary mode.
        trace = single_stream_trace("lbm", 500, 9)
        for name in CONTROLLERS:
            scalar = set(scalar_span_sums(name, trace))
            summary = set(summary_mode_sums(name, trace))
            assert summary == scalar, name


class TestFusedPathPreserved:
    def test_stages_cause_zero_fallbacks(self):
        trace = single_stream_trace()
        before = fallback_snapshot()
        for name in CONTROLLERS:
            controller = build_controller(
                name, NvmMainMemory(), stages=StageAccumulator()
            )
            simulate(controller, trace, batch_size=1024)
        assert fallback_deltas(before) == {}

    def test_report_byte_identical_with_stages_attached(self):
        trace = single_stream_trace()
        for name in CONTROLLERS:
            plain = simulate(build_controller(name, NvmMainMemory()), trace)
            staged = simulate(
                build_controller(name, NvmMainMemory(), stages=StageAccumulator()),
                trace,
            )
            assert json.dumps(staged.to_dict(), sort_keys=True) == json.dumps(
                plain.to_dict(), sort_keys=True
            ), name


class TestFallbackCounters:
    def test_tracer_fallback_counted(self):
        before = fallback_snapshot()
        controller = build_controller(
            "dewrite", NvmMainMemory(), tracer=Tracer(sink=None)
        )
        simulate(controller, single_stream_trace(), batch_size=1024)
        assert fallback_deltas(before) == {"batch.fallback.tracer": 1.0}

    def test_timeline_fallback_counted(self):
        before = fallback_snapshot()
        controller = build_controller(
            "dewrite", NvmMainMemory(), timeline=TimelineCollector()
        )
        simulate(controller, single_stream_trace(), batch_size=1024)
        assert fallback_deltas(before) == {"batch.fallback.timeline": 1.0}

    def test_multi_stream_stays_fused(self):
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        assert trace.threads > 1
        before = fallback_snapshot()
        for name in CONTROLLERS:
            controller = build_controller(name, NvmMainMemory(), stages=StageAccumulator())
            simulate(controller, trace, batch_size=1024)
        assert fallback_deltas(before) == {}

    def test_overridden_scalar_fallback_counted(self):
        class Subclassed(DeWriteController):
            def write(self, address, data, arrival_ns):
                return super().write(address, data, arrival_ns)

        before = fallback_snapshot()
        controller = Subclassed(NvmMainMemory())
        simulate(controller, single_stream_trace(), batch_size=1024)
        assert fallback_deltas(before) == {"batch.fallback.overridden_scalar": 1.0}

    def test_scalar_driving_without_fused_kernel_not_counted(self):
        # The scalar reference itself is not a "fallback" — only a fused
        # controller sent to it counts.
        before = fallback_snapshot()
        simulate(
            build_controller("dewrite", NvmMainMemory()),
            single_stream_trace(),
            batch_size=None,
        )
        assert fallback_deltas(before) == {}
