"""MemoryController observability API: attach_observers."""

from __future__ import annotations

from repro.core.dewrite import DeWriteController
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import Tracer

LINE = 256


def make_controller() -> DeWriteController:
    nvm = NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )
    return DeWriteController(nvm)


class TestAttachObservers:
    def test_attaches_both_streams(self):
        controller = make_controller()
        tracer = Tracer()
        timeline = TimelineCollector()
        controller.attach_observers(tracer=tracer, timeline=timeline)
        assert controller.tracer is tracer
        assert controller.nvm.tracer is tracer
        assert controller.timeline is timeline
        assert controller.nvm.timeline is timeline

    def test_omitted_argument_leaves_stream_unchanged(self):
        controller = make_controller()
        tracer = Tracer()
        controller.attach_observers(tracer=tracer)
        before = controller.timeline
        controller.attach_observers(timeline=TimelineCollector())
        assert controller.tracer is tracer  # untouched by the second call
        assert controller.timeline is not before
