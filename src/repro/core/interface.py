"""Common interface of all memory controllers (DeWrite and baselines).

Every controller in this repository — DeWrite, the traditional secure NVM,
the direct/parallel integration modes, traditional SHA-1 dedup, Silent
Shredder — services the same two requests against the same
:class:`repro.nvm.NvmMainMemory` device, so the system simulator and all
experiments are controller-agnostic.

Controllers are addressed either one request at a time (:meth:`write` /
:meth:`read`) or a batch at a time (:meth:`service_batch`).  Both forms go
through the one issue loop, :func:`repro.core.batching.issue`:

- :meth:`MemoryController.service_batch` is the scalar reference: it
  drives the controller's own ``write``/``read`` through that loop, so
  every controller is batch-addressable without opting in;
- :class:`FusedController` is the base of controllers that also define
  per-batch *steps* (:meth:`FusedController._batch_steps`), which keep
  counters and latencies columnar and skip per-request allocations.  Its
  ``service_batch`` runs the steps whenever their effects are those of
  ``write``/``read``, and otherwise falls back to the scalar reference,
  counting why in ``batch.fallback.<reason>``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, NamedTuple

from repro.core.batching import (
    BatchColumns,
    BatchCursor,
    BatchOutcome,
    ReadStep,
    WriteStep,
    issue,
)
from repro.core.stats import DeWriteStats
from repro.nvm.memory import NvmMainMemory
from repro.obs.metrics import registry
from repro.obs.stages import NULL_STAGES, StagesLike
from repro.obs.timeline import NULL_TIMELINE, TimelineLike
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.batch import AccessBatch


class WriteOutcome(NamedTuple):
    """Result of one line-write request as the CPU observes it.

    ``latency_ns`` is arrival-to-persistence: in persistent memory the core
    stalls until the write (or its elimination) completes (§I/§III).

    A NamedTuple rather than a dataclass: one is allocated per request on
    the hot path, and tuple allocation is several times cheaper.
    """

    latency_ns: float
    deduplicated: bool
    complete_ns: float


class ReadOutcome(NamedTuple):
    """Result of one line-read request."""

    latency_ns: float
    data: bytes
    complete_ns: float


class MemoryController(abc.ABC):
    """A secure-NVM memory controller servicing 256 B line requests."""

    def __init__(self, nvm: NvmMainMemory) -> None:
        self.nvm = nvm
        self.line_size = nvm.config.organization.line_size_bytes
        self.tracer: TracerLike = NULL_TRACER
        self.timeline: TimelineLike = NULL_TIMELINE
        self.stages: StagesLike = NULL_STAGES

    # -- observability ----------------------------------------------------------

    def attach_observers(
        self,
        tracer: TracerLike | None = None,
        timeline: TimelineLike | None = None,
        stages: StagesLike | None = None,
    ) -> None:
        """Route this controller's (and its device's) observability streams.

        Any argument may be omitted to leave that stream unchanged.  The
        defaults are the shared no-op :data:`~repro.obs.trace.NULL_TRACER` /
        :data:`~repro.obs.timeline.NULL_TIMELINE` /
        :data:`~repro.obs.stages.NULL_STAGES`, so instrumented paths cost
        one ``enabled`` check until a real observer is attached.
        Subclasses with instrumented internals override
        :meth:`_propagate_observers` to forward the observers to them.

        Observability modes and the batch path: attaching a *tracer* or
        *timeline* records per-request detail, which sends fused
        controllers to the scalar reference (counted in
        ``batch.fallback.*``).  Attaching only a *stages* accumulator is
        **summary mode** — the fused steps feed it with columnar
        per-batch flushes and stay fused.
        """
        if tracer is not None:
            self.tracer = tracer
            self.nvm.tracer = tracer
        if timeline is not None:
            self.timeline = timeline
            self.nvm.timeline = timeline
        if stages is not None:
            self.stages = stages
        self._propagate_observers(self.tracer, self.timeline)

    def _propagate_observers(self, tracer: TracerLike, timeline: TimelineLike) -> None:
        """Hook for subclasses to hand the observers to internal components."""

    # -- scalar request interface ----------------------------------------------

    @abc.abstractmethod
    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Service a line write arriving at ``arrival_ns``."""

    @abc.abstractmethod
    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        """Service a line read arriving at ``arrival_ns``."""

    # -- batched request interface ---------------------------------------------

    def service_batch(
        self,
        batch: AccessBatch,
        cursor: BatchCursor,
        max_requests: int | None = None,
    ) -> BatchOutcome:
        """Service up to ``max_requests`` accesses of ``batch`` through ``cursor``.

        The scalar reference: the shared issue loop drives :meth:`write` /
        :meth:`read` themselves, so tracing, timelines and subclass
        overrides all behave exactly as request-at-a-time servicing.
        """
        read = self.read

        def read_step(address: int, arrival_ns: float) -> float:
            return read(address, arrival_ns).latency_ns

        return issue(batch, cursor, self.write, read_step, max_requests)

    # -- helpers ----------------------------------------------------------------

    def _check_line(self, data: bytes) -> None:
        if len(data) != self.line_size:
            raise ValueError(f"line must be {self.line_size} bytes, got {len(data)}")


class FusedController(MemoryController):
    """A controller whose batches run through per-batch fused steps.

    Subclasses define :meth:`_batch_steps` (and, for state the steps defer,
    :meth:`_finish_batch`); a subclass that extends a parent's scalar
    ``write``/``read`` extends the parent's steps the same way, by wrapping
    them.  The steps must have exactly the effects of ``write``/``read``
    minus the per-request observers, which is what the scalar-vs-batched
    equivalence and golden-digest suites check.
    """

    stats: DeWriteStats

    def service_batch(
        self,
        batch: AccessBatch,
        cursor: BatchCursor,
        max_requests: int | None = None,
    ) -> BatchOutcome:
        """Service a batch through the fused steps when they stand for ``write``/``read``."""
        reason = self._fallback_reason()
        if reason is not None:
            if cursor.active:
                registry().counter(f"batch.fallback.{reason}").inc()
            return super().service_batch(batch, cursor, max_requests)
        columns = BatchColumns(self.stages.enabled)
        write, read = self._batch_steps(columns)
        outcome = issue(batch, cursor, write, read, max_requests)
        self._finish_batch()
        columns.fold(self.stats, self.stages)
        return outcome

    def _fallback_reason(self) -> str | None:
        """Why this batch must take the scalar reference (``None``: it need not).

        Per-request observers see only the scalar path's detail, and the
        steps stand for the ``write``/``read`` of the class that defines
        them: a subclass overriding either method has effects they lack.
        """
        if self.tracer.enabled:
            return "tracer"
        if self.timeline.enabled:
            return "timeline"
        cls = type(self)
        owner = next(k for k in cls.__mro__ if "_batch_steps" in vars(k))
        if cls.write is not owner.write or cls.read is not owner.read:
            return "overridden_scalar"
        return None

    @abc.abstractmethod
    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """This batch's write and read steps, recording into ``columns``."""

    def _finish_batch(self) -> None:
        """Write back any state the steps deferred to the end of the batch."""
