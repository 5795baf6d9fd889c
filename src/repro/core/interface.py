"""Common interface of all memory controllers (DeWrite and baselines).

Every controller in this repository — DeWrite, the traditional secure NVM,
the direct/parallel integration modes, traditional SHA-1 dedup, Silent
Shredder — services the same two requests against the same
:class:`repro.nvm.NvmMainMemory` device, so the system simulator and all
experiments are controller-agnostic.

Controllers are addressed either one request at a time (:meth:`write` /
:meth:`read`) or a batch at a time (:meth:`service_batch`).  Both forms go
through the one issue loop, :func:`repro.core.batching.issue`:

- :class:`FusedController` is the base of every registered controller.
  Each defines its request semantics once, as per-batch *steps*
  (:meth:`FusedController._batch_steps`): they keep counters and
  latencies columnar, emit the tracer spans and timeline records
  themselves, and are all that :meth:`FusedController.service_batch`
  runs.  Its :meth:`~FusedController.write` / :meth:`~FusedController.read`
  are batches of one through the same steps; a read's plaintext comes
  from the controller's untimed :meth:`FusedController._plaintext`.
- :meth:`MemoryController.service_batch` drives a controller's own
  ``write``/``read`` through the loop.  Wrappers that check or journal
  each request (``CheckedController``, ``CrashSimulator``) run this way,
  and so does a fused controller whose subclass overrides ``write`` or
  ``read`` (counted in ``batch.fallback.overridden_scalar``).
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

        Every observer rides the fused steps: a *tracer* or *timeline*
        receives per-request spans and records, a *stages* accumulator
        (**summary mode**) receives columnar per-batch flushes, and none of
        them sends a batch off the fused path.
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

    # -- request interface -----------------------------------------------------

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

        The shared issue loop drives :meth:`write` / :meth:`read`
        themselves, so wrappers and overrides see every request.
        """
        read = self.read

        def read_step(address: int, arrival_ns: float) -> tuple[float, float]:
            outcome = read(address, arrival_ns)
            return outcome.latency_ns, outcome.complete_ns

        return issue(batch, cursor, self.write, read_step, max_requests)

    # -- helpers ----------------------------------------------------------------

    def _check_line(self, data: bytes) -> None:
        if len(data) != self.line_size:
            raise ValueError(f"line must be {self.line_size} bytes, got {len(data)}")


class FusedController(MemoryController):
    """A controller whose requests all run through its per-batch steps.

    Subclasses define :meth:`_batch_steps` (and, for state the steps defer,
    :meth:`_finish_batch`) and :meth:`_plaintext`; a subclass that extends
    a parent's semantics wraps the parent's steps.  The steps are the only
    statement of a request's effects: :meth:`service_batch` runs them over
    a batch, :meth:`write` / :meth:`read` over one request.
    """

    stats: DeWriteStats

    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Service one line write: a batch of one through the write step."""
        columns = BatchColumns(self.stages.enabled)
        write, _ = self._batch_steps(columns)
        latency, deduplicated, complete = write(address, data, arrival_ns)
        self._finish_batch()
        columns.fold(self.stats, self.stages)
        return WriteOutcome(latency, deduplicated, complete)

    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        """Service one line read: a batch of one through the read step."""
        columns = BatchColumns(self.stages.enabled)
        _, read = self._batch_steps(columns)
        latency, complete = read(address, arrival_ns)
        self._finish_batch()
        columns.fold(self.stats, self.stages)
        return ReadOutcome(latency, self._plaintext(address), complete)

    def service_batch(
        self,
        batch: AccessBatch,
        cursor: BatchCursor,
        max_requests: int | None = None,
    ) -> BatchOutcome:
        """Service a batch through the fused steps.

        A subclass that overrides ``write`` or ``read`` has effects the
        steps lack, so its batches go through those methods instead
        (counted in ``batch.fallback.overridden_scalar``).
        """
        cls = type(self)
        owner = next(k for k in cls.__mro__ if "_batch_steps" in vars(k))
        if cls.write is not owner.write or cls.read is not owner.read:
            if cursor.active:
                registry().counter("batch.fallback.overridden_scalar").inc()
            return super().service_batch(batch, cursor, max_requests)
        columns = BatchColumns(self.stages.enabled)
        write, read = self._batch_steps(columns)
        outcome = issue(batch, cursor, write, read, max_requests)
        self._finish_batch()
        columns.fold(self.stats, self.stages)
        return outcome

    @abc.abstractmethod
    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """This batch's write and read steps, recording into ``columns``.

        The steps also emit the tracer spans and timeline records of each
        request, checking once per batch whether those observers are on.
        """

    def _finish_batch(self) -> None:
        """Write back any state the steps deferred to the end of the batch."""

    @abc.abstractmethod
    def _plaintext(self, address: int) -> bytes:
        """The line a read of ``address`` returns now (untimed, no side effects)."""
