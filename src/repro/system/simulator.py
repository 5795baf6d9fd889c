"""Multi-core trace-driven system simulator.

Each core replays its slice of the trace: compute for the access's
instruction gap, then issue the request to the memory controller at its
current time.  Requests are processed in *global arrival order* (a small
merge across per-core cursors), which keeps the bank busy-until model
causally consistent.

Stall semantics (see :mod:`repro.system.cpu`):

- read: the core resumes after ``exposure × latency``;
- persistent write: the core resumes when the write completes (clwb+fence);
- posted write (LLC writeback): the core resumes immediately; the write
  still occupies its bank, which is what builds the queues DeWrite's
  eliminated writes dissolve.

IPC is aggregate: total instructions / cycles of the longest-running core.

The per-request loop itself is :func:`repro.core.batching.issue`.  The
trace's columnar :class:`~repro.workloads.batch.AccessBatch` is driven
through the controller's
:meth:`~repro.core.interface.MemoryController.service_batch` in
``batch_size``-request slices (fused controllers run their fused steps);
``batch_size=None`` instead runs the whole trace through the scalar
reference, :meth:`MemoryController.service_batch
<repro.core.interface.MemoryController.service_batch>`, which drives the
controller's own ``write``/``read``.  Both produce byte-identical reports.
"""

from __future__ import annotations

from repro.core.batching import BatchCursor
from repro.core.interface import MemoryController
from repro.system.cpu import CoreModelConfig
from repro.system.metrics import SimulationReport
from repro.workloads.trace import Trace

DEFAULT_BATCH_SIZE = 1024


class SystemSimulator:
    """Replay one trace through one memory controller."""

    def __init__(
        self,
        controller: MemoryController,
        trace: Trace,
        core_config: CoreModelConfig | None = None,
        batch_size: int | None = DEFAULT_BATCH_SIZE,
    ) -> None:
        """``batch_size`` caps the requests per ``service_batch`` call;
        ``None`` runs the trace through the scalar reference instead."""
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive (or None for scalar)")
        self.controller = controller
        self.trace = trace
        self.core_config = core_config if core_config is not None else CoreModelConfig()
        self.batch_size = batch_size

    def run(self) -> SimulationReport:
        """Execute the whole trace; returns the aggregated report."""
        cfg = self.core_config
        batch = self.trace.as_batch()
        cursor = BatchCursor(
            batch,
            ns_per_instruction=cfg.ns_per_instruction,
            read_stall_exposure=cfg.read_stall_exposure,
            clock_ghz=cfg.clock_ghz,
            base_cpi=cfg.base_cpi,
        )
        controller = self.controller
        size = self.batch_size
        tracer = controller.tracer
        if size is None:
            # The scalar reference services the whole trace in one call,
            # even for controllers with fused steps; the loop below then
            # finds the cursor done.
            MemoryController.service_batch(controller, batch, cursor)
        while not cursor.done:
            start_ns = cursor.makespan_ns()
            outcome = controller.service_batch(batch, cursor, max_requests=size)
            if tracer.enabled and outcome.serviced:
                # One aggregated span per controller batch: the coarse
                # counterpart of the per-request write/read spans, showing
                # how the run was sliced into bursts.
                tracer.span(
                    "batch",
                    start_ns,
                    cursor.makespan_ns(),
                    serviced=outcome.serviced,
                    reads=outcome.reads,
                    writes=outcome.writes,
                    deduplicated=outcome.deduplicated,
                )
        return self._report(
            cursor.instructions,
            cursor.compute_cycles,
            cursor.stall_cycles,
            cursor.makespan_ns(),
        )

    # -- shared report assembly --------------------------------------------------

    def _report(
        self,
        instructions: int,
        compute_cycles: float,
        stall_cycles: float,
        makespan: float,
    ) -> SimulationReport:
        total_cycles = compute_cycles + stall_cycles
        ipc = instructions / total_cycles if total_cycles else 0.0

        nvm = self.controller.nvm
        stats = self.controller.stats
        return SimulationReport(
            workload=self.trace.name,
            controller=type(self.controller).__name__,
            instructions=instructions,
            total_cycles=total_cycles,
            ipc=ipc,
            makespan_ns=makespan,
            mean_write_latency_ns=stats.write_latency.mean_ns,
            mean_read_latency_ns=stats.read_latency.mean_ns,
            energy_nj=nvm.energy.total_nj,
            energy_breakdown=nvm.energy.breakdown(),
            wear=nvm.wear.summary(),
            stats=stats,
            mean_bank_wait_ns=nvm.mean_bank_wait_ns(),
        )


def simulate(
    controller: MemoryController,
    trace: Trace,
    core_config: CoreModelConfig | None = None,
    batch_size: int | None = DEFAULT_BATCH_SIZE,
) -> SimulationReport:
    """One-shot convenience wrapper around :class:`SystemSimulator`."""
    return SystemSimulator(controller, trace, core_config, batch_size=batch_size).run()
