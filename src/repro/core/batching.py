"""The one issue loop shared by every controller, and its replay state.

The simulator owns trace splitting and the CPU stall model parameters; a
:class:`BatchCursor` carries the replay state (per-core position and local
time, cycle accumulators) across ``service_batch`` calls; and
:func:`issue` is the only per-request loop.  It merges the per-core
streams in *global arrival order* with ``min(active, key=next_arrival)``
(ties follow the active set's iteration order, because bank occupancy
makes request order causally significant), with a fast path while a
single stream is active, and hands each request to a *step*:

- ``write(address, line, arrival_ns) -> (latency_ns, deduplicated,
  complete_ns)`` — the shape of
  :class:`~repro.core.interface.WriteOutcome`, so a controller's scalar
  ``write`` is a valid step;
- ``read(address, arrival_ns) -> latency_ns``.

The scalar reference passes a controller's ``write``/``read`` (its read
wrapped to return the latency) as the steps; fused controllers pass
per-batch closures that bind the controller's internals once and keep
latencies and stage samples columnar (:class:`BatchColumns`), folded back
once per batch.  Either way the cursor advances through the same float
operations, so reports are byte-identical whichever steps ran.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stats import DeWriteStats
    from repro.obs.stages import StagesLike
    from repro.workloads.batch import AccessBatch

#: ``(address, line, arrival_ns) -> (latency_ns, deduplicated, complete_ns)``.
WriteStep = Callable[[int, bytes, float], tuple[float, bool, float]]
#: ``(address, arrival_ns) -> latency_ns``.
ReadStep = Callable[[int, float], float]


class BatchOutcome(NamedTuple):
    """What one ``service_batch`` call issued."""

    serviced: int
    reads: int
    writes: int
    deduplicated: int


class BatchCursor:
    """Replay state of one batch across ``service_batch`` calls.

    Per-core index streams (trace order), per-core positions and local
    clocks, and the instruction/cycle accumulators the report is built
    from.
    """

    __slots__ = (
        "batch",
        "streams",
        "positions",
        "core_time",
        "active",
        "instructions",
        "stall_cycles",
        "compute_cycles",
        "ns_per_instruction",
        "read_stall_exposure",
        "clock_ghz",
        "base_cpi",
    )

    def __init__(
        self,
        batch: AccessBatch,
        *,
        ns_per_instruction: float,
        read_stall_exposure: float,
        clock_ghz: float,
        base_cpi: float,
    ) -> None:
        # Per-core streams in trace order, then the active set: the set's
        # element history determines min()'s tie-breaking in issue(), so
        # this construction order is part of the report's identity.
        streams: dict[int, list[int]] = {}
        cores = batch.cores
        for index in range(len(batch)):
            core = cores[index]
            stream = streams.get(core)
            if stream is None:
                streams[core] = stream = []
            stream.append(index)
        self.batch = batch
        self.streams = streams
        self.positions = {core: 0 for core in streams}
        self.core_time = {core: 0.0 for core in streams}
        self.active = {core for core, stream in streams.items() if stream}
        self.instructions = 0
        self.stall_cycles = 0.0
        self.compute_cycles = 0.0
        self.ns_per_instruction = ns_per_instruction
        self.read_stall_exposure = read_stall_exposure
        self.clock_ghz = clock_ghz
        self.base_cpi = base_cpi

    @property
    def done(self) -> bool:
        """Whether every access of the batch has been serviced."""
        return not self.active

    @property
    def serviced(self) -> int:
        """Accesses issued so far."""
        return sum(self.positions.values())

    def makespan_ns(self) -> float:
        """Latest per-core local time (the run's makespan once done)."""
        return max(self.core_time.values(), default=0.0)


class BatchColumns:
    """Per-request samples of one fused batch, folded into the controller once.

    Steps append each request's latency to :attr:`write_latency` /
    :attr:`read_latency` and, when :attr:`stages_on`, each stage duration
    to a :meth:`stage` lane.  :meth:`fold` adds them in request order,
    which is bit-identical to the scalar path adding them one request at a
    time.  A request's latency is also its ``write``/``read`` stage sample,
    so those two stages need no lanes of their own.
    """

    __slots__ = ("write_latency", "read_latency", "stages_on", "_lanes")

    def __init__(self, stages_on: bool) -> None:
        self.write_latency: list[float] = []
        self.read_latency: list[float] = []
        self.stages_on = stages_on
        self._lanes: dict[str, list[float]] = {}

    def stage(self, name: str) -> list[float]:
        """The sample lane of one stage (shared by every step that records it)."""
        lane = self._lanes.get(name)
        if lane is None:
            lane = self._lanes[name] = []
        return lane

    def fold(self, stats: DeWriteStats, stages: StagesLike) -> None:
        """Add the batch's samples to the latency accumulators and stages."""
        stats.write_latency.add_many(self.write_latency)
        stats.read_latency.add_many(self.read_latency)
        if self.stages_on:
            stages.record_many("write", self.write_latency)
            stages.record_many("read", self.read_latency)
            for name, lane in self._lanes.items():
                stages.record_many(name, lane)


def issue(
    batch: AccessBatch,
    cursor: BatchCursor,
    write: WriteStep,
    read: ReadStep,
    max_requests: int | None = None,
) -> BatchOutcome:
    """Issue up to ``max_requests`` accesses of ``batch`` through ``cursor``.

    Each access computes for its instruction gap, arrives, and is handed
    to ``write`` or ``read``.  A read stalls its core for
    ``read_stall_exposure`` of its latency; a persistent write stalls it
    until the write completes; a posted write does not stall it.
    """
    ops = batch.ops
    addresses = batch.addresses
    gaps = batch.gaps
    persistent = batch.persistent
    slots = batch.slots
    payload = batch.payload
    line_size = batch.line_size
    streams = cursor.streams
    positions = cursor.positions
    core_time = cursor.core_time
    active = cursor.active
    npi = cursor.ns_per_instruction
    exposure = cursor.read_stall_exposure
    clock = cursor.clock_ghz
    base_cpi = cursor.base_cpi

    instructions = cursor.instructions
    stall_cycles = cursor.stall_cycles
    compute_cycles = cursor.compute_cycles
    issued = reads = writes = deduplicated = 0

    def next_arrival(core: int) -> float:
        return core_time[core] + gaps[streams[core][positions[core]]] * npi

    while active and issued != max_requests:
        if len(active) == 1:
            # Single-stream fast path: with one active core there is
            # nothing to merge, so the per-iteration min()/dict traffic
            # collapses to sequential replay over plain locals.  Every
            # arithmetic operation matches the general path exactly.
            core = next(iter(active))
            stream = streams[core]
            position = positions[core]
            length = len(stream)
            now = core_time[core]
            while position < length and issued != max_requests:
                index = stream[position]
                gap = gaps[index]
                arrival = now + gap * npi
                instructions += gap
                compute_cycles += gap * base_cpi
                if ops[index]:
                    slot = slots[index]
                    latency, dedup, complete = write(
                        addresses[index], payload[slot : slot + line_size], arrival
                    )
                    writes += 1
                    if dedup:
                        deduplicated += 1
                    if persistent[index]:
                        now = complete
                        stall_cycles += latency * clock
                    else:
                        now = arrival
                else:
                    exposed = read(addresses[index], arrival) * exposure
                    now = arrival + exposed
                    stall_cycles += exposed * clock
                    reads += 1
                issued += 1
                position += 1
            positions[core] = position
            core_time[core] = now
            if position >= length:
                active.discard(core)
            continue
        core = min(active, key=next_arrival)
        stream = streams[core]
        position = positions[core]
        index = stream[position]
        gap = gaps[index]
        arrival = core_time[core] + gap * npi
        instructions += gap
        compute_cycles += gap * base_cpi
        if ops[index]:
            slot = slots[index]
            latency, dedup, complete = write(
                addresses[index], payload[slot : slot + line_size], arrival
            )
            writes += 1
            if dedup:
                deduplicated += 1
            if persistent[index]:
                core_time[core] = complete
                stall_cycles += latency * clock
            else:
                core_time[core] = arrival
        else:
            exposed = read(addresses[index], arrival) * exposure
            core_time[core] = arrival + exposed
            stall_cycles += exposed * clock
            reads += 1
        issued += 1
        position += 1
        positions[core] = position
        if position >= len(stream):
            active.discard(core)

    cursor.instructions = instructions
    cursor.stall_cycles = stall_cycles
    cursor.compute_cycles = compute_cycles
    return BatchOutcome(issued, reads, writes, deduplicated)
