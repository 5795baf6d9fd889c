"""Silent Shredder: zero-line write elimination (Awad et al., ASPLOS'16).

The paper's closest line-level competitor (§II-C, §V): data *shredding*
(zeroing) dominates some workloads, so Silent Shredder cancels writes of
all-zero lines by manipulating counters instead of touching the array, and
services reads of shredded lines without an NVM access.  It eliminates only
~16 % of writes on average across the paper's 20 applications (Fig. 2)
because most duplicate lines are non-zero — the observation motivating
DeWrite.

Implementation: a thin extension of the traditional secure-NVM controller
with a shredded-line set; the shredded state piggybacks on the counter
metadata (as in the original design), so its cache traffic reuses the
counter cache.
"""

from __future__ import annotations

from repro.baselines.secure_nvm import SecureNvmConfig, TraditionalSecureNvmController
from repro.core.batching import BatchColumns, ReadStep, WriteStep
from repro.crypto.counter_mode import CounterModeEngine
from repro.nvm.memory import NvmMainMemory


class SilentShredderController(TraditionalSecureNvmController):
    """Secure NVM controller that silently drops all-zero line writes."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: SecureNvmConfig | None = None,
        cme: CounterModeEngine | None = None,
    ) -> None:
        super().__init__(nvm, config, cme)
        self._zero_line = bytes(self.line_size)
        self._shredded: set[int] = set()

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """The parent's steps with the zero-line shortcut in front.

        An all-zero write is cancelled by a counter manipulation: one
        counter-cache write, no array access, no encryption.  A read of a
        shredded line is served from the counter state, zero-filled, with
        no array read.  Every other request takes the CME path.
        """
        cme_write, cme_read = super()._batch_steps(columns)
        stats = self.stats
        shredded = self._shredded
        zero_line = self._zero_line
        touch = self._counter_touch()
        xor_ns = self.config.xor_latency_ns
        data_lines = self.data_lines
        write_latency = columns.write_latency.append
        read_latency = columns.read_latency.append
        stage_on = columns.stages_on
        st_wmeta = columns.stage("write.meta")
        st_rmeta = columns.stage("read.metadata")
        st_rcrypto = columns.stage("read.crypto")
        tracer = self.tracer
        trace_on = tracer.enabled
        timeline = self.timeline
        timeline_on = timeline.enabled

        def write_step(address: int, line: bytes, arrival: float) -> tuple[float, bool, float]:
            if line != zero_line:
                shredded.discard(address)
                return cme_write(address, line, arrival)
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.writes_requested += 1
            stats.writes_deduplicated += 1
            shredded.add(address)
            complete = arrival + touch(address, True, arrival)
            latency = complete - arrival
            if stage_on:
                st_wmeta.append(latency)
            write_latency(latency)
            if timeline_on:
                timeline.record_write(arrival, deduplicated=True, latency_ns=latency)
            if trace_on:
                tracer.span("write.meta", arrival, complete, shredded=True)
                tracer.span("write", arrival, complete, deduplicated=True)
            return latency, True, complete

        def read_step(address: int, arrival: float) -> tuple[float, float]:
            if address not in shredded:
                return cme_read(address, arrival)
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.reads_requested += 1
            meta_done = arrival + touch(address, False, arrival)
            complete = meta_done + xor_ns
            if stage_on:
                st_rmeta.append(meta_done - arrival)
                st_rcrypto.append(complete - meta_done)
            latency = complete - arrival
            read_latency(latency)
            if timeline_on:
                timeline.record_read(arrival, latency_ns=latency)
            if trace_on:
                tracer.span("read.metadata", arrival, meta_done, redirected=False)
                tracer.span("read.crypto", meta_done, complete, decrypted=False)
                tracer.span("read", arrival, complete, shredded=True)
            return latency, complete

        return write_step, read_step

    def _plaintext(self, address: int) -> bytes:
        if address in self._shredded:
            return self._zero_line
        return super()._plaintext(address)

    @property
    def shredded_lines(self) -> int:
        """Lines currently in the shredded (all-zero) state."""
        return len(self._shredded)
