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
from repro.core.interface import ReadOutcome, WriteOutcome
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

    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Cancel all-zero writes; pass everything else to the CME path."""
        self._check_line(data)
        if data != self._zero_line:
            self._shredded.discard(address)
            return super().write(address, data, arrival_ns)

        self._check_data_address(address)
        self.stats.writes_requested += 1
        self.stats.writes_deduplicated += 1
        self._shredded.add(address)
        # The cancellation is a counter manipulation: one counter-cache
        # write, no array access, no encryption.
        extra = self._access_counter(address, write=True, now_ns=arrival_ns)
        complete = arrival_ns + extra
        latency = complete - arrival_ns
        self.stats.write_latency.add(latency)
        tracer = self.tracer
        if tracer.enabled:
            tracer.span("write.meta", arrival_ns, complete, shredded=True)
            tracer.span("write", arrival_ns, complete, deduplicated=True)
        stages = self.stages
        if stages.enabled:
            stages.record("write.meta", complete - arrival_ns)
            stages.record("write", complete - arrival_ns)
        return WriteOutcome(latency_ns=latency, deduplicated=True, complete_ns=complete)

    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        """Serve shredded lines from the counter state, zero-fill, no array read."""
        if address not in self._shredded:
            return super().read(address, arrival_ns)

        self._check_data_address(address)
        self.stats.reads_requested += 1
        extra = self._access_counter(address, write=False, now_ns=arrival_ns)
        meta_done = arrival_ns + extra
        complete = meta_done + self.config.xor_latency_ns
        latency = complete - arrival_ns
        self.stats.read_latency.add(latency)
        tracer = self.tracer
        if tracer.enabled:
            tracer.span("read.metadata", arrival_ns, meta_done, redirected=False)
            tracer.span("read.crypto", meta_done, complete, decrypted=False)
            tracer.span("read", arrival_ns, complete, shredded=True)
        stages = self.stages
        if stages.enabled:
            stages.record("read.metadata", meta_done - arrival_ns)
            stages.record("read.crypto", complete - meta_done)
            stages.record("read", complete - arrival_ns)
        return ReadOutcome(latency_ns=latency, data=self._zero_line, complete_ns=complete)

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """The parent's steps with the zero-line shortcut in front, as in :meth:`write` / :meth:`read`."""
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

        def write(address: int, line: bytes, arrival: float) -> tuple[float, bool, float]:
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
            return latency, True, complete

        def read(address: int, arrival: float) -> float:
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
            return latency

        return write, read

    @property
    def shredded_lines(self) -> int:
        """Lines currently in the shredded (all-zero) state."""
        return len(self._shredded)
