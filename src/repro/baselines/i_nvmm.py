"""i-NVMM: incremental encryption of non-volatile main memory (paper §V).

i-NVMM (Chhabra & Solihin, ISCA'11) keeps *hot* data unencrypted in the
NVM for speed and encrypts pages only as they go cold (and everything at
shutdown).  The paper's §V criticism is architectural: unencrypted hot
lines traverse the memory bus in plaintext, so i-NVMM defends against the
stolen-DIMM attack but **not** bus snooping — which is why DeWrite
encrypts everything on the CPU side instead.

The model: an LRU hot set of lines.  Hot writes/reads skip the AES
latency and energy entirely; a line falling out of the hot set is
encrypted in place at eviction time (one background read-modify-write).
``plaintext_bus_transfers`` counts every unencrypted line that crossed
the bus — the quantified security exposure the comparison bench reports.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.baselines.secure_nvm import SecureNvmConfig, TraditionalSecureNvmController
from repro.core.batching import BatchColumns, ReadStep, WriteStep
from repro.crypto.counter_mode import CounterModeEngine
from repro.nvm.memory import NvmMainMemory


class INvmmController(TraditionalSecureNvmController):
    """Secure NVM with i-NVMM-style hot-data plaintext optimisation."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: SecureNvmConfig | None = None,
        cme: CounterModeEngine | None = None,
        hot_set_lines: int = 4096,
    ) -> None:
        super().__init__(nvm, config, cme)
        if hot_set_lines < 1:
            raise ValueError("hot set must hold at least one line")
        self.hot_set_lines = hot_set_lines
        self._hot: OrderedDict[int, None] = OrderedDict()
        self.plaintext_bus_transfers = 0
        self.cold_encryptions = 0

    # -- hot-set maintenance ---------------------------------------------------

    def _touch_hot(self, address: int, now_ns: float) -> None:
        if address in self._hot:
            self._hot.move_to_end(address)
            return
        self._hot[address] = None
        if len(self._hot) > self.hot_set_lines:
            victim, _ = self._hot.popitem(last=False)
            self._encrypt_cold_line(victim, now_ns)

    def _encrypt_cold_line(self, address: int, now_ns: float) -> None:
        """A line went cold: encrypt it in place (background RMW)."""
        if address not in self._written:
            return
        read_done = self.nvm.read(address, now_ns)
        counter = self._counters.get(address, 0) + 1
        self._counters[address] = counter
        ciphertext = self.cme.encrypt(self.nvm.peek(address), address, counter)
        self.nvm.energy.add_aes_line()
        self.nvm.write(address, ciphertext, read_done)
        self.cold_encryptions += 1

    # -- request semantics ---------------------------------------------------

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """Plaintext hot-set steps; cold reads take the parent's CME read step.

        Writes make their line hot and go to the array in plaintext,
        skipping AES; hot reads skip decryption (the data is plaintext at
        rest).  A cold read warms nothing: the stored copy stays encrypted
        until it is rewritten.
        """
        _, cold_read = super()._batch_steps(columns)
        stats = self.stats
        counters = self._counters
        written = self._written
        hot = self._hot
        touch_hot = self._touch_hot
        nvm_write = self.nvm.write
        nvm_read = self.nvm.read
        touch = self._counter_touch()
        line_size = self.line_size
        data_lines = self.data_lines
        write_latency = columns.write_latency.append
        read_latency = columns.read_latency.append
        stage_on = columns.stages_on
        st_wnvm = columns.stage("write.nvm")
        st_rmeta = columns.stage("read.metadata")
        st_rnvm = columns.stage("read.nvm")
        tracer = self.tracer
        trace_on = tracer.enabled
        timeline = self.timeline
        timeline_on = timeline.enabled

        def write_step(address: int, line: bytes, arrival: float) -> tuple[float, bool, float]:
            if len(line) != line_size:
                self._check_line(line)
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            touch_hot(address, arrival)
            stats.writes_requested += 1
            stats.writes_stored += 1
            self.plaintext_bus_transfers += 1
            now = arrival + touch(address, True, arrival)
            complete = nvm_write(address, line, now)  # plaintext, no AES
            written.add(address)
            # Invalidate any stale counter so a later cold read is impossible
            # to confuse with ciphertext: hot lines are marked counter-less.
            counters.pop(address, None)
            if stage_on:
                st_wnvm.append(complete - now)
            latency = complete - arrival
            write_latency(latency)
            if timeline_on:
                timeline.record_write(arrival, deduplicated=False, latency_ns=latency)
            if trace_on:
                tracer.span("write.nvm", now, complete, encrypted=False)
                tracer.span("write", arrival, complete, deduplicated=False)
            return latency, False, complete

        def read_step(address: int, arrival: float) -> tuple[float, float]:
            if address not in hot:
                return cold_read(address, arrival)
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.reads_requested += 1
            self.plaintext_bus_transfers += 1
            now = arrival + touch(address, False, arrival)
            complete = nvm_read(address, now)
            hot.move_to_end(address)
            if stage_on:
                st_rmeta.append(now - arrival)
                st_rnvm.append(complete - now)
            latency = complete - arrival
            read_latency(latency)
            if timeline_on:
                timeline.record_read(arrival, latency_ns=latency)
            if trace_on:
                tracer.span("read.metadata", arrival, now, redirected=False)
                tracer.span("read.nvm", now, complete)
                tracer.span("read", arrival, complete, hot=True)
            return latency, complete

        return write_step, read_step

    def _plaintext(self, address: int) -> bytes:
        if address in self._hot:
            return self.nvm.peek(address)
        return super()._plaintext(address)

    def shutdown(self, now_ns: float) -> int:
        """Encrypt every remaining hot line (the power-down sweep)."""
        victims = list(self._hot)
        self._hot.clear()
        for address in victims:
            self._encrypt_cold_line(address, now_ns)
        return len(victims)
