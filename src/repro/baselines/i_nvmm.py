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
from repro.core.interface import ReadOutcome, WriteOutcome
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
        stored = self.nvm.read(address, now_ns)
        counter = self._counters.get(address, 0) + 1
        self._counters[address] = counter
        ciphertext = self.cme.encrypt(stored.data, address, counter)
        self.nvm.energy.add_aes_line()
        self.nvm.write(address, ciphertext, stored.complete_ns)
        self.cold_encryptions += 1

    def _is_hot(self, address: int) -> bool:
        return address in self._hot

    # -- request interface ---------------------------------------------------

    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Hot writes go to the array in plaintext, skipping AES."""
        self._check_line(data)
        self._check_data_address(address)
        self._touch_hot(address, arrival_ns)

        self.stats.writes_requested += 1
        self.stats.writes_stored += 1
        self.plaintext_bus_transfers += 1
        now = arrival_ns + self._access_counter(address, write=True, now_ns=arrival_ns)
        written = self.nvm.write(address, data, now)  # plaintext, no AES
        self._written.add(address)
        # Invalidate any stale counter so a later cold read is impossible
        # to confuse with ciphertext: hot lines are marked counter-less.
        self._counters.pop(address, None)
        latency = written.complete_ns - arrival_ns
        self.stats.write_latency.add(latency)
        tracer = self.tracer
        if tracer.enabled:
            tracer.span("write.nvm", now, written.complete_ns, encrypted=False)
            tracer.span("write", arrival_ns, written.complete_ns, deduplicated=False)
        stages = self.stages
        if stages.enabled:
            stages.record("write.nvm", written.complete_ns - now)
            stages.record("write", written.complete_ns - arrival_ns)
        return WriteOutcome(
            latency_ns=latency, deduplicated=False, complete_ns=written.complete_ns
        )

    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        """Hot reads skip decryption (the data is plaintext at rest)."""
        if not self._is_hot(address):
            outcome = super().read(address, arrival_ns)
            # A cold read warms the line per i-NVMM's access tracking, but
            # the stored copy stays encrypted until it is rewritten.
            return outcome

        self._check_data_address(address)
        self.stats.reads_requested += 1
        self.plaintext_bus_transfers += 1
        now = arrival_ns + self._access_counter(address, write=False, now_ns=arrival_ns)
        read = self.nvm.read(address, now)
        self._hot.move_to_end(address)
        latency = read.complete_ns - arrival_ns
        self.stats.read_latency.add(latency)
        tracer = self.tracer
        if tracer.enabled:
            tracer.span("read.metadata", arrival_ns, now, redirected=False)
            tracer.span("read.nvm", now, read.complete_ns)
            tracer.span("read", arrival_ns, read.complete_ns, hot=True)
        stages = self.stages
        if stages.enabled:
            stages.record("read.metadata", now - arrival_ns)
            stages.record("read.nvm", read.complete_ns - now)
            stages.record("read", read.complete_ns - arrival_ns)
        return ReadOutcome(latency_ns=latency, data=read.data, complete_ns=read.complete_ns)

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """Plaintext hot-set steps; cold reads take the parent's CME read step."""
        _, cold_read = super()._batch_steps(columns)
        stats = self.stats
        counters = self._counters
        written = self._written
        hot = self._hot
        touch_hot = self._touch_hot
        is_hot = self._is_hot
        nvm_write_done = self.nvm.write_complete_ns
        nvm_read_done = self.nvm.read_complete_ns
        touch = self._counter_touch()
        line_size = self.line_size
        data_lines = self.data_lines
        write_latency = columns.write_latency.append
        read_latency = columns.read_latency.append
        stage_on = columns.stages_on
        st_wnvm = columns.stage("write.nvm")
        st_rmeta = columns.stage("read.metadata")
        st_rnvm = columns.stage("read.nvm")

        def write(address: int, line: bytes, arrival: float) -> tuple[float, bool, float]:
            if len(line) != line_size:
                self._check_line(line)
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            touch_hot(address, arrival)
            stats.writes_requested += 1
            stats.writes_stored += 1
            self.plaintext_bus_transfers += 1
            now = arrival + touch(address, True, arrival)
            complete = nvm_write_done(address, line, now)  # plaintext, no AES
            written.add(address)
            counters.pop(address, None)
            if stage_on:
                st_wnvm.append(complete - now)
            latency = complete - arrival
            write_latency(latency)
            return latency, False, complete

        def read(address: int, arrival: float) -> float:
            if not is_hot(address):
                return cold_read(address, arrival)
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.reads_requested += 1
            self.plaintext_bus_transfers += 1
            now = arrival + touch(address, False, arrival)
            complete = nvm_read_done(address, now)
            hot.move_to_end(address)
            if stage_on:
                st_rmeta.append(now - arrival)
                st_rnvm.append(complete - now)
            latency = complete - arrival
            read_latency(latency)
            return latency

        return write, read

    def shutdown(self, now_ns: float) -> int:
        """Encrypt every remaining hot line (the power-down sweep)."""
        victims = list(self._hot)
        self._hot.clear()
        for address in victims:
            self._encrypt_cold_line(address, now_ns)
        return len(victims)
