"""Traditional secure NVM: counter-mode encryption, no deduplication.

This is the paper's baseline system (§IV-A): every line write is encrypted
under its per-line counter and written to the array; every read fetches the
counter (cached on-chip), overlaps OTP generation with the array access and
XORs.  The counter table lives in a dedicated NVM region — no colocation —
and its hot blocks sit in the same 2 MB-class metadata cache DeWrite reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.batching import BatchColumns, ReadStep, WriteStep
from repro.core.interface import FusedController
from repro.core.metadata_cache import MetadataCache
from repro.core.stats import DeWriteStats
from repro.crypto.counter_mode import CounterModeEngine
from repro.crypto.split_counter import SplitCounterStore
from repro.crypto.otp import SplitmixPadGenerator
from repro.nvm.memory import NvmMainMemory


@dataclass(frozen=True)
class SecureNvmConfig:
    """Baseline controller parameters (matching DeWrite's constants).

    ``use_split_counters`` enables the major/minor split-counter scheme
    with overflow-triggered page re-encryption (see
    :mod:`repro.crypto.split_counter`); the default single 28-bit counter
    matches the paper's assumption and never overflows at simulation scale.
    """

    aes_latency_ns: float = 96.0
    xor_latency_ns: float = 0.5
    metadata_decrypt_ns: float = 96.0
    counter_bits: int = 28
    counter_cache_bytes: int = 2 * 1024 * 1024
    counters_per_block: int = 256
    use_split_counters: bool = False
    minor_counter_bits: int = 28
    lines_per_page: int = 16

    @property
    def counter_cache_blocks(self) -> int:
        """Blocks the counter cache holds."""
        return self.counter_cache_bytes * 8 // (self.counter_bits * self.counters_per_block)


class TraditionalSecureNvmController(FusedController):
    """CME-only memory controller: the paper's comparison system."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: SecureNvmConfig | None = None,
        cme: CounterModeEngine | None = None,
    ) -> None:
        super().__init__(nvm)
        self.config = config if config is not None else SecureNvmConfig()
        self.cme = cme if cme is not None else CounterModeEngine()
        self.stats = DeWriteStats()
        self._counters: dict[int, int] = {}
        self._split: SplitCounterStore | None = None
        if self.config.use_split_counters:
            self._split = SplitCounterStore(
                minor_bits=self.config.minor_counter_bits,
                lines_per_page=self.config.lines_per_page,
            )
        self._written: set[int] = set()
        self.page_reencryptions = 0
        self.reencrypted_lines = 0
        self.counter_cache = MetadataCache(
            "counters", self.config.counter_cache_blocks, self.config.counters_per_block
        )
        # Counter table region at the top of the device.
        org = nvm.config.organization
        line_bits = org.line_size_bytes * 8
        counter_lines = max(
            1, (org.total_lines * self.config.counter_bits + line_bits - 1) // line_bits
        )
        self.data_lines = org.total_lines - counter_lines
        self._counter_base = self.data_lines
        self._counter_lines = counter_lines
        self._payloads = SplitmixPadGenerator(b"\x3c" * 16)
        self._payload_version = 0

    # -- request semantics ---------------------------------------------------

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """Counter-mode write and read as fused steps.

        A write encrypts under the bumped counter and writes through the
        bank; a read fetches the counter, reads the array with the OTP
        overlapped and XORs.  Counters go straight to the stats object,
        latencies and stage samples to ``columns``.  Reads skip the
        plaintext reconstruction (:meth:`_plaintext` does it untimed);
        metadata latency, array timing and AES energy are charged.
        """
        stats = self.stats
        counters = self._counters
        split = self._split
        written = self._written
        encrypt = self.cme.encrypt
        add_aes_line = self.nvm.energy.add_aes_line
        nvm_write = self.nvm.write
        nvm_read = self.nvm.read
        touch = self._counter_touch()
        aes_ns = self.config.aes_latency_ns
        xor_ns = self.config.xor_latency_ns
        line_size = self.line_size
        data_lines = self.data_lines
        write_latency = columns.write_latency.append
        read_latency = columns.read_latency.append
        stage_on = columns.stages_on
        st_wcrypto = columns.stage("write.crypto")
        st_wnvm = columns.stage("write.nvm")
        st_rmeta = columns.stage("read.metadata")
        st_rnvm = columns.stage("read.nvm")
        st_rcrypto = columns.stage("read.crypto")
        tracer = self.tracer
        trace_on = tracer.enabled
        timeline = self.timeline
        timeline_on = timeline.enabled

        def write_step(address: int, line: bytes, arrival: float) -> tuple[float, bool, float]:
            if len(line) != line_size:
                self._check_line(line)
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.writes_requested += 1
            stats.writes_stored += 1
            now = arrival + touch(address, True, arrival)
            if split is None:
                counter = counters.get(address, 0) + 1
                counters[address] = counter
                overflow = None
            else:
                counter, overflow = split.advance(address)
            ciphertext = encrypt(line, address, counter)
            add_aes_line()
            issue = now + aes_ns
            complete = nvm_write(address, ciphertext, issue)
            written.add(address)
            if overflow is not None:
                self._reencrypt_page(overflow, address, complete)
            if stage_on:
                st_wcrypto.append(issue - now)
                st_wnvm.append(complete - issue)
            latency = complete - arrival
            write_latency(latency)
            if timeline_on:
                timeline.record_write(arrival, deduplicated=False, latency_ns=latency)
            if trace_on:
                tracer.span("write.crypto", now, issue)
                tracer.span("write.nvm", issue, complete)
                tracer.span("write", arrival, complete, deduplicated=False)
            return latency, False, complete

        def read_step(address: int, arrival: float) -> tuple[float, float]:
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.reads_requested += 1
            issue = arrival + touch(address, False, arrival)
            decrypted = (address in counters) if split is None else (address in written)
            if decrypted:
                add_aes_line()  # OTP generation for decryption
            done = nvm_read(address, issue)
            now = done + xor_ns
            if stage_on:
                st_rmeta.append(issue - arrival)
                st_rnvm.append(done - issue)
                st_rcrypto.append(now - done)
            latency = now - arrival
            read_latency(latency)
            if timeline_on:
                timeline.record_read(arrival, latency_ns=latency)
            if trace_on:
                tracer.span("read.metadata", arrival, issue, redirected=False)
                tracer.span("read.nvm", issue, done)
                tracer.span("read.crypto", done, now, decrypted=decrypted)
                tracer.span("read", arrival, now, redirected=False)
            return latency, now

        return write_step, read_step

    def _plaintext(self, address: int) -> bytes:
        if self._split is not None:
            counter = self._split.counter_of(address) if address in self._written else None
        else:
            counter = self._counters.get(address)
        if counter is None:
            return bytes(self.line_size)
        return self.cme.decrypt(self.nvm.peek(address), address, counter)

    def _reencrypt_page(self, overflow, triggering_line: int, now_ns: float) -> None:
        """Service a minor-counter overflow: re-encrypt the whole page
        under the bumped major counter (posted; the triggering write has
        already gone out under the new counter)."""
        self.page_reencryptions += 1
        for member in overflow.lines:
            if member == triggering_line or member not in self._written:
                continue
            read_done = self.nvm.read(member, now_ns)
            stored = self.nvm.peek(member)
            plaintext = self.cme.decrypt(stored, member, overflow.old_counters[member])
            fresh = self.cme.encrypt(plaintext, member, self._split.counter_of(member))
            self.nvm.energy.add_aes_line()
            self.nvm.write(member, fresh, read_done)
            self.reencrypted_lines += 1
            now_ns = read_done

    # -- counter-cache plumbing ---------------------------------------------

    def _access_counter(self, address: int, write: bool, now_ns: float) -> float:
        """Touch the counter cache; returns blocking latency added."""
        result = self.counter_cache.access(address, write)
        if self.timeline.enabled:
            self.timeline.record_metadata(now_ns, hit=result.hit)
        extra = 0.0
        if not result.hit:
            line = self._counter_line_for(result.block)
            fetched = self.nvm.read(line, now_ns)
            self.stats.metadata_reads += 1
            extra = (fetched - now_ns) + self.config.metadata_decrypt_ns
        if result.evicted_dirty_block is not None:
            self._writeback_counters(result.evicted_dirty_block, now_ns)
        return extra

    def _counter_touch(self) -> Callable[[int, bool, float], float]:
        """:meth:`_access_counter` for fused steps: resident blocks refresh inline.

        A hit has exactly :meth:`MetadataCache.access`'s effects (hit count,
        LRU motion, dirty bit, the timeline's metadata record) without
        allocating its result; a miss takes :meth:`_access_counter` itself.
        """
        cache = self.counter_cache
        blocks = cache._blocks
        per_block = cache.entries_per_block
        access_counter = self._access_counter
        timeline = self.timeline
        timeline_on = timeline.enabled

        def touch(address: int, write: bool, now_ns: float) -> float:
            block = address // per_block
            if block in blocks:
                cache.hits += 1
                blocks.move_to_end(block)
                if write:
                    blocks[block] = True
                if timeline_on:
                    timeline.record_metadata(now_ns, hit=True)
                return 0.0
            return access_counter(address, write, now_ns)

        return touch

    def _writeback_counters(self, block: int, now_ns: float) -> None:
        self._payload_version += 1
        line = self._counter_line_for(block)
        payload = self._payloads.pad(
            line, self._payload_version, self.nvm.config.organization.line_size_bytes
        )
        self.nvm.write(line, payload, now_ns)
        self.stats.metadata_writebacks += 1

    def _counter_line_for(self, block: int) -> int:
        return self._counter_base + block % self._counter_lines

    def _check_data_address(self, address: int) -> None:
        if not 0 <= address < self.data_lines:
            raise IndexError(f"data line {address} out of range [0, {self.data_lines})")
