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
from repro.core.interface import FusedController, ReadOutcome, WriteOutcome
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

    # -- request interface ---------------------------------------------------

    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Encrypt under the bumped counter and write through the bank."""
        self._check_line(data)
        self._check_data_address(address)
        self.stats.writes_requested += 1
        self.stats.writes_stored += 1

        now = arrival_ns + self._access_counter(address, write=True, now_ns=arrival_ns)
        if self._split is not None:
            counter, overflow = self._split.advance(address)
        else:
            counter = self._counters.get(address, 0) + 1
            self._counters[address] = counter
            overflow = None
        ciphertext = self.cme.encrypt(data, address, counter)
        self.nvm.energy.add_aes_line()

        issue = now + self.config.aes_latency_ns
        written = self.nvm.write(address, ciphertext, issue)
        self._written.add(address)
        if overflow is not None:
            self._reencrypt_page(overflow, address, written.complete_ns)
        latency = written.complete_ns - arrival_ns
        self.stats.write_latency.add(latency)
        if self.timeline.enabled:
            self.timeline.record_write(arrival_ns, deduplicated=False, latency_ns=latency)
        tracer = self.tracer
        if tracer.enabled:
            tracer.span("write.crypto", now, issue)
            tracer.span("write.nvm", issue, written.complete_ns, wait_ns=written.wait_ns)
            tracer.span("write", arrival_ns, written.complete_ns, deduplicated=False)
        stages = self.stages
        if stages.enabled:
            stages.record("write.crypto", issue - now)
            stages.record("write.nvm", written.complete_ns - issue)
            stages.record("write", written.complete_ns - arrival_ns)
        return WriteOutcome(
            latency_ns=latency, deduplicated=False, complete_ns=written.complete_ns
        )

    def _reencrypt_page(self, overflow, triggering_line: int, now_ns: float) -> None:
        """Service a minor-counter overflow: re-encrypt the whole page
        under the bumped major counter (posted; the triggering write has
        already gone out under the new counter)."""
        self.page_reencryptions += 1
        for member in overflow.lines:
            if member == triggering_line or member not in self._written:
                continue
            stored = self.nvm.read(member, now_ns)
            plaintext = self.cme.decrypt(stored.data, member, overflow.old_counters[member])
            fresh = self.cme.encrypt(plaintext, member, self._split.counter_of(member))
            self.nvm.energy.add_aes_line()
            self.nvm.write(member, fresh, stored.complete_ns)
            self.reencrypted_lines += 1
            now_ns = stored.complete_ns

    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        """Fetch counter, read the array with the OTP overlapped, XOR."""
        self._check_data_address(address)
        self.stats.reads_requested += 1
        now = arrival_ns + self._access_counter(address, write=False, now_ns=arrival_ns)

        if self._split is not None:
            counter = self._split.counter_of(address) if address in self._written else None
        else:
            counter = self._counters.get(address)
        issue = now
        if counter is None:
            read = self.nvm.read(address, now)
            now = read.complete_ns + self.config.xor_latency_ns
            data = bytes(self.line_size)
        else:
            read = self.nvm.read(address, now)
            self.nvm.energy.add_aes_line()  # OTP generation for decryption
            now = read.complete_ns + self.config.xor_latency_ns
            data = self.cme.decrypt(read.data, address, counter)

        latency = now - arrival_ns
        self.stats.read_latency.add(latency)
        if self.timeline.enabled:
            self.timeline.record_read(arrival_ns, latency_ns=latency)
        tracer = self.tracer
        if tracer.enabled:
            tracer.span("read.metadata", arrival_ns, issue, redirected=False)
            tracer.span("read.nvm", issue, read.complete_ns, wait_ns=read.wait_ns)
            tracer.span("read.crypto", read.complete_ns, now, decrypted=counter is not None)
            tracer.span("read", arrival_ns, now, redirected=False)
        stages = self.stages
        if stages.enabled:
            stages.record("read.metadata", issue - arrival_ns)
            stages.record("read.nvm", read.complete_ns - issue)
            stages.record("read.crypto", now - read.complete_ns)
            stages.record("read", now - arrival_ns)
        return ReadOutcome(latency_ns=latency, data=data, complete_ns=now)

    # -- batched request interface -------------------------------------------

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """:meth:`write` / :meth:`read` as fused steps (byte-identical effects).

        Counters go straight to the stats object, latencies and stage
        samples to ``columns``.  Reads skip the plaintext reconstruction,
        which the issue loop would discard; metadata latency, array timing
        and AES energy are charged as in :meth:`read`.
        """
        stats = self.stats
        counters = self._counters
        split = self._split
        written = self._written
        encrypt = self.cme.encrypt
        add_aes_line = self.nvm.energy.add_aes_line
        nvm_write_done = self.nvm.write_complete_ns
        nvm_read_done = self.nvm.read_complete_ns
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

        def write(address: int, line: bytes, arrival: float) -> tuple[float, bool, float]:
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
            complete = nvm_write_done(address, ciphertext, issue)
            written.add(address)
            if overflow is not None:
                self._reencrypt_page(overflow, address, complete)
            if stage_on:
                st_wcrypto.append(issue - now)
                st_wnvm.append(complete - issue)
            latency = complete - arrival
            write_latency(latency)
            return latency, False, complete

        def read(address: int, arrival: float) -> float:
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.reads_requested += 1
            issue = arrival + touch(address, False, arrival)
            if (address in counters) if split is None else (address in written):
                add_aes_line()  # OTP generation for decryption
            done = nvm_read_done(address, issue)
            now = done + xor_ns
            if stage_on:
                st_rmeta.append(issue - arrival)
                st_rnvm.append(done - issue)
                st_rcrypto.append(now - done)
            latency = now - arrival
            read_latency(latency)
            return latency

        return write, read

    # -- counter-cache plumbing ---------------------------------------------

    def _access_counter(self, address: int, write: bool, now_ns: float) -> float:
        """Touch the counter cache; returns blocking latency added."""
        result = self.counter_cache.access(address, write)
        if self.timeline.enabled:
            self.timeline.record_metadata(now_ns, hit=result.hit)
        extra = 0.0
        if not result.hit:
            line = self._counter_line_for(result.block)
            fetched = self.nvm.read_complete_ns(line, now_ns)
            self.stats.metadata_reads += 1
            extra = (fetched - now_ns) + self.config.metadata_decrypt_ns
        if result.evicted_dirty_block is not None:
            self._writeback_counters(result.evicted_dirty_block, now_ns)
        return extra

    def _counter_touch(self) -> Callable[[int, bool, float], float]:
        """:meth:`_access_counter` for fused steps: resident blocks refresh inline.

        A hit has exactly :meth:`MetadataCache.access`'s effects (hit count,
        LRU motion, dirty bit) without allocating its result; a miss takes
        :meth:`_access_counter` itself.
        """
        cache = self.counter_cache
        blocks = cache._blocks
        per_block = cache.entries_per_block
        access_counter = self._access_counter

        def touch(address: int, write: bool, now_ns: float) -> float:
            block = address // per_block
            if block in blocks:
                cache.hits += 1
                blocks.move_to_end(block)
                if write:
                    blocks[block] = True
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
