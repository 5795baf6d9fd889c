"""The DeWrite memory controller (paper §III, Figs. 5/10/11).

Write path: predict the duplication state from the 3-bit history window
(§III-A); run the dedup logic (§III-B); for predicted non-duplicates start
counter-mode encryption *in parallel* with detection, for predicted
duplicates skip encryption until detection says otherwise.  A confirmed
duplicate cancels the NVM write and only updates metadata; a unique line is
encrypted under its destination line's bumped counter and written through
the banked NVM.  All metadata updates ride the write-back metadata cache.

Read path: address-mapping lookup (possibly redirected to a deduplicated
line), counter fetch, NVM read with the OTP generated in parallel, XOR.

The same class also implements the paper's two strawman integration modes
(Fig. 3): ``mode="direct"`` always serialises detection before encryption,
``mode="parallel"`` always encrypts concurrently; ``mode="predictive"`` is
DeWrite.  Figs. 15 and 20 compare the three.
"""

from __future__ import annotations

import hashlib
from typing import Literal

from repro.core.batching import BatchColumns, ReadStep, WriteStep
from repro.core.config import DeWriteConfig
from repro.core.dedup_engine import DedupEngine, MetadataSystem
from repro.core.interface import FusedController
from repro.core.predictor import HistoryWindowPredictor
from repro.core.stats import DeWriteStats
from repro.core.tables import DedupIndex, MetadataLayout
from repro.crypto.counter_mode import CounterModeEngine
from repro.hashes.crc32 import line_fingerprint
from repro.nvm.memory import NvmMainMemory
from repro.obs.timeline import TimelineLike
from repro.obs.trace import TracerLike

IntegrationMode = Literal["predictive", "direct", "parallel"]


class DeWriteController(FusedController):
    """Secure NVM memory controller with in-line cache-line deduplication."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: DeWriteConfig | None = None,
        mode: IntegrationMode = "predictive",
        cme: CounterModeEngine | None = None,
    ) -> None:
        super().__init__(nvm)
        if mode not in ("predictive", "direct", "parallel"):
            raise ValueError(f"unknown integration mode {mode!r}")
        self.config = config if config is not None else DeWriteConfig()
        if self.config.line_size_bytes != self.line_size:
            raise ValueError(
                f"controller line size {self.config.line_size_bytes} != "
                f"device line size {self.line_size}"
            )
        self.mode = mode
        mc = self.config.metadata_cache
        org = nvm.config.organization
        self.layout = MetadataLayout(
            total_lines=org.total_lines,
            line_size_bytes=org.line_size_bytes,
            address_map_entry_bits=mc.address_map_entry_bits,
            inverted_hash_entry_bits=mc.inverted_hash_entry_bits,
            hash_entry_bits=mc.hash_entry_bits,
            fsm_entry_bits=mc.fsm_entry_bits,
        )
        self.index = DedupIndex(
            total_lines=self.layout.data_lines, reference_cap=self.config.reference_cap
        )
        self.metadata = MetadataSystem(self.config, self.layout, nvm)
        self.cme = cme if cme is not None else CounterModeEngine()
        self.engine = DedupEngine(self.config, self.index, self.metadata, nvm, self.cme)
        self.predictor = HistoryWindowPredictor(window=self.config.history_window)
        self.stats = DeWriteStats()
        # Hot-path constants: pure functions of the frozen config/layout,
        # hoisted out of the per-request paths.
        self._data_lines = self.layout.data_lines
        self._aes_ns = self.config.aes_latency_ns
        self._xor_ns = self.config.xor_latency_ns
        self._use_crc32 = self.config.fingerprint == "crc32"
        self._hash_ctor = (
            None
            if self._use_crc32
            else getattr(hashlib, self.config.fingerprint, None)
        )

    # -- request semantics (Figs. 10/11) --------------------------------------

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """The write path (Fig. 10) and read path (Fig. 11) as fused steps.

        Controller internals are bound once per batch; counters go straight
        to the stats object, latencies and stage samples to ``columns``,
        and the prediction and metadata stats syncs to
        :meth:`_finish_batch`.  Reads skip the plaintext reconstruction
        (:meth:`_plaintext` does it untimed); every timing surrogate
        (metadata access, array read, AES energy, XOR latency) is charged.
        """
        stats = self.stats
        config = self.config
        detect = self.engine.detect
        truth_has_duplicate = self.engine.truth_has_duplicate
        energy = self.nvm.energy
        add_dedup_op = energy.add_dedup_op
        add_aes_line = energy.add_aes_line
        index = self.index
        apply_duplicate = index.apply_duplicate
        apply_unique = index.apply_unique
        bump_counter = index.bump_counter
        physical_of = index.physical_of
        counter_slot = index.counter_slot
        replay = self.metadata.replay
        metadata_access = self.metadata.access
        encrypt = self.cme.encrypt
        nvm_write = self.nvm.write
        nvm_read = self.nvm.read
        enable_prediction = config.enable_prediction
        predict = self.predictor.predict
        score = self.predictor.complete
        fingerprint = line_fingerprint if self._use_crc32 else self._fingerprint
        fingerprint_name = config.fingerprint
        line_size = self.line_size
        data_lines = self._data_lines
        xor_ns = self._xor_ns
        aes_ns = self._aes_ns
        fp_ns = config.fingerprint_latency_ns
        # Whether encryption runs concurrently with detection (§III-A): the
        # direct way never speculates, the parallel way always does,
        # DeWrite only on writes predicted non-duplicate.
        is_direct = self.mode == "direct"
        is_parallel = self.mode == "parallel"
        is_predictive = self.mode == "predictive"
        par_enc = config.enable_parallel_encryption
        write_latency = columns.write_latency.append
        read_latency = columns.read_latency.append
        stage_on = columns.stages_on
        st_whash = columns.stage("write.hash")
        st_wdedup = columns.stage("write.dedup")
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
            predicted = predict() if enable_prediction else False
            crc = fingerprint(line)
            detection = detect(line, crc, arrival, predicted)
            add_dedup_op()
            target = detection.duplicate_target
            detected = detection.done_ns
            if trace_on:
                hash_done = arrival + fp_ns
                tracer.span("write.hash", arrival, hash_done, fingerprint=fingerprint_name)
                tracer.span(
                    "write.dedup",
                    hash_done,
                    detected,
                    duplicate=target is not None,
                    verify_reads=detection.verify_reads,
                    pna_skipped=detection.pna_skipped,
                )
            verify_reads = detection.verify_reads
            if verify_reads:
                stats.verify_reads += verify_reads
                stats.hash_matches += 1
                stats.crc_collisions += detection.collisions
            if detection.capped_rejects:
                stats.capped_reference_rejects += detection.capped_rejects
            if detection.pna_skipped and truth_has_duplicate(line, crc):
                stats.missed_duplicates_pna += 1
            if stage_on:
                hash_done = arrival + fp_ns
                st_whash.append(hash_done - arrival)
                st_wdedup.append(detected - hash_done)
            parallel_crypto = not is_direct and (is_parallel or (par_enc and not predicted))
            touches = list(detection.touches)
            if target is None:
                # Unique: encrypt under the destination's bumped counter and
                # write through the bank.
                stats.writes_stored += 1
                dest = apply_unique(address, crc, touches)
                ciphertext = encrypt(line, dest, bump_counter(dest, touches))
                add_aes_line()
                if parallel_crypto:
                    # Encryption started at arrival, concurrently with
                    # detection; the write issues once both have finished.
                    crypto_start = arrival
                    issue = max(arrival + aes_ns, detected)
                else:
                    # Serial: detection first, then AES (the direct way /
                    # a predicted-duplicate misprediction).
                    crypto_start = detected
                    issue = detected + aes_ns
                    if is_predictive and predicted:
                        stats.serialized_detections += 1
                complete = nvm_write(dest, ciphertext, issue)
                replay(touches, complete)
                if trace_on:
                    tracer.span(
                        "write.crypto",
                        crypto_start,
                        crypto_start + aes_ns,
                        parallel=parallel_crypto,
                    )
                    tracer.span("write.nvm", issue, complete, dest=dest)
                if stage_on:
                    st_wcrypto.append(crypto_start + aes_ns - crypto_start)
                    st_wnvm.append(complete - issue)
                dedup = False
            else:
                # Duplicate: cancel the write, record the mapping (§III-B2).
                stats.writes_deduplicated += 1
                apply_duplicate(address, target, touches)
                complete = detected
                replay(touches, complete)
                if parallel_crypto:
                    # The speculative encryption was wasted: energy only.
                    add_aes_line()
                    stats.wasted_encryptions += 1
                    if trace_on:
                        tracer.span("write.crypto", arrival, arrival + aes_ns, wasted=True)
                    if stage_on:
                        st_wcrypto.append(arrival + aes_ns - arrival)
                dedup = True
            if enable_prediction:
                score(predicted, dedup)
            latency = complete - arrival
            write_latency(latency)
            if timeline_on:
                timeline.record_write(arrival, deduplicated=dedup, latency_ns=latency)
            if trace_on:
                tracer.span(
                    "write", arrival, complete, deduplicated=dedup, predicted_dup=predicted
                )
            return latency, dedup, complete

        def read_step(address: int, arrival: float) -> tuple[float, float]:
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.reads_requested += 1
            # Address-mapping lookup is on the critical path (§IV-C2).
            now = arrival + metadata_access("address_map", address, False, arrival, True)
            physical = physical_of(address)
            if physical is None:
                # Never-written line: the array read happens regardless;
                # the device returns the erased (all-zero) pattern.
                issue = now
                done = nvm_read(address, now)
            else:
                if physical != address:
                    stats.reads_redirected += 1
                # Counter fetch so the OTP overlaps the array read (Fig. 1).
                table = counter_slot(physical)
                if table == "overflow":
                    table = "address_map"
                now += metadata_access(table, physical, False, now, True)
                issue = now
                done = nvm_read(physical, now)
                add_aes_line()  # OTP generation for decryption
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
                redirected = physical is not None and physical != address
                tracer.span("read.metadata", arrival, issue, redirected=redirected)
                tracer.span("read.nvm", issue, done)
                tracer.span("read.crypto", done, now, decrypted=physical is not None)
                tracer.span("read", arrival, now, redirected=redirected)
            return latency, now

        return write_step, read_step

    def _finish_batch(self) -> None:
        if self.config.enable_prediction:
            self.stats.predictions = self.predictor.predictions
            self.stats.correct_predictions = self.predictor.correct
        self._sync_metadata_stats()

    def _plaintext(self, address: int) -> bytes:
        physical = self.index.physical_of(address)
        if physical is None:
            return bytes(self.line_size)
        counter = self.index.peek_counter(physical)
        return self.cme.decrypt(self.nvm.peek(physical), physical, counter)

    # -- maintenance -----------------------------------------------------------

    def flush_metadata(self, now_ns: float = 0.0) -> int:
        """Force all dirty metadata back to NVM; returns lines written."""
        flushed = self.metadata.flush(now_ns)
        self._sync_metadata_stats()
        return flushed

    def check_invariants(self) -> None:
        """Assert the dedup index is internally consistent (testing aid)."""
        self.index.check_invariants()

    # -- internals -----------------------------------------------------------

    def _propagate_observers(self, tracer: TracerLike, timeline: TimelineLike) -> None:
        self.metadata.tracer = tracer
        self.engine.tracer = tracer
        self.metadata.timeline = timeline

    def _fingerprint(self, data: bytes) -> int:
        """Line fingerprint under the configured scheme, as an integer key.

        The cryptographic paths use the stdlib engines for speed; the
        from-scratch implementations in :mod:`repro.hashes` are asserted
        bit-identical to them by the test suite.
        """
        if self._use_crc32:
            return line_fingerprint(data)
        ctor = self._hash_ctor
        digest = (
            ctor(data).digest()
            if ctor is not None
            else hashlib.new(self.config.fingerprint, data).digest()
        )
        return int.from_bytes(digest, "big")

    def _sync_metadata_stats(self) -> None:
        self.stats.metadata_reads = self.metadata.metadata_reads
        self.stats.metadata_writebacks = self.metadata.metadata_writebacks

    def _check_data_address(self, address: int) -> None:
        if not 0 <= address < self._data_lines:
            raise IndexError(
                f"data line {address} out of range [0, {self._data_lines})"
            )
