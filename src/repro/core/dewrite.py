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
from repro.core.interface import FusedController, ReadOutcome, WriteOutcome
from repro.core.predictor import HistoryWindowPredictor
from repro.core.stats import DeWriteStats
from repro.core.tables import DedupIndex, MetadataLayout, MetadataTouch
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

    # -- write path (Fig. 10) ------------------------------------------------

    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Service one line write."""
        self._check_line(data)
        self._check_data_address(address)
        stats = self.stats
        stats.writes_requested += 1

        predicted_dup = self._predict()
        crc = self._fingerprint(data)
        detection = self.engine.detect(data, crc, arrival_ns, predicted_dup)
        self.nvm.energy.add_dedup_op()
        tracer = self.tracer
        if tracer.enabled:
            hash_done = arrival_ns + self.config.fingerprint_latency_ns
            tracer.span(
                "write.hash", arrival_ns, hash_done, fingerprint=self.config.fingerprint
            )
            tracer.span(
                "write.dedup",
                hash_done,
                detection.done_ns,
                duplicate=detection.is_duplicate,
                verify_reads=detection.verify_reads,
                pna_skipped=detection.pna_skipped,
            )
        if self.stages.enabled:
            hash_done = arrival_ns + self.config.fingerprint_latency_ns
            self.stages.record("write.hash", hash_done - arrival_ns)
            self.stages.record("write.dedup", detection.done_ns - hash_done)
        stats.verify_reads += detection.verify_reads
        stats.crc_collisions += detection.collisions
        stats.capped_reference_rejects += detection.capped_rejects
        if detection.verify_reads:
            stats.hash_matches += 1
        if detection.pna_skipped and self.engine.truth_has_duplicate(data, crc):
            stats.missed_duplicates_pna += 1

        if detection.is_duplicate:
            outcome = self._commit_duplicate(address, detection, predicted_dup, arrival_ns)
        else:
            outcome = self._commit_unique(address, data, crc, detection, predicted_dup, arrival_ns)

        self._score_prediction(predicted_dup, outcome.deduplicated)
        stats.write_latency.add(outcome.latency_ns)
        self._sync_metadata_stats()
        if self.timeline.enabled:
            self.timeline.record_write(
                arrival_ns,
                deduplicated=outcome.deduplicated,
                latency_ns=outcome.latency_ns,
            )
        if tracer.enabled:
            tracer.span(
                "write",
                arrival_ns,
                outcome.complete_ns,
                deduplicated=outcome.deduplicated,
                predicted_dup=predicted_dup,
            )
        if self.stages.enabled:
            self.stages.record("write", outcome.complete_ns - arrival_ns)
        return outcome

    def _commit_duplicate(
        self,
        address: int,
        detection,
        predicted_dup: bool,
        arrival_ns: float,
    ) -> WriteOutcome:
        """Cancel the write; record the address mapping (§III-B2)."""
        stats = self.stats
        stats.writes_deduplicated += 1
        touches: list[MetadataTouch] = list(detection.touches)
        self.index.apply_duplicate(address, detection.duplicate_target, touches)
        done = detection.done_ns
        self.metadata.replay(touches, done)
        if self._encrypted_in_parallel(predicted_dup):
            # The speculative encryption was wasted: energy only (§III-A).
            self.nvm.energy.add_aes_line()
            stats.wasted_encryptions += 1
            if self.tracer.enabled:
                self.tracer.span(
                    "write.crypto",
                    arrival_ns,
                    arrival_ns + self.config.aes_latency_ns,
                    wasted=True,
                )
            if self.stages.enabled:
                self.stages.record(
                    "write.crypto", arrival_ns + self.config.aes_latency_ns - arrival_ns
                )
        return WriteOutcome(
            latency_ns=done - arrival_ns, deduplicated=True, complete_ns=done
        )

    def _commit_unique(
        self,
        address: int,
        data: bytes,
        crc: int,
        detection,
        predicted_dup: bool,
        arrival_ns: float,
    ) -> WriteOutcome:
        """Encrypt and write a non-duplicate line."""
        stats = self.stats
        stats.writes_stored += 1
        touches: list[MetadataTouch] = list(detection.touches)
        dest = self.index.apply_unique(address, crc, touches)
        counter = self.index.bump_counter(dest, touches)
        ciphertext = self.cme.encrypt(data, dest, counter)
        self.nvm.energy.add_aes_line()

        parallel_crypto = self._encrypted_in_parallel(predicted_dup)
        if parallel_crypto:
            # Encryption started at arrival, concurrently with detection;
            # the write issues once both have finished.
            crypto_start = arrival_ns
            issue = max(arrival_ns + self._aes_ns, detection.done_ns)
        else:
            # Serial: detection first, then AES (the direct way / a
            # predicted-duplicate misprediction).
            crypto_start = detection.done_ns
            issue = detection.done_ns + self._aes_ns
            if self.mode == "predictive" and predicted_dup:
                stats.serialized_detections += 1

        write = self.nvm.write(dest, ciphertext, issue)
        self.metadata.replay(touches, write.complete_ns)
        if self.tracer.enabled:
            self.tracer.span(
                "write.crypto",
                crypto_start,
                crypto_start + self.config.aes_latency_ns,
                parallel=parallel_crypto,
            )
            self.tracer.span(
                "write.nvm", issue, write.complete_ns, dest=dest, wait_ns=write.wait_ns
            )
        if self.stages.enabled:
            self.stages.record(
                "write.crypto", crypto_start + self.config.aes_latency_ns - crypto_start
            )
            self.stages.record("write.nvm", write.complete_ns - issue)
        return WriteOutcome(
            latency_ns=write.complete_ns - arrival_ns,
            deduplicated=False,
            complete_ns=write.complete_ns,
        )

    # -- read path (Fig. 11) ---------------------------------------------------

    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        """Service one line read."""
        self._check_data_address(address)
        stats = self.stats
        stats.reads_requested += 1
        now = arrival_ns

        # Address-mapping lookup is on the critical path (§IV-C2).
        now += self.metadata.access("address_map", address, write=False, now_ns=now, blocking=True)
        physical = self.index.physical_of(address)

        if physical is None:
            # Never-written line: the array read happens regardless; the
            # device returns the erased (all-zero) pattern.
            issue = now
            read = self.nvm.read(address, now)
            now = read.complete_ns + self._xor_ns
            data = bytes(self.line_size)
        else:
            if physical != address:
                stats.reads_redirected += 1
            # Counter fetch so the OTP overlaps the array read (Fig. 1).
            slot = self.index.counter_slot(physical)
            table = "address_map" if slot == "overflow" else slot
            now += self.metadata.access(table, physical, write=False, now_ns=now, blocking=True)
            counter = self.index.peek_counter(physical)
            issue = now
            read = self.nvm.read(physical, now)
            self.nvm.energy.add_aes_line()  # OTP generation for decryption
            now = read.complete_ns + self._xor_ns
            data = self.cme.decrypt(read.data, physical, counter)

        latency = now - arrival_ns
        stats.read_latency.add(latency)
        self._sync_metadata_stats()
        if self.timeline.enabled:
            self.timeline.record_read(arrival_ns, latency_ns=latency)
        tracer = self.tracer
        if tracer.enabled:
            redirected = physical is not None and physical != address
            tracer.span("read.metadata", arrival_ns, issue, redirected=redirected)
            tracer.span("read.nvm", issue, read.complete_ns, wait_ns=read.wait_ns)
            tracer.span(
                "read.crypto", read.complete_ns, now, decrypted=physical is not None
            )
            tracer.span("read", arrival_ns, now, redirected=redirected)
        stages = self.stages
        if stages.enabled:
            stages.record("read.metadata", issue - arrival_ns)
            stages.record("read.nvm", read.complete_ns - issue)
            stages.record("read.crypto", now - read.complete_ns)
            stages.record("read", now - arrival_ns)
        return ReadOutcome(latency_ns=latency, data=data, complete_ns=now)

    # -- batched request interface ---------------------------------------------

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """:meth:`write` / :meth:`read` as fused steps (byte-identical effects).

        Controller internals are bound once per batch; counters go straight
        to the stats object, latencies and stage samples to ``columns``, and
        the prediction and metadata stats syncs to :meth:`_finish_batch`.
        Reads skip the plaintext reconstruction (OTP decrypt, zero-line
        materialisation), which the issue loop would discard; every timing
        surrogate (metadata access, array read, AES energy, XOR latency) is
        still charged.  ``write.crypto``/``write.nvm`` samples are recorded
        by :meth:`_commit_unique` itself, so the wasted-encryption sample
        is recorded directly too, keeping that stage's sample order scalar.
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
        physical_of = index.physical_of
        counter_slot = index.counter_slot
        replay = self.metadata.replay
        metadata_access = self.metadata.access
        commit_unique = self._commit_unique
        nvm_read_done = self.nvm.read_complete_ns
        enable_prediction = config.enable_prediction
        predict = self.predictor.predict
        score = self.predictor.complete
        fingerprint = line_fingerprint if self._use_crc32 else self._fingerprint
        line_size = self.line_size
        data_lines = self._data_lines
        xor_ns = self._xor_ns
        aes_ns = self._aes_ns
        fp_ns = config.fingerprint_latency_ns
        is_direct = self.mode == "direct"
        is_parallel = self.mode == "parallel"
        par_enc = config.enable_parallel_encryption
        write_latency = columns.write_latency.append
        read_latency = columns.read_latency.append
        stage_on = columns.stages_on
        stage_record = self.stages.record
        st_whash = columns.stage("write.hash")
        st_wdedup = columns.stage("write.dedup")
        st_rmeta = columns.stage("read.metadata")
        st_rnvm = columns.stage("read.nvm")
        st_rcrypto = columns.stage("read.crypto")

        def write(address: int, line: bytes, arrival: float) -> tuple[float, bool, float]:
            if len(line) != line_size:
                self._check_line(line)
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.writes_requested += 1
            predicted = predict() if enable_prediction else False
            crc = fingerprint(line)
            detection = detect(line, crc, arrival, predicted)
            add_dedup_op()
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
                st_wdedup.append(detection.done_ns - hash_done)
            target = detection.duplicate_target
            if target is None:
                latency, dedup, complete = commit_unique(
                    address, line, crc, detection, predicted, arrival
                )
            else:
                # _commit_duplicate() without its WriteOutcome.
                stats.writes_deduplicated += 1
                touches = list(detection.touches)
                apply_duplicate(address, target, touches)
                complete = detection.done_ns
                replay(touches, complete)
                if not is_direct and (is_parallel or (par_enc and not predicted)):
                    add_aes_line()
                    stats.wasted_encryptions += 1
                    if stage_on:
                        stage_record("write.crypto", arrival + aes_ns - arrival)
                latency = complete - arrival
                dedup = True
            if enable_prediction:
                score(predicted, dedup)
            write_latency(latency)
            return latency, dedup, complete

        def read(address: int, arrival: float) -> float:
            if not 0 <= address < data_lines:
                self._check_data_address(address)
            stats.reads_requested += 1
            now = arrival + metadata_access("address_map", address, False, arrival, True)
            physical = physical_of(address)
            if physical is None:
                issue = now
                done = nvm_read_done(address, now)
            else:
                if physical != address:
                    stats.reads_redirected += 1
                table = counter_slot(physical)
                if table == "overflow":
                    table = "address_map"
                now += metadata_access(table, physical, False, now, True)
                issue = now
                done = nvm_read_done(physical, now)
                add_aes_line()
            now = done + xor_ns
            if stage_on:
                st_rmeta.append(issue - arrival)
                st_rnvm.append(done - issue)
                st_rcrypto.append(now - done)
            latency = now - arrival
            read_latency(latency)
            return latency

        return write, read

    def _finish_batch(self) -> None:
        if self.config.enable_prediction:
            self.stats.predictions = self.predictor.predictions
            self.stats.correct_predictions = self.predictor.correct
        self._sync_metadata_stats()

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

    def _predict(self) -> bool:
        """Duplication-state prediction steering PNA (all modes use it)."""
        if not self.config.enable_prediction:
            return False
        return self.predictor.predict()

    def _encrypted_in_parallel(self, predicted_dup: bool) -> bool:
        """Whether encryption ran concurrently with detection (§III-A).

        The integration mode decides: the direct way is always serial, the
        parallel way always speculates, DeWrite speculates only on writes
        predicted non-duplicate.
        """
        if self.mode == "direct":
            return False
        if self.mode == "parallel":
            return True
        return self.config.enable_parallel_encryption and not predicted_dup

    def _score_prediction(self, predicted_dup: bool, was_duplicate: bool) -> None:
        if self.config.enable_prediction:
            self.predictor.complete(predicted_dup, was_duplicate)
            self.stats.predictions = self.predictor.predictions
            self.stats.correct_predictions = self.predictor.correct

    def _sync_metadata_stats(self) -> None:
        self.stats.metadata_reads = self.metadata.metadata_reads
        self.stats.metadata_writebacks = self.metadata.metadata_writebacks

    def _check_data_address(self, address: int) -> None:
        if not 0 <= address < self._data_lines:
            raise IndexError(
                f"data line {address} out of range [0, {self._data_lines})"
            )
