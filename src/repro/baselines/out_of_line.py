"""Out-of-line page-level memory deduplication (paper §V contrast).

Traditional memory deduplication (ESX/KSM-style, the §V related work)
scans memory *in the background*, merging identical **pages** after they
were written.  The paper's point is structural: because the duplicate is
detected only after the write already happened, out-of-line dedup saves
*capacity* but exactly **zero writes** — useless for NVM endurance.

This controller makes that argument measurable: it is the traditional
secure-NVM controller plus a background scanner that, every
``scan_interval_writes`` writes, fingerprints whole pages and records
merge opportunities.  Its ``capacity_saved_lines`` grows while its
``stats.writes_deduplicated`` stays zero — the exact contrast the §V
comparison bench prints against DeWrite.

(The merge itself is bookkeeping-only: real KSM would update page tables;
for the endurance argument only the *when* of detection matters.)
"""

from __future__ import annotations

from collections import defaultdict

from repro.baselines.secure_nvm import SecureNvmConfig, TraditionalSecureNvmController
from repro.core.batching import BatchColumns, ReadStep, WriteStep
from repro.core.interface import WriteOutcome
from repro.crypto.counter_mode import CounterModeEngine
from repro.nvm.memory import NvmMainMemory


class OutOfLinePageDedupController(TraditionalSecureNvmController):
    """Secure NVM with background (post-write) page deduplication."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: SecureNvmConfig | None = None,
        cme: CounterModeEngine | None = None,
        lines_per_page: int = 16,
        scan_interval_writes: int = 256,
    ) -> None:
        super().__init__(nvm, config, cme)
        if lines_per_page < 1:
            raise ValueError("pages must contain at least one line")
        if scan_interval_writes < 1:
            raise ValueError("scan interval must be positive")
        self.lines_per_page = lines_per_page
        self.scan_interval_writes = scan_interval_writes
        self._plain: dict[int, bytes] = {}  # logical image for page hashing
        self._writes_since_scan = 0
        self.scans = 0
        self.merged_pages = 0
        self.capacity_saved_lines = 0
        self._merged: set[int] = set()  # pages currently merged away
        self._pages: set[int] = set()  # pages with at least one written line
        # Page content keys are pure functions of the page's plaintext, so
        # the scanner only rebuilds pages dirtied since the last scan.
        self._page_fp: dict[int, tuple[bytes, ...]] = {}

    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Every write reaches the array first; dedup happens later."""
        outcome = super().write(address, data, arrival_ns)
        self._after_write(address, data, outcome.complete_ns)
        return outcome

    def _batch_steps(self, columns: BatchColumns) -> tuple[WriteStep, ReadStep]:
        """The parent's steps with the page bookkeeping after each write, as in :meth:`write`."""
        cme_write, read = super()._batch_steps(columns)
        after_write = self._after_write

        def write(address: int, line: bytes, arrival: float) -> tuple[float, bool, float]:
            outcome = cme_write(address, line, arrival)
            after_write(address, line, outcome[2])
            return outcome

        return write, read

    def _after_write(self, address: int, data: bytes, complete_ns: float) -> None:
        """Post-write bookkeeping: logical image, dirty page, scan trigger."""
        self._plain[address] = data
        page = address // self.lines_per_page
        self._pages.add(page)
        self._page_fp.pop(page, None)
        if page in self._merged:
            # Copy-on-write break: the page diverged, the merge is undone.
            self._merged.discard(page)
            self.capacity_saved_lines -= self.lines_per_page
        self._writes_since_scan += 1
        if self._writes_since_scan >= self.scan_interval_writes:
            self._writes_since_scan = 0
            self._background_scan(complete_ns)

    def _background_scan(self, now_ns: float) -> None:
        """Group pages by content; merge newly identical ones.

        Pages are keyed by the tuple of their plain line contents: equal
        keys ARE byte-equal pages (bytes hashes are cached by the
        interpreter after first use, so rehashing a clean page is cheap),
        which folds the old CRC-fingerprint pass and the page-by-page
        verification compare into the one grouping step.  The scan reads
        merged pages through the array (timed, posted) like the real
        scanner would, charging its bank occupancy.
        """
        self.scans += 1
        by_content: dict[tuple[bytes, ...], list[int]] = defaultdict(list)
        plain = self._plain
        cached_fp = self._page_fp
        lines_per_page = self.lines_per_page
        merged = self._merged
        for page in sorted(self._pages):
            if page in merged:
                continue
            fingerprint = cached_fp.get(page)
            if fingerprint is None:
                base = page * lines_per_page
                fingerprint = tuple(
                    [plain.get(line, b"") for line in range(base, base + lines_per_page)]
                )
                cached_fp[page] = fingerprint
            by_content[fingerprint].append(page)
        for group in by_content.values():
            if len(group) < 2:
                continue
            # Every member is byte-identical to the first; merge the rest.
            for candidate in group[1:]:
                # The scanner's verification reads occupy banks.
                base = candidate * self.lines_per_page
                self.nvm.read_burst(range(base, base + self.lines_per_page), now_ns)
                self._merged.add(candidate)
                self.merged_pages += 1
                self.capacity_saved_lines += self.lines_per_page
