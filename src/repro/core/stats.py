"""Statistics gathered by the DeWrite controller.

One counter object feeds every figure: write-reduction (Fig. 12), missed
duplicates and metadata-eviction writes (§IV-B's 1.5 % + 2.6 %), prediction
accuracy (Fig. 4), collision rate (Fig. 6), reference saturation (Fig. 7),
latency sums (Figs. 14–16) and energy (via the NVM account).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass
class LatencyAccumulator:
    """Mean/min/max tracker for one latency population."""

    total_ns: float = 0.0
    count: int = 0
    max_ns: float = 0.0
    min_ns: float = 0.0

    def add(self, latency_ns: float) -> None:
        """Record one observation."""
        self.total_ns += latency_ns
        self.count += 1
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns
        if self.count == 1 or latency_ns < self.min_ns:
            self.min_ns = latency_ns

    def add_many(self, latencies_ns: Iterable[float]) -> None:
        """Record observations in order; bit-identical to one :meth:`add` each."""
        total, count, high, low = self.total_ns, self.count, self.max_ns, self.min_ns
        for latency_ns in latencies_ns:
            total += latency_ns
            count += 1
            if latency_ns > high:
                high = latency_ns
            if count == 1 or latency_ns < low:
                low = latency_ns
        self.total_ns, self.count, self.max_ns, self.min_ns = total, count, high, low

    @property
    def mean_ns(self) -> float:
        """Average latency, 0 when empty."""
        return self.total_ns / self.count if self.count else 0.0

    def reset(self) -> None:
        """Zero the accumulator (new measurement phase)."""
        self.total_ns = 0.0
        self.count = 0
        self.max_ns = 0.0
        self.min_ns = 0.0

    def to_dict(self) -> dict[str, float]:
        """Lossless JSON-shaped snapshot (cache blobs, worker transport)."""
        return {
            "total_ns": self.total_ns,
            "count": self.count,
            "max_ns": self.max_ns,
            "min_ns": self.min_ns,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, float]) -> "LatencyAccumulator":
        """Rebuild an accumulator from :meth:`to_dict` output.

        ``min_ns`` is absent from snapshots cached before it existed; those
        rebuild with the empty-accumulator default of 0.0.
        """
        return cls(
            total_ns=float(payload["total_ns"]),
            count=int(payload["count"]),
            max_ns=float(payload["max_ns"]),
            min_ns=float(payload.get("min_ns", 0.0)),
        )


@dataclass
class DeWriteStats:
    """Event counters of one controller run."""

    # Write-path outcomes.
    writes_requested: int = 0
    writes_deduplicated: int = 0
    writes_stored: int = 0

    # Why potential duplicates were not eliminated.
    missed_duplicates_pna: int = 0
    capped_reference_rejects: int = 0

    # Detection internals.
    hash_matches: int = 0
    verify_reads: int = 0
    crc_collisions: int = 0  # hash matched, byte compare failed

    # Prediction (mirrors the predictor's own counters for convenience).
    predictions: int = 0
    correct_predictions: int = 0
    wasted_encryptions: int = 0  # predicted non-dup, was dup (energy cost)
    serialized_detections: int = 0  # predicted dup, was non-dup (latency cost)

    # Metadata traffic.
    metadata_reads: int = 0
    metadata_writebacks: int = 0

    # Read path.
    reads_requested: int = 0
    reads_redirected: int = 0  # served from a deduplicated (remapped) line

    # Latency populations.
    write_latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    read_latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)

    def reset(self) -> None:
        """Zero every counter (start of a measured phase after warmup).

        The simlint SIM004 rule checks that every stats field a controller
        mutates is both declared above and re-zeroed here, so a new counter
        cannot silently leak warmup state into measurement.
        """
        self.writes_requested = 0
        self.writes_deduplicated = 0
        self.writes_stored = 0
        self.missed_duplicates_pna = 0
        self.capped_reference_rejects = 0
        self.hash_matches = 0
        self.verify_reads = 0
        self.crc_collisions = 0
        self.predictions = 0
        self.correct_predictions = 0
        self.wasted_encryptions = 0
        self.serialized_detections = 0
        self.metadata_reads = 0
        self.metadata_writebacks = 0
        self.reads_requested = 0
        self.reads_redirected = 0
        self.write_latency.reset()
        self.read_latency.reset()

    @property
    def write_reduction(self) -> float:
        """Fraction of requested line writes eliminated (Fig. 12's metric)."""
        if not self.writes_requested:
            return 0.0
        return self.writes_deduplicated / self.writes_requested

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of duplication-state predictions that were right (Fig. 4)."""
        if not self.predictions:
            return 0.0
        return self.correct_predictions / self.predictions

    @property
    def collision_rate(self) -> float:
        """CRC matches that failed the byte compare, per write (Fig. 6)."""
        if not self.writes_requested:
            return 0.0
        return self.crc_collisions / self.writes_requested

    _COUNTER_FIELDS = (
        "writes_requested",
        "writes_deduplicated",
        "writes_stored",
        "missed_duplicates_pna",
        "capped_reference_rejects",
        "hash_matches",
        "verify_reads",
        "crc_collisions",
        "predictions",
        "correct_predictions",
        "wasted_encryptions",
        "serialized_detections",
        "metadata_reads",
        "metadata_writebacks",
        "reads_requested",
        "reads_redirected",
    )

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot of every counter and accumulator.

        Unlike :meth:`as_dict` (a flat summary with derived ratios), this
        round-trips bit-for-bit through :meth:`from_dict`, which the result
        cache and worker transport rely on.
        """
        payload: dict[str, Any] = {
            name: getattr(self, name) for name in self._COUNTER_FIELDS
        }
        payload["write_latency"] = self.write_latency.to_dict()
        payload["read_latency"] = self.read_latency.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DeWriteStats":
        """Rebuild a stats object from :meth:`to_dict` output."""
        stats = cls(**{name: int(payload[name]) for name in cls._COUNTER_FIELDS})
        stats.write_latency = LatencyAccumulator.from_dict(payload["write_latency"])
        stats.read_latency = LatencyAccumulator.from_dict(payload["read_latency"])
        return stats

    def as_dict(self) -> dict[str, float]:
        """Flat summary for reports."""
        return {
            "writes_requested": self.writes_requested,
            "writes_deduplicated": self.writes_deduplicated,
            "writes_stored": self.writes_stored,
            "write_reduction": self.write_reduction,
            "missed_duplicates_pna": self.missed_duplicates_pna,
            "capped_reference_rejects": self.capped_reference_rejects,
            "crc_collisions": self.crc_collisions,
            "collision_rate": self.collision_rate,
            "prediction_accuracy": self.prediction_accuracy,
            "wasted_encryptions": self.wasted_encryptions,
            "serialized_detections": self.serialized_detections,
            "metadata_reads": self.metadata_reads,
            "metadata_writebacks": self.metadata_writebacks,
            "reads_requested": self.reads_requested,
            "reads_redirected": self.reads_redirected,
            "mean_write_latency_ns": self.write_latency.mean_ns,
            "mean_read_latency_ns": self.read_latency.mean_ns,
        }
