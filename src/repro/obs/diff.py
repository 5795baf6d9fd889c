"""Run-to-run diffing: what changed between two ``repro`` runs?

``python -m repro diff <manifest-a> <manifest-b>`` compares two run
manifests (and, optionally, their JSONL trace files and exported figure
JSONs) and separates **deterministic** divergence from wall-clock noise:

- *counters* in the metrics section (simulations executed, jobs per
  kind) are products of the seeded simulation — any mismatch is real
  drift;
- the *timeline* section (per-window dedup/write/bit-flip counters over
  the simulated clock) is likewise deterministic and compared exactly;
- the *faults* section (crash-recovery consistency verdicts from seeded
  fault plans — see :mod:`repro.faults`) is a pure product of the seed
  and the fault plan, so any scenario mismatch is deterministic drift;
- the *stages* section (summary-mode per-stage totals written by
  ``python -m repro profile``) tracks the simulated clock only, so any
  histogram mismatch is deterministic drift;
- per-stage latency percentiles extracted from JSONL sinks use the
  **sim** clock only, so p50/p95/p99 deltas are code-behaviour changes,
  not scheduler luck;
- gauges, histograms and elapsed/RSS numbers are wall-clock and reported
  as informational deltas, never as drift;
- figure tables drift through the existing
  :func:`repro.analysis.regression.compare_tables` tolerance machinery.

Two manifests of the same figure at the same git SHA must diff clean —
that property is the CI acceptance gate for this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.manifest import summarize_manifest
from repro.obs.trace import percentile

if TYPE_CHECKING:  # imported lazily at runtime: repro.analysis pulls in the
    # whole experiment stack, which itself imports repro.obs (cycle).
    from repro.analysis.regression import RegressionReport

#: Metric kinds whose values depend on host wall time, never on
#: the simulation: differences are reported but are not drift.
_WALL_METRIC_KINDS = ("gauge", "histogram")

#: Counters measuring how much work the *runner* performed, which depends
#: on cache warmth (a warm run executes zero jobs), not on what the
#: simulation computed.  They compare informationally, so two runs of the
#: same figure at the same SHA diff clean whatever the cache state.
#: ``batch.fallback.*`` counts batches driven through a subclass's own
#: ``write``/``read`` instead of the fused steps (a property of how the
#: controller was wrapped, not of the simulated results — both paths are
#: equivalence-tested identical).
#: ``events.*`` counts live-telemetry records emitted/dropped, a property
#: of whether an event sink was attached and how healthy it was.
_ENVIRONMENT_COUNTER_PREFIXES = ("jobs.", "simulations", "batch.fallback.", "events.")


def _environment_counter(name: str) -> bool:
    return name.startswith(_ENVIRONMENT_COUNTER_PREFIXES)


@dataclass(frozen=True)
class MetricDelta:
    """One metric present in both runs with differing values."""

    name: str
    kind: str
    a: float
    b: float

    def __str__(self) -> str:
        return f"{self.name} ({self.kind}): {self.a:g} -> {self.b:g}"


@dataclass
class ManifestDiff:
    """Structured outcome of diffing two manifests."""

    context: list[str] = field(default_factory=list)
    counter_drifts: list[MetricDelta] = field(default_factory=list)
    appeared_counters: list[str] = field(default_factory=list)
    vanished_counters: list[str] = field(default_factory=list)
    counters_compared: int = 0
    info_deltas: list[MetricDelta] = field(default_factory=list)
    timeline_drifts: list[str] = field(default_factory=list)
    timeline_windows_compared: int = 0
    faults_drifts: list[str] = field(default_factory=list)
    faults_scenarios_compared: int = 0
    stages_drifts: list[str] = field(default_factory=list)
    stages_compared: int = 0

    @property
    def deterministic_drift(self) -> bool:
        """Whether any seeded-simulation product diverged."""
        return bool(
            self.counter_drifts
            or self.appeared_counters
            or self.vanished_counters
            or self.timeline_drifts
            or self.faults_drifts
            or self.stages_drifts
        )

    def render(self) -> str:
        """Human-readable report, context first, drift before noise."""
        lines = list(self.context)
        if self.deterministic_drift:
            lines.append(
                f"DRIFT: {len(self.counter_drifts)} counter(s) moved, "
                f"{len(self.appeared_counters)} appeared, "
                f"{len(self.vanished_counters)} vanished, "
                f"{len(self.timeline_drifts)} timeline divergence(s), "
                f"{len(self.faults_drifts)} fault-scenario divergence(s), "
                f"{len(self.stages_drifts)} stage divergence(s)"
            )
            lines.extend(f"  {delta}" for delta in self.counter_drifts)
            lines.extend(f"  appeared: {name}" for name in self.appeared_counters)
            lines.extend(f"  vanished: {name}" for name in self.vanished_counters)
            lines.extend(f"  timeline: {note}" for note in self.timeline_drifts)
            lines.extend(f"  faults: {note}" for note in self.faults_drifts)
            lines.extend(f"  stages: {note}" for note in self.stages_drifts)
        else:
            lines.append(
                f"deterministic state identical "
                f"({self.counters_compared} counters, "
                f"{self.timeline_windows_compared} timeline windows, "
                f"{self.faults_scenarios_compared} fault scenarios, "
                f"{self.stages_compared} stages)"
            )
        if self.info_deltas:
            lines.append(f"wall-clock deltas (informational, {len(self.info_deltas)}):")
            lines.extend(f"  {delta}" for delta in self.info_deltas[:10])
            if len(self.info_deltas) > 10:
                lines.append(f"  ... and {len(self.info_deltas) - 10} more")
        return "\n".join(lines)


def _metric_value(entry: dict[str, Any]) -> float:
    if entry.get("kind") == "histogram":
        return float(entry.get("total", 0.0))
    return float(entry.get("value", 0.0))


def diff_manifests(a: dict[str, Any], b: dict[str, Any]) -> ManifestDiff:
    """Compare two run manifests (see the module docstring for semantics)."""
    diff = ManifestDiff()
    summary_a = summarize_manifest(a)
    summary_b = summarize_manifest(b)

    for label, key in (("git sha", "git_sha"), ("figures", "figures"),
                       ("settings", "settings")):
        va, vb = summary_a.get(key), summary_b.get(key)
        if va != vb:
            diff.context.append(f"context: {label} differ ({va!r} vs {vb!r})")
    for problems, which in ((summary_a["problems"], "a"), (summary_b["problems"], "b")):
        if problems:
            diff.context.append(
                f"context: manifest {which} is INVALID ({len(problems)} problem(s))"
            )

    metrics_a = a.get("metrics", {}) or {}
    metrics_b = b.get("metrics", {}) or {}
    for name in sorted(set(metrics_a) | set(metrics_b)):
        entry_a, entry_b = metrics_a.get(name), metrics_b.get(name)
        if entry_a is None or entry_b is None:
            present = entry_a if entry_b is None else entry_b
            if present.get("kind") == "counter" and not _environment_counter(name):
                target = diff.vanished_counters if entry_b is None else diff.appeared_counters
                target.append(name)
            else:
                value = _metric_value(present)
                diff.info_deltas.append(
                    MetricDelta(
                        name,
                        str(present.get("kind")),
                        value if entry_b is None else 0.0,
                        0.0 if entry_b is None else value,
                    )
                )
            continue
        kind = entry_a.get("kind")
        va, vb = _metric_value(entry_a), _metric_value(entry_b)
        if kind == "counter" and not _environment_counter(name):
            diff.counters_compared += 1
            if not math.isclose(va, vb):
                diff.counter_drifts.append(MetricDelta(name, "counter", va, vb))
        elif not math.isclose(va, vb, rel_tol=1e-9):
            diff.info_deltas.append(MetricDelta(name, str(kind), va, vb))

    notes, compared = diff_timelines(a.get("timeline"), b.get("timeline"))
    diff.timeline_drifts.extend(notes)
    diff.timeline_windows_compared = compared

    notes, compared = diff_faults(a.get("faults"), b.get("faults"))
    diff.faults_drifts.extend(notes)
    diff.faults_scenarios_compared = compared

    notes, compared = diff_stage_sections(a.get("stages"), b.get("stages"))
    diff.stages_drifts.extend(notes)
    diff.stages_compared = compared

    for which, summary in (("a", summary_a), ("b", summary_b)):
        elapsed = summary.get("elapsed_s")
        if isinstance(elapsed, (int, float)):
            diff.context.append(f"context: run {which} took {elapsed:.1f}s wall")
    return diff


def diff_timelines(
    a: dict[str, Any] | None, b: dict[str, Any] | None
) -> tuple[list[str], int]:
    """Deterministic divergences between two timeline snapshots.

    Returns ``(notes, windows compared)``; both-absent compares nothing.
    """
    if a is None and b is None:
        return [], 0
    if a is None or b is None:
        return [f"timeline present only in manifest {'b' if a is None else 'a'}"], 0
    notes: list[str] = []
    width_a = float(a.get("window_ns", 0.0))
    width_b = float(b.get("window_ns", 0.0))
    if not math.isclose(width_a, width_b):
        return [f"window widths differ ({width_a:g} vs {width_b:g} ns)"], 0
    windows_a = a.get("windows", {}) or {}
    windows_b = b.get("windows", {}) or {}
    only_a = sorted(set(windows_a) - set(windows_b), key=int)
    only_b = sorted(set(windows_b) - set(windows_a), key=int)
    if only_a:
        notes.append(f"windows only in a: {', '.join(only_a[:8])}")
    if only_b:
        notes.append(f"windows only in b: {', '.join(only_b[:8])}")
    compared = 0
    for key in sorted(set(windows_a) & set(windows_b), key=int):
        compared += 1
        if windows_a[key] != windows_b[key]:
            deviating = sorted(
                name
                for name in set(windows_a[key]) | set(windows_b[key])
                if windows_a[key].get(name) != windows_b[key].get(name)
            )
            notes.append(f"window {key} diverges in {', '.join(deviating)}")
    return notes, compared


def diff_faults(
    a: dict[str, Any] | None, b: dict[str, Any] | None
) -> tuple[list[str], int]:
    """Deterministic divergences between two fault-campaign sections.

    Scenarios are matched on (workload, controller, policy, crash point)
    and compared field-by-field: every recorded number is a product of
    the seeded fault plan, so any mismatch is drift.  Returns ``(notes,
    scenarios compared)``; both-absent compares nothing.
    """
    if a is None and b is None:
        return [], 0
    if a is None or b is None:
        return [f"faults section present only in manifest {'b' if a is None else 'a'}"], 0
    interval_a = float(a.get("interval_ns", 0.0))
    interval_b = float(b.get("interval_ns", 0.0))
    if not math.isclose(interval_a, interval_b):
        return [f"writeback intervals differ ({interval_a:g} vs {interval_b:g} ns)"], 0

    def keyed(section: dict[str, Any]) -> dict[tuple, dict[str, Any]]:
        scenarios = section.get("scenarios", []) or []
        return {
            (
                scenario.get("workload"),
                scenario.get("controller"),
                scenario.get("policy"),
                scenario.get("crash_access"),
            ): scenario
            for scenario in scenarios
            if isinstance(scenario, dict)
        }

    def label(key: tuple) -> str:
        return "/".join(str(part) for part in key)

    scenarios_a, scenarios_b = keyed(a), keyed(b)
    notes = [
        f"scenario only in a: {label(key)}"
        for key in sorted(set(scenarios_a) - set(scenarios_b), key=label)
    ]
    notes += [
        f"scenario only in b: {label(key)}"
        for key in sorted(set(scenarios_b) - set(scenarios_a), key=label)
    ]
    compared = 0
    for key in sorted(set(scenarios_a) & set(scenarios_b), key=label):
        compared += 1
        if scenarios_a[key] != scenarios_b[key]:
            deviating = sorted(
                name
                for name in set(scenarios_a[key]) | set(scenarios_b[key])
                if scenarios_a[key].get(name) != scenarios_b[key].get(name)
            )
            notes.append(f"scenario {label(key)} diverges in {', '.join(deviating)}")
    return notes, compared


def diff_stage_sections(
    a: dict[str, Any] | None, b: dict[str, Any] | None
) -> tuple[list[str], int]:
    """Deterministic divergences between two manifest ``stages`` sections.

    Stage totals in summary mode are functions of the simulated clock
    only (the reconciliation suite pins them to the trace spans),
    so any count/total/min/max/bucket mismatch is drift.  Returns
    ``(notes, stages compared)``; both-absent compares nothing.
    """
    if a is None and b is None:
        return [], 0
    if a is None or b is None:
        return [f"stages section present only in manifest {'b' if a is None else 'a'}"], 0
    if a.get("bounds") != b.get("bounds"):
        return ["stage histogram bounds differ"], 0
    stages_a = a.get("stages", {}) or {}
    stages_b = b.get("stages", {}) or {}
    notes = [f"stage only in a: {name}" for name in sorted(set(stages_a) - set(stages_b))]
    notes += [f"stage only in b: {name}" for name in sorted(set(stages_b) - set(stages_a))]
    compared = 0
    for name in sorted(set(stages_a) & set(stages_b)):
        compared += 1
        if stages_a[name] != stages_b[name]:
            deviating = sorted(
                key
                for key in set(stages_a[name]) | set(stages_b[name])
                if stages_a[name].get(key) != stages_b[name].get(key)
            )
            notes.append(f"stage {name} diverges in {', '.join(deviating)}")
    return notes, compared


# ---------------------------------------------------------------------------
# Per-stage latency percentiles from JSONL trace sinks
# ---------------------------------------------------------------------------


def stage_percentiles(path: str | Path) -> dict[str, dict[str, float]]:
    """Sim-clock per-stage latency summary of one JSONL trace file.

    Returns ``{stage: {count, mean, p50, p95, p99, max}}`` over every
    ``clock == "sim"`` span; malformed lines raise (a truncated trace is
    an input error, not data — see ``JsonlSink``'s atexit flush).
    """
    stages: dict[str, list[float]] = {}
    with Path(path).open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSONL ({error}); "
                    f"was the sink closed before the run finished?"
                ) from error
            if record.get("type") != "span" or record.get("clock") != "sim":
                continue
            stages.setdefault(record["name"], []).append(float(record["dur_ns"]))
    summary: dict[str, dict[str, float]] = {}
    for name, durations in stages.items():
        durations.sort()
        summary[name] = {
            "count": float(len(durations)),
            "mean": sum(durations) / len(durations),
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "p99": percentile(durations, 99),
            "max": durations[-1],
        }
    return summary


def diff_stages(
    a: dict[str, dict[str, float]],
    b: dict[str, dict[str, float]],
    *,
    tolerance: float = 0.0,
) -> list[str]:
    """Per-stage percentile deltas beyond ``tolerance`` (sim clock ⇒ drift)."""
    notes: list[str] = []
    for name in sorted(set(a) - set(b)):
        notes.append(f"stage {name} only in a")
    for name in sorted(set(b) - set(a)):
        notes.append(f"stage {name} only in b")
    for name in sorted(set(a) & set(b)):
        for quantile in ("count", "p50", "p95", "p99"):
            va, vb = a[name][quantile], b[name][quantile]
            limit = max(1e-9, tolerance * abs(va))
            if abs(vb - va) > limit:
                notes.append(f"stage {name}.{quantile}: {va:g} -> {vb:g}")
    return notes


# ---------------------------------------------------------------------------
# Figure-table drift between two exported-JSON directories
# ---------------------------------------------------------------------------


def diff_figure_dirs(
    dir_a: str | Path, dir_b: str | Path, *, tolerance: float = 0.05
) -> tuple[dict[str, RegressionReport], list[str]]:
    """Compare matching ``*.json`` figure exports of two directories.

    Returns ``(reports by figure name, notes about unmatched files)``.
    """
    from repro.analysis.regression import compare_tables

    files_a = {p.name: p for p in sorted(Path(dir_a).glob("*.json"))}
    files_b = {p.name: p for p in sorted(Path(dir_b).glob("*.json"))}
    notes = [f"figure {name} only in a" for name in sorted(set(files_a) - set(files_b))]
    notes += [f"figure {name} only in b" for name in sorted(set(files_b) - set(files_a))]
    reports: dict[str, RegressionReport] = {}
    for name in sorted(set(files_a) & set(files_b)):
        table_a = json.loads(files_a[name].read_text(encoding="utf-8"))
        table_b = json.loads(files_b[name].read_text(encoding="utf-8"))
        reports[name] = compare_tables(table_a, table_b, relative_tolerance=tolerance)
    return reports, notes
