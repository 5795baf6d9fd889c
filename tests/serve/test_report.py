"""Report fold: shard payload merging, summaries, the service report."""

from __future__ import annotations

import json

import pytest

from repro.core.stats import LatencyAccumulator
from repro.obs.metrics import reset_registry
from repro.runner import provider
from repro.serve.report import (
    ServiceReport,
    _merge_latency,
    merge_shard_reports,
    shard_summary_from_payload,
)
from repro.serve.service import ServiceConfig, run_service, run_shard_job
from repro.system.metrics import SimulationReport
from repro.workloads.tenants import TenantTrafficConfig

TRAFFIC = TenantTrafficConfig(
    tenants=300, accesses=500, seed=11, shared_pool_lines=64, lines_per_tenant=16
)
CONFIG = ServiceConfig(traffic=TRAFFIC, shards=2)


@pytest.fixture(scope="module")
def payloads():
    reset_registry()
    provider.reset()
    built = []
    for shard in range(CONFIG.shards):
        params = CONFIG.to_dict()
        params["shard"] = shard
        built.append(run_shard_job(params))
    reset_registry()
    return built


@pytest.fixture(scope="module")
def service_report():
    reset_registry()
    provider.reset()
    outcome = run_service(CONFIG)
    reset_registry()
    provider.reset()
    return outcome.report


class TestMergeLatency:
    def test_folds_sum_count_and_extrema(self):
        a = LatencyAccumulator(total_ns=100.0, count=2, max_ns=70.0, min_ns=30.0)
        b = LatencyAccumulator(total_ns=10.0, count=1, max_ns=10.0, min_ns=10.0)
        merged = _merge_latency([a, b])
        assert merged.count == 3
        assert merged.total_ns == 110.0
        assert merged.max_ns == 70.0
        assert merged.min_ns == 10.0

    def test_empty_accumulators_are_skipped(self):
        a = LatencyAccumulator(total_ns=50.0, count=1, max_ns=50.0, min_ns=50.0)
        merged = _merge_latency([LatencyAccumulator(), a])
        assert merged.count == 1
        assert merged.min_ns == 50.0


class TestMergeShardReports:
    def test_empty_payload_list_raises(self):
        with pytest.raises(ValueError):
            merge_shard_reports([])

    def test_single_payload_returns_report_verbatim(self, payloads):
        merged = merge_shard_reports([payloads[0]])
        assert merged == SimulationReport.from_dict(payloads[0]["report"])

    def test_counters_add_and_makespan_is_max(self, payloads):
        merged = merge_shard_reports(payloads)
        reports = [SimulationReport.from_dict(p["report"]) for p in payloads]
        assert merged.workload == f"serve/{len(reports)}-shards"
        assert merged.instructions == sum(r.instructions for r in reports)
        assert merged.total_cycles == sum(r.total_cycles for r in reports)
        assert merged.makespan_ns == max(r.makespan_ns for r in reports)
        assert merged.energy_nj == sum(r.energy_nj for r in reports)
        assert merged.stats.writes_requested == sum(
            r.stats.writes_requested for r in reports
        )
        assert merged.wear.total_line_writes == sum(
            r.wear.total_line_writes for r in reports
        )
        assert merged.wear.max_line_writes == max(
            r.wear.max_line_writes for r in reports
        )

    def test_derived_means_recomputed_from_merged_sums(self, payloads):
        merged = merge_shard_reports(payloads)
        assert merged.ipc == pytest.approx(merged.instructions / merged.total_cycles)
        assert merged.mean_write_latency_ns == pytest.approx(
            merged.stats.write_latency.mean_ns
        )

    def test_merge_is_order_independent(self, payloads):
        forward = merge_shard_reports(list(payloads))
        backward = merge_shard_reports(list(reversed(payloads)))
        assert forward == backward


class TestShardSummary:
    def test_projection_from_payload(self, payloads):
        summary = shard_summary_from_payload(payloads[0])
        report = SimulationReport.from_dict(payloads[0]["report"])
        assert summary.shard == payloads[0]["shard"]
        assert summary.accesses == (
            report.stats.writes_requested + report.stats.reads_requested
        )
        assert summary.admitted == payloads[0]["admitted"]
        assert 0.0 <= summary.dedup_ratio <= 1.0

    def test_round_trip(self, payloads):
        summary = shard_summary_from_payload(payloads[1])
        clone = type(summary).from_dict(summary.to_dict())
        assert clone == summary


class TestServiceReport:
    def test_round_trip_is_byte_lossless(self, service_report):
        blob = json.dumps(service_report.to_dict(), sort_keys=True)
        clone = ServiceReport.from_dict(json.loads(blob))
        assert json.dumps(clone.to_dict(), sort_keys=True) == blob

    def test_render_names_the_load_bearing_facts(self, service_report):
        text = service_report.render()
        assert f"{len(service_report.shards)} shard(s)" in text
        assert "dedup:" in text
        assert "fused path: no batch fallbacks" in text
        assert "p99" in text
        # One table row per shard.
        for summary in service_report.shards:
            assert f"\n  {summary.shard:>5}  " in text

    def test_render_reports_fallbacks_when_present(self, service_report):
        degraded = ServiceReport(
            config=service_report.config,
            merged=service_report.merged,
            stages=service_report.stages,
            shards=service_report.shards,
            fallbacks={"batch.fallback.timeline": 3.0},
        )
        assert "FALLBACKS: timeline=3" in degraded.render()

    def test_latency_quantiles_are_monotone(self, service_report):
        p50 = service_report.latency_quantile_ns("write", 50)
        p99 = service_report.latency_quantile_ns("write", 99)
        assert 0 < p50 <= p99
        assert service_report.latency_quantile_ns("no-such-stage", 50) == 0.0

    def test_wear_imbalance_bounds(self, service_report):
        # max/mean over shards: at least 1 when any writes landed.
        assert service_report.wear_imbalance >= 1.0

    def test_csv_tables_are_well_formed(self, service_report):
        wear_rows = service_report.wear_table_csv().strip().split("\n")
        assert wear_rows[0].startswith("shard,tenants,")
        assert len(wear_rows) == 1 + len(service_report.shards)
        dedup_rows = service_report.dedup_table_csv().strip().split("\n")
        assert dedup_rows[-1].startswith("pool,")
        assert len(dedup_rows) == 2 + len(service_report.shards)
        pool_requested = int(dedup_rows[-1].split(",")[1])
        assert pool_requested == service_report.merged.stats.writes_requested
