"""Service orchestration: shard jobs, the lease loop, run_service."""

from __future__ import annotations

import pytest

from repro.obs.metrics import reset_registry
from repro.runner import provider
from repro.serve.control import AdmissionPolicy, LeaseTable
from repro.serve.service import (
    SERVE_JOB_KIND,
    ServiceConfig,
    run_service,
    run_shard_job,
    shard_spec,
)
from repro.workloads.tenants import TenantTrafficConfig

TRAFFIC = TenantTrafficConfig(
    tenants=300, accesses=500, seed=11, shared_pool_lines=64, lines_per_tenant=16
)
CONFIG = ServiceConfig(traffic=TRAFFIC, shards=2)


@pytest.fixture(autouse=True)
def _hermetic():
    reset_registry()
    provider.reset()
    yield
    reset_registry()
    provider.reset()


class _FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


class TestServiceConfig:
    def test_round_trip(self):
        config = ServiceConfig(
            traffic=TRAFFIC,
            policy=AdmissionPolicy(max_tenant_slots=10, tenant_quota=3),
            shards=4,
            controller_opts={"hash_latency_ns": 20},
        )
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError):
            ServiceConfig(shards=0)


class TestShardSpec:
    def test_specs_are_content_keyed_and_distinct(self):
        a = shard_spec(CONFIG, 0)
        b = shard_spec(CONFIG, 0)
        c = shard_spec(CONFIG, 1)
        assert a.identity == b.identity
        assert a.identity != c.identity
        assert a.kind == SERVE_JOB_KIND
        assert a.experiment == "serve"

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ValueError):
            shard_spec(CONFIG, 2)
        with pytest.raises(ValueError):
            shard_spec(CONFIG, -1)


class TestRunShardJob:
    def test_payload_shape_and_accounting(self):
        params = CONFIG.to_dict()
        params["shard"] = 0
        payload = run_shard_job(params)
        assert payload["shard"] == 0
        assert payload["simulations"] == 1
        assert payload["offered"] == (
            payload["admitted"] + payload["deferred"] + payload["rejected"]
        )
        assert payload["tenants"] > 0
        assert payload["report"]["stats"]["writes_requested"] > 0
        # Summary-mode stage accounting rode along with the simulation.
        assert payload["stages"]["stages"]

    def test_job_is_deterministic(self):
        params = CONFIG.to_dict()
        params["shard"] = 1
        first = run_shard_job(params)
        reset_registry()
        second = run_shard_job(params)
        assert first == second


class TestRunService:
    def test_smoke_run_completes_every_lease(self):
        table = LeaseTable(CONFIG.shards, clock=_FakeClock())
        outcome = run_service(CONFIG, leases=table)
        assert outcome.leases.counts()["done"] == CONFIG.shards
        assert outcome.leases.total_attempts() == CONFIG.shards
        report = outcome.report
        assert len(report.shards) == CONFIG.shards
        assert report.fallbacks == {}
        assert report.merged.stats.writes_requested > 0
        assert outcome.run.planned == CONFIG.shards
        # The whole seeded budget was offered across the shard set.
        assert sum(s.offered for s in report.shards) == TRAFFIC.accesses

    def test_persistent_failure_raises_after_redispatch(self, monkeypatch):
        import repro.serve.service as service_module

        real = run_shard_job

        def broken(params):
            if int(params["shard"]) == 1:
                raise RuntimeError("shard 1 exploded")
            return real(params)

        monkeypatch.setattr(service_module, "run_shard_job", broken)
        table = LeaseTable(CONFIG.shards, clock=_FakeClock())
        with pytest.raises(RuntimeError, match="shard\\(s\\) 1 failed"):
            run_service(CONFIG, leases=table)
        assert table.state_of(0) == "done"
        assert table.state_of(1) == "failed"
        assert table.lease(1).attempts == 2

    def test_flaky_shard_recovers_on_redispatch(self, monkeypatch):
        import repro.serve.service as service_module

        real = run_shard_job
        crashes = {"left": 2}  # run_jobs retries once, so 2 kills wave one

        def flaky(params):
            if int(params["shard"]) == 1 and crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("transient")
            return real(params)

        monkeypatch.setattr(service_module, "run_shard_job", flaky)
        table = LeaseTable(CONFIG.shards, clock=_FakeClock())
        outcome = run_service(CONFIG, leases=table)
        assert table.state_of(1) == "done"
        assert table.lease(1).attempts == 2
        assert table.lease(0).attempts == 1
        assert len(outcome.report.shards) == CONFIG.shards

    def test_shard_metrics_are_published(self):
        run_service(CONFIG)
        from repro.obs.metrics import registry

        snapshot = registry().to_dict()
        for shard in range(CONFIG.shards):
            assert f"serve.shard.{shard}.admitted" in snapshot

    def test_fallbacks_count_only_this_runs_shards(self):
        # A fallback from unrelated work earlier in the process must not
        # leak into a later service report.
        import json

        from repro.core.registry import build_controller
        from repro.nvm.memory import NvmMainMemory
        from repro.obs.trace import Tracer
        from repro.system.simulator import simulate
        from repro.workloads.generator import generate_trace
        from repro.workloads.profiles import profile_by_name

        first = run_service(CONFIG).report
        traced = build_controller("dewrite", NvmMainMemory(), tracer=Tracer(sink=None))
        simulate(traced, generate_trace(profile_by_name("canneal"), 200, seed=3))
        provider.reset()  # re-execute the shard jobs, not just re-read them
        second = run_service(CONFIG).report
        assert second.fallbacks == {}
        assert json.dumps(second.to_dict(), sort_keys=True) == json.dumps(
            first.to_dict(), sort_keys=True
        )
