"""Service orchestration: shard jobs, the lease loop, and the run entry.

One ``serve-shard`` job per shard is the data plane's unit of work: it
re-derives its slice of the global seeded tenant stream, sizes a private
NVM device from the tenants it actually carved space for, and drives the
controller through the fused batch path with a summary-mode
:class:`~repro.obs.stages.StageAccumulator` attached (full tracing would
force the scalar reference).  Jobs are content-keyed :class:`JobSpec`\\ s, so
the runner's cache, memoisation, dedup and parallel transport all apply
unchanged, and a sharded run with ``--parallel N`` is bit-identical to
the same plan executed serially.

The control plane wraps dispatch in the lease protocol from
:mod:`repro.serve.control`: every shard is claimed before ``run_jobs``,
completed shards are heartbeat-then-done, failed shards are marked and
given one deterministic re-dispatch pass (sorted shard order) before the
service gives up and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.events import NULL_EVENTS, EventBusLike
from repro.obs.metrics import registry as metrics_registry
from repro.obs.stages import StageAccumulator
from repro.runner import provider as provider_module
from repro.runner.cache import ResultCache
from repro.runner.engine import RunReport, run_jobs
from repro.runner.jobs import JobSpec, canonical_json
from repro.serve.control import AdmissionPolicy, LeaseTable
from repro.serve.report import (
    ServiceReport,
    merge_shard_reports,
    shard_summary_from_payload,
)
from repro.serve.tenants import ShardMap, TenantRegistry
from repro.workloads.tenants import TenantTrafficConfig, synthesize_shard_stream

#: The serve data plane's job kind (registered in :mod:`repro.runner.jobs`).
SERVE_JOB_KIND = "serve-shard"


@dataclass(frozen=True)
class ServiceConfig:
    """Complete seeded description of one service run."""

    traffic: TenantTrafficConfig = field(default_factory=TenantTrafficConfig)
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    shards: int = 8
    controller: str = "dewrite"
    controller_opts: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot (this is the job-identity payload)."""
        return {
            "traffic": self.traffic.to_dict(),
            "policy": self.policy.to_dict(),
            "shards": self.shards,
            "controller": self.controller,
            "controller_opts": dict(self.controller_opts),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ServiceConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            traffic=TenantTrafficConfig.from_dict(payload["traffic"]),
            policy=AdmissionPolicy.from_dict(payload["policy"]),
            shards=int(payload["shards"]),
            controller=str(payload["controller"]),
            controller_opts=dict(payload["controller_opts"]),
        )


def shard_spec(config: ServiceConfig, shard: int) -> JobSpec:
    """Content-keyed spec for one shard's data-plane job."""
    if not 0 <= shard < config.shards:
        raise ValueError(f"shard must be in [0, {config.shards}), got {shard}")
    params = config.to_dict()
    params["shard"] = shard
    return JobSpec(SERVE_JOB_KIND, canonical_json(params), experiment="serve")


def run_shard_job(params: dict[str, Any]) -> dict[str, Any]:
    """Execute one shard's slice of the service (the ``serve-shard`` kind).

    Everything is re-derived from the seeded params: the shard map routes
    tenants, the registry carves address windows in first-appearance
    order, the synthesizer walks the global access counter, and the
    controller consumes the resulting batch through its fused steps.
    The NVM device is sized to the carved windows (with a geometry floor)
    so address space scales with the tenants this shard actually admits,
    not with the nominal million-tenant population.
    """
    from repro.core.registry import build_controller
    from repro.nvm.config import NvmConfig, NvmOrganization
    from repro.nvm.memory import NvmMainMemory
    from repro.system.simulator import simulate
    from repro.workloads.trace import Trace

    shard = int(params["shard"])
    traffic = TenantTrafficConfig.from_dict(params["traffic"])
    policy = AdmissionPolicy.from_dict(params["policy"])
    shard_map = ShardMap(shards=int(params["shards"]), seed=traffic.seed)
    registry = TenantRegistry(
        traffic.lines_per_tenant, max_slots=policy.max_tenant_slots
    )
    stream = synthesize_shard_stream(
        traffic,
        shard=shard,
        shard_of=shard_map.shard_of,
        registry=registry,
        tenant_quota=policy.tenant_quota,
    )

    # Controllers reserve device lines for their own metadata (DeWrite's
    # four tables take ~7 % of the device; secure baselines keep counter
    # regions), and those regions come out of the *top* of the address
    # space — so the device must be larger than the carved data windows.
    # 1/4 headroom plus a constant floor covers every registered
    # controller; the sizing is a pure function of the registry, so it is
    # identical however the job is executed.
    data_lines = registry.device_lines()
    total_lines = data_lines + data_lines // 4 + 256
    organization = NvmOrganization(
        capacity_bytes=total_lines * traffic.line_size,
        line_size_bytes=traffic.line_size,
    )
    nvm = NvmMainMemory(NvmConfig(organization=organization))
    stages = StageAccumulator()
    controller = build_controller(
        str(params["controller"]), nvm, stages=stages, **params["controller_opts"]
    )
    trace = Trace.from_batch(f"serve/shard-{shard:03d}", stream.batch)
    before = _fallback_counts()
    report = simulate(controller, trace)
    fallbacks = {
        name: value - before.get(name, 0.0)
        for name, value in _fallback_counts().items()
        if value != before.get(name, 0.0)
    }

    metrics = metrics_registry()
    metrics.counter(f"serve.shard.{shard}.tenants").inc(registry.tenants_registered)
    metrics.counter(f"serve.shard.{shard}.accesses").inc(report.instructions)
    metrics.counter(f"serve.shard.{shard}.admitted").inc(stream.admitted)

    return {
        "shard": shard,
        "report": report.to_dict(),
        "stages": stages.to_dict(),
        "tenants": registry.tenants_registered,
        "offered": stream.offered,
        "admitted": stream.admitted,
        "deferred": stream.deferred,
        "rejected": stream.rejected,
        "bank_wait_total_ns": float(sum(b.total_wait_ns for b in nvm.banks)),
        "bank_serviced": int(sum(b.serviced_requests for b in nvm.banks)),
        "simulations": 1,
        "fallbacks": fallbacks,
    }


@dataclass(frozen=True)
class ServiceRun:
    """Outcome of :func:`run_service`: the report plus execution metadata.

    ``report`` is deterministic; ``run`` (cache hits, elapsed wall time)
    and ``leases`` (custody stamps, attempts) are environment metadata
    and are intentionally *not* part of :class:`ServiceReport`.
    """

    report: ServiceReport
    run: RunReport
    leases: LeaseTable


def _fallback_counts() -> dict[str, float]:
    """This process's ``batch.fallback.*`` counters."""
    return {
        name: float(entry["value"])
        for name, entry in metrics_registry().to_dict().items()
        if name.startswith("batch.fallback.")
    }


def _gather_fallbacks(payloads: list[dict[str, Any]]) -> dict[str, float]:
    """The ``batch.fallback.*`` counts of these shard jobs (ideally none).

    Each job counts its own simulation's fallbacks into its payload, so the
    sum is this run's alone, whatever else the process ran before it.
    """
    totals: dict[str, float] = {}
    for payload in payloads:
        for name, value in payload.get("fallbacks", {}).items():
            totals[name] = totals.get(name, 0.0) + float(value)
    return dict(sorted(totals.items()))


def run_service(
    config: ServiceConfig,
    *,
    parallel: int = 1,
    cache: ResultCache | None = None,
    job_timeout_s: float = 600.0,
    events: EventBusLike = NULL_EVENTS,
    progress: Callable[[str], None] | None = None,
    leases: LeaseTable | None = None,
) -> ServiceRun:
    """Run the whole service: claim, dispatch, reclaim, merge.

    Dispatch goes through :func:`repro.runner.engine.run_jobs`, so shard
    jobs cache, dedup, parallelise and emit lifecycle events exactly like
    every other job kind.  Shards whose jobs fail are marked on the lease
    table and re-dispatched once, in sorted shard order; shards that still
    fail raise with their names, never a partial merge.
    """
    specs = [shard_spec(config, shard) for shard in range(config.shards)]
    table = leases if leases is not None else LeaseTable(config.shards)
    reports: list[RunReport] = []

    def dispatch(shards: list[int]) -> list[int]:
        """Claim + run one wave; returns the shards that failed."""
        for shard in shards:
            table.claim(shard, worker=f"wave-{table.lease(shard).attempts + 1}")
        wave = [specs[shard] for shard in shards]
        run_report = run_jobs(
            wave,
            parallel=parallel,
            cache=cache,
            job_timeout_s=job_timeout_s,
            progress=progress,
            events=events,
        )
        reports.append(run_report)
        failed_identities = {failure.spec.identity for failure in run_report.failures}
        failed: list[int] = []
        for shard in shards:
            if specs[shard].identity in failed_identities:
                table.mark_failed(shard)
                failed.append(shard)
            else:
                table.heartbeat(shard)
                table.mark_done(shard)
        return failed

    failed = dispatch(list(range(config.shards)))
    if failed:
        # One deterministic recovery pass: sorted order, fresh claims.
        failed = dispatch(sorted(failed))
    if failed:
        names = ", ".join(str(shard) for shard in sorted(failed))
        raise RuntimeError(f"shard(s) {names} failed after re-dispatch")

    provider = provider_module.active()
    payloads = [provider.get(spec) for spec in specs]
    merged = merge_shard_reports(payloads)
    stages = StageAccumulator()
    for payload in sorted(payloads, key=lambda p: int(p["shard"])):
        stages.merge(payload["stages"])
    summaries = tuple(
        shard_summary_from_payload(payload)
        for payload in sorted(payloads, key=lambda p: int(p["shard"]))
    )

    combined = RunReport(
        planned=sum(r.planned for r in reports),
        unique=sum(r.unique for r in reports),
        disk_hits=sum(r.disk_hits for r in reports),
        executed=sum(r.executed for r in reports),
        simulations=sum(r.simulations for r in reports),
        retries=sum(r.retries for r in reports),
        failures=[],
        elapsed_s=sum(r.elapsed_s for r in reports),
        job_timings=[timing for r in reports for timing in r.job_timings],
    )
    report = ServiceReport(
        config=config.to_dict(),
        merged=merged,
        stages=stages,
        shards=summaries,
        fallbacks=_gather_fallbacks(payloads),
    )
    return ServiceRun(report=report, run=combined, leases=table)
