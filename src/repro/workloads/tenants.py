"""Multi-tenant traffic synthesis for the serve data plane.

``repro serve`` drives one encrypted NVM pool on behalf of up to millions
of simulated tenants; this module synthesizes each shard's access stream
directly into the columnar :class:`~repro.workloads.batch.AccessBatch`
the fused ``service_batch`` kernels consume.  Three properties are
load-bearing:

- **Counter-based determinism.**  Every decision (which tenant issues
  global access *i*, read vs write, address offset, line content, gap)
  is a pure function of ``(seed, i)`` through the splitmix64-style
  :func:`mix64` finaliser — there is no sequential RNG state.  A shard
  worker therefore reconstructs exactly its slice of the global
  interleaved stream with one cheap pass over the access counter,
  skipping accesses owned by other shards, and the traffic is identical
  whatever the shard count, worker count or execution order.

- **Controlled cross-tenant overlap.**  Each write draws its line either
  from a small shared content pool (probability ``content_overlap``) or
  from tenant-private content, so the cross-tenant dedup ratio the
  service reports is a *controlled variable* of the experiment, not an
  accident of the generator.

- **Single-stream shape.**  Every access issues from core 0, so a shard
  replays one arrival-ordered stream with no think-time interleaving
  between cores; core ids are part of every report's timing, so this
  shape is part of the serve output's identity.

Tenant popularity is zipfian via the continuous inverse-CDF
approximation (rank ``~ u^(-1/(s-1))`` shape), the standard choice when
the population is too large to materialise a CDF table.

The synthesizer is deliberately decoupled from the control plane: the
shard-routing function and the slot registry are passed in as plain
callables/objects (see :mod:`repro.serve.tenants`), so the workloads
layer never imports the serve subsystem.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.workloads.batch import AccessBatch, BatchBuilder

_MASK64 = (1 << 64) - 1

# Domain-separation salts: one per decision stream, so e.g. the op choice
# of access i is independent of its gap draw.
_SALT_TENANT = 0x01
_SALT_OP = 0x02
_SALT_ADDRESS = 0x03
_SALT_GAP = 0x04
_SALT_PERSIST = 0x05
_SALT_POOL = 0x06
_SALT_POOL_PICK = 0x07


def mix64(*parts: int) -> int:
    """Stateless 64-bit mixer (splitmix64 finaliser folded over ``parts``).

    The serve subsystem derives *all* of its randomness from this: tenant
    draws, shard routing, address offsets and content choices.  Unlike a
    sequential ``random.Random``, any single decision is addressable in
    O(1), which is what lets a shard worker skip foreign accesses without
    replaying their draws.
    """
    value = 0x9E3779B97F4A7C15
    for part in parts:
        value = (value + (part & _MASK64)) & _MASK64
        value ^= value >> 30
        value = (value * 0xBF58476D1CE4E5B9) & _MASK64
        value ^= value >> 27
        value = (value * 0x94D049BB133111EB) & _MASK64
        value ^= value >> 31
    return value


def mix01(*parts: int) -> float:
    """Uniform float in [0, 1) derived from :func:`mix64`."""
    return mix64(*parts) / 2.0**64


def zipf_rank(u: float, population: int, s: float) -> int:
    """Map a uniform draw to a zipf(s)-distributed rank in [0, population).

    Continuous inverse-CDF approximation over ranks ``[1, population+1)``;
    exact enough for traffic shaping (rank 0 is the hottest tenant), and
    O(1) per draw for populations of millions where a CDF table would be
    prohibitive.  ``s == 1`` uses the logarithmic closed form.
    """
    if population < 1:
        raise ValueError(f"population must be positive, got {population}")
    if population == 1:
        return 0
    top = float(population + 1)
    if abs(s - 1.0) < 1e-9:
        rank = int(top**u)
    else:
        exponent = 1.0 - s
        rank = int((1.0 + u * (top**exponent - 1.0)) ** (1.0 / exponent))
    return min(max(rank - 1, 0), population - 1)


class SlotRegistry(Protocol):
    """What the synthesizer needs from a tenant registry.

    :class:`repro.serve.tenants.TenantRegistry` is the real implementation;
    the protocol keeps the workloads layer import-free of the serve
    control plane.
    """

    def slot_of(self, tenant: int) -> int | None:
        """Slot for ``tenant`` (assigned on first use), or ``None`` when full."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class TenantTrafficConfig:
    """Knobs of the seeded multi-tenant traffic model.

    ``accesses`` is the *global* interleaved budget across every tenant
    and shard; ``tenants`` is the addressable population the zipfian
    draws range over (most of a million-tenant population never appears
    in a bounded budget — that is the point of the popularity skew).
    """

    tenants: int = 1_000_000
    accesses: int = 250_000
    seed: int = 7
    zipf_s: float = 1.1
    content_overlap: float = 0.35
    shared_pool_lines: int = 4096
    lines_per_tenant: int = 64
    read_fraction: float = 0.3
    persistent_fraction: float = 0.05
    max_gap: int = 64
    line_size: int = 256

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be positive, got {self.tenants}")
        if self.accesses < 0:
            raise ValueError(f"accesses must be non-negative, got {self.accesses}")
        if self.zipf_s <= 0:
            raise ValueError(f"zipf_s must be positive, got {self.zipf_s}")
        for name in ("content_overlap", "read_fraction", "persistent_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.shared_pool_lines < 1:
            raise ValueError(
                f"shared_pool_lines must be positive, got {self.shared_pool_lines}"
            )
        if self.lines_per_tenant < 1:
            raise ValueError(
                f"lines_per_tenant must be positive, got {self.lines_per_tenant}"
            )
        if self.max_gap < 0:
            raise ValueError(f"max_gap must be non-negative, got {self.max_gap}")
        if self.line_size < 16 or self.line_size % 16:
            raise ValueError(
                f"line_size must be a positive multiple of 16, got {self.line_size}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot (job params / service config)."""
        return {
            "tenants": self.tenants,
            "accesses": self.accesses,
            "seed": self.seed,
            "zipf_s": self.zipf_s,
            "content_overlap": self.content_overlap,
            "shared_pool_lines": self.shared_pool_lines,
            "lines_per_tenant": self.lines_per_tenant,
            "read_fraction": self.read_fraction,
            "persistent_fraction": self.persistent_fraction,
            "max_gap": self.max_gap,
            "line_size": self.line_size,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TenantTrafficConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            tenants=int(payload["tenants"]),
            accesses=int(payload["accesses"]),
            seed=int(payload["seed"]),
            zipf_s=float(payload["zipf_s"]),
            content_overlap=float(payload["content_overlap"]),
            shared_pool_lines=int(payload["shared_pool_lines"]),
            lines_per_tenant=int(payload["lines_per_tenant"]),
            read_fraction=float(payload["read_fraction"]),
            persistent_fraction=float(payload["persistent_fraction"]),
            max_gap=int(payload["max_gap"]),
            line_size=int(payload["line_size"]),
        )


@dataclass(frozen=True)
class ShardStream:
    """One shard's synthesized stream plus its admission accounting.

    ``offered`` counts the global accesses routed to this shard;
    ``admitted`` made it into the batch; ``deferred`` hit a per-tenant
    quota; ``rejected`` belonged to tenants the shard had no address
    slot left for.  ``offered == admitted + deferred + rejected`` always.
    """

    shard: int
    batch: AccessBatch
    tenants_seen: int
    offered: int
    admitted: int
    deferred: int
    rejected: int


def tenant_line(seed: int, *key: int, line_size: int = 256) -> bytes:
    """Deterministic line content for one ``(seed, *key)`` identity.

    One SHA-256 over the packed key, tiled to the line size — enough
    entropy that distinct keys never collide in practice, cheap enough
    to run once per synthesized write.
    """
    packed = struct.pack(f"<{len(key) + 1}q", seed, *key)
    digest = hashlib.sha256(packed).digest()
    repeats = (line_size + len(digest) - 1) // len(digest)
    return (digest * repeats)[:line_size]


def synthesize_shard_stream(
    config: TenantTrafficConfig,
    *,
    shard: int,
    shard_of: Callable[[int], int],
    registry: SlotRegistry,
    tenant_quota: int = 0,
) -> ShardStream:
    """Synthesize shard ``shard``'s slice of the global tenant stream.

    Walks the global access counter ``0..accesses`` and keeps exactly the
    accesses whose tenant routes to ``shard`` under ``shard_of``, so the
    union of every shard's stream is the full interleaved trace and each
    access appears in exactly one shard whatever the shard count.

    ``registry`` carves the shard's address space: each admitted tenant
    gets a ``lines_per_tenant`` window at its slot, assigned in first-
    appearance order (deterministic, since the walk order is the global
    counter).  ``tenant_quota`` > 0 defers accesses beyond that many per
    tenant — the control plane's per-tenant backpressure, applied at
    synthesis time so it is a property of the plan, not of execution.

    A tenant's first admitted access is always a write (reads target the
    tenant's last written line, so there is always something to read).
    """
    if shard < 0:
        raise ValueError(f"shard must be non-negative, got {shard}")
    if tenant_quota < 0:
        raise ValueError(f"tenant_quota must be non-negative, got {tenant_quota}")

    seed = config.seed
    builder = BatchBuilder(line_size=config.line_size)
    pool_cache: dict[int, bytes] = {}
    last_written: dict[int, int] = {}
    admitted_per_tenant: dict[int, int] = {}
    offered = admitted = deferred = rejected = 0

    for index in range(config.accesses):
        tenant = zipf_rank(
            mix01(seed, _SALT_TENANT, index), config.tenants, config.zipf_s
        )
        if shard_of(tenant) != shard:
            continue
        offered += 1
        used = admitted_per_tenant.get(tenant, 0)
        if tenant_quota and used >= tenant_quota:
            deferred += 1
            continue
        slot = registry.slot_of(tenant)
        if slot is None:
            rejected += 1
            continue

        gap = mix64(seed, _SALT_GAP, index) % (config.max_gap + 1)
        first_line = slot * config.lines_per_tenant
        last = last_written.get(tenant)
        if last is None or mix01(seed, _SALT_OP, index) >= config.read_fraction:
            offset = mix64(seed, _SALT_ADDRESS, tenant, used) % config.lines_per_tenant
            address = first_line + offset
            if mix01(seed, _SALT_POOL, index) < config.content_overlap:
                pick = mix64(seed, _SALT_POOL_PICK, index) % config.shared_pool_lines
                data = pool_cache.get(pick)
                if data is None:
                    data = tenant_line(seed, pick, line_size=config.line_size)
                    pool_cache[pick] = data
            else:
                data = tenant_line(seed, tenant, used, line_size=config.line_size)
            persistent = mix01(seed, _SALT_PERSIST, index) < config.persistent_fraction
            builder.append_write(0, address, data, gap_instructions=gap,
                                 persistent=persistent)
            last_written[tenant] = address
        else:
            builder.append_read(0, last, gap_instructions=gap)
        admitted_per_tenant[tenant] = used + 1
        admitted += 1

    return ShardStream(
        shard=shard,
        batch=builder.build(),
        tenants_seen=len(admitted_per_tenant),
        offered=offered,
        admitted=admitted,
        deferred=deferred,
        rejected=rejected,
    )
