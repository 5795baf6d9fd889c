"""Outside-in layer trace: wrappers around the program's public functions.

The traced run times the unmodified CLI by wrapping, from this file, the
functions at each layer boundary of the simulator (trace synthesis, job
engine, result cache, simulator loop, controller kernels, dedup engine,
hashes, crypto, NVM, renderers, serve merge).  Nothing under ``src/``
changes.

Three parts:

- :class:`Recorder` keeps every span in memory, columnar (layer, parent,
  start, end, value), and writes them out once when the run ends;
- :func:`install` / :func:`restore` swap wrappers in and put back the
  exact original objects (functions, class-dict descriptors, instance
  fields);
- :func:`self_times` and :func:`layer_metrics` turn a span dump into the
  per-layer metrics named by :func:`per_layer_names`.

Wrappers never touch the scalar ``write``/``read`` methods or the other
functions the fused kernels compare by identity before they decide to
stay fused, and they attach no tracer or timeline, so a traced run takes
exactly the kernel paths an untraced run takes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: Registered controller names, one ``core.service_batch.<name>`` layer each.
CONTROLLERS = (
    "dewrite",
    "direct",
    "i-nvmm",
    "out-of-line",
    "parallel",
    "secure-nvm",
    "silent-shredder",
    "traditional-dedup",
)

#: Job kinds the benchmark's workloads run, one ``runner.jobs.<kind>`` layer each.
JOB_KINDS = ("simulate", "metadata-sweep", "bitflips", "serve-shard")

#: Plain timed targets: (layer, module, qualified name).
TIMED = (
    ("workloads.generator", "repro.workloads.generator", "generate_trace"),
    ("workloads.generator", "repro.workloads.generator", "TraceGenerator.generate"),
    ("workloads.tenants", "repro.workloads.tenants", "synthesize_shard_stream"),
    ("workloads.batch", "repro.workloads.trace", "Trace.as_batch"),
    ("workloads.batch", "repro.workloads.trace", "Trace.from_batch"),
    ("runner.engine", "repro.runner.engine", "run_jobs"),
    ("runner.cache.get", "repro.runner.cache", "ResultCache.get"),
    ("runner.cache.put", "repro.runner.cache", "ResultCache.put"),
    ("core.dedup_engine", "repro.core.dedup_engine", "DedupEngine.detect"),
    ("core.dedup_engine", "repro.core.dedup_engine", "MetadataSystem.access"),
    ("core.dedup_engine", "repro.core.dedup_engine", "MetadataSystem.replay"),
    ("hashes.crc32", "repro.hashes.crc32", "crc32"),
    ("hashes.crc32", "repro.hashes.crc32", "crc32_fast"),
    ("hashes.crc32", "repro.hashes.crc32", "line_fingerprint"),
    ("hashes.burst", "repro.hashes.vector", "sha1_many"),
    ("hashes.burst", "repro.hashes.vector", "md5_many"),
    ("crypto.counter_mode", "repro.crypto.counter_mode", "CounterModeEngine.encrypt"),
    ("crypto.counter_mode", "repro.crypto.counter_mode", "CounterModeEngine.decrypt"),
    ("crypto.counter_mode", "repro.crypto.counter_mode", "CounterModeEngine.pad_int_for"),
    ("nvm.memory", "repro.nvm.memory", "NvmMainMemory.read"),
    ("nvm.memory", "repro.nvm.memory", "NvmMainMemory.write"),
    ("nvm.memory", "repro.nvm.memory", "NvmMainMemory.read_complete_ns"),
    ("nvm.memory", "repro.nvm.memory", "NvmMainMemory.write_complete_ns"),
    ("nvm.memory", "repro.nvm.memory", "NvmMainMemory.read_burst"),
    ("baselines.bit_reduction", "repro.baselines.bit_reduction", "BitFlipAnalyzer.run"),
    ("serve.merge", "repro.serve.report", "merge_shard_reports"),
    ("serve.merge", "repro.serve.report", "shard_summary_from_payload"),
)

#: Modules imported before wrapping, so every class that defines
#: ``service_batch`` and every module binding a wrapped function is seen.
MODULES = (
    "repro.__main__",
    "repro.analysis.registry",
    "repro.baselines.i_nvmm",
    "repro.baselines.out_of_line",
    "repro.baselines.silent_shredder",
    "repro.baselines.traditional_dedup",
    "repro.core.dewrite",
    "repro.core.registry",
    "repro.runner.provider",
    "repro.serve.service",
    "repro.system.simulator",
)

SIMULATOR = "system.simulator"
JOB_PREFIX = "runner.jobs."
BATCH_PREFIX = "core.service_batch."


class Recorder:
    """Spans of one traced run, kept in memory until it ends.

    A span is a row of five columns: layer id, parent row (-1 at the top),
    start and end (``perf_counter_ns``), and one integer value whose
    meaning is the layer's (requests serviced, bytes written, cache hit,
    scalar-path flag).  Runs are serial, so spans nest as a stack.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.generator_keys: set[tuple[Any, ...]] = set()
        self.controller_names: weakref.WeakKeyDictionary[Any, str] = (
            weakref.WeakKeyDictionary()
        )

    def layer_id(self, name: str) -> int:
        """The id of a layer name, assigned on first use."""
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
        return lid

    def open(self, lid: int) -> int:
        """Start a span under the innermost open one; returns its row."""
        row = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.value.append(0)
        self.stack.append(row)
        self.start.append(perf_counter_ns())
        return row

    def close(self, row: int) -> None:
        """End the innermost open span."""
        self.end[row] = perf_counter_ns()
        self.stack.pop()

    def count(self, name: str, amount: int) -> None:
        """Add to a run-level counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        """Write the spans (``path``) and a JSON header (``path.json``)."""
        with open(path, "wb") as handle:
            for column in (self.layer, self.parent, self.start, self.end, self.value):
                column.tofile(handle)
        header = {
            "rows": len(self.layer),
            "names": self.names,
            "counters": self.counters,
            "generator_distinct": len(self.generator_keys),
            **extra,
        }
        Path(f"{path}.json").write_text(json.dumps(header, sort_keys=True))


@dataclass(frozen=True)
class Spans:
    """A loaded span dump."""

    names: list[str]
    layer: array
    parent: array
    start: array
    end: array
    value: array
    header: dict[str, Any]


def load(path: Path) -> Spans:
    """Read back what :meth:`Recorder.dump` wrote."""
    header = json.loads(Path(f"{path}.json").read_text())
    rows = int(header["rows"])
    columns = []
    with open(path, "rb") as handle:
        for code in ("i", "i", "q", "q", "q"):
            column = array(code)
            column.fromfile(handle, rows)
            columns.append(column)
    return Spans(header["names"], *columns, header=header)


# -- wrapping -----------------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    """One replaced attribute and the exact object it held before."""

    owner: Any
    name: str
    original: Any


def _set(owner: Any, name: str, value: Any) -> None:
    # object.__setattr__ also writes fields of frozen dataclass instances;
    # modules and classes take the ordinary path.
    if isinstance(owner, type) or inspect.ismodule(owner):
        setattr(owner, name, value)
    else:
        object.__setattr__(owner, name, value)


def _timed(rec: Recorder, lid: int, fn: Callable[..., Any],
           post: Callable[..., None] | None = None) -> Callable[..., Any]:
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        row = open_(lid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(row)
        if post is not None:
            post(row, args, kwargs, result)
        return result

    return wrapper


def _rewrap(raw: Any, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> Any:
    """Wrap a class-dict entry, keeping classmethod/staticmethod kinds."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(make(raw.__func__))
    return make(raw)


def _resolve(module_name: str, qualname: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) for ``module:qualname``."""
    owner: Any = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def _module_bindings(original: Any) -> list[tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``original``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


def install(rec: Recorder) -> list[Patch]:
    """Wrap every layer boundary; returns the patches :func:`restore` undoes."""
    for module_name in MODULES:
        importlib.import_module(module_name)
    patches: list[Patch] = []

    def patch(owner: Any, name: str, raw: Any, new: Any) -> None:
        patches.append(Patch(owner, name, raw))
        _set(owner, name, new)

    def patch_everywhere(module_name: str, qualname: str, new_for: Callable[[Any], Any]) -> None:
        owner, name, raw = _resolve(module_name, qualname)
        if isinstance(owner, type):
            patch(owner, name, raw, _rewrap(raw, new_for))
            return
        new = new_for(raw)
        for module, attr in _module_bindings(raw):
            patch(module, attr, raw, new)

    posts: dict[tuple[str, str], Callable[..., None]] = {
        ("repro.workloads.generator", "generate_trace"): _generator_post(rec),
        ("repro.workloads.tenants", "synthesize_shard_stream"): _tenants_post(rec),
        ("repro.runner.cache", "ResultCache.get"): _cache_get_post(rec),
        ("repro.runner.cache", "ResultCache.put"): _cache_put_post(rec),
    }
    for layer, module_name, qualname in TIMED:
        lid = rec.layer_id(layer)
        post = posts.get((module_name, qualname))
        patch_everywhere(
            module_name, qualname,
            lambda fn, lid=lid, post=post: _timed(rec, lid, fn, post),
        )

    # One tenant draw per global access walked: the shard synthesis scan.
    patch_everywhere("repro.workloads.tenants", "zipf_rank",
                     lambda fn: _counting(rec, "workloads.tenants.scanned", fn))
    patch_everywhere("repro.runner.jobs", "execute_job", lambda fn: _job_wrapper(rec, fn))
    patch_everywhere("repro.core.registry", "build_controller",
                     lambda fn: _naming_wrapper(rec, fn))
    patch_everywhere("repro.system.simulator", "SystemSimulator.run",
                     lambda fn: _simulator_wrapper(rec, fn))

    from repro.core.interface import MemoryController

    for cls in _controller_classes(MemoryController):
        raw = cls.__dict__["service_batch"]
        base = cls is MemoryController
        patch(cls, "service_batch", raw,
              _rewrap(raw, lambda fn, base=base: _batch_wrapper(rec, fn, base)))

    from repro.analysis import registry as figures

    render_lid = rec.layer_id("analysis.render")
    for spec in figures.all_experiments():
        patch(spec, "render", spec.render, _timed(rec, render_lid, spec.render))
    return patches


def restore(patches: list[Patch]) -> None:
    """Put back every original object, newest patch first."""
    for item in reversed(patches):
        _set(item.owner, item.name, item.original)


def _controller_classes(base: type) -> list[type]:
    seen: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "service_batch" in cls.__dict__]


def _generator_post(rec: Recorder) -> Callable[..., None]:
    from repro.workloads.generator import generate_trace

    signature = inspect.signature(generate_trace)

    def post(row: int, args: tuple, kwargs: dict, result: Any) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        params = bound.arguments
        rec.generator_keys.add(
            (params["profile"].name, params["num_accesses"], params["seed"])
        )

    return post


def _tenants_post(rec: Recorder) -> Callable[..., None]:
    def post(row: int, args: tuple, kwargs: dict, result: Any) -> None:
        rec.count("workloads.tenants.kept", int(result.admitted))

    return post


def _counting(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Count calls without a span: for functions called once per element."""
    counters = rec.counters

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counters[name] = counters.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _cache_get_post(rec: Recorder) -> Callable[..., None]:
    def post(row: int, args: tuple, kwargs: dict, result: Any) -> None:
        rec.value[row] = int(result is not None)

    return post


def _cache_put_post(rec: Recorder) -> Callable[..., None]:
    def post(row: int, args: tuple, kwargs: dict, result: Any) -> None:
        cache, key = args[0], args[1]
        rec.value[row] = cache.path_for(key).stat().st_size

    return post


def _job_wrapper(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(spec: Any) -> Any:
        row = rec.open(rec.layer_id(JOB_PREFIX + spec.kind))
        try:
            return fn(spec)
        finally:
            rec.close(row)

    return wrapper


def _naming_wrapper(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(name: str, *args: Any, **kwargs: Any) -> Any:
        controller = fn(name, *args, **kwargs)
        rec.controller_names[controller] = name
        return controller

    return wrapper


def _simulator_wrapper(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    lid = rec.layer_id(SIMULATOR)

    @functools.wraps(fn)
    def wrapper(self: Any) -> Any:
        row = rec.open(lid)
        if self.batch_size is None:
            rec.value[row] = 1
        try:
            return fn(self)
        finally:
            rec.close(row)

    return wrapper


def _batch_wrapper(rec: Recorder, fn: Callable[..., Any], base: bool) -> Callable[..., Any]:
    """``service_batch`` span; the base class's loop marks its simulator run scalar."""
    simulator_lid = rec.layer_id(SIMULATOR)

    @functools.wraps(fn)
    def wrapper(self: Any, batch: Any, cursor: Any, max_requests: Any = None) -> Any:
        name = rec.controller_names.get(self, "unregistered")
        row = rec.open(rec.layer_id(BATCH_PREFIX + name))
        if base:
            for open_row in reversed(rec.stack):
                if rec.layer[open_row] == simulator_lid:
                    rec.value[open_row] = 1
                    break
        try:
            outcome = fn(self, batch, cursor, max_requests)
        finally:
            rec.close(row)
        rec.value[row] = outcome.serviced
        return outcome

    return wrapper


# -- analysis -----------------------------------------------------------------


def self_times(parent: Any, start: Any, end: Any) -> array:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    rows = len(start)
    covered = array("q", bytes(8 * rows))
    reach: dict[int, int] = {}
    for row in sorted(range(rows), key=start.__getitem__):
        up = parent[row]
        if up < 0:
            continue
        lo = max(start[row], reach.get(up, start[up]))
        hi = min(end[row], end[up])
        if hi > lo:
            covered[up] += hi - lo
            reach[up] = hi
    return array("q", (end[row] - start[row] - covered[row] for row in range(rows)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric this module reports, with its unit."""
    names = [
        ("workloads.generator.calls", "count"),
        ("workloads.generator.distinct", "count"),
        ("workloads.generator.self_s", "s"),
        ("workloads.tenants.scanned", "count"),
        ("workloads.tenants.kept", "count"),
        ("workloads.tenants.self_s", "s"),
        ("workloads.batch.self_s", "s"),
        ("runner.engine.overhead_s", "s"),
    ]
    for kind in JOB_KINDS:
        names += [(f"runner.jobs.{kind}.count", "count"), (f"runner.jobs.{kind}.self_s", "s")]
    names += [
        ("runner.jobs.p50_s", "s"),
        ("runner.jobs.p95_s", "s"),
        ("runner.cache.get.calls", "count"),
        ("runner.cache.get.hit_ratio", "ratio"),
        ("runner.cache.get.self_s", "s"),
        ("runner.cache.put.calls", "count"),
        ("runner.cache.put.bytes", "bytes"),
        ("runner.cache.put.self_s", "s"),
        ("system.simulator.calls", "count"),
        ("system.simulator.fused_s", "s"),
        ("system.simulator.scalar_s", "s"),
        ("system.simulator.fused_share", "ratio"),
        ("batch.fallback.multi_stream", "count"),
    ]
    for name in CONTROLLERS:
        names += [(f"{BATCH_PREFIX}{name}.requests", "count"),
                  (f"{BATCH_PREFIX}{name}.self_s", "s")]
    names += [
        ("core.dedup_engine.self_s", "s"),
        ("hashes.crc32.calls", "count"),
        ("hashes.crc32.self_s", "s"),
        ("hashes.burst.calls", "count"),
        ("hashes.burst.self_s", "s"),
        ("crypto.counter_mode.calls", "count"),
        ("crypto.counter_mode.self_s", "s"),
        ("nvm.memory.calls", "count"),
        ("nvm.memory.self_s", "s"),
        ("baselines.bit_reduction.self_s", "s"),
        ("analysis.render.self_s", "s"),
        ("serve.merge.self_s", "s"),
        ("serve.shard.p50_s", "s"),
        ("serve.shard.max_s", "s"),
    ]
    return names


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (everything but the run-level ones).

    ``calls`` counts entries into a layer from outside it (a span whose
    parent belongs to another layer), so a wrapped function calling a
    wrapped sibling of the same layer counts once.
    """
    names, layer, parent, start, end, value = (
        spans.names, spans.layer, spans.parent, spans.start, spans.end, spans.value
    )
    own = self_times(parent, start, end)
    self_ns = {name: 0 for name in names}
    calls = {name: 0 for name in names}
    durations: dict[str, list[float]] = {name: [] for name in names}
    entered_value = {name: 0 for name in names}
    for row in range(len(layer)):
        name = names[layer[row]]
        self_ns[name] += own[row]
        durations[name].append((end[row] - start[row]) / 1e9)
        up = parent[row]
        if up < 0 or layer[up] != layer[row]:
            calls[name] += 1
            entered_value[name] += value[row]

    def self_s(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    def total_s(name: str) -> float:
        return sum(durations.get(name, ()))

    counters = spans.header["counters"]
    metrics: dict[str, float] = {
        "workloads.generator.calls": calls.get("workloads.generator", 0),
        "workloads.generator.distinct": spans.header["generator_distinct"],
        "workloads.generator.self_s": self_s("workloads.generator"),
        "workloads.tenants.scanned": counters.get("workloads.tenants.scanned", 0),
        "workloads.tenants.kept": counters.get("workloads.tenants.kept", 0),
        "workloads.tenants.self_s": self_s("workloads.tenants"),
        "workloads.batch.self_s": self_s("workloads.batch"),
    }

    engine = names.index("runner.engine") if "runner.engine" in names else -1
    job_ids = {i for i, name in enumerate(names) if name.startswith(JOB_PREFIX)}
    jobs_in_engine = sum(
        end[row] - start[row]
        for row in range(len(layer))
        if layer[row] in job_ids and parent[row] >= 0 and layer[parent[row]] == engine
    )
    metrics["runner.engine.overhead_s"] = total_s("runner.engine") - jobs_in_engine / 1e9
    job_durations: list[float] = []
    for kind in JOB_KINDS:
        metrics[f"runner.jobs.{kind}.count"] = calls.get(JOB_PREFIX + kind, 0)
        metrics[f"runner.jobs.{kind}.self_s"] = self_s(JOB_PREFIX + kind)
    for name in names:
        if name.startswith(JOB_PREFIX):
            job_durations += durations[name]
    metrics["runner.jobs.p50_s"] = percentile(job_durations, 0.50)
    metrics["runner.jobs.p95_s"] = percentile(job_durations, 0.95)

    gets = calls.get("runner.cache.get", 0)
    metrics["runner.cache.get.calls"] = gets
    metrics["runner.cache.get.hit_ratio"] = (
        entered_value.get("runner.cache.get", 0) / gets if gets else 0.0
    )
    metrics["runner.cache.get.self_s"] = self_s("runner.cache.get")
    metrics["runner.cache.put.calls"] = calls.get("runner.cache.put", 0)
    metrics["runner.cache.put.bytes"] = entered_value.get("runner.cache.put", 0)
    metrics["runner.cache.put.self_s"] = self_s("runner.cache.put")

    fused_s = scalar_s = 0.0
    if SIMULATOR in names:
        sim = names.index(SIMULATOR)
        for row in range(len(layer)):
            if layer[row] == sim:
                seconds = (end[row] - start[row]) / 1e9
                if value[row]:
                    scalar_s += seconds
                else:
                    fused_s += seconds
    metrics["system.simulator.calls"] = calls.get(SIMULATOR, 0)
    metrics["system.simulator.fused_s"] = fused_s
    metrics["system.simulator.scalar_s"] = scalar_s
    metrics["system.simulator.fused_share"] = (
        fused_s / (fused_s + scalar_s) if fused_s + scalar_s else 1.0
    )
    metrics["batch.fallback.multi_stream"] = spans.header["fallbacks"].get(
        "batch.fallback.multi_stream", 0
    )
    for controller in CONTROLLERS:
        name = BATCH_PREFIX + controller
        metrics[f"{name}.requests"] = entered_value.get(name, 0)
        metrics[f"{name}.self_s"] = self_s(name)
    for layer_name in ("hashes.crc32", "hashes.burst", "crypto.counter_mode", "nvm.memory"):
        metrics[f"{layer_name}.calls"] = calls.get(layer_name, 0)
        metrics[f"{layer_name}.self_s"] = self_s(layer_name)
    for layer_name in ("core.dedup_engine", "baselines.bit_reduction", "analysis.render",
                       "serve.merge"):
        metrics[f"{layer_name}.self_s"] = self_s(layer_name)
    shards = durations.get(JOB_PREFIX + "serve-shard", [])
    metrics["serve.shard.p50_s"] = percentile(shards, 0.50)
    metrics["serve.shard.max_s"] = max(shards, default=0.0)
    return metrics
