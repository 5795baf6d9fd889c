"""The layer wrappers and the span arithmetic of the traced run."""

from __future__ import annotations

import inspect
import sys
from array import array

import layers
import pytest


def _snapshot() -> dict[tuple[int, str], object]:
    """Every attribute of every loaded ``repro`` module and class, by identity."""
    seen: dict[tuple[int, str], object] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            seen[(id(module), attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cls_attr, raw in list(vars(value).items()):
                    seen[(id(value), cls_attr)] = raw
    from repro.analysis import registry as figures

    for spec in figures.all_experiments():
        seen[(id(spec), "render")] = spec.render
    return seen


@pytest.fixture
def installed():
    recorder = layers.Recorder()
    patches = layers.install(recorder)
    try:
        yield recorder, patches
    finally:
        layers.restore(patches)


def test_restore_puts_back_the_exact_objects():
    recorder = layers.Recorder()
    first = layers.install(recorder)
    layers.restore(first)
    before = _snapshot()

    patches = layers.install(layers.Recorder())
    during = _snapshot()
    changed = {key for key in before if during.get(key) is not before[key]}
    assert changed, "install patched nothing"
    assert len(changed) == len(patches)

    from repro.core.dewrite import DeWriteController
    from repro.core.interface import MemoryController

    # The fused kernels compare these by identity before staying fused.
    for cls in (DeWriteController, MemoryController):
        for name in ("write", "read"):
            assert (id(cls), name) not in changed

    layers.restore(patches)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrapped_run_stays_fused_and_byte_identical(installed):
    from repro.obs.metrics import registry
    from repro.runner.jobs import execute_job, simulate_spec

    recorder, patches = installed
    spec = simulate_spec(workload="lbm", controller="dewrite", accesses=300, seed=5)
    registry().reset()
    traced = execute_job(spec)
    fallbacks = {k for k in registry().to_dict() if k.startswith("batch.fallback.")}
    layers.restore(patches)
    patches.clear()
    registry().reset()
    plain = execute_job(spec)

    assert traced == plain
    assert not fallbacks
    names = recorder.names
    batch_rows = [r for r in range(len(recorder.layer))
                  if names[recorder.layer[r]] == "core.service_batch.dewrite"]
    assert sum(recorder.value[r] for r in batch_rows) == 300
    sim = names.index("system.simulator")
    assert [recorder.value[r] for r in range(len(recorder.layer))
            if recorder.layer[r] == sim] == [0]


def test_self_time_subtracts_covered_child_time():
    # root [0, 100) with children [10, 30) and [20, 50) (overlapping) and
    # [90, 120) (runs past the root's end); grandchild [12, 18) in [10, 30).
    parent = array("i", [-1, 0, 0, 0, 1])
    start = array("q", [0, 10, 20, 90, 12])
    end = array("q", [100, 30, 50, 120, 18])
    own = list(layers.self_times(parent, start, end))
    # Root: covered by [10, 50) and [90, 100) -> 50 of 100.
    assert own == [50, 14, 30, 30, 6]


def test_self_time_of_disjoint_nesting_sums_to_the_root():
    parent = array("i", [-1, 0, 1, 1, 0])
    start = array("q", [0, 5, 6, 20, 40])
    end = array("q", [60, 30, 10, 25, 55])
    own = layers.self_times(parent, start, end)
    assert sum(own) == 60
    assert list(own) == [60 - 25 - 15, 25 - 4 - 5, 4, 5, 15]


def test_calls_count_entries_into_a_layer_once():
    recorder = layers.Recorder()
    outer = recorder.layer_id("nvm.memory")
    row = recorder.open(outer)
    inner = recorder.open(outer)  # a wrapped function calling a wrapped sibling
    recorder.close(inner)
    recorder.close(row)
    metrics = layers.layer_metrics(
        layers.Spans(recorder.names, recorder.layer, recorder.parent, recorder.start,
                     recorder.end, recorder.value,
                     {"counters": {}, "generator_distinct": 0, "fallbacks": {}})
    )
    assert metrics["nvm.memory.calls"] == 1


@pytest.mark.parametrize(
    ("values", "q", "expected"),
    [([], 0.5, 0.0), ([3.0], 0.95, 3.0), ([4.0, 1.0, 3.0, 2.0], 0.5, 2.0),
     ([float(v) for v in range(1, 21)], 0.95, 19.0)],
)
def test_percentile_is_nearest_rank(values, q, expected):
    assert layers.percentile(values, q) == expected
