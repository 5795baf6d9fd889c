"""The live dashboard: the WatchModel fold, rendering, file following."""

from __future__ import annotations

import json

from repro.obs.events import EventBus
from repro.obs.watch import CLEAR_FRAME, WatchModel, follow_file, render_dashboard


class _FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def _stream(clock: _FakeClock | None = None) -> tuple[list[dict], EventBus]:
    seen: list[dict] = []
    bus = EventBus(seen.append, clock=clock or _FakeClock(), snapshot_interval_s=0.0)
    return seen, bus


def _fold(records: list[dict]) -> WatchModel:
    model = WatchModel()
    for record in records:
        model.consume(record)
    return model


class TestWatchModel:
    def test_full_run_folds_to_finished(self):
        clock = _FakeClock(100.0)
        seen, bus = _stream(clock)
        bus.emit("run_started", planned=3, unique=2)
        bus.emit("planned", key="k1", label="fig12/lbm", job_kind="simulate")
        bus.emit("planned", key="k2", label="fig12/mcf", job_kind="simulate")
        bus.emit("cache_hit", key="k1", label="fig12/lbm")
        bus.emit("started", key="k2", label="fig12/mcf", attempt=1)
        clock.now = 104.0
        bus.emit(
            "finished", key="k2", label="fig12/mcf", status="ok",
            compute_s=3.5, queue_s=0.0, attempts=1,
        )
        bus.emit("run_finished", done=2, failed=0, elapsed_s=4.0)
        model = _fold(seen)
        assert model.total == 2
        assert model.done == 2
        assert model.cache_hits == 1
        assert model.hit_rate == 0.5
        assert model.in_flight == {}
        assert model.run_finished
        assert model.elapsed_s == 4.0
        assert model.eta_s() == 0.0
        assert model.wall_elapsed_s() == 4.0
        assert model.throughput() == 0.5

    def test_in_flight_tracks_started_not_yet_finished(self):
        seen, bus = _stream()
        bus.emit("planned", key="k1", label="fig12/lbm", job_kind="simulate")
        bus.emit("started", key="k1", label="fig12/lbm", attempt=1)
        model = _fold(seen)
        assert model.in_flight == {"k1": "fig12/lbm"}
        assert model.eta_s() is None  # nothing resolved yet: no rate

    def test_failures_and_retries_are_counted(self):
        seen, bus = _stream()
        bus.emit("started", key="k1", label="l", attempt=1)
        bus.emit("retried", key="k1", label="l", attempt=1, error="ValueError()")
        bus.emit(
            "finished", key="k1", label="l", status="failed",
            compute_s=0.1, queue_s=0.0, attempts=2,
        )
        model = _fold(seen)
        assert model.failed == 1
        assert model.retries == 1
        assert model.executed_ok == 0

    def test_non_event_json_is_ignored_not_fatal(self):
        model = _fold([{"some": "json"}, {"kind": "repro-event", "schema": 99}])
        model.consume("not even a dict")  # type: ignore[arg-type]
        assert model.ignored == 3
        assert model.records_seen == 0

    def test_seq_gaps_surface_dropped_datagrams(self):
        seen, bus = _stream()
        for index in range(5):
            bus.emit("cache_hit", key=f"k{index}", label=f"l{index}")
        thinned = [record for record in seen if record["seq"] not in (1, 2)]
        model = _fold(thinned)
        assert model.seq_gaps == 2


class TestRenderDashboard:
    def test_frame_shows_progress_and_stream_health(self):
        seen, bus = _stream()
        bus.emit("run_started", planned=2, unique=2)
        bus.emit("planned", key="k1", label="fig12/lbm", job_kind="simulate")
        bus.emit("started", key="k1", label="fig12/lbm", attempt=1)
        frame = render_dashboard(_fold(seen))
        assert "0/2 done" in frame
        assert "in flight: fig12/lbm" in frame
        assert "stream: 3 record(s)" in frame

    def test_snapshot_stage_split_and_metrics_render(self):
        seen, bus = _stream()
        bus.emit(
            "snapshot",
            done=1, failed=0, in_flight=0, total=2,
            metrics={"simulations": {"kind": "counter", "value": 7.0}},
            stages={
                "schema": 1,
                "stages": {
                    "write.hash": {"count": 5, "total_ns": 750.0},
                    "nvm.write": {"count": 5, "total_ns": 250.0},
                },
            },
        )
        frame = render_dashboard(_fold(seen))
        assert "write.hash 75%" in frame
        assert "nvm.write 25%" in frame
        assert "simulations so far: 7" in frame

    def test_fallback_counters_surface_in_the_health_line(self):
        seen, bus = _stream()
        bus.emit(
            "snapshot",
            done=1, failed=0, in_flight=0, total=2,
            metrics={
                "batch.fallback.timeline": {"kind": "counter", "value": 3.0},
                "batch.fallback.tracer": {"kind": "counter", "value": 0.0},
                "simulations": {"kind": "counter", "value": 2.0},
            },
        )
        model = _fold(seen)
        assert model.fallback_counters() == {"timeline": 3.0}
        frame = render_dashboard(model)
        assert "FALLBACKS: timeline=3" in frame
        assert "tracer" not in frame  # zero counters stay quiet

    def test_clean_run_renders_no_fallback_warning(self):
        seen, bus = _stream()
        bus.emit(
            "snapshot",
            done=1, failed=0, in_flight=0, total=1,
            metrics={"simulations": {"kind": "counter", "value": 1.0}},
        )
        assert "FALLBACKS" not in render_dashboard(_fold(seen))

    def test_shard_lanes_render_capped_preview(self):
        seen, bus = _stream()
        metrics = {
            f"serve.shard.{shard}.accesses": {"kind": "counter", "value": 100.0 + shard}
            for shard in range(10)
        }
        metrics["serve.shard.bogus.accesses"] = {"kind": "counter", "value": 1.0}
        bus.emit(
            "snapshot", done=0, failed=0, in_flight=10, total=10, metrics=metrics
        )
        model = _fold(seen)
        lanes = model.shard_lanes()
        assert list(lanes) == list(range(10))  # numeric sort, bogus dropped
        frame = render_dashboard(model)
        assert "shard lanes (accesses): s0 100" in frame
        assert "… +2" in frame

    def test_finished_run_renders_banner_and_recent(self):
        seen, bus = _stream()
        bus.emit(
            "finished", key="k", label="fig12/lbm", status="ok",
            compute_s=1.25, queue_s=0.0, attempts=1,
        )
        bus.emit("run_finished", done=1, failed=0, elapsed_s=2.0)
        frame = render_dashboard(_fold(seen))
        assert "FINISHED in 2.0s" in frame
        assert "recent: fig12/lbm: ok (1.25s)" in frame

    def test_recent_list_keeps_last_five(self):
        seen, bus = _stream()
        for index in range(8):
            bus.emit(
                "finished", key=f"k{index}", label=f"job{index}", status="ok",
                compute_s=0.1, queue_s=0.0, attempts=1,
            )
        model = _fold(seen)
        assert len(model.recent) == 5
        assert model.recent[-1].startswith("job7")


class TestFollowFile:
    def _write_stream(self, path) -> None:
        seen, bus = _stream()
        bus.emit("run_started", planned=1, unique=1)
        bus.emit(
            "finished", key="k", label="l", status="ok",
            compute_s=0.5, queue_s=0.0, attempts=1,
        )
        bus.emit("run_finished", done=1, failed=0, elapsed_s=0.5)
        path.write_text(
            "".join(json.dumps(record, sort_keys=True) + "\n" for record in seen)
        )

    def test_once_renders_one_plain_frame(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        self._write_stream(stream)
        frames: list[str] = []
        model = follow_file(stream, once=True, emit=frames.append)
        assert model.run_finished
        assert len(frames) == 1
        assert CLEAR_FRAME not in frames[0]
        assert "1/1 done" in frames[0]

    def test_follow_stops_on_run_finished(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        self._write_stream(stream)
        frames: list[str] = []
        model = follow_file(
            stream, interval_s=0.01, emit=frames.append, max_wait_s=5.0
        )
        assert model.run_finished
        assert frames[-1].startswith(CLEAR_FRAME)

    def test_partial_tail_line_is_deferred(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        seen, bus = _stream()
        bus.emit("run_started", planned=1, unique=1)
        complete = json.dumps(seen[0], sort_keys=True) + "\n"
        stream.write_text(complete + '{"kind": "repro-ev')  # mid-write tail
        model = follow_file(stream, once=True, emit=lambda frame: None)
        assert model.records_seen == 1
        assert model.ignored == 0

    def test_missing_file_renders_empty_model(self, tmp_path):
        model = follow_file(
            tmp_path / "never-written.jsonl", once=True, emit=lambda frame: None
        )
        assert model.records_seen == 0
