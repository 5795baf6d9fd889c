"""The benchmark's output check, failure accounting and metric names."""

from __future__ import annotations

import hashlib
import json
import re

import run

TABLE = b"fig12 write reduction\napp   dewrite\nlbm    0.61\n"
STATS = ("cache-stats: 3 unique jobs (3 planned), 0 warm from cache, 3 executed, "
         "3 simulations executed, 0 retried, 0 failed [0.1s]\n")


def _bench(pins: dict[str, str]) -> run.Bench:
    bench = run.Bench(run.WORKLOADS["figures-spec"], seconds=1)
    bench.expected = {int(seed): digest for seed, digest in pins.items()}
    bench.pinned = set(bench.expected)
    return bench


def _command_dir(tmp_path, table: bytes, stats: str = STATS):
    (tmp_path / "stdout").write_bytes(table)
    (tmp_path / "stderr").write_text(stats)
    (tmp_path / "manifest.json").write_text(json.dumps({"metrics": {}}))
    (tmp_path / "stamp").write_text("12.5")
    return tmp_path


def _inspect(bench: run.Bench, tmp_path, table: bytes, code: int = 0) -> run.Command:
    inv = _command_dir(tmp_path, table)
    result = run.Command(seed=1, traced=False, code=code, run_s=1.0, rss_mb=30.0)
    bench._inspect(result, inv, 12.0, inv / "stamp")
    bench.commands.append(result)
    return result


def test_pinned_digest_accepts_the_pinned_table(tmp_path):
    bench = _bench({"1": hashlib.sha256(TABLE).hexdigest()})
    result = _inspect(bench, tmp_path, TABLE)
    assert result.problem == ""
    assert (result.jobs, result.setup_s) == (3, 0.5)
    assert bench.accounting() == (3, 0)


def test_digest_check_rejects_a_one_byte_change(tmp_path):
    bench = _bench({"1": hashlib.sha256(TABLE).hexdigest()})
    changed = TABLE.replace(b"0.61", b"0.62")
    assert len(changed) == len(TABLE)
    result = _inspect(bench, tmp_path, changed)
    assert "digest" in result.problem
    assert bench.accounting() == (3, 3)


def test_unpinned_seed_must_repeat_its_first_output(tmp_path):
    bench = _bench({})
    assert _inspect(bench, tmp_path, TABLE).problem == ""
    assert "digest" in _inspect(bench, tmp_path, TABLE + b" ").problem


def test_nonzero_exit_fails_the_command(tmp_path):
    bench = _bench({"1": hashlib.sha256(TABLE).hexdigest()})
    result = _inspect(bench, tmp_path, TABLE, code=1)
    assert result.problem.startswith("exit code 1")
    assert bench.accounting() == (1, 1)


def test_failed_jobs_are_counted_from_the_run_report(tmp_path):
    bench = _bench({"1": hashlib.sha256(TABLE).hexdigest()})
    inv = _command_dir(tmp_path, TABLE, STATS.replace("0 failed", "2 failed"))
    result = run.Command(seed=1, traced=False, code=0, run_s=1.0, rss_mb=30.0)
    bench._inspect(result, inv, 12.0, inv / "stamp")
    bench.commands.append(result)
    assert result.failed_jobs == 2 and result.problem
    assert bench.accounting() == (3, 2)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(
        run.per_layer_units().items()
    )
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _ in run.END_TO_END] + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in [unit for _, unit in run.END_TO_END] + list(run.per_layer_units().values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_end_to_end_takes_medians_over_the_commands_that_passed():
    bench = _bench({})
    # Each command ran at half the reference host speed.
    slow = 2 * run.REFERENCE_S
    measured = [run.Command(seed=seed, traced=False, code=0, run_s=2 * run_s, rss_mb=30.0,
                            setup_s=1.0, jobs=2, reference_s=slow)
                for seed, run_s in ((8, 1.0), (8, 3.0), (9, 2.0), (9, 4.0), (9, 6.0))]
    measured.append(run.Command(seed=9, traced=False, code=1, run_s=90.0, rss_mb=30.0,
                                problem="exit code 1"))
    bench.commands = measured
    metrics = run.end_to_end(bench, measured, {8: 12, 9: 24})
    assert metrics["run_s"] == 3.0
    assert metrics["setup_s"] == 0.5
    assert metrics["accesses_per_s"] == 6.0  # of 12.0, 4.0, 12.0, 6.0, 4.0
    assert metrics["jobs_ok_share"] == 1.0 - 1 / 11


def test_program_seeds_are_distinct_across_benchmark_seeds():
    seeds = [s for n in range(50) for s in run.program_seeds(n)]
    assert len(seeds) == len(set(seeds)) == 50 * run.SUBSEEDS
