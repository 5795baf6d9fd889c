"""End-to-end benchmark of the ``repro`` CLI: figure runs and the serve path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload is a closed loop with one
client: one ``repro`` command at a time, each a fresh serial process
(``--parallel 1``), started when the previous one has ended.  Cold
workloads give each command an empty result-cache directory;
``figures-warm`` re-runs against a cache filled during set-up.

``--seed`` names :data:`SUBSEEDS` program seeds, which the measured
commands take in turn: a figure run's cost moves by up to a quarter from
one program seed to the next, so one seed per run would make the spread
between runs mostly a spread between inputs.

A :data:`REFERENCE` process runs before the first measured command and
after each one; reported times are scaled by the reference's speed
around each command, because the shared host's speed drifts by more than
the bounds within minutes.

With ``--trace 0`` the commands run untimed-by-anything but the clock and
the end-to-end metrics are printed.  With ``--trace 1`` untraced and
traced commands alternate; the traced ones run under the layer wrappers
of :mod:`layers`, and the per-layer metrics are printed.

Every command's output is checked: the sha256 of the rendered figure
tables (``repro run`` stdout) or of the ``repro serve --json`` report
must equal the digest pinned in ``digests.json`` for the pinned seeds
(each run first runs every pinned seed it does not measure), and must be
identical across every command of the run, traced or not.  The last
line of stdout is one JSON object; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: A run ends (with an error) rather than outlive this many seconds.
DEADLINE_S = 170.0

SPEC = ("bzip2", "gcc", "mcf", "milc", "zeusmp", "cactusADM", "gobmk", "hmmer",
        "sjeng", "libquantum", "lbm", "omnetpp")
PARSEC = ("blackscholes", "bodytrack", "canneal", "ferret", "fluidanimate",
          "streamcluster", "swaptions", "vips")

#: Simulated request counts that measure each job kind's trace replay.
SIMULATING_KINDS = ("simulate", "metadata-sweep")

CACHE_STATS = re.compile(
    r"cache-stats: (?P<unique>\d+) unique jobs \((?P<planned>\d+) planned\), "
    r"\d+ warm from cache, \d+ executed, \d+ simulations executed, "
    r"(?P<retried>\d+) retried, (?P<failed>\d+) failed"
)


#: Shards of the ``serve-zipf`` command; the first wave plans one job each.
SERVE_SHARDS = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a ``repro`` command line at a fixed scale."""

    name: str
    command: str  # "run" or "serve"
    accesses: int
    apps: tuple[str, ...] = ()
    warm: bool = False

    def argv(self, seed: int, cache: Path) -> list[str]:
        """The CLI arguments of one command at ``seed``."""
        common = ["--accesses", str(self.accesses), "--seed", str(seed),
                  "--parallel", "1", "--cache-dir", str(cache)]
        if self.command == "run":
            return ["run", "--apps", ",".join(self.apps), *common,
                    "--manifest", "manifest.json"]
        return ["serve", "--tenants", "1000000", "--zipf", "1.1", "--overlap", "0.35",
                "--shards", str(SERVE_SHARDS), *common, "--json", "report.json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("figures-spec", "run", accesses=120, apps=SPEC),
        Workload("figures-parsec", "run", accesses=180, apps=PARSEC),
        Workload("serve-zipf", "serve", accesses=24_000),
        Workload("figures-warm", "run", accesses=120, apps=SPEC, warm=True),
    )
}

#: The CLI's own default seed per command, plus one held-out seed.
PINNED_SEEDS = {"run": (1, 1009), "serve": (7, 1009)}

#: Program seeds per benchmark seed.
SUBSEEDS = 4

#: A fixed stand-in for a ``repro`` command that no change to the program
#: touches: a fresh interpreter that imports standard modules and fills a
#: dict of small objects.  The host's speed drifts by a third within
#: minutes; over 20 s windows this process's time tracked a command's with
#: correlation 0.9 and log-log slope 0.9, so measured times are scaled by
#: its speed (see :meth:`Command.at_reference`).
REFERENCE = """
import argparse, dataclasses, hashlib, json, pathlib, statistics, typing
class Line:
    __slots__ = ("addr", "data", "count")
    def __init__(self, addr, data):
        self.addr, self.data, self.count = addr, data, 0
lines, x = {}, 12345
for i in range(40_000):
    x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    addr = (x >> 20) % 150_000
    line = lines.get(addr)
    if line is None:
        lines[addr] = Line(addr, (x & 0xFFFF).to_bytes(2, "little") * 32)
    else:
        line.count += 1
"""

#: The reference's median wall time on the 2-vCPU host the bounds were set
#: on: reported times are seconds at that host speed.
REFERENCE_S = 0.15


def program_seeds(seed: int) -> list[int]:
    """The program seeds a run at benchmark seed ``seed`` measures."""
    return [seed * SUBSEEDS + k for k in range(SUBSEEDS)]


END_TO_END = (
    ("run_s", "s"),
    ("accesses_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_ok_share", "ratio"),
)


@dataclass
class Command:
    """Outcome of one ``repro`` process."""

    seed: int
    traced: bool
    code: int
    run_s: float
    rss_mb: float
    setup_s: float = 0.0
    digest: str = ""
    jobs: int = 0
    failed_jobs: int = 0
    retried: int = 0
    requests: int = 0
    fallbacks: dict[str, float] = field(default_factory=dict)
    spans: Path | None = None
    problem: str = ""
    #: Mean wall time of the reference process just before and after.
    reference_s: float = 0.0

    def at_reference(self, seconds: float) -> float:
        """``seconds`` of this command, scaled to the reference host speed."""
        return seconds * REFERENCE_S / self.reference_s


class Bench:
    """State of one benchmark run: its deadline, pins and command log."""

    def __init__(self, workload: Workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        pins = json.loads(DIGESTS.read_text()).get(workload.name, {})
        #: Output digest per seed: pinned ones, then each run seed's first.
        self.expected: dict[int, str] = {int(seed): digest for seed, digest in pins.items()}
        self.pinned = set(self.expected)
        self.commands: list[Command] = []
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    # -- one command -----------------------------------------------------------

    def command(self, seed: int, cache: Path, *, traced: bool = False) -> Command:
        """Run one ``repro`` command and check its output."""
        inv = WORK / "inv"
        shutil.rmtree(inv, ignore_errors=True)
        inv.mkdir(parents=True)
        stamp, spans = inv / "stamp", inv / "spans.bin"
        mode = ["--spans", str(spans)] if traced else ["--stamp", str(stamp)]
        argv = [sys.executable, str(HERE / "launch.py"), *mode, "--",
                *self.workload.argv(seed, cache)]
        with open(inv / "stdout", "wb") as out, open(inv / "stderr", "wb") as err:
            started = time.monotonic()
            code, usage = self._run(argv, cwd=inv, stdout=out, stderr=err)
            run_s = time.monotonic() - started
        result = Command(seed, traced, code, run_s, usage.ru_maxrss / 1024.0,
                         spans=spans if traced else None)
        self._inspect(result, inv, started, stamp)
        self.commands.append(result)
        print(f"perfbench: {'traced ' * traced}seed {seed}: run_s={run_s:.3f} "
              f"setup_s={result.setup_s:.3f} rss_mb={result.rss_mb:.1f} "
              f"{result.problem or 'ok'}", file=sys.stderr)
        return result

    def _run(self, argv: list[str], **popen: Any) -> tuple[int, os.struct_rusage]:
        """Run a process to its end, or kill it at the deadline; returns its
        exit code and resource usage.

        ``os.wait4`` returns the moment the process ends; ``Popen.wait``
        with a timeout polls, which rounds times up to 50 ms steps.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark deadline reached")
        proc = subprocess.Popen(argv, env=self.env, **popen)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def _inspect(self, result: Command, inv: Path, started: float, stamp: Path) -> None:
        stderr = (inv / "stderr").read_text(errors="replace")
        if result.code != 0:
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            result.problem = f"exit code {result.code}: {tail}"
            return
        stats = CACHE_STATS.search(stderr)
        if stats is None:
            result.problem = "no cache-stats line"
            return
        result.jobs = int(stats["unique"])
        result.failed_jobs = int(stats["failed"])
        result.retried = int(stats["retried"])
        try:
            self._read_outputs(result, inv, started, stamp, int(stats["planned"]))
        except (OSError, ValueError, KeyError) as error:
            result.problem = f"unreadable output: {error!r}"
            return
        if result.failed_jobs:
            result.problem = f"{result.failed_jobs} job(s) failed"
        expected = self.expected.setdefault(result.seed, result.digest)
        if result.digest != expected:
            source = "pinned" if result.seed in self.pinned else "first"
            result.problem = f"output digest {result.digest[:16]} != {source} {expected[:16]}"

    def _read_outputs(self, result: Command, inv: Path, started: float, stamp: Path,
                      planned: int) -> None:
        if self.workload.command == "serve":
            # Shards that fail are re-dispatched in a second wave, which
            # the combined report counts as extra planned jobs.
            result.retried += planned - SERVE_SHARDS
            report_bytes = (inv / "report.json").read_bytes()
            report = json.loads(report_bytes)
            merged = report["merged"]["stats"]
            result.requests = int(merged["reads_requested"]) + int(merged["writes_requested"])
            result.fallbacks = report["fallbacks"]
            result.digest = hashlib.sha256(report_bytes).hexdigest()
        else:
            manifest = json.loads((inv / "manifest.json").read_text())
            result.fallbacks = {
                name: entry["value"] for name, entry in manifest["metrics"].items()
                if name.startswith("batch.fallback.")
            }
            result.digest = hashlib.sha256((inv / "stdout").read_bytes()).hexdigest()
        if result.traced:
            moved = WORK / f"spans-{len(self.commands)}.bin"
            os.replace(result.spans, moved)
            os.replace(f"{result.spans}.json", f"{moved}.json")
            result.spans = moved
        else:
            result.setup_s = float(stamp.read_text()) - started

    # -- phases ----------------------------------------------------------------

    def cold_cache(self) -> Path:
        """A fresh, empty result-cache directory."""
        cache = WORK / "cache-cold"
        shutil.rmtree(cache, ignore_errors=True)
        return cache

    def check_pinned(self, seeds: list[int]) -> None:
        """Run the workload once at each pinned seed not among ``seeds``.

        (Measured commands at a pinned seed are checked against its pin.)
        The first of these commands also compiles the bytecode a fresh
        checkout lacks, before anything is timed.
        """
        for pinned in PINNED_SEEDS[self.workload.command]:
            if pinned in seeds:
                continue
            if pinned not in self.pinned:
                raise SystemExit(f"perfbench: no pinned digest for seed {pinned}")
            cache = self.cold_cache()
            self.command(pinned, cache)
            if self.workload.warm:
                self.command(pinned, cache)

    def prepare(self, seeds: list[int]) -> Path | None:
        """Fill the warm workload's cache; ``None`` means cold per command."""
        if not self.workload.warm:
            return None
        cache = WORK / "cache-warm"
        shutil.rmtree(cache, ignore_errors=True)
        for seed in seeds:
            self.command(seed, cache)
        return cache

    def measure(self, seeds: list[int], warm_cache: Path | None, traced: bool) -> list[Command]:
        """The closed loop: commands back to back for ``seconds`` seconds.

        Untraced runs take the seeds in turn, at least once each.  Traced
        runs alternate untraced and traced commands at the first seed.
        """
        measured: list[Command] = []
        began = time.monotonic()
        minimum = 2 if traced else len(seeds)
        before = self.reference()
        while len(measured) < minimum or time.monotonic() - began < self.seconds:
            cache = warm_cache if warm_cache is not None else self.cold_cache()
            n = len(measured)
            if traced:
                cmd = self.command(seeds[0], cache, traced=n % 2 == 1)
            else:
                cmd = self.command(seeds[n % len(seeds)], cache)
            after = self.reference()
            cmd.reference_s = (before + after) / 2
            before = after
            measured.append(cmd)
        return measured

    def reference(self) -> float:
        """Wall time of one :data:`REFERENCE` process."""
        started = time.monotonic()
        code, _ = self._run([sys.executable, "-c", REFERENCE], cwd=WORK,
                            stdout=subprocess.DEVNULL)
        seconds = time.monotonic() - started
        if code != 0:
            raise TimeoutError(f"reference process ended with code {code}")
        print(f"perfbench: reference_s={seconds:.3f}", file=sys.stderr)
        return seconds

    # -- results ---------------------------------------------------------------

    def accounting(self) -> tuple[int, int]:
        """(jobs attempted, jobs failed) over every command of the run."""
        attempted = failed = 0
        for cmd in self.commands:
            attempted += max(cmd.jobs, 1)
            failed += max(cmd.jobs, 1) if cmd.problem and not cmd.failed_jobs else cmd.failed_jobs
        return attempted, failed


def figure_requests(workload: Workload, seed: int) -> int:
    """Simulated memory requests a figure run's jobs replay (planned, not run)."""
    sys.path.insert(0, str(SRC))
    from repro.analysis import experiments as ex
    from repro.analysis import registry as figures

    settings = ex.ExperimentSettings(
        accesses=workload.accesses, seed=seed, applications=workload.apps
    )
    unique = {spec.identity: spec for spec in
              figures.plan_for(figures.experiment_ids(), settings)}
    return sum(int(spec.params["accesses"]) for spec in unique.values()
               if spec.kind in SIMULATING_KINDS)


def end_to_end(bench: Bench, measured: list[Command],
               requests: dict[int, int]) -> dict[str, float]:
    """Medians over the measured commands that passed their checks, with
    times scaled to the reference host speed.

    ``requests`` gives the simulated requests of each seed's commands.
    """
    good = [c for c in measured if not c.problem]
    if not good:
        return {}
    attempted, failed = bench.accounting()
    return {
        "run_s": statistics.median(c.at_reference(c.run_s) for c in good),
        "accesses_per_s": statistics.median(
            requests[c.seed] / c.at_reference(c.run_s) for c in good
        ),
        "setup_s": statistics.median(c.at_reference(c.setup_s) for c in good),
        "peak_rss_mb": statistics.median(c.rss_mb for c in good),
        "jobs_ok_share": 1.0 - failed / attempted,
    }


def per_layer(bench: Bench, measured: list[Command]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced commands, plus any invariant broken."""
    import layers

    plain = [c for c in measured if not c.traced and not c.problem]
    traced = [c for c in measured if c.traced and not c.problem]
    if not plain or not traced:
        return {}, ["no traced or untraced command succeeded"]
    problems = []
    runs = []
    for cmd in traced:
        runs.append(layers.layer_metrics(layers.load(cmd.spans)))
        if cmd.fallbacks != plain[0].fallbacks:
            problems.append(f"traced fallbacks {cmd.fallbacks} != untraced {plain[0].fallbacks}")
    metrics: dict[str, float] = {}
    for name, unit in layers.per_layer_names():
        values = [run[name] for run in runs]
        if unit in ("count", "bytes"):
            # Counts repeat exactly in a deterministic program.
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced commands: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["runner.jobs.retried"] = sum(c.retried for c in bench.commands)
    metrics["trace.overhead"] = (
        statistics.median(c.at_reference(c.run_s) for c in traced)
        / statistics.median(c.at_reference(c.run_s) for c in plain)
        - 1.0
    )
    return metrics, problems


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric the traced run prints."""
    import layers

    units = dict(layers.per_layer_names())
    units["runner.jobs.retried"] = "count"
    units["trace.overhead"] = "ratio"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seconds)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    # A traced run compares its traced and untraced commands at one seed.
    seeds = program_seeds(args.seed)[:1] if args.trace else program_seeds(args.seed)
    try:
        bench.check_pinned(seeds)
        warm_cache = bench.prepare(seeds)
        measured = bench.measure(seeds, warm_cache, traced=bool(args.trace))
        if args.trace:
            metrics, problems = per_layer(bench, measured)
            units = per_layer_units()
        else:
            problems = []
            requests = {
                seed: (max(c.requests for c in measured if c.seed == seed)
                       if workload.command == "serve" else figure_requests(workload, seed))
                for seed in {c.seed for c in measured}
            }
            metrics = end_to_end(bench, measured, requests)
            units = dict(END_TO_END)
    except TimeoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    attempted, failed = bench.accounting()
    correct = not problems and all(not c.problem for c in bench.commands)
    if not metrics:
        return 1
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
