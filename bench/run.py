"""Benchmark of the gapcircuit command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's CLI job again and again, each in
a fresh process and one per CPU at a time, for about ``--seconds`` seconds,
checks every job's output and reports the end-to-end metrics, scaled by the
speed ``gauge.py`` finds.  With ``--trace 1`` it runs
an untimed warm-up job, then the job twice untraced and twice under
``tracing.py``, and reports the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.

The last line of stdout is the result; the line before it is the record of
the samples and the environment they were taken in.  The program is run from
``src/`` beside this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gauge import GAUGES
from tracing import COUNTS, LAYERS, layer_summary
from workloads import WORKLOADS, Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLI = [sys.executable, "-m", "gapcircuit"]
# Jobs see the checkout's sources and none of the caller's Python or
# gapcircuit settings (such as a sieve budget), so every run is alike.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GAPCIRCUIT_"))}
CHILD_ENV["PYTHONPATH"] = str(SRC)

RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends well inside 180 s
SETUP_SAMPLES = 12
GAUGE_SAMPLES = 16
MIN_JOBS = 4
# Processes at once in a timed run: one per CPU, at most two.  Jobs on both
# CPUs give a run twice the samples in the same time.
STREAMS = min(2, len(os.sched_getaffinity(0)))
TRACED_RUNS = 2


@dataclass(frozen=True)
class Spawned:
    start: float
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


class Child:
    """A process started with its stdout and stderr going to temporary files,
    so that several can run at once without a pipe filling up."""

    def __init__(self, argv: list[str], timeout: float):
        self.out = tempfile.TemporaryFile()
        self.err = tempfile.TemporaryFile()
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err, env=CHILD_ENV, cwd=ROOT
        )
        self.timer = threading.Timer(max(timeout, 0.0), self.proc.kill)
        self.timer.start()

    def reaped(self, status: int, usage) -> Spawned:
        """The finished run, once ``os.wait4`` has returned this child."""
        wall_s = time.perf_counter() - self.start
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        output = []
        for f in (self.out, self.err):
            f.seek(0)
            output.append(f.read())
            f.close()
        return Spawned(self.start, wall_s, usage.ru_maxrss / 1024, self.proc.returncode, *output)


def spawn(argv: list[str], timeout: float) -> Spawned:
    """Run one process to exit; time it from spawn to exit, output captured."""
    child = Child(argv, timeout)
    try:
        _, status, usage = os.wait4(child.proc.pid, 0)
    except BaseException:
        child.proc.kill()
        child.reaped(*os.wait4(child.proc.pid, 0)[1:])
        raise
    return child.reaped(status, usage)


def problem_with(job: Job, returncode: int, stdout: bytes, stderr: bytes) -> str | None:
    """Why a job failed: its exit code, or its output against the reference."""
    if returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip()[-300:]
        return f"exit code {returncode}: {tail}"
    try:
        return job.check(stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"


class Tally:
    """Processes attempted, and the reason for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)


def run_job(job: Job, deadline: float, tally: Tally) -> Spawned:
    """One untraced job, checked and tallied."""
    run = spawn(CLI + job.argv, deadline - time.perf_counter())
    tally.add(problem_with(job, run.returncode, run.stdout, run.stderr))
    return run


def measure(job: Job, gauge: str | None, seconds: float, deadline: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics: job wall time, throughput, peak RSS and set-up time.

    ``STREAMS`` processes run at once, each a job or a probe; as one ends,
    the next starts.  New jobs start until ``seconds`` would be exceeded,
    with at least ``MIN_JOBS``.  The probes are set-up probes and gauge
    probes, spread over the whole window rather than taken in one burst.

    The host's speed drifts by up to a factor of two, over seconds to
    minutes, so the workload's ``gauge`` from ``gauge.py``, a fixed piece
    of work like the job's, runs as a fresh process among the jobs.  Job
    times are scaled by its reference work time over the mean of the work
    times it prints, and set-up times by its reference wall time over its
    mean wall time.  A workload without a gauge reports raw times.

    Job and gauge times of fresh processes fall into a fast and a slow
    group, in proportions that change from run to run; a median jumps
    between the groups, so ``wall_s`` is a mean of the job times and the
    gauge is read by its mean.
    """
    probes = {"setup": CLI + [job.argv[0], "--help"], "gauge": [sys.executable, str(BENCH / "gauge.py"), str(gauge)]}
    counts = {"setup": SETUP_SAMPLES, "gauge": GAUGE_SAMPLES if gauge else 0}
    runs: dict[str, list[Spawned]] = {"job": [], "setup": [], "gauge": []}
    started = dict.fromkeys(runs, 0)
    running: dict[int, tuple[str, Child]] = {}
    start = time.perf_counter()

    def next_kind(now: float) -> str | None:
        typical = statistics.median(run.wall_s for run in runs["job"]) if runs["job"] else 0.0
        jobs_left = now + typical <= deadline and (
            started["job"] < MIN_JOBS or now - start + typical <= seconds
        )
        share = min(1.0, (now - start) / seconds) if jobs_left else 1.0
        for kind in ("gauge", "setup"):
            if counts[kind] and started[kind] < max(1, share * counts[kind]):
                return kind
        return "job" if jobs_left else None

    def record(kind: str, run: Spawned) -> None:
        if kind == "job":
            tally.add(problem_with(job, run.returncode, run.stdout, run.stderr))
        else:
            tally.add(None if run.returncode == 0 else f"{' '.join(probes[kind][1:])}: exit code {run.returncode}")
        if kind == "job" or run.returncode == 0:
            # Keep no job output: a process started later reports the
            # harness's own memory high-water mark if that is the larger.
            runs[kind].append(run if kind == "gauge" else replace(run, stdout=b"", stderr=b""))

    try:
        while True:
            while len(running) < STREAMS and (kind := next_kind(time.perf_counter())):
                child = Child(probes.get(kind, CLI + job.argv), deadline - time.perf_counter())
                started[kind] += 1
                running[child.proc.pid] = (kind, child)
            if not running:
                break
            pid, status, usage = os.wait4(-1, 0)
            if pid in running:
                kind, child = running.pop(pid)
                record(kind, child.reaped(status, usage))
    finally:
        for _, child in running.values():  # only when the loop was interrupted
            child.proc.kill()
            child.reaped(*os.wait4(child.proc.pid, 0)[1:])
    if not runs["job"] or not runs["setup"] or (gauge and not runs["gauge"]):
        return {}, {}

    walls = [run.wall_s for run in runs["job"]]
    setup = [run.wall_s for run in runs["setup"]]
    gauge_walls = [run.wall_s for run in runs["gauge"]]
    gauge_work = [float(run.stdout) for run in runs["gauge"]]
    scale = {"wall_s": 1.0, "setup_s": 1.0}
    if gauge:
        _, work_ref_s, wall_ref_s = GAUGES[gauge]
        scale = {
            "wall_s": work_ref_s / statistics.fmean(gauge_work),
            "setup_s": wall_ref_s / statistics.fmean(gauge_walls),
        }
    raw = {"wall_s": statistics.fmean(walls), "setup_s": statistics.median(setup)}
    wall_s = raw["wall_s"] * scale["wall_s"]
    values = {
        "wall_s": wall_s,
        "work_per_s": job.units / wall_s,
        "peak_rss_mb": statistics.median(run.rss_mb for run in runs["job"]),
        "setup_s": raw["setup_s"] * scale["setup_s"],
    }
    samples = {
        "streams": STREAMS,
        "raw": raw,
        "scale": scale,
        "wall_s": walls,
        "peak_rss_mb": [run.rss_mb for run in runs["job"]],
        "setup_s": setup,
        "gauge_s": gauge_walls,
        "gauge_work_s": gauge_work,
        "starts": {kind: [run.start - start for run in done] for kind, done in runs.items()},
        "harness_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": job.units,
    }
    return values, samples


def traced(job: Job, workdir: Path, deadline: float, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics from traced runs, with the tracing overhead.

    Untraced and traced runs alternate, so that drift in the machine's speed
    falls on both sides of the overhead alike.  The first heavy job of a run
    is often slow, so an untimed job runs before them.
    """
    run_job(job, deadline, tally)
    summaries, counts, traced_walls, untraced_walls = [], [], [], []
    for i in range(TRACED_RUNS):
        untraced_walls.append(run_job(job, deadline, tally).wall_s)
        out = workdir / f"trace-{i}.json"
        run = spawn([sys.executable, str(BENCH / "tracing.py"), str(out), "--", *job.argv], deadline - time.perf_counter())
        traced_walls.append(run.wall_s)
        if run.returncode != 0:
            tally.add(problem_with(job, run.returncode, run.stdout, run.stderr))
            continue
        result = json.loads(out.read_text(encoding="utf-8"))
        problem = problem_with(job, result["returncode"], result["stdout"].encode("utf-8"), run.stderr)
        summary = layer_summary(result["spans"])
        busy = sum(summary[f"{layer}.busy_s"] for layer in LAYERS)
        if problem is None and abs(busy - summary["trace.job_s"]) > 1e-6:
            problem = f"layer self times add up to {busy} s, not the job's {summary['trace.job_s']} s"
        if problem is None and counts and result["counts"] != counts[0]:
            problem = f"counts differ between traced runs: {result['counts']} vs {counts[0]}"
        tally.add(problem)
        summaries.append(summary)
        counts.append(result["counts"])
    samples = {"traced_wall_s": traced_walls, "untraced_wall_s": untraced_walls, "layers": summaries, "counts": counts}
    if not summaries:
        return {}, samples
    values = {key: statistics.fmean(s[key] for s in summaries) for key in summaries[0]}
    values.update({key: counts[0][key] for key in COUNTS})
    sieved = values.pop("sieve.sieved")
    values["sieve.kept_ratio"] = values["sieve.primes"] / sieved if sieved else 0.0
    values["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(untraced_walls)
    return values, samples


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not (SRC / "gapcircuit" / "__init__.py").is_file():
        print(f"no gapcircuit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so that every child is stopped and reaped
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        tempfile.tempdir = tmp  # the captured output of every process stays in the checkout
        warmup = spawn(CLI + ["--help"], 60.0)  # compiles bytecode and fills the file cache
        if warmup.returncode != 0:
            print(f"gapcircuit does not start: {warmup.stderr.decode('utf-8', 'replace')}", file=sys.stderr)
            return 1
        job = WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.trace:
            values, samples = traced(job, Path(tmp), deadline, tally)
        else:
            gauge = args.workload if args.workload in GAUGES else None
            values, samples = measure(job, gauge, args.seconds, deadline, tally)
    if not values:
        print("no result: " + "; ".join(tally.problems[:5]), file=sys.stderr)
        return 1

    failed = len(tally.problems)
    record = {
        "workload": args.workload,
        "argv": job.argv,
        "trace": args.trace,
        "error_rate": failed / tally.attempted,
        "problems": tally.problems[:5],
        "samples": samples,
        "environment": environment(args.seed),
    }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
