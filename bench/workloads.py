"""The four benchmark workloads: CLI arguments, seeded inputs and output checks.

Each workload turns a seed into the CLI arguments of one job and into the
reference its output is checked against.  References are computed here with
plain NumPy and Python, never with the gapcircuit package, so a wrong answer
from the package is caught rather than copied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Job:
    """What a workload hands the harness for one seed: the CLI arguments
    (subcommand first), the work units one job does, and its output check."""

    argv: list[str]
    units: int
    check: Callable[[bytes], str | None]


def _load(stdout: bytes) -> Any:
    return json.loads(stdout.decode("utf-8"))


def _mismatch(what: str, got: Any, want: Any) -> str | None:
    if got == want:
        return None
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        return f"{what}[{i}]: got {got[i]!r}, want {want[i]!r}"
    return f"{what}: got {repr(got)[:100]}, want {repr(want)[:100]}"


def _first_problem(*problems: str | None) -> str | None:
    return next((p for p in problems if p is not None), None)


def reference_primes(count: int) -> np.ndarray:
    """The first ``count`` primes from a dense sieve, as int64."""
    limit = 16
    while True:
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        primes = np.flatnonzero(flags)
        if primes.size >= count:
            return primes[:count].astype(np.int64)
        limit *= 2


def triangle_sums(terms: np.ndarray) -> tuple[list[int], list[int], int]:
    """Path lengths, traces and circuit length, one derived row at a time."""
    row = np.abs(np.diff(terms))
    traces = np.zeros(row.size, dtype=np.int64)
    lengths = []
    while row.size:
        lengths.append(int(row.sum()))
        traces[: row.size] += row
        row = np.abs(np.diff(row))
    return lengths, [int(t) for t in traces], sum(lengths)


def splitmix64(state: int):
    """The SplitMix64 stream seeded with ``state``."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & U64_MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64_MASK
        yield z ^ (z >> 33)


def even_gap_walk(n: int, g_max: int, seed: int) -> list[int]:
    """The CLI's random model: start at 1, gaps uniform over {2, 4, ..., g_max}."""
    half = g_max // 2
    threshold = ((1 << 64) // half) * half
    draws = splitmix64(seed)
    terms = [1]
    while len(terms) < n:
        v = next(draws)
        if v < threshold:
            terms.append(terms[-1] + 2 * (1 + v % half))
    return terms


# verify_primes -------------------------------------------------------------

VERIFY_PRIMES = 10_000_000
# Odlyzko (Math. Comp. 61, 1993): on the first 10^7 primes, row 175 is the
# first of the form 1 followed by only 0s and 2s.
VERIFY_STABLE_ROW = 175


def verify_primes(seed: int, workdir: Path) -> Job:
    n = VERIFY_PRIMES

    def check(stdout: bytes) -> str | None:
        report = _load(stdout)
        return _first_problem(
            _mismatch("n", report.get("n"), n),
            _mismatch("all_ones", report.get("all_ones"), True),
            _mismatch("first_failure", report.get("first_failure"), None),
            _mismatch("stabilization_row", report.get("stabilization_row"), VERIFY_STABLE_ROW),
            _mismatch("max_order_checked", report.get("max_order_checked"), n - 1),
        )

    return Job(["verify", "--primes", str(n)], n, check)


# check_primes --------------------------------------------------------------

CHECK_PRIMES = 2_000


def check_primes(seed: int, workdir: Path) -> Job:
    n = CHECK_PRIMES
    lengths, _, kappa = triangle_sums(reference_primes(n))
    expected_reports = 5 * n - 2

    def check(stdout: bytes) -> str | None:
        payload = _load(stdout)
        reports = {r["name"]: r for r in payload["reports"]}
        got_lengths = [reports.get(f"length_bounds(k={k})", {}).get("middle") for k in range(1, n)]
        return _first_problem(
            _mismatch("summary.failed", payload["summary"]["failed"], 0),
            _mismatch("summary.checked", payload["summary"]["checked"], expected_reports),
            _mismatch("report count", len(payload["reports"]), expected_reports),
            _mismatch("distinct report names", len(reports), expected_reports),
            _mismatch("path lengths", got_lengths, lengths),
            _mismatch("circuit_bounds.middle", reports["circuit_bounds"]["middle"], kappa),
            _mismatch("trace_sum_identity.lhs", reports["trace_sum_identity"]["lhs"], kappa),
            _mismatch("average_trace_bound.middle", reports["average_trace_bound"]["middle"], kappa),
        )

    return Job(["check", "--primes", str(n)], expected_reports, check)


# stats_wide ----------------------------------------------------------------

WIDE_TERMS = 10_000
WIDE_STEP = 1 << 32


def wide_walk(seed: int) -> np.ndarray:
    """Mixed-sign walk from 0 with steps uniform in [-2^32, 2^32]."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-WIDE_STEP, WIDE_STEP, size=WIDE_TERMS - 1, endpoint=True)
    return np.concatenate([[0], np.cumsum(steps)])


def write_sequence(terms: np.ndarray, path: Path) -> None:
    """Sequence file with a comment header, ten comma-separated terms a line."""
    lines = ["# stats_wide benchmark input"]
    for i in range(0, terms.size, 10):
        lines.append(", ".join(str(int(t)) for t in terms[i : i + 10]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def stats_wide(seed: int, workdir: Path) -> Job:
    terms = wide_walk(seed)
    path = workdir / f"wide-{seed}.txt"
    write_sequence(terms, path)
    n = WIDE_TERMS
    lengths, traces, kappa = triangle_sums(terms)
    want = {
        "n": n,
        "total_maximal_steps": n * (n - 1) // 2,
        "circuit_length": kappa,
        "path_lengths": lengths,
        "traces": traces,
    }

    def check(stdout: bytes) -> str | None:
        got = _load(stdout)
        return _first_problem(*(_mismatch(key, got.get(key), value) for key, value in want.items()))

    return Job(["stats", "--file", str(path)], n * (n - 1) // 2, check)


# search_random -------------------------------------------------------------

SEARCH_TERMS = 20_000
SEARCH_GMAX = 100
SEARCH_TRIALS = 200
SEARCH_KEPT = 5
SEARCH_SCAN_DEPTH = 500


def search_random(seed: int, workdir: Path) -> Job:
    n, g_max, trials = SEARCH_TERMS, SEARCH_GMAX, SEARCH_TRIALS
    trial_seeds = splitmix64(seed)
    examples = []
    for trial in range(1, min(SEARCH_KEPT, trials) + 1):
        trial_seed = next(trial_seeds)
        terms = even_gap_walk(n, g_max, trial_seed)
        # Every gap is even and at least 2, so row 1 already fails to lead with 1.
        examples.append(
            {
                "trial": trial,
                "seed": trial_seed,
                "failure_order": 1,
                "failure_value": terms[1] - terms[0],
                "sequence": terms,
            }
        )
    want = {
        "n": n,
        "g_max": g_max,
        "trials": trials,
        "seed": seed,
        "scan_depth": SEARCH_SCAN_DEPTH,
        "failures": trials,
        "failure_rate": 1.0,
        "failure_orders": {"1": trials},
    }

    def check(stdout: bytes) -> str | None:
        got = _load(stdout)
        problem = _first_problem(*(_mismatch(key, got.get(key), value) for key, value in want.items()))
        if problem is None and got.get("examples") != examples:
            problem = "kept examples do not replay from their seeds"
        return problem

    argv = ["search", "--n", str(n), "--gmax", str(g_max), "--trials", str(trials), "--seed", str(seed)]
    return Job(argv, n * trials, check)


WORKLOADS: dict[str, Callable[[int, Path], Job]] = {
    "verify_primes": verify_primes,
    "check_primes": check_primes,
    "stats_wide": stats_wide,
    "search_random": search_random,
}
