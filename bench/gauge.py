"""Fixed pieces of work that gauge how fast the machine runs right now.

The harness starts ``gauge.py WORKLOAD`` as a fresh process among the jobs of
a timed run.  The process prints how long its work took, start-up left out;
the harness scales the run's job times by the mean of those, and its set-up
times by the mean wall time of the whole process.  Each gauge is
the workload's own work in small, written here with plain Python and
NumPy: the host's speed drifts differently for Python loops, for scattered
reads from a large array and for filling fresh memory, so a gauge has to do
what the job does.  It never imports gapcircuit, so its cost does not change
when the program does.  ``verify_primes`` has no gauge: its time is NumPy
streaming over large rows, which does not drift with the others.

    python3 bench/gauge.py check_primes
"""

from __future__ import annotations

import sys
import time

import numpy as np

from workloads import CHECK_PRIMES, even_gap_walk, reference_primes

TRACE_STRIDE = 4  # check_primes: read every 4th segment's trace
WALKS = 8  # search_random: walks of the job's length
WIDE_TERMS = 6_000  # stats_wide: terms of the materialised triangle


def flat_triangle(terms: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """All absolute-difference rows in one fresh buffer, and a view of each."""
    n = terms.size
    flat = np.empty(n * (n - 1) // 2, dtype=np.int64)
    rows, prev, offset = [], terms, 0
    for m in range(n - 1, 0, -1):
        cur = flat[offset : offset + m]
        np.subtract(prev[1:], prev[:-1], out=cur)
        np.abs(cur, out=cur)
        rows.append(cur)
        prev, offset = cur, offset + m
    return flat, rows


def check_primes() -> int:
    """Scalar reads down the columns of the triangle of the first primes."""
    _, rows = flat_triangle(reference_primes(CHECK_PRIMES))
    total = 0
    for s in range(0, len(rows), TRACE_STRIDE):
        for k in range(len(rows) - s):
            total += int(rows[k][s])
    return total


def search_random() -> int:
    """Python-level SplitMix64 walks, as the search draws them."""
    return sum(even_gap_walk(20_000, 100, seed)[-1] for seed in range(WALKS))


def stats_wide() -> int:
    """A freshly allocated triangle of a wide walk, summed by rows."""
    rng = np.random.default_rng(0)
    terms = np.cumsum(rng.integers(-(1 << 32), 1 << 32, size=WIDE_TERMS, endpoint=True))
    flat, rows = flat_triangle(terms)
    return int(flat.sum()) + sum(int(row.sum()) for row in rows[:100])


# workload: (gauge, reference time of its work, reference wall time of its
# whole process); times are scaled to the speed at which the gauge takes these
GAUGES = {
    "check_primes": (check_primes, 0.2, 0.4),
    "search_random": (search_random, 0.12, 0.3),
    "stats_wide": (stats_wide, 0.1, 0.3),
}


def main() -> int:
    start = time.perf_counter()
    result = GAUGES[sys.argv[1]][0]()
    print(time.perf_counter() - start)
    return 0 if result > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
