"""Scale verification of the leading-segment property, and random search.

The property under test: every derived row of the circuit starts with 1.
Two methods are provided.  The naive one derives all n-1 rows and looks at
each leading value — trustworthy and O(n^2).  The frontier one derives rows
only until it meets a row of the shape (1, then nothing but 0s and 2s); from
such a row on, every later row must again start with 1, because absolute
differences keep {0, 2} values inside {0, 2} and |x - 1| = 1 for x in
{0, 2}.  That certificate lets it skip the remaining rows entirely.

The naive sweep streams full-width int64 rows through two buffers, so
memory stays O(n).  The frontier scan works on one column tile at a time,
in the narrowest signed dtype that holds max(row 1): entries of row 1 are
nonnegative and |x - y| <= max(x, y), so no later row exceeds that bound.
Entry j of row k depends only on entries j..j+k-1 of row 1, so a tile with
a halo of D = min(scan_depth, n - 1) extra columns can be derived through
row D by itself.  Once a tile's region is all 0s and 2s it stays so (one
column shorter per row), so every tile has a first such row, and the first
row whose whole tail is in {0, 2} is the largest of these.  Tile 0 also
carries the leaders, and a leader other than 1 there ends the scan.  A tile
still unsettled at row D means no row within the scan depth has the
certificate shape, so the run falls back to the naive sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import RangeError
from .originator import (
    Originator,
    RandomModel,
    _splitmix64,
    dump_sequence,
    random_generalized,
)
from .triangle import _abs_diff_checked

DEFAULT_SCAN_DEPTH = 500

# Columns per tile of the frontier scan.  With its halo, a tile's two
# buffers stay cache-resident for every dtype up to int32.
TILE_COLUMNS = 1 << 16

# How many failing sequences a search report keeps for replay.
KEPT_FAILURES = 5


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run.

    ``max_order_checked`` is the highest order whose leading segment is
    confirmed to be 1 (via direct derivation or the frontier certificate);
    ``first_failure`` is the (order, value) of the first bad leader, if any;
    ``stabilization_row`` is the order where the frontier certificate fired.
    ``elapsed`` is wall time in seconds.
    """

    n: int
    method: str
    all_ones: bool
    max_order_checked: int
    first_failure: tuple[int, int] | None
    stabilization_row: int | None
    elapsed: float

    def to_json_dict(self, *, timing: bool = True) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "n": self.n,
            "method": self.method,
            "all_ones": self.all_ones,
            "max_order_checked": self.max_order_checked,
            "first_failure": list(self.first_failure) if self.first_failure else None,
            "stabilization_row": self.stabilization_row,
        }
        if timing:
            payload["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        return payload


def _first_row(o: Originator) -> np.ndarray:
    if o.n < 2:
        raise RangeError(f"verification needs at least two terms, got {o.n}")
    return _abs_diff_checked(o.terms)


def _derive_into(row: np.ndarray, spare: np.ndarray, length: int) -> np.ndarray:
    """One derivation step, writing into the spare buffer's prefix."""
    out = spare[: length - 1]
    np.subtract(row[1:length], row[: length - 1], out=out)
    np.abs(out, out=out)
    return out


def _sweep(row: np.ndarray) -> tuple[tuple[int, int] | None, int]:
    """Derive every row from row 1 at full width, checking each leader.

    Returns ``(first_failure, max_order_checked)``.  ``row`` is used as one
    of the two ping-pong buffers and is overwritten.
    """
    n = row.size + 1
    spare = np.empty(max(n - 2, 0), dtype=row.dtype)
    length = n - 1
    for k in range(1, n):
        leader = int(row[0])
        if leader != 1:
            return (k, leader), k - 1
        if k < n - 1:
            row, spare = _derive_into(row, spare, length), row
            length -= 1
    return None, n - 1


def _report(
    o: Originator,
    start: float,
    first_failure: tuple[int, int] | None,
    max_checked: int,
    stabilization_row: int | None = None,
) -> VerifyReport:
    return VerifyReport(
        n=o.n,
        method="frontier" if stabilization_row is not None else "naive",
        all_ones=first_failure is None,
        max_order_checked=max_checked,
        first_failure=first_failure,
        stabilization_row=stabilization_row,
        elapsed=time.perf_counter() - start,
    )


def verify_naive(o: Originator) -> VerifyReport:
    """Derive every row and check each leading segment directly."""
    start = time.perf_counter()
    first_failure, max_checked = _sweep(_first_row(o))
    return _report(o, start, first_failure, max_checked)


def _narrowest_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds 0..bound."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _zeros_and_twos(values: np.ndarray) -> bool:
    """Whether every (nonnegative) value is 0 or 2; true when empty."""
    if values.size == 0:
        return True
    if values.max() > 2:
        return False
    return not (values == 1).any()


def _scan_tiles(row: np.ndarray, depth: int) -> tuple[tuple[int, int] | None, int] | None:
    """The frontier scan of rows 1..depth, one column tile at a time.

    Returns ``(first_failure, None)`` for a leader other than 1 met before
    the certificate, ``(None, stabilization_row)`` for a certificate, and
    None when some tile is not all 0s and 2s by row ``depth``.
    """
    m = row.size
    buffers = np.empty(
        (2, min(TILE_COLUMNS + depth, m)), dtype=_narrowest_dtype(int(row.max()))
    )
    certificate = 1
    for lo in range(0, m, TILE_COLUMNS):
        cur, nxt = buffers
        length = min(lo + TILE_COLUMNS + depth, m) - lo
        cur[:length] = row[lo : lo + length]
        # Tile 0 holds the leader, which the certificate shape excludes.
        region_start = 1 if lo == 0 else 0
        k = 1
        while True:
            if lo == 0 and cur[0] != 1:
                return (k, int(cur[0])), None
            # Only the largest first-stable row matters, so a tile is first
            # checked at the certificate row found so far, or once it has
            # run out of columns.
            if (k >= certificate or length == 0) and _zeros_and_twos(
                cur[region_start:length]
            ):
                certificate = max(certificate, k)
                break
            if k == depth:
                return None
            cur, nxt = _derive_into(cur, nxt, length), cur
            length -= 1
            k += 1
    return None, certificate


def verify_frontier(o: Originator, scan_depth: int = DEFAULT_SCAN_DEPTH) -> VerifyReport:
    """Check leaders row by row, stopping early at a certifying stable row.

    Rows are derived explicitly only up to the stable row (searched for
    within ``scan_depth`` rows); all later leaders are certified without
    materializing anything.  If no stable row shows up in the scan window,
    the run degrades to the naive sweep and the report says so in
    ``method``.
    """
    start = time.perf_counter()
    if scan_depth < 1:
        raise RangeError(f"scan depth must be at least 1, got {scan_depth}")
    row = _first_row(o)
    leader = int(row[0])
    if leader != 1:
        return _report(o, start, (1, leader), 0)
    found = _scan_tiles(row, min(scan_depth, o.n - 1))
    if found is None:
        return _report(o, start, *_sweep(row))
    first_failure, stabilization_row = found
    max_checked = first_failure[0] - 1 if first_failure else o.n - 1
    return _report(o, start, first_failure, max_checked, stabilization_row)


@dataclass(frozen=True)
class FailingCase:
    """One reproducible counterexample: its trial, seed, failure, and terms."""

    trial: int
    seed: int
    failure_order: int
    failure_value: int
    terms: tuple[int, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "failure_order": self.failure_order,
            "failure_value": self.failure_value,
            "sequence": list(self.terms),
        }


@dataclass(frozen=True)
class SearchReport:
    """Aggregate outcome of a randomized counterexample search.

    ``failure_orders`` maps the order of the first bad leader to how many
    trials failed there; ``examples`` keeps the first few failing sequences
    for replay.
    """

    n: int
    g_max: int
    trials: int
    seed: int
    scan_depth: int
    failures: int
    failure_orders: tuple[tuple[int, int], ...]
    examples: tuple[FailingCase, ...]
    elapsed: float

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials

    def to_json_dict(self, *, timing: bool = False) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "n": self.n,
            "g_max": self.g_max,
            "trials": self.trials,
            "seed": self.seed,
            "scan_depth": self.scan_depth,
            "failures": self.failures,
            "failure_rate": self.failure_rate,
            "failure_orders": {str(k): c for k, c in self.failure_orders},
            "examples": [case.to_json_dict() for case in self.examples],
        }
        if timing:
            payload["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        return payload


def search_counterexamples(
    model: RandomModel,
    trials: int,
    seed: int,
    *,
    scan_depth: int = DEFAULT_SCAN_DEPTH,
    dump_dir: str | os.PathLike | None = None,
) -> SearchReport:
    """Run ``trials`` independent verifications on sequences from the model.

    Trial t takes draw t-1 of the random stream on ``seed`` as its sequence
    seed, so a report is reproducible from (model shape, trials, seed)
    alone; the seed inside ``model`` is not consulted.  With ``dump_dir``
    set, the kept failing sequences are also written there as sequence
    files named ``<trial seed>.txt``.
    """
    start = time.perf_counter()
    if trials < 1:
        raise RangeError(f"trial count must be at least 1, got {trials}")
    if not 0 <= seed < (1 << 64):
        raise RangeError(f"seed must fit in 64 unsigned bits, got {seed}")
    failures = 0
    orders: dict[int, int] = {}
    examples: list[FailingCase] = []
    for trial in range(1, trials + 1):
        trial_seed = int(_splitmix64(seed, trial - 1, 1)[0])
        o = random_generalized(RandomModel(model.n, model.g_max, trial_seed))
        report = verify_frontier(o, scan_depth)
        if report.all_ones:
            continue
        failures += 1
        k, value = report.first_failure
        orders[k] = orders.get(k, 0) + 1
        if len(examples) < KEPT_FAILURES:
            examples.append(
                FailingCase(
                    trial=trial,
                    seed=trial_seed,
                    failure_order=k,
                    failure_value=value,
                    terms=tuple(int(t) for t in o.terms),
                )
            )
    if dump_dir is not None and examples:
        os.makedirs(dump_dir, exist_ok=True)
        for case in examples:
            path = os.path.join(os.fspath(dump_dir), f"{case.seed}.txt")
            dump_sequence(Originator(np.array(case.terms, dtype=np.int64)), path)
    return SearchReport(
        n=model.n,
        g_max=model.g_max,
        trials=trials,
        seed=seed,
        scan_depth=scan_depth,
        failures=failures,
        failure_orders=tuple(sorted(orders.items())),
        examples=tuple(examples),
        elapsed=time.perf_counter() - start,
    )
