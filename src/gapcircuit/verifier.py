"""Scale verification of the leading-segment property, and random search.

The property under test: every derived row of the circuit starts with 1.
Two methods are provided.  The naive one derives all n-1 rows and looks at
each leading value — trustworthy and O(n^2).  The frontier one derives rows
only until it meets a row of the shape (1, then nothing but 0s and 2s); from
such a row on, every later row must again start with 1, because absolute
differences keep {0, 2} values inside {0, 2} and |x - 1| = 1 for x in
{0, 2}.  That certificate lets it skip the remaining rows entirely.

Every entry point is ``verify_frontier_windows`` over ``read``, a callable
that returns the terms as consecutive int64 windows: a held originator is
the single window ``(o.terms,)``, and ``verify --primes/--limit`` reads the
sieve's windows under either method.  Row 1 is derived in one place, a
chunk per window with the overflow-checked difference, each chunk starting
from the last term of the window before.  Three parts scan it.

The queue, ``_tiles``, hands out row 1 in column tiles.  Entry j of row k
depends only on entries j..j+k-1 of row 1, so a tile with a halo of
D = min(scan_depth, n - 1) extra columns derives rows 1..D by itself, and
is handed out as soon as its columns and halo have arrived.  The queue
ends with the first tile that reaches the end of row 1, since every later
tile would lie inside its columns.  The columns that wait are queued chunk
by chunk, each narrowed to the dtype of its own maximum, so they take a
byte or two each, not eight.

The tile scan, ``_scan_tile``, derives one tile and returns its record.  It
starts in the narrowest signed dtype that holds the tile's row-1 maximum:
entries are nonnegative and |x - y| <= max(x, y), so no later row exceeds
it.  Once a tile's region is all 0s and 2s it stays so (one column shorter
per row), and the first row whose whole tail is in {0, 2} is the largest of
the tiles' first such rows.  So a tile reads its row maximum every row from
the certificate it is given, and every ``SETTLE_EVERY`` rows below it: a
tile settled below the certificate cannot raise it, and stops.  The same
maximum narrows an unsettled tile again.  A tile that holds the leaders
also checks each one, row 1's included.

The fold, in ``verify_frontier_windows``, gives tile 0 the leaders and each
tile the largest stop row so far as its certificate, and stops at the first
failure.  A tile still unsettled at row D means that no row within the scan
depth has the certificate shape, so the run falls back to the naive sweep,
which ``scan_depth`` None asks for at once.  The sweep refuses triangles of
more than ``SWEEP_CELL_LIMIT`` cells, calls ``read()`` a second time, and
scans the queue's one all-halo tile with no certificate: every column,
every leader down to the last row, in O(n) memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import RangeError
from .originator import (
    Originator,
    RandomModel,
    _splitmix64,
    _walk_may_overflow,
    dump_sequence,
    random_generalized,
)
from .triangle import SWEEP_CELL_LIMIT, _abs_diff_checked, _derive_into, _triangle_cells

DEFAULT_SCAN_DEPTH = 500

# Columns per tile of the frontier scan.  With its halo, a tile's two int32
# buffers take 1 MB, which a core's 2 MB L2 cache holds.
TILE_COLUMNS = 1 << 17

# Rows between two reads of a tile's row maximum below the running
# certificate.  The maximum tells whether the tile has settled, which stops
# it early, and else whether its row fits a narrower dtype.  A read costs
# about half a derivation.
SETTLE_EVERY = 8

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

    @property
    def elapsed_ms(self) -> float:
        """``elapsed`` in milliseconds, rounded to 3 places as every format prints it."""
        return round(self.elapsed * 1000.0, 3)

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
            payload["elapsed_ms"] = self.elapsed_ms
        return payload


# The signed dtypes narrower than int64, each with its largest value.
_NARROW_DTYPES = tuple((int(np.iinfo(t).max), np.dtype(t)) for t in (np.int8, np.int16, np.int32))
_INT64 = np.dtype(np.int64)


def _narrowest_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds 0..bound."""
    for top, dtype in _NARROW_DTYPES:
        if bound <= top:
            return dtype
    return _INT64


class _TileScan(NamedTuple):
    """One tile's scan: ``stop`` is the row it settled at, ``failure`` a bad leader (row, value)."""

    lo: int  # the first column
    width: int  # the row-1 entries, halo included
    top: int  # their maximum
    dtype: np.dtype  # the dtype the scan starts in
    stop: int | None
    failure: tuple[int, int] | None


def _tiles(chunks: Iterator[np.ndarray], columns: int, halo: int) -> Iterator[tuple]:
    """Row 1, read in chunks, as tiles ``(lo, row 1's columns lo .. lo + columns + halo - 1)``.

    The entries stop at the end of row 1, and the next tile starts at
    lo + ``columns``.  The queue ends with the first tile that reaches the
    end of row 1, since any later tile would lie inside its columns.  Chunks
    are read only as tiles need them: until one entry past a tile has
    arrived, which tells that the tile does not reach that end.
    """
    pending = np.empty(0, dtype=np.int64)  # row 1 from column lo on
    lo = 0
    ended = False
    while True:
        while not ended and pending.size <= columns + halo:
            chunk = next(chunks, None)
            if chunk is None:
                ended = True
            else:
                # Queued as narrow as its own maximum allows; the tile scan narrows again.
                chunk = chunk.astype(_narrowest_dtype(int(chunk.max())), copy=False)
                pending = np.concatenate((pending, chunk)) if pending.size else chunk
                del chunk  # dropped before the next chunk is read
        if pending.size:
            yield lo, pending[: columns + halo]
        if pending.size <= columns + halo:  # this tile reached the end of row 1
            return
        pending = pending[columns:]
        lo += columns


def _scan_tile(tile: tuple, depth: int, certificate: int | None, leaders: bool) -> _TileScan:
    """The record of rows 1..depth of a tile from ``_tiles``, cut short once it settles or fails.

    With ``leaders`` set, column 0 holds the leaders, which the region
    leaves out.  With ``certificate`` None the tile settles only when its
    region runs out of columns: it is the naive sweep.
    """
    lo, entries = tile
    top = int(entries.max())
    cur = entries.astype(_narrowest_dtype(top))
    nxt = np.empty_like(cur)
    record = partial(_TileScan, lo, entries.size, top, cur.dtype)
    lead = int(leaders)  # the leader is not in the region
    k = 1
    while True:
        if leaders and cur[0] != 1:
            return record(None, (k, int(cur[0])))
        if cur.size <= lead:  # the region has run out of columns
            return record(k, None)
        if k % SETTLE_EVERY == 0 or (certificate is not None and k >= certificate):
            # Entries are nonnegative: the region is all 0s and 2s when
            # the row's maximum is at most 2 and the region holds no 1.
            peak = int(cur.max())
            if certificate is not None and peak <= 2 and not (cur[lead:] == 1).any():
                return record(k, None)
            dtype = _narrowest_dtype(peak)
            if dtype != cur.dtype:
                cur = cur.astype(dtype)
                nxt = np.empty_like(cur)
        if k == depth:
            return record(None, None)
        cur, nxt = _derive_into(cur, nxt[: cur.size - 1]), cur
        k += 1


def _sweep_cells(n: int, at_least: str = "") -> int:
    """The cells of the naive sweep of n terms, or ``RangeError`` above ``SWEEP_CELL_LIMIT``."""
    refusal = (
        f"the naive sweep of {at_least}{{n}} terms would derive {at_least}{{cells}} cells, "
        "over the limit of {limit}; use --method frontier with a larger --scan-depth"
    )
    return _triangle_cells(n, SWEEP_CELL_LIMIT, refusal)


def _row1_chunk(last: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``_abs_diff_checked`` of ``last`` (no term or one) then ``terms``, not joined.

    The pair across the edge is checked first, as the first pair of the
    joined terms would be, then the window's own pairs, written in place.
    """
    chunk = np.empty(last.size + terms.size - 1, dtype=np.int64)
    if last.size:
        _abs_diff_checked(np.concatenate((last, terms[:1])), chunk[:1])
    if terms.size > 1:
        _abs_diff_checked(terms, chunk[last.size :])
    return chunk


def _row1_chunks(windows: Iterable[np.ndarray], terms_read: list[int]) -> Iterator[np.ndarray]:
    """Row 1 of the terms read in ``windows``, one overflow-checked chunk per window.

    A window's chunk starts with its difference from the last term of the
    window before.  ``terms_read[0]`` grows by each window's size as it is
    read.  Chunks are int64, as wide as their windows; the frontier scan
    narrows each one where it queues it.
    """
    last = np.empty(0, dtype=np.int64)
    for terms in windows:
        terms_read[0] += terms.size
        if terms.size:
            if last.size or terms.size > 1:
                yield _row1_chunk(last, terms)
            # A view would keep the window alive through the next window's scan.
            last = terms[-1:].copy()
        del terms  # dropped before the next window is read


def verify_frontier_windows(
    read: Callable[[], Iterable[np.ndarray]], scan_depth: int | None = DEFAULT_SCAN_DEPTH
) -> VerifyReport:
    """``verify_frontier`` on terms read one window at a time.

    ``read()`` returns the terms in order, as int64 arrays of any sizes; the
    scan holds the current window, the row-1 columns not yet scanned and one
    tile, never the whole originator.  With ``scan_depth`` None the run is
    the naive sweep.  Without a certificate or a failure from the tiles,
    ``read()`` is called a second time, after the sweep's cell limit, and
    must then return the same terms for the sweep.  The report is
    ``verify_frontier``'s (``verify_naive``'s for None) on the whole
    originator, except that ``elapsed`` includes reading the windows.
    """
    start = time.perf_counter()
    windows = read()  # before the depth check, so a bad source is named first
    if scan_depth is not None and scan_depth < 1:
        raise RangeError(f"scan depth must be at least 1, got {scan_depth}")
    terms_read = [0]
    chunks = _row1_chunks(windows, terms_read)
    # The fold: the certificate is the largest row a tile settled at, and a
    # tile that did not settle ends the scan, with its failure if it has one.
    certificate = first_failure = None
    if scan_depth is not None:
        certificate = 1
        for tile in _tiles(chunks, TILE_COLUMNS, scan_depth):
            record = _scan_tile(tile, scan_depth, certificate, leaders=tile[0] == 0)
            if record.stop is None:
                certificate, first_failure = None, record.failure
                break
            certificate = max(certificate, record.stop)
    for _ in chunks:  # read the rest to count the terms and check every difference
        pass
    n = terms_read[0]
    if n < 2:
        raise RangeError(f"verification needs at least two terms, got {n}")
    if certificate is None and first_failure is None:  # the naive sweep
        _sweep_cells(n)  # before the terms are read again
        tile = next(_tiles(_row1_chunks(read(), [0]), 0, n - 1))
        first_failure = _scan_tile(tile, n - 1, None, leaders=True).failure
    return VerifyReport(
        n=n,
        method="frontier" if certificate is not None else "naive",
        all_ones=first_failure is None,
        max_order_checked=first_failure[0] - 1 if first_failure else n - 1,
        first_failure=first_failure,
        stabilization_row=certificate,
        elapsed=time.perf_counter() - start,
    )


def verify_naive(o: Originator) -> VerifyReport:
    """Derive every row and check each leading segment directly."""
    return verify_frontier_windows(lambda: (o.terms,), None)


def verify_frontier(o: Originator, scan_depth: int = DEFAULT_SCAN_DEPTH) -> VerifyReport:
    """Check leaders row by row, stopping early at a certifying stable row.

    Rows are derived explicitly only up to the stable row (searched for
    within ``scan_depth`` rows); all later leaders are certified without
    materializing anything.  If no stable row shows up in the scan window,
    the run degrades to the naive sweep and the report says so in
    ``method``.
    """
    return verify_frontier_windows(lambda: (o.terms,), scan_depth)


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

    @property
    def elapsed_ms(self) -> float:
        """``elapsed`` in milliseconds, rounded to 3 places as every format prints it."""
        return round(self.elapsed * 1000.0, 3)

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
            payload["elapsed_ms"] = self.elapsed_ms
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
    set, the directory is created before the first trial, even if no trial
    fails, and the kept failing sequences are written there as sequence
    files named ``<trial seed>.txt``.

    Rows 1..scan_depth depend only on the first scan_depth + 1 terms, and a
    shorter walk on the same seed is the longer one's first terms, so a
    trial that may not be kept draws that prefix first: a failure in it is
    the whole walk's first failure, since no certificate comes before a bad
    leader.  The whole walk is drawn for a kept example, when the prefix
    passes, and when the walk may overflow int64, so that its error is the
    one the whole walk raises.
    """
    start = time.perf_counter()
    if trials < 1:
        raise RangeError(f"trial count must be at least 1, got {trials}")
    if not 0 <= seed < (1 << 64):
        raise RangeError(f"seed must fit in 64 unsigned bits, got {seed}")
    if scan_depth < 1:
        raise RangeError(f"scan depth must be at least 1, got {scan_depth}")
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
    failures = 0
    orders: dict[int, int] = {}
    examples: list[FailingCase] = []
    prefix = model.n if _walk_may_overflow(model) else min(model.n, scan_depth + 1)
    for trial in range(1, trials + 1):
        trial_seed = int(_splitmix64(seed, trial - 1, 1)[0])
        n = model.n if len(examples) < KEPT_FAILURES else prefix
        o = random_generalized(RandomModel(n, model.g_max, trial_seed))
        report = verify_frontier(o, scan_depth)
        if report.all_ones and n < model.n:  # the prefix passed: the whole walk decides
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
                    terms=tuple(o.terms.tolist()),
                )
            )
    if dump_dir is not None:
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
