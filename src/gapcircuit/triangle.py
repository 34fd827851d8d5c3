"""Difference paths, circuits, and their statistics.

One operator drives everything here: replace a sequence by the absolute
differences of its consecutive entries.  Applying it k times to a seed
sequence of n terms yields the order-k path with n-k segments; the family of
all such paths for orders 1..n-1 is the circuit, stored as one triangular
buffer of n(n-1)/2 segments, refused above ``CIRCUIT_CELL_LIMIT``.  Indices in
the public API are 1-based: segment s of order k is the value at row k,
column s.

Statistics and the checks of ``bounds`` read one cached summary of the rows,
filled in one pass over rows derived afresh from the originator in two reused
buffers, for a held circuit too, so it needs O(n) memory and no circuit.  Its
sums are exact for any int64 input and raise only when read outside int64:
they add rows straight into int64 when row 1's maximum times n - 1 fits,
and 31-bit limbs otherwise.  Statistics ask for the totals alone; only the
checks pay for each row's extremes and edge entries and each column's minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import Int64OverflowError, RangeError
from .originator import (
    I64_MAX,
    I64_MIN,
    Originator,
    _LIMB_BITS,
    _LOW_MASK,
    _coerce_terms,
    _exact_sum,
)

# Most segments build_circuit materializes: 2 GiB of int64, five times the
# triangle of the command line's default cap of 10^4 terms.
CIRCUIT_CELL_LIMIT = 1 << 28

# Most cells derived for a whole triangle that is not held: the naive sweep's,
# and the streamed rows of the stats and check commands.  About 14 s at the
# 1.2e9 cells per second the sweep reaches on a 2-CPU Xeon.
SWEEP_CELL_LIMIT = 1 << 34


def _abs_diff_checked(values: np.ndarray) -> np.ndarray:
    """Absolute consecutive differences of a signed row, overflow-checked.

    Only the first derivation can overflow: once entries are nonnegative,
    |x - y| <= max(x, y) keeps every later row inside int64.
    """
    if values.size < 2:
        raise RangeError("cannot derive from fewer than two values")
    out = values[1:] - values[:-1]
    if int(values.max()) - int(values.min()) > I64_MAX:
        # A wrapped difference has the wrong sign; -2^63 has no absolute value.
        bad = ((out < 0) != (values[1:] < values[:-1])) | (out == I64_MIN)
        if bad.any():
            i = int(bad.argmax())
            raise Int64OverflowError(
                f"segment |{int(values[i + 1])} - {int(values[i])}| does not fit "
                f"in a signed 64-bit integer"
            )
    np.abs(out, out=out)
    return out


def _derive_into(row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One derivation step of a nonnegative row, written into ``out``."""
    np.subtract(row[1:], row[:-1], out=out)
    np.abs(out, out=out)
    return out


def _rows_from(row: np.ndarray) -> Iterator[np.ndarray]:
    """``row``, then each row derived from it, down to a single segment.

    Rows ping-pong between ``row`` and one spare buffer, so a yielded row is
    overwritten once the row after next is derived.
    """
    spare = np.empty(max(row.size - 1, 0), dtype=row.dtype)
    yield row
    while row.size > 1:
        row, spare = _derive_into(row, spare[: row.size - 1]), row
        yield row


def _rows(o: Originator) -> Iterator[np.ndarray]:
    """Rows 1..n-1 of the circuit of ``o``, streamed as by ``_rows_from``."""
    return _rows_from(_abs_diff_checked(o.terms))


def _require_segment(s: int, hi: int) -> None:
    if not 1 <= s <= hi:
        raise RangeError(f"segment index must be in [1, {hi}], got {s}")


def _fit(total: int, what: str) -> int:
    """The total itself, or an explicit error where int64 would wrap."""
    if not I64_MIN <= total <= I64_MAX:
        raise Int64OverflowError(
            f"{what} {total} exceeds the signed 64-bit range; "
            f"use a smaller or flatter originator"
        )
    return total


@dataclass(frozen=True, eq=False)
class Path:
    """An order-k row of the triangle: its nonnegative segments, 1-based.

    Order 0 is the trivial path (the originator itself) and is the only order
    whose segments may be negative.
    """

    order: int
    segments: np.ndarray

    def __post_init__(self):
        if self.order < 0:
            raise RangeError(f"path order must be nonnegative, got {self.order}")
        arr = _coerce_terms(self.segments)
        if arr.size < 1:
            raise RangeError("a path needs at least one segment")
        if self.order >= 1 and int(arr.min()) < 0:
            raise RangeError(
                f"order-{self.order} paths cannot hold negative segments"
            )
        object.__setattr__(self, "segments", arr)

    @property
    def steps(self) -> int:
        return len(self.segments)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.order == other.order and np.array_equal(
            self.segments, other.segments
        )

    def __repr__(self) -> str:
        shown = ", ".join(str(int(v)) for v in self.segments[:8])
        if self.steps > 8:
            shown += f", ... ({self.steps} segments)"
        return f"Path(order={self.order}, [{shown}])"


def trivial_path(o: Originator) -> Path:
    """The order-0 path: the originator itself."""
    return Path(order=0, segments=o.terms)


def derive(p: Path) -> Path:
    """The next-order path: absolute differences of consecutive segments.

    The result has exactly one step fewer; a single-step path has no
    derivation and raises ``RangeError``.
    """
    if p.steps < 2:
        raise RangeError("a single-step path has no further derivation")
    if p.order == 0:
        segments = _abs_diff_checked(p.segments)
    else:
        segments = _derive_into(p.segments, np.empty(p.steps - 1, dtype=np.int64))
    return Path(order=p.order + 1, segments=segments)


def path_of_order(o: Originator, k: int) -> Path:
    """The maximal-step path of order k: k applications of derive to the seed."""
    if not 1 <= k <= o.n - 1:
        raise RangeError(f"order must be in [1, {o.n - 1}], got {k}")
    return Path(order=k, segments=next(islice(_rows(o), k - 1, None)))


class _Summary(NamedTuple):
    """Exact, unchecked totals of the rows, and what the checks read of them.

    Row fields hold entry k-1 for row k, column fields entry s-1 for segment
    s.  The totals, the row sums and the traces, are always filled; the check
    fields, from ``row_maxima`` on, are None unless asked for.
    ``second_lasts`` stops at row n-2, the last row with two segments;
    ``narrowing[k-1]`` tells whether row k+1 <= row k[1:] entrywise, for
    k = 1..n-2.  ``column_argmins`` holds the first row that reaches each
    column's minimum.
    """

    row_sums: list[int]
    traces: list[int]
    row_maxima: list[int] | None = None
    row_minima: list[int] | None = None
    firsts: list[int] | None = None
    second_lasts: list[int] | None = None
    lasts: list[int] | None = None
    narrowing: list[bool] | None = None
    column_minima: list[int] | None = None
    column_argmins: list[int] | None = None


def _summarize_rows(rows: Iterable[np.ndarray], n: int, checks: bool) -> _Summary:
    """The summary of rows 1..n-1 of an n-term circuit, read once in order.

    Without ``checks`` only the totals are read, and no check buffer is made.
    """
    # Row 0 of each pair holds the high limbs, row 1 the low limbs.
    limbs = np.empty((2, n - 1), dtype=np.int64)
    columns = np.zeros((2, n - 1), dtype=np.int64)
    row_sums = []
    if checks:
        per_row = row_maxima, row_minima, firsts, second_lasts, lasts, narrowing = (
            [], [], [], [], [], []
        )
        column_minima = np.full(n - 1, I64_MAX, dtype=np.int64)
        column_argmins = np.ones(n - 1, dtype=np.int64)
        mask = np.empty(n - 1, dtype=bool)
    exact = False
    for k, row in enumerate(rows, start=1):
        m = row.size
        if checks or not exact:
            top = int(row.max())
        if k == 1:
            # No entry exceeds row 1's maximum, and no total holds more than
            # n - 1 entries: within that bound no int64 sum wraps.
            exact = top * (n - 1) <= I64_MAX
        if checks:
            row_maxima.append(top)
        if exact or top <= _LOW_MASK:
            # The row is its own low limb and its high limb is all 0s, or its
            # sums are proved to fit.
            row_sums.append(int(row.sum()))
            columns[1, :m] += row
        else:
            pair = limbs[:, :m]
            np.right_shift(row, _LIMB_BITS, out=pair[0])
            np.bitwise_and(row, _LOW_MASK, out=pair[1])
            high, low = pair.sum(axis=1).tolist()
            row_sums.append((high << _LIMB_BITS) + low)
            columns[:, :m] += pair
        if not checks:
            continue
        row_minima.append(int(row.min()))
        firsts.append(int(row[0]))
        lasts.append(int(row[-1]))
        if m > 1:
            second_lasts.append(int(row[-2]))
        if k > 1:
            # A row stream still holds row k-1 when it yields row k.
            np.less_equal(row, previous[1:], out=mask[:m])
            narrowing.append(bool(mask[:m].all()))
        if np.less(row, column_minima[:m], out=mask[:m]).any():
            np.copyto(column_minima[:m], row, where=mask[:m])
            np.copyto(column_argmins[:m], k, where=mask[:m])
        previous = row
    traces = [(high << _LIMB_BITS) + low for high, low in zip(*columns.tolist())]
    if not checks:
        return _Summary(row_sums, traces)
    return _Summary(row_sums, traces, *per_row, column_minima.tolist(), column_argmins.tolist())


class _StreamedCircuit:
    """The ``n`` and ``_summary()`` of a circuit, from streamed rows.

    The statistics and the checks of ``bounds`` read nothing else, so they run
    on this base in O(n) memory.  One cached summary is filled by a pass over
    rows derived afresh from the originator: the statistics ask for the
    totals alone, the checks for the check fields too, and a summary that
    holds them serves both.  Threads that race to fill it compute equal
    ones.  Any ``Int64OverflowError`` is raised at the first statistic read.
    """

    __slots__ = ("originator", "_cached_summary")

    def __init__(self, originator: Originator):
        self.originator = originator
        self._cached_summary: _Summary | None = None

    @property
    def n(self) -> int:
        return self.originator.n

    def _summary(self, checks: bool = True) -> _Summary:
        """The cached summary; ``checks`` asks for its check fields too."""
        summary = self._cached_summary
        if summary is None or (checks and summary.row_maxima is None):
            summary = _summarize_rows(_rows(self.originator), self.n, checks)
            self._cached_summary = summary
        return summary


class Circuit(_StreamedCircuit):
    """All maximal-step paths of orders 1..n-1 from one seed sequence.

    Rows live in a single contiguous triangular buffer of n(n-1)/2 segments;
    row k holds exactly n-k segments and is the absolute difference of row
    k-1; rows are slices of it and columns gather through the row offsets.
    Immutable after construction apart from the cached summary.
    """

    __slots__ = ("_flat", "_starts")

    def __init__(self, originator: Originator, flat: np.ndarray):
        super().__init__(originator)
        self._flat = flat
        # Row k spans [starts[k-1], starts[k]); rows 1..k-1 hold (k-1)n - (k-1)k/2.
        before = np.arange(originator.n, dtype=np.int64)
        self._starts = before * originator.n - before * (before + 1) // 2

    @property
    def segment_count(self) -> int:
        return len(self._flat)

    def row(self, k: int) -> np.ndarray:
        """Read-only view of row k; row 0 is the originator itself."""
        if k == 0:
            return self.originator.terms
        if not 1 <= k <= self.n - 1:
            raise RangeError(f"row order must be in [0, {self.n - 1}], got {k}")
        return self._flat[self._starts[k - 1] : self._starts[k]]

    def column(self, s: int) -> np.ndarray:
        """New array of segment s of rows 1..n-s, in order of the row."""
        _require_segment(s, self.n - 1)
        return self._flat[self._starts[: self.n - s] + (s - 1)]

    def path(self, k: int) -> Path:
        if not 1 <= k <= self.n - 1:
            raise RangeError(f"path order must be in [1, {self.n - 1}], got {k}")
        return Path(order=k, segments=self.row(k))

    def segment(self, s: int, k: int) -> int:
        """The value d at 1-based segment s of the order-k row."""
        row = self.row(k)
        if not 1 <= s <= len(row):
            raise RangeError(
                f"segment index must be in [1, {len(row)}] for order {k}, got {s}"
            )
        return int(row[s - 1])

    def __repr__(self) -> str:
        return f"Circuit(n={self.n}, segments={self.segment_count})"


def _triangle_cells(n: int, limit: int, refusal: str) -> int:
    """The n(n-1)/2 cells of an n-term triangle, or ``RangeError`` above ``limit``.

    ``refusal`` is the message, formatted with ``n``, ``cells`` and ``limit``.
    """
    cells = n * (n - 1) // 2
    if cells > limit:
        raise RangeError(refusal.format(n=n, cells=cells, limit=limit))
    return cells


def build_circuit(o: Originator) -> Circuit:
    """Materialize the whole circuit in one pass, each row from its predecessor.

    Raises ``RangeError`` before allocating anything when the circuit would
    hold more than ``CIRCUIT_CELL_LIMIT`` segments.
    """
    n = o.n
    if n < 2:
        raise RangeError(f"a circuit needs at least two terms, got {n}")
    refusal = "a circuit of {n} terms would hold {cells} cells, over the limit of {limit}"
    flat = np.empty(_triangle_cells(n, CIRCUIT_CELL_LIMIT, refusal), dtype=np.int64)
    c = Circuit(o, flat)
    flat[: n - 1] = _abs_diff_checked(o.terms)
    for k in range(2, n):
        _derive_into(c.row(k - 1), c.row(k))
    flat.setflags(write=False)
    return c


def path_length(p: Path) -> int:
    """Sum of the path's segments."""
    return _fit(_exact_sum(p.segments), "path length")


def path_lengths(c: Circuit) -> list[int]:
    """Length of every row at once: entry k-1 is the order-k path length."""
    return [_fit(total, "path length") for total in c._summary(checks=False).row_sums]


def circuit_length(c: Circuit) -> int:
    """Sum of all path lengths in the circuit."""
    return _fit(sum(c._summary(checks=False).row_sums), "circuit length")


def trace(c: Circuit, s: int) -> int:
    """Sum of segment s down all rows that reach it: rows 1..n-s."""
    _require_segment(s, c.n - 1)
    return _fit(c._summary(checks=False).traces[s - 1], "trace")


def traces(c: Circuit) -> list[int]:
    """All traces at once: entry s-1 is the trace of segment s."""
    return [_fit(total, "trace") for total in c._summary(checks=False).traces]


def total_maximal_steps(n: int) -> int:
    """Segment count summed over every maximal-step path: n(n-1)/2."""
    if n < 1:
        raise RangeError(f"originator size must be at least 1, got {n}")
    return n * (n - 1) // 2
