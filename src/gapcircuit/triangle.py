"""Difference paths, circuits, and their statistics.

One operator drives everything here: replace a sequence by the absolute
differences of its consecutive entries.  Applying it k times to a seed
sequence of n terms yields the order-k path with n-k segments; the family of
all such paths for orders 1..n-1 is the circuit, stored as one triangular
buffer of n(n-1)/2 segments, refused above ``CIRCUIT_CELL_LIMIT``.  Indices in
the public API are 1-based: segment s of order k is the value at row k,
column s.

Statistics and the checks of ``bounds`` read one cached summary of the rows,
filled in one pass over rows derived afresh from the originator, for a held
circuit too, so it needs O(n) memory and no circuit.  The pass derives the
rows a block at a time into one reused 512 KiB buffer (two rows to a block,
or one for the checks, when a row is wider than half of it) and takes every
field of the summary with one NumPy reduction per block.  Its sums are exact for any int64 input and raise only
when read outside int64: they add rows straight into int64 when row 1's
maximum times n - 1 fits, and 31-bit limbs otherwise.  Statistics ask for
the totals alone; only the checks pay for each row's extremes and edge
entries and each column's minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

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

# Cells in one block of rows of the summary pass: 512 KiB of int64.  Each
# field is one pass over the block, so a block that stays in a core's L2
# cache between passes keeps the pass as fast as one row at a time on long
# rows.
_BLOCK_CELLS = 1 << 16


def _abs_diff_checked(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Absolute consecutive differences of a signed row, overflow-checked.

    Written into ``out`` when given.  Only the first derivation can
    overflow: once entries are nonnegative, |x - y| <= max(x, y) keeps every
    later row inside int64.
    """
    if values.size < 2:
        raise RangeError("cannot derive from fewer than two values")
    out = np.subtract(values[1:], values[:-1], out=out)
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


def _block_height(width: int, checks: bool) -> int:
    """Rows of ``width`` segments in one block: as many as fit in ``_BLOCK_CELLS``.

    At least two for the totals, which pass over a block twice.  The checks
    pass over it about eight times, and take a wider row alone, so that each
    pass finds the row still in cache.
    """
    return max(1 if checks else 2, _BLOCK_CELLS // width)


def _fold_rows(stack: np.ndarray) -> np.ndarray:
    """The sum of ``stack`` along its first axis, added into ``stack[0]``.

    Halves the stack with one vector add per step; every entry but the last
    is overwritten.
    """
    r = len(stack)
    while r > 1:
        h = r // 2
        np.add(stack[:h], stack[r - h : r], out=stack[:h])
        r -= h
    return stack[0]


def _summarize_rows(o: Originator, checks: bool) -> _Summary:
    """The summary of rows 1..n-1 of the circuit of ``o``, derived a block at a time.

    A block is ``height`` rows of the circuit, the first one ``width``
    segments wide, laid out as a ``height`` x ``width`` array in one reused
    buffer; row j of it holds width - j segments and j cells past its end.
    Those cells are set to ``I64_MAX`` for the minima, then to 0 for the
    maxima, the narrowing and the sums, so each field takes one reduction
    over the block.  A block's first row is derived from the last row of the
    block before it, so a block starts at the front of the buffer unless
    that row lies there, as a block of one row does; it then starts just
    past that row.  The buffer holds two rows or ``_BLOCK_CELLS``.  Without
    ``checks`` only the totals are read, and no check buffer is made.
    """
    width = o.n - 1
    size = max(_BLOCK_CELLS, 2 * width)
    cells = np.empty(size, dtype=np.int64)
    # No entry exceeds row 1's maximum, and no total holds more than n - 1
    # entries: within that bound no int64 sum wraps.
    exact = int(_abs_diff_checked(o.terms, cells[:width]).max()) * width <= I64_MAX
    # Row 0 holds the high limbs of the traces, row 1 the low limbs.
    columns = np.zeros((2, width), dtype=np.int64)
    limbs = None
    row_sums = []
    if checks:
        per_row = row_maxima, row_minima, firsts, second_lasts, lasts, narrowing = (
            [], [], [], [], [], []
        )
        column_minima = np.full(width, I64_MAX, dtype=np.int64)
        column_argmins = np.ones(width, dtype=np.int64)
        block_minima = np.empty(width, dtype=np.int64)
        flags = np.empty(size, dtype=bool)
    # A block of two rows or more fits in _BLOCK_CELLS, and holds no more
    # rows than its width: its height squared fits too.
    tril = np.tri(math.isqrt(_BLOCK_CELLS), dtype=bool)
    k, start = 1, 0
    while True:
        height = min(width, _block_height(width, checks), (size - start) // width)
        block = cells[start : start + height * width].reshape(height, width)
        for j in range(1, height):
            at = start + (j - 1) * width
            _derive_into(cells[at : at + width - j + 1], cells[at + width : at + 2 * width - j])
        if height > 1:
            # The cells past the rows' ends: read from row 1's first one on
            # with a row stride of width - 1, they are the lower triangle,
            # diagonal included, of a square.
            ends = np.ndarray(
                (height - 1, height - 1),
                np.int64,
                cells,
                8 * (start + 2 * width - 1),
                (8 * (width - 1), 8),
            )
            ends_mask = tril[: height - 1, : height - 1]
        if checks:
            if height > 1:
                np.copyto(ends, I64_MAX, where=ends_mask)
            row_minima += np.minimum.reduce(block, axis=1).tolist()
            least = (
                block[0] if height == 1 else np.minimum.reduce(block, axis=0, out=block_minima[:width])
            )
            improved = np.less(least, column_minima[:width], out=flags[:width])
            if improved.any():
                cols = np.flatnonzero(improved)
                # The first row of the block that reaches each new minimum.
                reached = flags[: height * width].reshape(height, width)
                np.equal(block, least, out=reached)
                column_argmins[cols] = reached[:, cols].argmax(axis=0) + k
                column_minima[cols] = least[cols]
        if height > 1:
            np.copyto(ends, 0, where=ends_mask)
        if checks or not exact:
            maxima = np.maximum.reduce(block, axis=1).tolist()
        if checks:
            row_maxima += maxima
            firsts += block[:, 0].tolist()
            lasts += block[:, ::-1].diagonal().tolist()
            second_lasts += block[:, -2::-1].diagonal().tolist()
            if height > 1:
                pairs = flags[: (height - 1) * (width - 1)].reshape(height - 1, width - 1)
                np.less_equal(block[1:, :-1], block[:-1, 1:], out=pairs)
                narrowing += np.logical_and.reduce(pairs, axis=1).tolist()
        if exact or maxima[0] <= _LOW_MASK:
            # The block is its own low limb and its high limb is all 0s, or
            # its sums are proved to fit.  The fold comes last: it
            # overwrites all rows but the last.
            row_sums += np.add.reduce(block, axis=1).tolist()
            low = columns[1, :width]
            np.add(low, _fold_rows(block), out=low)
        else:
            if limbs is None:
                limbs = np.empty(2 * size, dtype=np.int64)
            # Row j of the block is pair[j]: its high limbs, then its low limbs.
            pair = limbs[: 2 * height * width].reshape(height, 2, width)
            np.right_shift(block, _LIMB_BITS, out=pair[:, 0])
            np.bitwise_and(block, _LOW_MASK, out=pair[:, 1])
            row_sums += [(h << _LIMB_BITS) + l for h, l in np.add.reduce(pair, axis=2).tolist()]
            both = columns[:, :width]
            np.add(both, _fold_rows(pair), out=both)
        k += height
        width -= height
        if width == 0:
            break
        at = start + (height - 1) * (width + height)
        last = cells[at : at + width + 1]
        start = 0 if at >= width else at + width + 1
        row = _derive_into(last, cells[start : start + width])
        if checks:
            narrowing.append(bool(np.less_equal(row, last[1:], out=flags[:width]).all()))
    traces = columns[1].tolist()
    if limbs is not None:  # else no block took the limb path: every high limb is 0
        traces = [(high << _LIMB_BITS) + low for high, low in zip(columns[0].tolist(), traces)]
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
            summary = _summarize_rows(self.originator, checks)
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
