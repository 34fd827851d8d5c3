"""Difference paths, circuits, and their statistics.

One operator drives everything here: replace a sequence by the absolute
differences of its consecutive entries.  Applying it k times to a seed
sequence of n terms yields the order-k path with n-k segments; the family of
all such paths for orders 1..n-1 is the circuit, stored as one triangular
buffer of n(n-1)/2 segments, refused above ``CIRCUIT_CELL_LIMIT``.  Indices in
the public API are 1-based: segment s of order k is the value at row k,
column s.

Rows that are not held come from one stream, ``_blocks``, which derives
them afresh from the originator a block at a time into one reused buffer of
512 KiB, or of two rows when a row is wider than half of that.  The
``triangle`` command and ``path_of_order`` read its rows one at a time.
Statistics and the checks of ``bounds`` read one cached summary of them,
for a held circuit too, so they need O(n) memory: every field is one NumPy
reduction per block.  Its sums are exact for any int64 input and raise only
when read outside int64: row 1 decides once for every block, which adds
straight into int64 when row 1's maximum times n - 1 fits, and into 31-bit
limbs otherwise.  Statistics ask for the totals alone; only the checks pay
for each row's extremes and edge entries and each column's minimum.
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
# and the streamed rows of the stats and check commands.  On a 2-CPU Xeon the
# sweep takes about 2 s for them on prime rows, which it narrows to int8, at
# 8.5e9 cells per second, and about 14 s, at 1.2e9, when a spike keeps every
# row in int64.
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


def _buffer_cells(width: int) -> int:
    """Cells of the row stream's buffer for rows of ``width`` segments: no block holds more."""
    return max(_BLOCK_CELLS, 2 * width)


def _block_height(width: int) -> int:
    """Rows of ``width`` segments in one block: as many as fit in ``_BLOCK_CELLS``.

    At least two, so that a block's last row lies past the buffer's first
    ``width`` cells, where the next block's first row is derived from it.
    """
    return max(2, _BLOCK_CELLS // width)


def _blocks(o: Originator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows 1..n-1 of the circuit of ``o``, derived a block at a time into one reused buffer.

    A block is ``height`` rows, the first ``width`` segments wide, laid out
    as a ``height`` x ``width`` array at the front of the buffer: row j holds
    width - j segments, then j cells past its end.  It comes with a view of
    those cells, read from the last column back: the lower triangle,
    diagonal included, of a square.  The buffer holds two rows or
    ``_BLOCK_CELLS``.  A reader may overwrite any cell of a block but the
    segments of its last row, which the next block's first row is derived
    from.
    """
    width = o.n - 1
    cells = np.empty(_buffer_cells(width), dtype=np.int64)
    row = _abs_diff_checked(o.terms, cells[:width])
    while True:
        height = min(width, _block_height(width))
        block = cells[: height * width].reshape(height, width)
        for j in range(1, height):
            row = _derive_into(row, block[j, : width - j])
        yield block, block[1:, : width - height : -1]
        width -= height
        if width == 0:
            return
        row = _derive_into(row, cells[:width])


def _rows(o: Originator) -> Iterator[np.ndarray]:
    """Rows 1..n-1 of the circuit of ``o``: views valid until the next block is derived."""
    for block, _ in _blocks(o):
        width = block.shape[1]
        for j in range(len(block)):
            yield block[j, : width - j]


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


def _fold_rows(stack: np.ndarray, ufunc: np.ufunc, out: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced along the first axis of ``stack``: ``stack[0]`` for one row.

    Halves the rows with one vector op per step, written into ``out``.  Into
    ``stack`` itself, every entry but the last is overwritten; elsewhere the
    first step takes the middle row of an odd stack twice, so ``ufunc`` must
    then be idempotent, as minimum is.
    """
    rows, r = stack, len(stack)
    while r > 1:
        h = r // 2 if rows is out else (r + 1) // 2
        ufunc(rows[:h], rows[r - h : r], out=out[:h])
        rows, r = out, (r + 1) // 2
    return rows[0]


def _summarize_rows(o: Originator, checks: bool) -> _Summary:
    """The summary of rows 1..n-1 of the circuit of ``o``, read off ``_blocks``.

    The cells past the rows' ends are set to ``I64_MAX`` for the minima,
    then to 0 for the maxima, the narrowing and the sums, so each field
    takes one reduction over the block.  Without ``checks`` only the totals
    are read, and no check buffer is made.
    """
    width = o.n - 1
    size = _buffer_cells(width)
    # Row 0 holds the high limbs of the traces and row 1 the low limbs, or
    # the traces themselves when the sums go straight into int64.
    columns = np.zeros((2, width), dtype=np.int64)
    row_sums = []
    if checks:
        per_row = row_maxima, row_minima, firsts, second_lasts, lasts, narrowing = (
            [], [], [], [], [], []
        )
        column_minima = np.full(width, I64_MAX, dtype=np.int64)
        column_argmins = np.ones(width, dtype=np.int64)
        folded = np.empty(size, dtype=np.int64)
        flags = np.empty(size, dtype=bool)
    # A block of three rows or more fits in _BLOCK_CELLS and holds no more
    # rows than its width, so its height squared fits too; a block of two
    # rows has one cell past its ends.
    tril = np.tri(math.isqrt(_BLOCK_CELLS), dtype=bool)
    k = 1
    for block, ends in _blocks(o):
        height, width = block.shape
        if k == 1:
            # No total adds more than n - 1 entries, none above row 1's maximum.
            exact = int(block[0].max()) * width <= I64_MAX
            limbs = None if exact else np.empty(2 * size, dtype=np.int64)
        ends_mask = tril[: height - 1, : height - 1]
        if checks:
            np.copyto(ends, I64_MAX, where=ends_mask)
            row_minima += np.minimum.reduce(block, axis=1).tolist()
            least = _fold_rows(block, np.minimum, folded[: block.size].reshape(block.shape))
            improved = np.less(least, column_minima[:width], out=flags[:width])
            if improved.any():
                cols = np.flatnonzero(improved)
                # The first row of the block that reaches each new minimum.
                reached = flags[: height * width].reshape(height, width)
                np.equal(block, least, out=reached)
                column_argmins[cols] = reached[:, cols].argmax(axis=0) + k
                column_minima[cols] = least[cols]
        np.copyto(ends, 0, where=ends_mask)
        if checks:
            row_maxima += np.maximum.reduce(block, axis=1).tolist()
            firsts += block[:, 0].tolist()
            lasts += block[:, ::-1].diagonal().tolist()
            second_lasts += block[:, -2::-1].diagonal().tolist()
            pairs = flags[: (height - 1) * (width - 1)].reshape(height - 1, width - 1)
            np.less_equal(block[1:, :-1], block[:-1, 1:], out=pairs)
            narrowing += np.logical_and.reduce(pairs, axis=1).tolist()
            # The next row narrows the last one when |d_{j+1} - d_j| <= d_{j+1}
            # along it, that is d_j - d_{j+1} <= d_{j+1} for its nonnegative d.
            last = block[-1, : width - height + 1]
            rise = np.subtract(last[:-1], last[1:], out=folded[: width - height])
            narrowing.append(bool(np.less_equal(rise, last[1:], out=flags[: rise.size]).all()))
        if exact:
            # The fold comes last: it overwrites all rows but the last.
            row_sums += np.add.reduce(block, axis=1).tolist()
            low = columns[1, :width]
            np.add(low, _fold_rows(block, np.add, block), out=low)
        else:
            # Row j of the block is pair[j]: its high limbs, then its low limbs.
            pair = limbs[: 2 * height * width].reshape(height, 2, width)
            np.right_shift(block, _LIMB_BITS, out=pair[:, 0])
            np.bitwise_and(block, _LOW_MASK, out=pair[:, 1])
            row_sums += [(h << _LIMB_BITS) + l for h, l in np.add.reduce(pair, axis=2).tolist()]
            both = columns[:, :width]
            np.add(both, _fold_rows(pair, np.add, pair), out=both)
        k += height
    traces = columns[1].tolist()
    if not exact:
        traces = [(high << _LIMB_BITS) + low for high, low in zip(columns[0].tolist(), traces)]
    if not checks:
        return _Summary(row_sums, traces)
    del narrowing[-1]  # row n - 1 has no next row
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
