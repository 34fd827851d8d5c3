"""Difference paths, circuits, and their statistics.

One operator drives everything here: replace a sequence by the absolute
differences of its consecutive entries.  Applying it k times to a seed
sequence of n terms yields the order-k path with n-k segments; the family of
all such paths for orders 1..n-1 is the circuit, stored as one triangular
buffer.  Indices in the public API are 1-based: segment s of order k is the
value at row k, column s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Int64OverflowError, RangeError
from .originator import I64_MAX, I64_MIN, Originator, _coerce_terms

# |x - y| of two int64 values both within this magnitude still fits in int64.
_SAFE_DIFF_MAGNITUDE = (1 << 62) - 1


def _abs_diff_checked(values: np.ndarray) -> np.ndarray:
    """Absolute consecutive differences of a signed row, overflow-checked.

    Only the first derivation can overflow: once entries are nonnegative,
    |x - y| <= max(x, y) keeps every later row inside int64.
    """
    if values.size < 2:
        raise RangeError("cannot derive from fewer than two values")
    hi = int(values.max())
    lo = int(values.min())
    if max(abs(hi), abs(lo)) <= _SAFE_DIFF_MAGNITUDE:
        out = values[1:] - values[:-1]
        np.abs(out, out=out)
        return out
    diffs = []
    for i in range(values.size - 1):
        d = abs(int(values[i + 1]) - int(values[i]))
        if d > I64_MAX:
            raise Int64OverflowError(
                f"segment |{int(values[i + 1])} - {int(values[i])}| does not fit "
                f"in a signed 64-bit integer"
            )
        diffs.append(d)
    return np.array(diffs, dtype=np.int64)


def _checked_sum(values: np.ndarray, what: str) -> int:
    """Exact integer sum with an explicit error instead of silent int64 wrap."""
    if values.size == 0:
        return 0
    hi = int(values.max())
    lo = int(values.min())
    if values.size * max(abs(hi), abs(lo)) <= I64_MAX:
        return int(values.sum())
    total = int(values.sum(dtype=object))
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
        segments = p.segments[1:] - p.segments[:-1]
        np.abs(segments, out=segments)
    return Path(order=p.order + 1, segments=segments)


def path_of_order(o: Originator, k: int) -> Path:
    """The maximal-step path of order k: k applications of derive to the seed."""
    if not 1 <= k <= o.n - 1:
        raise RangeError(f"order must be in [1, {o.n - 1}], got {k}")
    row = _abs_diff_checked(o.terms)
    for _ in range(k - 1):
        out = row[1:] - row[:-1]
        np.abs(out, out=out)
        row = out
    return Path(order=k, segments=row)


class Circuit:
    """All maximal-step paths of orders 1..n-1 from one seed sequence.

    Rows live in a single contiguous triangular buffer of n(n-1)/2 segments;
    row k holds exactly n-k segments and is the absolute difference of row
    k-1; rows are slices of it and columns gather through the row offsets.
    Immutable after construction and safe to share across threads.
    """

    __slots__ = ("originator", "_flat", "_starts")

    def __init__(self, originator: Originator, flat: np.ndarray):
        self.originator = originator
        self._flat = flat
        # Row k spans [starts[k-1], starts[k]); rows 1..k-1 hold (k-1)n - (k-1)k/2.
        before = np.arange(originator.n, dtype=np.int64)
        self._starts = before * originator.n - before * (before + 1) // 2

    @property
    def n(self) -> int:
        return self.originator.n

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
        if not 1 <= s <= self.n - 1:
            raise RangeError(f"segment index must be in [1, {self.n - 1}], got {s}")
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


def build_circuit(o: Originator) -> Circuit:
    """Materialize the whole circuit in one pass, each row from its predecessor."""
    n = o.n
    if n < 2:
        raise RangeError(f"a circuit needs at least two terms, got {n}")
    flat = np.empty(n * (n - 1) // 2, dtype=np.int64)
    flat[: n - 1] = _abs_diff_checked(o.terms)
    offset = n - 1
    prev = flat[: n - 1]
    for k in range(2, n):
        m = n - k
        cur = flat[offset : offset + m]
        np.subtract(prev[1:], prev[:-1], out=cur)
        np.abs(cur, out=cur)
        prev = cur
        offset += m
    flat.setflags(write=False)
    return Circuit(o, flat)


def path_length(p: Path) -> int:
    """Sum of the path's segments."""
    return _checked_sum(p.segments, "path length")


def path_lengths(c: Circuit) -> list[int]:
    """Length of every row at once: entry k-1 is the order-k path length."""
    return [_checked_sum(c.row(k), "path length") for k in range(1, c.n)]


def circuit_length(c: Circuit) -> int:
    """Sum of all path lengths in the circuit."""
    return _checked_sum(c._flat, "circuit length")


def trace(c: Circuit, s: int) -> int:
    """Sum of segment s down all rows that reach it: rows 1..n-s."""
    return _checked_sum(c.column(s), "trace")


def traces(c: Circuit) -> list[int]:
    """All traces at once: entry s-1 is the trace of segment s."""
    n = c.n
    max_segment = int(c._flat.max()) if c.segment_count else 0
    if (n - 1) * max_segment <= I64_MAX:
        acc = np.zeros(n - 1, dtype=np.int64)
        for k in range(1, n):
            acc[: n - k] += c.row(k)
        return [int(v) for v in acc]
    return [trace(c, s) for s in range(1, n)]


def total_maximal_steps(n: int) -> int:
    """Segment count summed over every maximal-step path: n(n-1)/2."""
    if n < 1:
        raise RangeError(f"originator size must be at least 1, got {n}")
    return n * (n - 1) // 2
