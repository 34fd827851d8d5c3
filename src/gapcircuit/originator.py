"""Seed sequences for difference triangles.

Three sources: prime prefixes from the segmented sieve, explicit sequences
parsed from the text format, and seeded random walks with even gaps.
"""

from __future__ import annotations

import operator
import os
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from . import sieve
from .errors import (
    EmptyInputError,
    Int64OverflowError,
    RangeError,
    SequenceParseError,
)

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

_U64_MASK = (1 << 64) - 1
# Draws computed at once by random_generalized; bounds its temporaries.
_DRAW_BLOCK = 1 << 16
_INT_TOKEN_RE = re.compile(r"[+-]?[0-9]+")
_TOKEN_RE = re.compile(r"[^\s,]+")


def _coerce_terms(values: Iterable[int] | np.ndarray) -> np.ndarray:
    """Copy values into a read-only int64 array, rejecting anything that does not fit.

    A read-only int64 array that owns its data, as the sieve returns, is
    taken as is, which saves a second copy of every prime array.  Writable
    arrays, and read-only views whose base may be writable, are copied.
    """
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.int64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    if isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.integer):
        if values.dtype == np.uint64 and values.size and int(values.max()) > I64_MAX:
            raise Int64OverflowError(
                f"term {int(values.max())} does not fit in a signed 64-bit integer"
            )
        arr = values.astype(np.int64, copy=True)
    else:
        items = []
        for v in values:
            value = operator.index(v)
            if not I64_MIN <= value <= I64_MAX:
                raise Int64OverflowError(
                    f"term {value} does not fit in a signed 64-bit integer"
                )
            items.append(value)
        arr = np.array(items, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Originator:
    """A finite integer sequence; the order-0 row every path derives from.

    Terms are stored as a read-only int64 array and are not required to be
    monotone or positive.
    """

    terms: np.ndarray

    def __post_init__(self):
        arr = _coerce_terms(self.terms)
        if arr.size < 1:
            raise RangeError("an originator needs at least one term")
        object.__setattr__(self, "terms", arr)

    @property
    def n(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return (int(t) for t in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Originator):
            return NotImplemented
        return np.array_equal(self.terms, other.terms)

    def __repr__(self) -> str:
        if self.n <= 8:
            body = ", ".join(str(int(t)) for t in self.terms)
        else:
            head = ", ".join(str(int(t)) for t in self.terms[:4])
            body = f"{head}, ... ({self.n} terms)"
        return f"Originator([{body}])"


@dataclass(frozen=True)
class RandomModel:
    """Parameters for the even-gap random walk: length, gap ceiling, seed."""

    n: int
    g_max: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise RangeError(f"model length must be at least 1, got {self.n}")
        # The bound keeps 1 + g_max, the largest second term, inside int64.
        if not 2 <= self.g_max <= I64_MAX - 1 or self.g_max % 2 != 0:
            raise RangeError(
                f"maximum gap must be an even integer in [2, {I64_MAX - 1}], "
                f"got {self.g_max}"
            )
        if not 0 <= self.seed <= _U64_MASK:
            raise RangeError(f"seed must fit in 64 unsigned bits, got {self.seed}")


def first_n_primes(n: int, *, budget_bytes: int | None = None) -> Originator:
    """The first n primes, starting at 2."""
    return Originator(sieve.first_n_primes_array(n, budget_bytes=budget_bytes))


def primes_up_to(limit: int, *, budget_bytes: int | None = None) -> Originator:
    """All primes <= limit."""
    return Originator(sieve.primes_up_to_array(limit, budget_bytes=budget_bytes))


def _splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start .. start+count-1 of the random stream on ``seed``, as uint64.

    Draw i is SplitMix64's mix of the state seed + (i+1) * gamma mod 2^64, but
    with a last xor-shift of 33, not 31: seed 0 starts 0xe220a838ce4cc9c2, not
    the published 0xe220a8397b1dcdaf.  ``search`` output depends on it.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _U64_MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(33)
    return z


def random_generalized(model: RandomModel) -> Originator:
    """Random sequence starting at 1 whose gaps are uniform over {2, 4, ..., g_max}.

    The same model always yields the same sequence; the generator is seeded
    from ``model.seed`` alone.
    """
    if model.n == 1:
        return Originator(np.array([1], dtype=np.int64))
    if 1 + 2 * (model.n - 1) > I64_MAX:
        # Even the smallest possible gaps already run out of 64 bits.
        raise Int64OverflowError(
            f"a sequence of {model.n} terms cannot fit in signed 64-bit integers"
        )
    half = model.g_max // 2
    # Draws above top, the end of the last whole cycle mod half, are skipped.
    top = ((1 << 64) // half) * half - 1
    gaps = np.empty(model.n - 1, dtype=np.int64)
    filled = drawn = 0
    while filled < gaps.size:
        block = _splitmix64(model.seed, drawn, min(gaps.size - filled, _DRAW_BLOCK))
        drawn += block.size
        block = block[block <= np.uint64(top)]
        gaps[filled : filled + block.size] = 2 * (1 + block % np.uint64(half))
        filled += block.size
    # Terms increase, so the last one is the largest; bound it before cumsum.
    if 1 + (model.n - 1) * model.g_max > I64_MAX:
        exact_last = 1 + int(gaps.sum(dtype=object))
        if exact_last > I64_MAX:
            raise Int64OverflowError(
                f"term {exact_last} does not fit in a signed 64-bit integer"
            )
    terms = np.empty(model.n, dtype=np.int64)
    terms[0] = 1
    np.cumsum(gaps, out=terms[1:])
    terms[1:] += 1
    return Originator(terms)


def _read_text(source: str | bytes | os.PathLike | IO) -> str:
    if isinstance(source, bytes):
        data = source
    elif isinstance(source, str):
        return source
    elif isinstance(source, os.PathLike):
        with open(source, "rb") as handle:
            data = handle.read()
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            return data
    else:
        raise TypeError(f"cannot read a sequence from {type(source).__name__}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SequenceParseError(f"input is not valid UTF-8 text: {exc}") from None


def load_sequence(source: str | bytes | os.PathLike | IO) -> Originator:
    """Parse the sequence text format: integers split by newlines or commas.

    Whitespace is ignored and ``#`` starts a comment running to the end of
    the line.  Terms keep their file order; nothing is sorted or deduplicated.
    """
    text = _read_text(source)
    terms: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        for match in _TOKEN_RE.finditer(line):
            token = match.group()
            column = match.start() + 1
            if not _INT_TOKEN_RE.fullmatch(token):
                raise SequenceParseError(
                    f"{token!r} is not a decimal integer", lineno, column
                )
            value = int(token)
            if not I64_MIN <= value <= I64_MAX:
                raise Int64OverflowError(
                    f"line {lineno}, column {column}: term {value} does not fit "
                    f"in a signed 64-bit integer"
                )
            terms.append(value)
    if not terms:
        raise EmptyInputError("input contains no terms")
    return Originator(np.array(terms, dtype=np.int64))


def render_sequence(o: Originator) -> str:
    """Render an originator in the sequence text format, one term per line."""
    return "\n".join(str(int(t)) for t in o.terms) + "\n"


def dump_sequence(o: Originator, destination: str | os.PathLike | IO) -> None:
    """Write ``render_sequence(o)`` to a path or writable text file."""
    text = render_sequence(o)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
