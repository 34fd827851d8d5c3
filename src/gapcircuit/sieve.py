"""Odd-only segmented sieve of Eratosthenes.

One window loop is the only sieve: it crosses the base primes up to
sqrt(limit) out of fixed-size windows, so the working set stays
cache-resident regardless of the limit, and it finds the base primes by
running itself to sqrt(limit).  Windows hold odd integers only: even
numbers above 2 are never stored or crossed out, so each flag byte covers
two integers and the Python loop over the base primes, which runs once per
window, runs half as often for a window of the same byte size.  Once 3..13
are base primes, a window starts as a copy of a pattern of one period of
3 * 5 * 7 * 11 * 13 flags with their multiples crossed out, and the loop
starts at 17: those five have the densest crossings.

``prime_windows`` and ``first_n_prime_windows`` hand out the primes of
each window in pieces of ``PIECE_SIZE`` flags, and cross every window out
in one flag buffer made once per stream, so a streamed reader holds that
buffer, one piece and the base primes; the n-prime version stops at the
n-th prime.  ``_joined`` copies the pieces into one array as they are
sieved, for ``primes_up_to_array``, ``first_n_primes_array`` and the base
primes.  ``_check_budget`` is the one budget check, for those arrays and
for the random walks of ``originator``.
"""

from __future__ import annotations

import math
import os
from typing import Iterator

import numpy as np

from .errors import RangeError, SieveBudgetError

# Odd integers sieved per window (one byte of flag each).  Larger windows trade
# cache locality for fewer passes of the Python loop over the base primes.
SEGMENT_SIZE = 1 << 20

# Flags per handed-out array: a crossed-out window leaves in pieces of this
# many flags, so a piece's primes, and a streamed reader's int64 arrays made
# from them (row 1 of the verifier), cover a quarter window.
PIECE_SIZE = 1 << 18

# Ceiling on the byte size of any emitted prime array (8 bytes per prime).
DEFAULT_BUDGET_BYTES = 1 << 29

BUDGET_ENV_VAR = "GAPCIRCUIT_SIEVE_BUDGET"

_SMALL_NTH_BOUND = (2, 3, 5, 7, 11)


def sieve_budget_bytes() -> int:
    """Return the active sieve budget in bytes.

    Reads ``GAPCIRCUIT_SIEVE_BUDGET`` from the environment when set, otherwise
    falls back to ``DEFAULT_BUDGET_BYTES``.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise SieveBudgetError(
            f"{BUDGET_ENV_VAR} must be an integer byte count, got {raw!r}"
        ) from None
    if value <= 0:
        raise SieveBudgetError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def _check_budget(size: int, lead: str) -> None:
    """``SieveBudgetError``, its message led by ``lead``, when ``size`` bytes exceed the budget."""
    budget = sieve_budget_bytes()
    if size > budget:
        raise SieveBudgetError(
            f"{lead} {size} bytes, over the budget of {budget} bytes "
            f"(raise {BUDGET_ENV_VAR} to allow this)"
        )


def prime_count_upper_bound(limit: int) -> int:
    """Upper bound on the number of primes <= limit.

    Dusart (1999): pi(x) <= x / ln x * (1 + 1.2762 / ln x) for x > 1; the
    added 1 covers the rounding of the float.  From 10^5 to 10^10 it is
    less than 0.8% above pi(x).
    """
    if limit < 2:
        return 0
    if limit < 17:
        return 6
    log = math.log(limit)
    return int(limit / log * (1 + 1.2762 / log)) + 1


def prime_count_lower_bound(limit: int) -> int:
    """Lower bound on the number of primes <= limit.

    Rosser and Schoenfeld (1962): pi(x) > x / ln x for x >= 17; 0 below 17.
    pi(x) is a whole number above x / ln x, so the float's floor is at most
    pi(x).  From 10^5 to 10^10 it is 4.5-9.5% below pi(x).
    """
    if limit < 17:
        return 0
    return int(limit / math.log(limit))


def nth_prime_upper_bound(n: int) -> int:
    """Integer upper bound on the n-th prime (1-based)."""
    if n <= len(_SMALL_NTH_BOUND):
        return _SMALL_NTH_BOUND[n - 1]
    x = float(n)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 1


# The odd primes whose multiples, themselves included, are crossed out of
# every window by copying a pattern rather than by the loop over base primes.
_PRESIEVED = (3, 5, 7, 11, 13)
# Flags t and t + _PERIOD stand for odd integers 2 * _PERIOD apart, so the
# pattern repeats with this period.
_PERIOD = math.prod(_PRESIEVED)


def _presieved_pattern() -> np.ndarray:
    """Two periods of flags, flag t for the odd integer 2t + 1, with _PRESIEVED crossed out."""
    pattern = np.ones(2 * _PERIOD, dtype=bool)
    for p in _PRESIEVED:
        pattern[(p - 1) // 2 :: p] = False
    pattern.setflags(write=False)
    return pattern


_PATTERN = _presieved_pattern()

# Assigned to every crossed-out slice: a 0-d array needs no conversion per slice.
_FALSE = np.array(False)


def _odd_window(lo: int, flags: np.ndarray, odd_base: np.ndarray, steps: list[int]) -> None:
    """Set ``flags`` to mark the primes among the odd integers from ``lo`` on.

    Flag i stands for the odd integer lo + 2i.  Every base prime is below
    lo, so crossing out from its first odd multiple >= lo never hits a prime.
    When the base primes start with _PRESIEVED, the window starts as a copy
    of the pattern and the loop crosses out only the base primes after them;
    the pattern crosses out _PRESIEVED themselves, which then lie below lo.
    """
    skip = len(_PRESIEVED) if len(steps) >= len(_PRESIEVED) else 0
    if skip:
        at = (lo - 1) // 2 % _PERIOD
        filled = min(_PERIOD, flags.size)
        flags[:filled] = _PATTERN[at : at + filled]
        while filled < flags.size:  # the filled prefix is a whole number of periods
            copied = min(filled, flags.size - filled)
            flags[filled : filled + copied] = flags[:copied]
            filled += copied
    else:
        flags.fill(True)
    odd_base = odd_base[skip:]
    first = -(-lo // odd_base) * odd_base
    # Adding an odd p to an even multiple of p makes it odd.
    first += odd_base * (first % 2 == 0)
    for p, start in zip(steps[skip:], ((first - lo) // 2).tolist()):
        flags[start::p] = _FALSE


def _marked(flags: np.ndarray, lo: int) -> np.ndarray:
    """The odd integers lo + 2i whose flag i is set, as int64."""
    primes = np.flatnonzero(flags)
    primes *= 2
    primes += lo
    return primes


def _windows(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit, increasing, as consecutive int64 arrays.

    The first array holds the base primes up to sqrt(limit), joined from
    this same loop run to sqrt(limit); each later one the primes of one
    piece of ``PIECE_SIZE`` flags of a window of ``SEGMENT_SIZE`` odd
    integers, crossed out in the one flag buffer of the loop.
    """
    window, piece = SEGMENT_SIZE, PIECE_SIZE
    root = max(math.isqrt(limit), 2)
    if root < 4:
        base = np.array((2, 3)[: root - 1], dtype=np.int64)
    else:
        base = _joined(_windows(root), prime_count_upper_bound(root))
    yield base
    odd_base = base[1:]
    steps = odd_base.tolist()
    first = (root + 1) | 1
    buffer = np.empty(min(window, (limit - first) // 2 + 1), dtype=bool)
    for lo in range(first, limit + 1, 2 * window):
        flags = buffer[: (limit - lo) // 2 + 1]  # the last window may be short
        _odd_window(lo, flags, odd_base, steps)
        # Yielded unnamed, so no piece is held here while the next is made.
        for at in range(0, flags.size, piece):
            yield _marked(flags[at : at + piece], lo + 2 * at)


def prime_windows(limit: int) -> Iterator[np.ndarray]:
    """All primes <= limit, increasing, as consecutive int64 arrays.

    The first array holds the primes up to sqrt(limit), each later one the
    primes of one piece of ``PIECE_SIZE`` odd integers of a window of
    ``SEGMENT_SIZE``; some may be empty.  ``RangeError`` for limit < 2 is
    raised at the call.  Windows are sieved only as their first piece is
    read, all in one flag buffer of at most ``SEGMENT_SIZE`` bytes made at
    the first window, and the only array held with it is the base primes,
    so the budget limits only those: the first read raises
    ``SieveBudgetError`` when they would exceed it.
    """
    if limit < 2:
        raise RangeError(f"prime limit must be at least 2, got {limit}")
    return _windows(limit)


def first_n_prime_windows(n: int) -> Iterator[np.ndarray]:
    """The first n primes, increasing, as consecutive int64 arrays.

    Sieving stops with the window that holds the n-th prime, and the last
    array, the piece that holds it, ends at it.  ``RangeError`` for n < 1
    is raised at the call; the budget applies to the base primes, as for
    ``prime_windows``.
    """
    if n < 1:
        raise RangeError(f"prime count must be at least 1, got {n}")
    return _take(n, _windows(nth_prime_upper_bound(n)))


def _take(n: int, windows: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """The arrays up to the one holding prime n, that one cut after it."""
    left = n
    for primes in windows:
        yield primes[:left]
        left -= primes.size
        if left <= 0:
            return
        del primes  # dropped before the next array is sieved
    # nth_prime_upper_bound is a proven bound (Rosser), so this cannot happen.
    raise RuntimeError(f"the sieve found fewer than {n} primes")


def _joined(windows: Iterator[np.ndarray], capacity: int) -> np.ndarray:
    """The arrays' primes copied into one read-only int64 array.

    ``capacity`` must bound their count; the array is cut to the count in
    place, so it never exists twice.  Every held prime array is made here,
    so the budget is checked here: ``SieveBudgetError`` when the
    ``8 * capacity`` bytes would exceed it, before any window is read.
    """
    _check_budget(8 * capacity, f"{capacity} primes need")
    primes = np.empty(capacity, dtype=np.int64)
    filled = 0
    for window in windows:
        primes[filled : filled + window.size] = window
        filled += window.size
    if filled < capacity:
        primes.resize(filled, refcheck=False)
    primes.setflags(write=False)
    return primes


def primes_up_to_array(limit: int) -> np.ndarray:
    """All primes <= limit, increasing, as a read-only int64 array.

    Raises ``RangeError`` for limit < 2 and ``SieveBudgetError`` when an
    array sized by ``prime_count_upper_bound(limit)`` would exceed the budget.
    """
    return _joined(prime_windows(limit), prime_count_upper_bound(limit))


def first_n_primes_array(n: int) -> np.ndarray:
    """The first n primes, increasing, as a read-only int64 array."""
    return _joined(first_n_prime_windows(n), n)
