"""Odd-only segmented sieve of Eratosthenes.

Base primes up to sqrt(limit) are found with a plain sieve; the rest of the
range is processed in fixed-size windows so the working set stays
cache-resident regardless of the limit.  Windows hold odd integers only:
even numbers above 2 are never stored or crossed out, so each flag byte
covers two integers and the Python loop over the base primes, which runs
once per window, runs half as often for a window of the same byte size.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import RangeError, SieveBudgetError

# Odd integers sieved per window (one byte of flag each).  Larger windows trade
# cache locality for fewer passes of the Python loop over the base primes.
SEGMENT_SIZE = 1 << 20

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


def prime_count_upper_bound(limit: int) -> int:
    """Upper bound on the number of primes <= limit (Rosser-Schoenfeld style)."""
    if limit < 2:
        return 0
    if limit < 17:
        return 6
    return int(1.25506 * limit / math.log(limit)) + 1


def nth_prime_upper_bound(n: int) -> int:
    """Integer upper bound on the n-th prime (1-based)."""
    if n <= len(_SMALL_NTH_BOUND):
        return _SMALL_NTH_BOUND[n - 1]
    x = float(n)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 1


def _simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit by a dense boolean sieve (int64 array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def primes_up_to_array(
    limit: int,
    *,
    segment_size: int | None = None,
    budget_bytes: int | None = None,
) -> np.ndarray:
    """All primes <= limit, increasing, as an int64 array.

    ``segment_size`` is the number of odd integers per window (default
    ``SEGMENT_SIZE``).  Raises ``RangeError`` for limit < 2 and
    ``SieveBudgetError`` when the estimated output would exceed the budget.
    """
    if limit < 2:
        raise RangeError(f"prime limit must be at least 2, got {limit}")
    budget = sieve_budget_bytes() if budget_bytes is None else budget_bytes
    estimated_bytes = 8 * prime_count_upper_bound(limit)
    if estimated_bytes > budget:
        raise SieveBudgetError(
            f"sieving to {limit} may emit ~{estimated_bytes} bytes of primes, "
            f"over the budget of {budget} bytes "
            f"(raise {BUDGET_ENV_VAR} to allow this)"
        )
    window = SEGMENT_SIZE if segment_size is None else segment_size
    if window < 1:
        raise RangeError(f"segment size must be positive, got {window}")

    root = max(math.isqrt(limit), 2)
    base = _simple_sieve(root)
    chunks = [base]
    odd_base = base[1:]
    steps = odd_base.tolist()
    # Flag i of a window stands for the odd integer lo + 2i.  Every base
    # prime is below lo, so crossing out from its first odd multiple >= lo
    # never hits a prime.
    for lo in range((root + 1) | 1, limit + 1, 2 * window):
        count = min(window, (limit - lo) // 2 + 1)
        first = -(-lo // odd_base) * odd_base
        # Adding an odd p to an even multiple of p makes it odd.
        first += odd_base * (first % 2 == 0)
        seg = np.ones(count, dtype=bool)
        for p, start in zip(steps, ((first - lo) // 2).tolist()):
            seg[start::p] = False
        chunks.append(np.flatnonzero(seg) * 2 + lo)
    primes = np.concatenate(chunks)
    primes.setflags(write=False)
    return primes


def first_n_primes_array(
    n: int,
    *,
    segment_size: int | None = None,
    budget_bytes: int | None = None,
) -> np.ndarray:
    """The first n primes, increasing, as an int64 array."""
    if n < 1:
        raise RangeError(f"prime count must be at least 1, got {n}")
    budget = sieve_budget_bytes() if budget_bytes is None else budget_bytes
    if 8 * n > budget:
        raise SieveBudgetError(
            f"{n} primes need {8 * n} bytes, over the budget of {budget} bytes "
            f"(raise {BUDGET_ENV_VAR} to allow this)"
        )
    bound = nth_prime_upper_bound(n)
    while True:
        primes = primes_up_to_array(
            bound, segment_size=segment_size, budget_bytes=budget
        )
        if len(primes) >= n:
            out = primes[:n].copy()
            out.setflags(write=False)
            return out
        # The bound is proven sufficient; this is pure defensiveness.
        bound *= 2
