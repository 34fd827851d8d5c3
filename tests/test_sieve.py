import bisect

import numpy as np
import pytest
import sympy

import oracle
from gapcircuit import sieve

SMALL_PRIMES = oracle.primes_below(3000)


def _expected(limit):
    return SMALL_PRIMES[: bisect.bisect_right(SMALL_PRIMES, limit)]


class TestOddOnlySieve:
    def test_every_limit_to_3000(self):
        for limit in range(2, 3001):
            assert sieve.primes_up_to_array(limit).tolist() == _expected(limit)

    @pytest.mark.parametrize("window", [1, 2, 3, 7, 16])
    def test_window_edges(self, monkeypatch, window):
        # a window of w odd integers ends at lo + 2w - 2; cover limits on and
        # around many such edges, and primes and squares falling on them
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", window)
        for limit in range(2, 300):
            assert sieve.primes_up_to_array(limit).tolist() == _expected(limit)

    def test_segment_size_argument(self):
        for window in (1, 5, 64):
            got = sieve.primes_up_to_array(2999, segment_size=window)
            assert got.tolist() == _expected(2999)

    def test_first_hundred_thousand_unchanged(self):
        primes = sieve.first_n_primes_array(10**5)
        assert primes.dtype == np.int64
        assert not primes.flags.writeable
        assert primes.flags.owndata
        assert int(primes[-1]) == 1299709
        assert primes.tolist() == list(sympy.primerange(2, 1299710))
