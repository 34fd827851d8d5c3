import bisect
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gapcircuit import RangeError, SieveBudgetError, sieve

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

    def test_segment_size_setting(self, monkeypatch):
        for window in (1, 5, 64):
            monkeypatch.setattr(sieve, "SEGMENT_SIZE", window)
            assert sieve.primes_up_to_array(2999).tolist() == _expected(2999)

    def test_first_hundred_thousand_unchanged(self):
        primes = sieve.first_n_primes_array(10**5)
        assert primes.dtype == np.int64
        assert not primes.flags.writeable
        assert primes.flags.owndata
        assert int(primes[-1]) == 1299709
        assert primes.tolist() == list(sympy.primerange(2, 1299710))


def _joined(windows):
    return [int(p) for window in windows for p in window]


class TestWindows:
    @pytest.mark.parametrize("window", [1, 2, 3, 7, 16])
    def test_window_edges(self, monkeypatch, window):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", window)
        for limit in range(2, 300):
            windows = list(sieve.prime_windows(limit))
            assert _joined(windows) == _expected(limit)
            assert all(w.dtype == np.int64 for w in windows)
            # the base primes come first, then one array per window
            root = max(int(limit**0.5), 2)
            assert windows[0].tolist() == _expected(root)
            assert len(windows) == 1 + len(range((root + 1) | 1, limit + 1, 2 * window))

    @pytest.mark.parametrize("window", [1, 2, 3, 7, 16, 1 << 20])
    def test_first_n_stops_at_the_nth_prime(self, monkeypatch, window):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", window)
        sieved = []
        original = sieve._odd_window

        def recording(lo, flags, odd_base, steps):
            sieved.append(lo)
            return original(lo, flags, odd_base, steps)

        monkeypatch.setattr(sieve, "_odd_window", recording)
        for n in range(1, 200):
            sieved.clear()
            windows = list(sieve.first_n_prime_windows(n))
            assert _joined(windows) == SMALL_PRIMES[:n]
            assert windows[-1].size and int(windows[-1][-1]) == SMALL_PRIMES[n - 1]
            # no window starts past the n-th prime
            assert all(lo <= SMALL_PRIMES[n - 1] for lo in sieved)

    def test_segment_size_setting(self, monkeypatch):
        for window in (1, 5, 64):
            monkeypatch.setattr(sieve, "SEGMENT_SIZE", window)
            assert _joined(sieve.first_n_prime_windows(400)) == SMALL_PRIMES[:400]

    def test_arguments_checked_at_the_call(self, monkeypatch):
        # range errors come before any window is read, with the array functions' messages
        cases = [
            (lambda: sieve.prime_windows(1), lambda: sieve.primes_up_to_array(1)),
            (lambda: sieve.first_n_prime_windows(0), lambda: sieve.first_n_primes_array(0)),
        ]
        for windows, array in cases:
            with pytest.raises(RangeError) as streamed:
                windows()
            with pytest.raises(RangeError) as held:
                array()
            assert str(streamed.value) == str(held.value)
        # the budget refuses held arrays, by the capacity they would take
        monkeypatch.setenv(sieve.BUDGET_ENV_VAR, "64")
        for array, capacity in (
            (lambda: sieve.primes_up_to_array(10**5), sieve.prime_count_upper_bound(10**5)),
            (lambda: sieve.first_n_primes_array(9), 9),
        ):
            with pytest.raises(SieveBudgetError) as refused:
                array()
            assert str(refused.value) == (
                f"{capacity} primes need {8 * capacity} bytes, over the budget of 64 bytes "
                f"(raise {sieve.BUDGET_ENV_VAR} to allow this)"
            )

    def test_budget_admits_an_array_of_its_size(self, monkeypatch):
        monkeypatch.setenv(sieve.BUDGET_ENV_VAR, "64")
        assert sieve.first_n_primes_array(8).tolist() == SMALL_PRIMES[:8]
        with pytest.raises(SieveBudgetError, match="^9 primes need 72 bytes"):
            sieve.first_n_primes_array(9)

    def test_streams_refused_by_their_base_primes(self, monkeypatch):
        # the base primes up to 10^4 are joined, and refused, before any window above them
        sieved = []
        original = sieve._odd_window

        def recording(lo, flags, odd_base, steps):
            sieved.append(lo)
            return original(lo, flags, odd_base, steps)

        monkeypatch.setattr(sieve, "_odd_window", recording)
        monkeypatch.setenv(sieve.BUDGET_ENV_VAR, "64")
        windows = sieve.prime_windows(10**8)
        with pytest.raises(SieveBudgetError) as streamed:
            list(windows)
        assert all(lo <= 10**4 for lo in sieved)
        with pytest.raises(SieveBudgetError) as held:
            sieve.primes_up_to_array(10**4)
        assert str(streamed.value) == str(held.value)

    @pytest.mark.parametrize(
        "make, root",
        [
            (lambda: sieve.prime_windows(10**6), 10**3),
            (lambda: sieve.first_n_prime_windows(10**5), 1181),
        ],
        ids=["limit", "first_n"],
    )
    def test_budget_admitting_the_base_primes_changes_nothing(self, monkeypatch, make, root):
        assert math.isqrt(sieve.nth_prime_upper_bound(10**5)) == 1181
        free = [w.tolist() for w in make()]
        monkeypatch.setenv(sieve.BUDGET_ENV_VAR, str(8 * sieve.prime_count_upper_bound(root)))
        assert [w.tolist() for w in make()] == free
        assert len(free) > 1 and free[0] == _expected(root)

    @pytest.mark.parametrize("window", [1, 3, 16])
    def test_first_n_array_is_exact(self, monkeypatch, window):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", window)
        for n in (1, 2, 5, 6, 50, 300):
            primes = sieve.first_n_primes_array(n)
            assert primes.tolist() == SMALL_PRIMES[:n]
            assert primes.flags.owndata and not primes.flags.writeable


class TestPieces:
    """Windows leave the one flag buffer in pieces of ``PIECE_SIZE`` flags."""

    @given(
        segment=st.integers(1, 16),
        piece=st.integers(1, 7),
        limit=st.integers(2, 400),
        n=st.integers(1, 150),
    )
    @settings(max_examples=300, deadline=None)
    def test_piece_edges(self, segment, piece, limit, n):
        sieved = []
        original = sieve._odd_window

        def recording(lo, flags, odd_base, steps):
            sieved.append(lo)
            return original(lo, flags, odd_base, steps)

        with (
            mock.patch.object(sieve, "SEGMENT_SIZE", segment),
            mock.patch.object(sieve, "PIECE_SIZE", piece),
            mock.patch.object(sieve, "_odd_window", recording),
        ):
            windows = list(sieve.prime_windows(limit))
            root = max(math.isqrt(limit), 2)
            assert windows[0].tolist() == _expected(root)
            self._check_pieces(windows[1:], piece)
            assert _joined(windows) == _expected(limit)
            # one array per started piece of every window
            odd = range((root + 1) | 1, limit + 1, 2)
            counts = [len(odd[i : i + segment]) for i in range(0, len(odd), segment)]
            assert len(windows) == 1 + sum(-(-count // piece) for count in counts)

            sieved.clear()
            windows = list(sieve.first_n_prime_windows(n))
            self._check_pieces(windows[1:], piece)
            assert _joined(windows) == SMALL_PRIMES[:n]
            assert windows[-1].size and int(windows[-1][-1]) == SMALL_PRIMES[n - 1]
            # no window starts past the n-th prime
            assert all(lo <= SMALL_PRIMES[n - 1] for lo in sieved)

    @staticmethod
    def _check_pieces(pieces, piece):
        for primes in pieces:
            assert primes.dtype == np.int64
            assert (np.diff(primes) > 0).all()
            # a piece of p flags spans fewer than 2p integers
            assert primes.size == 0 or int(primes[-1]) - int(primes[0]) < 2 * piece

    def test_one_flag_buffer_per_stream(self, monkeypatch):
        # every window above the base primes is crossed out in the same buffer
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", 64)
        monkeypatch.setattr(sieve, "PIECE_SIZE", 16)
        buffers = []
        original = sieve._odd_window

        def recording(lo, flags, odd_base, steps):
            buffers.append((lo, flags.base))
            return original(lo, flags, odd_base, steps)

        monkeypatch.setattr(sieve, "_odd_window", recording)
        windows = sieve.prime_windows(10**5)
        assert _joined(windows) == list(sympy.primerange(2, 10**5 + 1))
        # the base primes to 316 come from a stream of their own, with its own buffer
        outer = [base for lo, base in buffers if lo > 316]
        assert len(outer) == len(range(317, 10**5 + 1, 128))
        assert outer[0].size == 64 and all(base is outer[0] for base in outer)


def _plain_window(lo, size, odd_base):
    """``_odd_window``'s flags from a plain fill(True) with every base prime crossed out."""
    flags = np.ones(size, dtype=bool)
    for p in odd_base.tolist():
        first = -(-lo // p) * p
        if first % 2 == 0:
            first += p
        flags[(first - lo) // 2 :: p] = False
    return flags


# Around the pattern's period of 15015 flags and twice that, so that the
# doubling copy ends with a short copy, a whole one, and one flag more.
FLAG_COUNTS = [1, 2, 3, 4, 5, 6, 7, 15014, 15015, 15016, 30030, 30031]


class TestPresievedWindows:
    """Windows copied from the 3..13 pattern against plainly crossed-out ones."""

    @staticmethod
    def _check(lo, size, root):
        odd_base = np.array(_expected(root)[1:], dtype=np.int64)
        flags = np.empty(size, dtype=bool)
        sieve._odd_window(lo, flags, odd_base, odd_base.tolist())
        assert np.array_equal(flags, _plain_window(lo, size, odd_base))

    def test_every_phase(self):
        # flag 0 of a window from lo stands at phase (lo - 1) / 2 of the period
        period = 3 * 5 * 7 * 11 * 13
        for phase in range(period):
            lo = 2 * (phase + 7 * period) + 1
            self._check(lo, FLAG_COUNTS[phase % len(FLAG_COUNTS)], 17)

    @given(
        lo=st.integers(0, 10**12),
        size=st.sampled_from(FLAG_COUNTS),
        root=st.integers(12, 200),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_windows(self, lo, size, root):
        # every base prime is below the window, as in the window loop
        self._check(max(lo, root + 1) | 1, size, root)

    @pytest.mark.parametrize("window", range(1, 8))
    def test_roots_where_the_pattern_starts(self, monkeypatch, window):
        # the pattern applies from root 13, where 3..13 are all base primes
        # and every window lies above them
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", window)
        for limit in range(12**2, 18**2):
            assert sieve.primes_up_to_array(limit).tolist() == _expected(limit)


class TestArrayMemory:
    """The joined arrays are filled window by window, never held twice."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sieve.primes_up_to_array(5 * 10**7),
            lambda: sieve.first_n_primes_array(2 * 10**6),
        ],
    )
    def test_peak_near_the_result(self, make):
        tracemalloc.start()
        try:
            primes = make()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert primes.flags.owndata and not primes.flags.writeable
        assert peak < 1.5 * primes.nbytes

    def test_cut_to_the_count(self):
        primes = sieve.primes_up_to_array(10**6)
        assert primes.size == 78498 < sieve.prime_count_upper_bound(10**6)
        assert int(primes[-1]) == 999983


class TestPrimeCountBound:
    """prime_count_upper_bound never falls below pi(x), and stays close to it."""

    def test_every_limit_to_a_million(self):
        limit = 10**6
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        counts = np.cumsum(flags).tolist()
        bounds = [sieve.prime_count_upper_bound(x) for x in range(limit + 1)]
        short = [x for x, (bound, count) in enumerate(zip(bounds, counts)) if bound < count]
        assert short == []

    @pytest.mark.parametrize(
        "limit, count",
        [(10**5, 9592), (10**7, 664579), (10**8, 5761455), (10**9, 50847534), (10**10, 455052511)],
    )
    def test_known_counts(self, limit, count):
        assert count <= sieve.prime_count_upper_bound(limit) <= 1.008 * count


class TestBoundsPastTheFloats:
    """From about 2^1024, where a float cannot hold the input, each bound is
    an integer one on the same side of the stated inequality."""

    # The largest int that converts to a float: the next one rounds to 2^1024.
    LARGEST = 2**1024 - 2**970 - 1

    @pytest.mark.parametrize(
        "x",
        [LARGEST + 1, 2**1024, 10**400, 3**2000 + 7],
        ids=["next", "2^1024", "10^400", "3^2000"],
    )
    def test_on_their_side(self, x):
        with pytest.raises(OverflowError):
            float(x)
        log = Fraction(math.log(x))
        assert sieve.prime_count_lower_bound(x) * log < x
        assert sieve.prime_count_upper_bound(x) * log >= x * (1 + Fraction(1.2762) / log)
        assert sieve.nth_prime_upper_bound(x) > x * (log + Fraction(math.log(log)))

    def test_floats_kept_below(self):
        x = self.LARGEST
        assert sieve.prime_count_lower_bound(x) == int(x / math.log(x))
        assert sieve.prime_count_upper_bound(x) == int(
            x / math.log(x) * (1 + 1.2762 / math.log(x))
        ) + 1


class TestPrimeCountLowerBound:
    """prime_count_lower_bound never rises above the sieve's count of primes."""

    def test_every_limit_to_a_million(self):
        limit = 10**6
        primes = sieve.primes_up_to_array(limit)
        counts = np.searchsorted(primes, np.arange(17, limit + 1), side="right").tolist()
        bounds = [sieve.prime_count_lower_bound(x) for x in range(17, limit + 1)]
        over = [x for x, bound, count in zip(range(17, limit + 1), bounds, counts) if bound > count]
        assert over == []
        assert [sieve.prime_count_lower_bound(x) for x in range(-1, 17)] == [0] * 18

    @pytest.mark.parametrize(
        "k, count",
        [(1, 4), (2, 25), (3, 168), (4, 1229), (5, 9592), (6, 78498), (7, 664579),
         (8, 5761455), (9, 50847534)],
    )
    def test_powers_of_ten(self, k, count):
        assert sum(primes.size for primes in sieve.prime_windows(10**k)) == count
        assert sieve.prime_count_lower_bound(10**k) <= count
        if k >= 5:
            assert sieve.prime_count_lower_bound(10**k) >= 0.9 * count
