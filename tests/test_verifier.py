import itertools
import json
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gapcircuit import originator, sieve, verifier
from gapcircuit import (
    Int64OverflowError,
    Originator,
    RandomModel,
    RangeError,
    first_n_primes,
    load_sequence,
    primes_up_to,
    random_generalized,
    search_counterexamples,
    verify_frontier,
    verify_naive,
)

ODD_ARITHMETIC = Originator([1, 3, 5, 7])


class TestVerifyNaive:
    def test_first_five_primes(self):
        r = verify_naive(first_n_primes(5))
        assert r.all_ones
        assert r.max_order_checked == 4
        assert r.first_failure is None
        assert r.method == "naive"

    def test_even_gap_failure(self):
        r = verify_naive(ODD_ARITHMETIC)
        assert not r.all_ones
        assert r.first_failure == (1, 2)
        assert r.max_order_checked == 0

    def test_ten_thousand_primes(self):
        r = verify_naive(first_n_primes(10**4))
        assert r.all_ones
        assert r.max_order_checked == 10**4 - 1

    def test_failure_buried_deep(self):
        # rows stay fine until the very last one
        terms = [0, 1, 3, 6]
        rows = oracle.triangle_rows(terms)
        assert [row[0] for row in rows] == [1, 1, 0]
        r = verify_naive(Originator(terms))
        assert r.first_failure == (3, 0)
        assert r.max_order_checked == 2

    def test_needs_two_terms(self):
        with pytest.raises(RangeError):
            verify_naive(Originator([2]))

    def test_agrees_with_oracle(self):
        for terms in ([2, 3, 5], [1, 2, 4, 8], [5, 4, 6, 1], [7, 8]):
            expected_ok, expected_failure = oracle.leading_ones(terms)
            r = verify_naive(Originator(terms))
            assert r.all_ones == expected_ok
            assert r.first_failure == expected_failure


class TestVerifyFrontier:
    def test_stabilizes_on_primes(self):
        r = verify_frontier(first_n_primes(5))
        assert r.all_ones
        assert r.method == "frontier"
        assert r.stabilization_row == 2
        assert r.max_order_checked == 4

    def test_failure_before_stabilization(self):
        r = verify_frontier(ODD_ARITHMETIC)
        assert not r.all_ones
        assert r.first_failure == (1, 2)
        assert r.method == "naive"
        assert r.stabilization_row is None

    def test_million_primes(self):
        r = verify_frontier(first_n_primes(10**6))
        assert r.all_ones
        assert r.stabilization_row is not None
        assert r.max_order_checked == 10**6 - 1

    def test_scan_depth_exhausted_falls_back(self):
        # primes at this size stabilize later than row 1
        o = first_n_primes(100)
        r = verify_frontier(o, scan_depth=1)
        assert r.all_ones
        assert r.method == "naive"
        assert r.stabilization_row is None

    def test_scan_depth_must_be_positive(self):
        with pytest.raises(RangeError):
            verify_frontier(first_n_primes(5), scan_depth=0)

    def test_two_terms_stabilize_immediately(self):
        r = verify_frontier(Originator([4, 5]))
        assert r.all_ones
        assert r.stabilization_row == 1

    def test_certification_soundness_spot_check(self):
        o = first_n_primes(2000)
        r = verify_frontier(o)
        assert r.all_ones and r.stabilization_row is not None
        k0 = r.stabilization_row
        rows = oracle.triangle_rows(list(o))
        for k in range(k0 + 1, min(k0 + 50, o.n - 1) + 1):
            assert rows[k - 1][0] == 1

    def test_truncation_consistency(self):
        # once the criterion fires at k0, it fires at k0 in every prefix too
        # (the reported row may come even earlier, since tails get shorter)
        o = first_n_primes(400)
        k0 = verify_frontier(o).stabilization_row
        for smaller in (350, 200, k0 + 1):
            trimmed = list(o)[:smaller]
            row = oracle.triangle_rows(trimmed)[k0 - 1]
            assert row[0] == 1
            assert all(v in (0, 2) for v in row[1:])
            report = verify_frontier(Originator(trimmed))
            assert report.all_ones
            assert report.stabilization_row <= k0

    def test_equivalence_on_prefixes(self):
        primes = first_n_primes(300)
        for n in range(2, 301):
            o = Originator(primes.terms[:n])
            naive = verify_naive(o)
            fast = verify_frontier(o)
            assert naive.all_ones == fast.all_ones
            assert naive.first_failure == fast.first_failure
            assert naive.max_order_checked == fast.max_order_checked


def _differential(terms, scan_depth=verifier.DEFAULT_SCAN_DEPTH):
    """Frontier report checked against the oracle and the int64 sweep."""
    o = Originator(terms)
    fast = verify_frontier(o, scan_depth)
    naive = verify_naive(o)
    failure, stab = oracle.frontier(list(terms), scan_depth)
    assert fast.first_failure == failure == naive.first_failure
    assert fast.stabilization_row == stab
    assert fast.method == ("frontier" if stab is not None else "naive")
    assert fast.all_ones == naive.all_ones
    assert fast.max_order_checked == naive.max_order_checked
    if stab is None:
        assert fast.to_json_dict(timing=False) == naive.to_json_dict(timing=False)
    return fast


def _with_row1_value(terms, column, value):
    """The terms with row 1 set to ``value`` at ``column`` by shifting every later term."""
    shift = value - (terms[column + 1] - terms[column])
    return terms[: column + 1] + [t + shift for t in terms[column + 1 :]]


def _with_row1_max(peak):
    """400 prime-based terms whose first row peaks at exactly ``peak``, at column 299."""
    return _with_row1_value(list(first_n_primes(400)), 299, peak)


def _parity_flip(n, column):
    """The first n primes with one term raised by 1: row ``column`` leads with an even value."""
    terms = list(first_n_primes(n))
    terms[column] += 1
    return terms


class TestTiledFrontier:
    """The tiled narrow-dtype scan against the oracle and the int64 sweep."""

    @pytest.mark.parametrize(
        "peak, dtype",
        [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)],
    )
    @pytest.mark.parametrize("tile", [64, 2**16, verifier.TILE_COLUMNS])
    def test_dtype_edges(self, monkeypatch, peak, dtype, tile):
        monkeypatch.setattr(verifier, "TILE_COLUMNS", tile)
        terms = _with_row1_max(peak)
        assert max(oracle.triangle_rows(terms)[0]) == peak
        assert verifier._narrowest_dtype(peak) == dtype
        _differential(terms)

    def test_int64_edge(self):
        assert verifier._narrowest_dtype(2**31 - 1) == np.int32
        assert verifier._narrowest_dtype(2**31) == np.int64
        _differential([2, 3, 5, 5 + 2**31, 7 + 2**31, 9 + 2**31, 13 + 2**31])

    def test_failure_found_deep_in_tile_zero(self, monkeypatch):
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 64)
        r = _differential(_parity_flip(600, 400))
        assert r.first_failure[0] == 400
        assert r.first_failure[1] % 2 == 0

    def test_failure_after_first_tile_stabilized(self, monkeypatch):
        # tile 0 (columns 0..63 plus a halo of 50) settles within 50 rows; the
        # tile holding column 400 never does, so the int64 sweep finds it
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 64)
        terms = _parity_flip(600, 400)
        assert oracle.frontier(terms[:115], 50)[1] is not None
        r = _differential(terms, scan_depth=50)
        assert r.method == "naive"
        assert r.first_failure[0] == 400

    def test_certificate_decided_by_late_tile(self, monkeypatch):
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 256)
        primes = list(first_n_primes(3000))
        terms = primes[:2500] + [p + 60 for p in primes[2500:]]
        plain = verify_frontier(Originator(primes)).stabilization_row
        r = _differential(terms)
        assert r.method == "frontier"
        assert r.stabilization_row > plain

    def test_tiles_stop_once_settled_below_the_certificate(self, monkeypatch):
        # tile 0's halo holds a gap raised by 60, which settles only at row 49;
        # later tiles, of plain prime gaps, settle earlier and stop at the
        # first row checked below the certificate, a multiple of SETTLE_EVERY
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 64)
        primes = list(first_n_primes(1000))
        terms = primes[:100] + [p + 60 for p in primes[100:]]
        assert _differential(terms).stabilization_row == 49
        derived = []  # the size of every row derived, tile after tile
        original = verifier._derive_into

        def recording(row, out):
            derived.append(row.size - 1)
            return original(row, out)

        monkeypatch.setattr(verifier, "_derive_into", recording)
        assert verify_frontier(Originator(terms)).stabilization_row == 49
        # a tile's row k is k - 1 columns short of its row 1, so each tile's
        # derived rows run down by one from its width less one
        # up to tile 448, the first whose columns and halo reach column 998
        widths = [min(64 + 500, 999 - lo) for lo in range(0, 999 - 500, 64)]
        rows, at = [], 0
        for w in widths:
            k = 1
            while at < len(derived) and derived[at] == w - k:
                at, k = at + 1, k + 1
            rows.append(k)
        assert at == len(derived)
        # the region a tile stops on; tile 0's leaves out the leader
        settled = [w - k + 1 - (t == 0) for t, (w, k) in enumerate(zip(widths, rows))]
        assert settled == [515, 516, 541, 541, 541, 541, 525, 512]
        assert rows == [49, 49, 24, 24, 24, 24, 40, 40]
        early = [k for k in rows[1:] if k < 49]
        assert early and all(k % verifier.SETTLE_EVERY == 0 for k in early)
        assert _streamed(terms, sizes=(37,))[0].stabilization_row == 49

    def test_rows_derived_on_the_first_hundred_thousand_primes(self, monkeypatch):
        # 10^5 primes fit one tile of 2^17 columns; two tiles of 2^16, the
        # second checked only from the certificate row on, derive 190 rows
        calls = []
        original = verifier._derive_into

        def counting(row, out):
            calls.append(row.size)
            return original(row, out)

        monkeypatch.setattr(verifier, "_derive_into", counting)
        report = verifier.verify_frontier_windows(partial(sieve.first_n_prime_windows, 10**5))
        assert report.stabilization_row == 97
        assert len(calls) == 96

    @pytest.mark.parametrize("tile", [1, 3, 8, 64])
    @pytest.mark.parametrize("scan_depth", [1, 5, 500])
    def test_short_originators(self, monkeypatch, tile, scan_depth):
        # n below one tile plus its halo, and depths beyond the tile width
        monkeypatch.setattr(verifier, "TILE_COLUMNS", tile)
        primes = list(first_n_primes(60))
        for n in range(2, 61):
            _differential(primes[:n], scan_depth)
            _differential(_parity_flip(n, n // 2), scan_depth)

    def test_scan_depth_exhausted_matches_naive(self):
        for terms, depth in (
            (list(first_n_primes(300)), 3),
            (_parity_flip(300, 200), 20),
        ):
            r = _differential(terms, scan_depth=depth)
            assert r.method == "naive"

    @given(
        first=st.integers(0, 50),
        gaps=st.lists(st.sampled_from([0, 2, 2, 4, 6]), max_size=60),
        bumps=st.lists(
            st.tuples(
                st.integers(0, 61),
                st.one_of(
                    st.integers(-3, 3), st.integers(0, 300), st.integers(0, 2**40)
                ),
            ),
            max_size=3,
        ),
        tile=st.integers(1, 7),
        scan_depth=st.integers(1, 70),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_small_tiles(self, first, gaps, bumps, tile, scan_depth):
        # prime-like even gaps after a leading gap of 1, with a few terms
        # bumped: most draws get past row 1, many reach a certificate
        terms = np.cumsum([first, 1, *gaps]).tolist()
        for index, bump in bumps:
            if index < len(terms):
                terms[index] += bump
        with mock.patch.object(verifier, "TILE_COLUMNS", tile):
            _differential(terms, scan_depth)


def _cut(terms, sizes):
    """The terms as consecutive int64 windows whose sizes cycle through ``sizes``."""
    arr = np.array(terms, dtype=np.int64)
    windows, lo, i = [], 0, 0
    while lo < arr.size:
        size = sizes[i % len(sizes)]
        windows.append(arr[lo : lo + size])
        lo += size
        i += 1
    return windows


class _Reader:
    """A ``read`` for the verifier that counts its calls; ``make()`` gives the windows."""

    def __init__(self, make):
        self.make = make
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.make()


def _streamed(terms, scan_depth=verifier.DEFAULT_SCAN_DEPTH, sizes=(5,)):
    """The streamed report on windows of the terms, checked against the held one.

    Also checks the naive run on the same windows.  Returns the frontier
    report and whether it read the terms a second time.
    """
    read = _Reader(lambda: _cut(terms, sizes))
    held = verify_frontier(Originator(terms), scan_depth)
    got = verifier.verify_frontier_windows(read, scan_depth)
    assert got.to_json_dict(timing=False) == held.to_json_dict(timing=False)
    # the terms are read again only for the naive sweep
    assert read.calls == 1 or (read.calls == 2 and got.method == "naive")
    if got.stabilization_row is not None:
        assert read.calls == 1
    naive = _Reader(read.make)
    got_naive = verifier.verify_frontier_windows(naive, None)
    assert got_naive.to_json_dict(timing=False) == verify_naive(
        Originator(terms)
    ).to_json_dict(timing=False)
    assert naive.calls == 2
    return got, read.calls == 2


def _must_not_run(*args):
    raise AssertionError("called where it must not be")


class TestStreamedFrontier:
    """Row 1 read in chunks from term windows, against the held row and the oracle."""

    @given(
        first=st.integers(0, 50),
        gaps=st.lists(st.sampled_from([0, 2, 2, 4, 6]), max_size=60),
        bumps=st.lists(
            st.tuples(
                st.integers(0, 61),
                st.one_of(st.integers(0, 3), st.integers(0, 300), st.integers(0, 2**40)),
            ),
            max_size=3,
        ),
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(any),
        tile=st.integers(1, 7),
        scan_depth=st.one_of(st.integers(1, 7), st.integers(8, 70)),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_windows(self, first, gaps, bumps, sizes, tile, scan_depth):
        terms = np.cumsum([first, 1, *gaps]).tolist()
        for index, bump in bumps:
            if index < len(terms):
                terms[index] += bump
        with mock.patch.object(verifier, "TILE_COLUMNS", tile):
            _differential(terms, scan_depth)
            _streamed(terms, scan_depth, sizes)

    @pytest.mark.parametrize("segment", [1, 2, 3, 7])
    @pytest.mark.parametrize("tile", [1, 4, 7])
    def test_prime_prefixes(self, monkeypatch, segment, tile):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment)
        monkeypatch.setattr(verifier, "TILE_COLUMNS", tile)
        for scan_depth in range(1, 8):
            for n in (2, 3, 5, 9, 17, 40, 101):
                held = verify_frontier(first_n_primes(n), scan_depth)
                got = verifier.verify_frontier_windows(
                    partial(sieve.first_n_prime_windows, n), scan_depth
                )
                assert got.to_json_dict(timing=False) == held.to_json_dict(timing=False)
            for limit in (3, 10, 11, 97, 300):
                held = verify_frontier(primes_up_to(limit), scan_depth)
                got = verifier.verify_frontier_windows(
                    partial(sieve.prime_windows, limit), scan_depth
                )
                assert got.to_json_dict(timing=False) == held.to_json_dict(timing=False)

    def test_certificates_need_no_rebuild(self, monkeypatch):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", 97)
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 64)
        read = _Reader(partial(sieve.first_n_prime_windows, 5000))
        got = verifier.verify_frontier_windows(read)
        assert got.to_json_dict(timing=False) == verify_frontier(
            first_n_primes(5000)
        ).to_json_dict(timing=False)
        assert got.method == "frontier"
        assert read.calls == 1

    @pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (2, 5), (100,)])
    @pytest.mark.parametrize(
        "terms",
        [
            # the pair |-(2^63 - 1) - 5| straddles the edge of windows of 2
            [1, 5, -(2**63 - 1), 2**63 - 1, 3],
            # the first of two overflowing pairs is named
            [0, 2, 4, 2**62, -(2**62) - 1, 0, 2**63 - 1, -2, 7],
        ],
    )
    def test_signed_overflow_across_windows(self, terms, sizes):
        with pytest.raises(Int64OverflowError) as held:
            verify_frontier(Originator(terms))
        for scan_depth in (None, 1, verifier.DEFAULT_SCAN_DEPTH):
            with pytest.raises(Int64OverflowError) as streamed:
                verifier.verify_frontier_windows(_Reader(lambda: _cut(terms, sizes)), scan_depth)
            assert str(streamed.value) == str(held.value)

    @pytest.mark.parametrize("sizes", [(1,), (2, 3), (64,)])
    def test_signed_terms(self, sizes):
        terms = [-7, 3, -2, 10, 4, -1, 5, -9, 0, 6, 2**61, -(2**61), 11]
        for scan_depth in (1, 3, 20):
            _streamed(terms, scan_depth, sizes)
        got, _ = _streamed([-3, -2, 0, 2, 0, 2, 4, 2, 0], 5, sizes)
        assert got.stabilization_row == 1

    @pytest.mark.parametrize("sizes", [(1,), (3, 0, 50), (64,), (1000,)])
    def test_spikes_fall_back(self, monkeypatch, sizes):
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 64)
        # a failure after tile 0 settled, and a late step that no tile
        # settles within the depth
        primes = list(first_n_primes(600))
        for terms in (_parity_flip(600, 400), primes[:500] + [p + 10**6 for p in primes[500:]]):
            _differential(terms, 50)
            got, rebuilt = _streamed(terms, 50, sizes)
            assert rebuilt and got.method == "naive"

    def test_failure_in_tile_zero_counts_every_term(self, monkeypatch):
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 64)
        got, rebuilt = _streamed(_parity_flip(600, 30), 50, (7,))
        assert not rebuilt
        assert got.first_failure[0] == 30 and got.n == 600

    def test_bad_first_leader(self):
        got, rebuilt = _streamed([1, 3, 5, 7, 9], 5, (2,))
        assert not rebuilt
        assert got.first_failure == (1, 2) and got.max_order_checked == 0

    @pytest.mark.parametrize(
        "value, wide",
        [(127, np.int8), (128, np.int16), (200, np.int16), (40000, np.int32)],
    )
    def test_value_only_in_a_halo(self, monkeypatch, value, wide):
        # with tiles of 64 columns and depth 40, column 80 lies in the halo of
        # tile 0 (columns 64..103) and in the region of tile 1
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 64)
        terms = _with_row1_value(list(first_n_primes(300)), 80, value)
        row1 = oracle.triangle_rows(terms)[0]
        assert row1[80] == value
        assert max(row1[:64]) < 127 and max(row1[:104]) == value
        assert verifier._narrowest_dtype(max(row1[:104])) == wide
        for sizes in ((1,), (9, 2), (300,)):
            _differential(terms, 40)
            _streamed(terms, 40, sizes)

    @pytest.mark.parametrize("target", [127, 128])
    def test_row_maximum_at_a_narrowing_check(self, monkeypatch, target):
        # one tile; row 1 peaks above int8, and a derived row at a check of
        # the naive tile holds exactly ``target`` as its largest entry (the
        # frontier's tile 0 reads its maximum every row)
        monkeypatch.setattr(verifier, "TILE_COLUMNS", 1 << 10)
        primes = list(first_n_primes(300))
        found = []
        for column, value in itertools.product((50, 100, 150, 200, 250), range(129, 400)):
            terms = _with_row1_value(primes, column, value)
            rows = oracle.triangle_rows(terms)
            checks = [
                k for k in range(verifier.SETTLE_EVERY, 60, verifier.SETTLE_EVERY)
                if max(rows[k - 1]) == target
            ]
            if checks and all(max(rows[k - 1]) > 127 for k in range(1, checks[0])):
                found.append(terms)
            if len(found) == 3:
                break
        assert len(found) == 3
        for terms in found:
            _differential(terms)
            _streamed(terms, sizes=(13,))
            _streamed(terms, 70, sizes=(1, 40))


    @pytest.mark.parametrize("last", [130, 260])
    def test_narrowing_reads_the_whole_row(self, last):
        # row 1 is 1, fifty 2s and ``last``: every later row is 1, 0s and
        # last - 2 in its final column, until that value reaches the leader.
        # 128 and 258 would pass for -128 and 2 in int8.
        terms = np.cumsum([2, 1] + [2] * 50 + [last]).tolist()
        rows = oracle.triangle_rows(terms)
        assert [max(rows[k]) for k in range(1, 12)] == [last - 2] * 11
        r = _differential(terms)
        assert r.first_failure == (52, last - 3)
        for sizes in ((1,), (4, 60)):
            _streamed(terms, sizes=sizes)


# Row-1 values on both sides of the int8, int16 and int32 edges, and a spike
# that needs int64.
DTYPE_EDGES = [127, 128, 32767, 32768, 2**31 - 1, 2**31, 2**62]


def _walk(row1):
    """Terms from 0 whose row 1 is ``row1``: each step goes down from above 0, else up.

    With steps up to 2^62 the terms stay within +-2^62.
    """
    terms = [0]
    for step in row1:
        terms.append(terms[-1] - step if terms[-1] > 0 else terms[-1] + step)
    return terms


class TestMixedWidthQueue:
    """Row-1 chunks narrowed to different dtypes share the scan's queue."""

    @pytest.mark.parametrize("tile", range(1, 8))
    @pytest.mark.parametrize("scan_depth", range(1, 8))
    def test_alternating_edges(self, monkeypatch, tile, scan_depth):
        monkeypatch.setattr(verifier, "TILE_COLUMNS", tile)
        # in windows of two terms, each chunk after the first is (2, v), so the
        # chunks' maxima cross the dtype edges back and forth
        tail = [127, 128, 127, 32767, 32768, 32767, 2**31 - 1, 2**31, 2**31 - 1, 2**62, 2, 128, 2]
        for start in (1, 2, 8):  # the edges reach the leaders, tile 0's region, or neither
            terms = _walk([1, 2, 2, 4, 2, 4, 2, 4][:start] + [x for v in tail for x in (2, v)])
            _differential(terms, scan_depth)
            for sizes in ((2,), (1, 3), (64,)):
                _streamed(terms, scan_depth, sizes)

    @given(
        prefix=st.lists(st.sampled_from([0, 2, 2, 4, 6]), max_size=12),
        values=st.lists(st.sampled_from([0, 2, *DTYPE_EDGES]), min_size=1, max_size=30),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        tile=st.integers(1, 7),
        scan_depth=st.integers(1, 7),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_mixed_widths(self, prefix, values, sizes, tile, scan_depth):
        terms = _walk([1, *prefix, *values])
        with mock.patch.object(verifier, "TILE_COLUMNS", tile):
            _differential(terms, scan_depth)
            _streamed(terms, scan_depth, sizes)

    @pytest.mark.parametrize(
        "bound, dtype",
        [
            (0, np.int8),
            (127, np.int8),
            (128, np.int16),
            (32767, np.int16),
            (32768, np.int32),
            (2**31 - 1, np.int32),
            (2**31, np.int64),
            (2**63 - 1, np.int64),
        ],
    )
    def test_narrowest_dtype(self, bound, dtype):
        assert verifier._narrowest_dtype(bound) == np.dtype(dtype)


def _oracle_naive(terms):
    """The naive report on ``terms``, as ``to_json_dict(timing=False)``, from the oracle."""
    all_ones, failure = oracle.leading_ones(terms)
    return {
        "n": len(terms),
        "method": "naive",
        "all_ones": all_ones,
        "max_order_checked": failure[0] - 1 if failure else len(terms) - 1,
        "first_failure": list(failure) if failure else None,
        "stabilization_row": None,
    }


class TestNaiveSweep:
    """The naive sweep is the tile scan with the certificate off: one tile, every row."""

    @pytest.mark.parametrize("tile", [1, 3, verifier.TILE_COLUMNS])
    def test_every_row_derived(self, monkeypatch, tile):
        # one tile of all n - 1 columns, whatever TILE_COLUMNS is, derived down
        # to its last row: no certificate cuts the sweep short
        monkeypatch.setattr(verifier, "TILE_COLUMNS", tile)
        calls = []
        original = verifier._derive_into

        def counting(row, out):
            calls.append(row.size)
            return original(row, out)

        monkeypatch.setattr(verifier, "_derive_into", counting)
        for n in (2, 3, 10, 300):
            calls.clear()
            terms = list(first_n_primes(n))
            assert verify_naive(Originator(terms)).to_json_dict(timing=False) == _oracle_naive(terms)
            assert calls == list(range(n - 1, 1, -1))

    @pytest.mark.parametrize("tile", range(1, 8))
    @pytest.mark.parametrize("peak", [None, *DTYPE_EDGES])
    def test_held_and_streamed_against_the_oracle(self, monkeypatch, tile, peak):
        # row 1 peaks on either side of each dtype edge, or at an int64
        # spike; the streamed run at depth 1 finds no certificate and falls
        # back to the sweep over windows of every size from 1 to 7
        monkeypatch.setattr(verifier, "TILE_COLUMNS", tile)
        terms = list(first_n_primes(400)) if peak is None else _with_row1_max(peak)
        expected = _oracle_naive(terms)
        assert verify_naive(Originator(terms)).to_json_dict(timing=False) == expected
        for size in range(1, 8):
            read = _Reader(partial(_cut, terms, (size,)))
            assert verifier.verify_frontier_windows(read, 1).to_json_dict(timing=False) == expected
            assert read.calls == 2


class TestStreamedMemory:
    def test_peak_of_a_streamed_run(self):
        # the stream holds one window's flags (1 MiB), a few int64 pieces of
        # at most 2^18 flags each and the narrowed queue of one tile; the
        # primes as one array would take 16 MB
        tracemalloc.start()
        try:
            report = verifier.verify_frontier_windows(
                partial(sieve.first_n_prime_windows, 2 * 10**6)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.stabilization_row == 162
        assert peak < 3 * 2**20


class TestSweepGuard:
    def test_limit_is_inclusive(self, monkeypatch):
        # five terms make 10 cells, six make 15
        monkeypatch.setattr(verifier, "SWEEP_CELL_LIMIT", 10)
        assert verify_naive(first_n_primes(5)).all_ones
        with pytest.raises(RangeError) as err:
            verify_naive(first_n_primes(6))
        assert str(err.value) == (
            "the naive sweep of 6 terms would derive 15 cells, over the limit "
            "of 10; use --method frontier with a larger --scan-depth"
        )

    def test_refused_before_deriving(self, monkeypatch):
        monkeypatch.setattr(verifier, "SWEEP_CELL_LIMIT", 10)
        monkeypatch.setattr(verifier, "_derive_into", _must_not_run)
        with pytest.raises(RangeError):
            verify_naive(Originator([2, 3, 5, 7, 11, 13]))

    def test_fallback_guarded(self, monkeypatch):
        monkeypatch.setattr(verifier, "SWEEP_CELL_LIMIT", 100)
        # a certificate needs no sweep; depth 1 forces one
        assert verify_frontier(first_n_primes(100)).method == "frontier"
        with pytest.raises(RangeError, match="100 terms would derive 4950 cells"):
            verify_frontier(first_n_primes(100), scan_depth=1)

    def test_streamed_fallback_refused_before_rebuild(self, monkeypatch):
        # the guard fires before the terms would be read a second time, for
        # the fallback and for the naive run
        monkeypatch.setattr(verifier, "SWEEP_CELL_LIMIT", 100)
        for scan_depth in (1, None):
            read = _Reader(partial(sieve.first_n_prime_windows, 100))
            with pytest.raises(RangeError, match="100 terms would derive 4950 cells"):
                verifier.verify_frontier_windows(read, scan_depth)
            assert read.calls == 1

    def test_default_limit(self):
        assert verifier.SWEEP_CELL_LIMIT == 2**34


def _scans(run):
    """``run()``'s result, and each ``_scan_tile`` call as (depth, certificate, leaders, record)."""
    calls = []
    original = verifier._scan_tile

    def recording(tile, depth, certificate, leaders):
        record = original(tile, depth, certificate, leaders)
        calls.append((depth, certificate, leaders, record))
        return record

    with mock.patch.object(verifier, "_scan_tile", recording):
        return run(), calls


def _draws(monkeypatch):
    """The length of each walk the search draws from now on, in order."""
    drawn = []
    original = verifier.random_generalized

    def recording(model):
        drawn.append(model.n)
        return original(model)

    monkeypatch.setattr(verifier, "random_generalized", recording)
    return drawn


def _expected(terms, lo, span, depth, certificate, leaders):
    """A tile's record as ``oracle.tile_scan`` has it, the dtype by name."""
    scan = oracle.tile_scan(terms, lo, span, depth, certificate, leaders, verifier.SETTLE_EVERY)
    return (lo, *scan)


def _fields(record):
    return (record.lo, record.width, record.top, record.dtype.name, record.stop, record.failure)


class TestTileRecords:
    """Each tile's record against the oracle's scan of the same columns, and the fold over them."""

    @given(
        first=st.integers(0, 50),
        gaps=st.lists(st.sampled_from([0, 2, 2, 4, 6]), max_size=60),
        bumps=st.lists(
            st.tuples(
                st.integers(0, 61),
                st.one_of(
                    st.integers(-3, 3), st.integers(0, 300), st.integers(0, 2**40)
                ),
            ),
            max_size=3,
        ),
        tile=st.integers(1, 7),
        scan_depth=st.integers(1, 70),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_records(self, first, gaps, bumps, tile, scan_depth):
        terms = np.cumsum([first, 1, *gaps]).tolist()
        for index, bump in bumps:
            if index < len(terms):
                terms[index] += bump
        n = len(terms)
        with mock.patch.object(verifier, "TILE_COLUMNS", tile):
            report, calls = _scans(lambda: verify_frontier(Originator(terms), scan_depth))
        tiles = [call for call in calls if call[1] is not None]
        sweeps = [call for call in calls if call[1] is None]
        # the frontier's tiles follow each other, tile 0 with the leaders, each
        # given the largest stop row before it, until one does not settle
        certificate = 1
        for t, (depth, given_certificate, leaders, record) in enumerate(tiles):
            assert (depth, given_certificate, leaders) == (scan_depth, certificate, t == 0)
            expected = _expected(terms, t * tile, tile + scan_depth, depth, certificate, leaders)
            assert _fields(record) == expected
            if record.stop is None:
                assert t == len(tiles) - 1
            else:
                certificate = max(certificate, record.stop)
        last = tiles[-1][3]
        if last.stop is not None:
            # the queue ends with the first tile whose columns and halo reach row 1's end
            assert len(tiles) == max(1, -(-(n - 1 - scan_depth) // tile))
            assert report.stabilization_row == certificate and not sweeps
        elif last.failure is not None:
            assert report.first_failure == last.failure and not sweeps
        else:
            # the naive sweep: one all-halo tile of every column, with no certificate
            ((depth, _, leaders, record),) = sweeps
            assert (depth, leaders) == (n - 1, True)
            assert _fields(record) == _expected(terms, 0, n - 1, n - 1, None, True)
            assert report.first_failure == record.failure and report.method == "naive"

    @pytest.mark.parametrize("certificate", [None, 1, 5, 40])
    @pytest.mark.parametrize("depth", [1, 3, 8, 20])
    def test_tile_without_leaders(self, depth, certificate):
        # row 1 is 1, 2, 2, then from column 3 on 4, 2, 2, 0, 2, 6, 2, 2: the
        # tile at column 3 starts with 4, which is no failure without the leaders
        terms = np.cumsum([0, 1, 2, 2, 4, 2, 2, 0, 2, 6, 2, 2]).tolist()
        entries = np.array([4, 2, 2, 0, 2, 6, 2, 2], dtype=np.int64)
        record = verifier._scan_tile((3, entries), depth, certificate, False)
        assert record.failure is None
        assert _fields(record) == _expected(terms, 3, 8, depth, certificate, False)
        held = verifier._scan_tile((3, entries), depth, certificate, True)
        assert held.failure == (1, 4) and held.stop is None

    def test_search_scans_one_tile_per_trial(self, monkeypatch):
        # every trial fails at row 1 of tile 0: the fold scans that tile
        # alone, derives no row and never sweeps; past the kept examples a
        # trial draws and scans only its first scan_depth + 1 = 501 terms
        monkeypatch.setattr(verifier, "_derive_into", _must_not_run)
        drawn = _draws(monkeypatch)
        report, calls = _scans(
            lambda: search_counterexamples(RandomModel(20_000, 100, 0), trials=20, seed=1)
        )
        assert report.failures == 20 and report.failure_orders == ((1, 20),)
        assert [(call[1], call[2], call[3].lo, call[3].stop) for call in calls] == [
            (1, True, 0, None)
        ] * 20
        kept = verifier.KEPT_FAILURES
        assert [call[3].width for call in calls] == [19_999] * kept + [500] * (20 - kept)
        assert sum(drawn) == kept * 20_000 + (20 - kept) * 501


def _bumped_primes(scan_depth):
    """The first n primes, one term past index scan_depth + 1 raised by an even amount.

    The index and the amount come from the seed, so a walk's first
    scan_depth + 2 terms are primes and its prefixes are shorter walks.
    """

    def walk(n, g_max, seed):
        terms = oracle.first_primes(n)
        index = scan_depth + 2 + seed % 8
        if index < n:
            terms[index] += 2 * (seed >> 3) % 16
        return terms

    return walk


class TestSearch:
    def test_gap_two_always_fails(self):
        report = search_counterexamples(RandomModel(4, 2, 0), trials=25, seed=3)
        assert report.failures == 25
        assert report.failure_orders == ((1, 25),)
        assert report.failure_rate == 1.0
        assert [case.terms for case in report.examples] == [(1, 3, 5, 7)] * 5

    def test_trials_must_be_positive(self):
        with pytest.raises(RangeError):
            search_counterexamples(RandomModel(4, 2, 0), trials=0, seed=3)

    def test_deterministic_reports(self):
        model = RandomModel(100, 6, 7)
        a = search_counterexamples(model, trials=50, seed=7)
        b = search_counterexamples(model, trials=50, seed=7)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_seed_changes_the_draws(self):
        model = RandomModel(50, 8, 0)
        a = search_counterexamples(model, trials=10, seed=1)
        b = search_counterexamples(model, trials=10, seed=2)
        assert [c.seed for c in a.examples] != [c.seed for c in b.examples]

    def test_model_seed_not_consulted(self):
        a = search_counterexamples(RandomModel(30, 4, 111), trials=5, seed=9)
        b = search_counterexamples(RandomModel(30, 4, 222), trials=5, seed=9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_examples_capped_at_five(self):
        report = search_counterexamples(RandomModel(20, 6, 0), trials=40, seed=0)
        assert report.failures == 40
        assert len(report.examples) == 5

    def test_examples_replay(self):
        report = search_counterexamples(RandomModel(60, 10, 0), trials=8, seed=42)
        for case in report.examples:
            replayed = random_generalized(RandomModel(60, 10, case.seed))
            assert tuple(int(t) for t in replayed.terms) == case.terms
            again = verify_frontier(replayed)
            assert again.first_failure == (case.failure_order, case.failure_value)

    def test_dump_dir(self, tmp_path):
        target = tmp_path / "failures"
        report = search_counterexamples(
            RandomModel(10, 4, 0), trials=7, seed=5, dump_dir=target
        )
        files = sorted(target.iterdir())
        assert len(files) == len(report.examples)
        for case in report.examples:
            dumped = load_sequence(target / f"{case.seed}.txt")
            assert tuple(int(t) for t in dumped.terms) == case.terms

    def test_trial_seeds_follow_the_stream(self, monkeypatch):
        monkeypatch.setattr(verifier, "KEPT_FAILURES", 30)
        report = search_counterexamples(RandomModel(6, 4, 0), trials=30, seed=2**64 - 1)
        rng = oracle.SplitMix64(2**64 - 1)
        seeds = [rng.next_u64() for _ in range(30)]
        assert [case.seed for case in report.examples] == seeds
        for case in report.examples:
            assert list(case.terms) == oracle.random_generalized(6, 4, case.seed)

    def test_scan_depth_forwarded(self):
        report = search_counterexamples(
            RandomModel(10, 4, 0), trials=3, seed=5, scan_depth=7
        )
        assert report.scan_depth == 7

    @given(
        source=st.sampled_from(["walk", "primes", "bumped"]),
        n=st.integers(2, 40),
        g_max=st.sampled_from([2, 4, 6, 100, 2**61]),
        trials=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
        scan_depth=st.integers(1, 7),
        kept=st.integers(0, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_walk_search(self, source, n, g_max, trials, seed, scan_depth, kept):
        # today's walks fail every trial at row 1; the primes pass, so the
        # whole walk decides; bumped primes pass on the prefix and may fail
        # past it, or fall back to the sweep
        walk = {
            "walk": oracle.random_generalized,
            "primes": lambda n, g_max, seed: oracle.first_primes(n),
            "bumped": _bumped_primes(scan_depth),
        }[source]

        def draw(model):
            return Originator(walk(model.n, model.g_max, model.seed))

        expected = oracle.search(walk, n, g_max, trials, seed, scan_depth, kept)
        with mock.patch.object(verifier, "KEPT_FAILURES", kept), mock.patch.object(
            verifier, "random_generalized", random_generalized if source == "walk" else draw
        ):
            run = partial(
                search_counterexamples,
                RandomModel(n, g_max, 0),
                trials,
                seed,
                scan_depth=scan_depth,
            )
            if expected is None:
                with pytest.raises(Int64OverflowError):
                    run()
            else:
                assert run().to_json_dict() == expected

    @given(
        nm=st.integers(1, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        half_gap=st.one_of(
            st.integers(1, 50), st.integers(1, 2**62 - 1), st.just(2**64 // 5 + 1)
        ),
        seed=st.integers(0, 2**64 - 1),
        block=st.sampled_from([1, 2, 3, 1 << 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_shorter_walk_is_the_prefix(self, nm, half_gap, seed, block):
        # the property the shortcut rests on: a walk of m terms is the first m
        # terms of the longer walk on its seed, rejected draws and blocks included
        n, m = nm
        whole = oracle.random_generalized(n, 2 * half_gap, seed)
        with mock.patch.object(originator, "_DRAW_BLOCK", block):
            if max(whole[:m]) > 2**63 - 1:
                with pytest.raises(Int64OverflowError):
                    random_generalized(RandomModel(m, 2 * half_gap, seed))
            else:
                prefix = random_generalized(RandomModel(m, 2 * half_gap, seed))
                assert prefix.terms.tolist() == whole[:m]


class TestReportJson:
    def test_verify_schema(self):
        payload = verify_frontier(first_n_primes(50)).to_json_dict()
        assert list(payload) == [
            "n",
            "method",
            "all_ones",
            "max_order_checked",
            "first_failure",
            "stabilization_row",
            "elapsed_ms",
        ]
        assert payload["first_failure"] is None

    def test_verify_schema_without_timing(self):
        payload = verify_naive(ODD_ARITHMETIC).to_json_dict(timing=False)
        assert "elapsed_ms" not in payload
        assert payload["first_failure"] == [1, 2]

    def test_search_schema(self):
        report = search_counterexamples(RandomModel(4, 2, 0), trials=2, seed=0)
        payload = report.to_json_dict()
        assert payload["failure_orders"] == {"1": 2}
        assert len(payload["examples"]) == 2
        assert "elapsed_ms" not in payload
