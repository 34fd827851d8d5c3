import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gapcircuit import verifier
from gapcircuit import (
    Originator,
    RandomModel,
    RangeError,
    first_n_primes,
    load_sequence,
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


def _with_row1_max(peak):
    """400 prime-based terms whose first row peaks at exactly ``peak``, at column 299."""
    primes = list(first_n_primes(400))
    shift = peak - (primes[300] - primes[299])
    return primes[:300] + [p + shift for p in primes[300:]]


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
    @pytest.mark.parametrize("tile", [64, verifier.TILE_COLUMNS])
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
