import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gapcircuit import (
    Int64OverflowError,
    Originator,
    Path,
    RangeError,
    build_circuit,
    circuit_length,
    derive,
    first_n_primes,
    path_length,
    path_lengths,
    path_of_order,
    total_maximal_steps,
    trace,
    traces,
    trivial_path,
)

PRIMES5 = Originator([2, 3, 5, 7, 11])

terms_strategy = st.lists(
    st.integers(-(10**15), 10**15), min_size=2, max_size=40
)


class TestPathType:
    def test_trivial_path_is_order_zero(self):
        p = trivial_path(Originator([5, -2, 9]))
        assert p.order == 0
        assert p.steps == 3
        assert list(p.segments) == [5, -2, 9]

    def test_negative_segments_only_at_order_zero(self):
        with pytest.raises(RangeError):
            Path(order=1, segments=[1, -1])

    def test_order_must_be_nonnegative(self):
        with pytest.raises(RangeError):
            Path(order=-1, segments=[1])

    def test_at_least_one_segment(self):
        with pytest.raises(RangeError):
            Path(order=2, segments=[])

    def test_segments_read_only(self):
        p = Path(order=1, segments=[3, 1])
        with pytest.raises(ValueError):
            p.segments[0] = 7


class TestDerive:
    def test_first_derivation_of_primes(self):
        p = derive(trivial_path(PRIMES5))
        assert p == Path(order=1, segments=[1, 2, 2, 4])

    def test_constant_row(self):
        p = derive(Path(order=1, segments=[4, 4, 4]))
        assert p == Path(order=2, segments=[0, 0])

    def test_single_step_has_no_derivation(self):
        with pytest.raises(RangeError):
            derive(Path(order=1, segments=[5]))

    def test_negative_terms(self):
        p = derive(Path(order=0, segments=[-3, 4, -5]))
        assert list(p.segments) == [7, 9]

    def test_overflow_in_first_derivation(self):
        with pytest.raises(Int64OverflowError):
            derive(Path(order=0, segments=[-(1 << 62), 1 << 62]))

    def test_extreme_but_representable_difference(self):
        # |max - min| is exactly the largest int64 value: still fine
        p = derive(Path(order=0, segments=[(1 << 62) - 1, -(1 << 62)]))
        assert int(p.segments[0]) == (1 << 63) - 1

    @given(terms_strategy)
    @settings(max_examples=80)
    def test_matches_oracle(self, terms):
        got = derive(Path(order=0, segments=terms))
        assert list(got.segments) == oracle.triangle_rows(terms)[0]

    @given(terms_strategy)
    @settings(max_examples=40)
    def test_deterministic(self, terms):
        p = Path(order=0, segments=terms)
        assert derive(p) == derive(p)


class TestPathOfOrder:
    def test_order_two(self):
        assert list(path_of_order(PRIMES5, 2).segments) == [1, 0, 2]

    def test_order_four(self):
        assert list(path_of_order(PRIMES5, 4).segments) == [1]

    def test_two_terms(self):
        assert list(path_of_order(Originator([9, 4]), 1).segments) == [5]

    def test_order_out_of_range(self):
        with pytest.raises(RangeError):
            path_of_order(PRIMES5, 0)
        with pytest.raises(RangeError):
            path_of_order(PRIMES5, 5)

    def test_equals_repeated_derive(self):
        p = trivial_path(PRIMES5)
        for k in range(1, 5):
            p = derive(p)
            assert path_of_order(PRIMES5, k) == p

    @given(terms_strategy)
    @settings(max_examples=60)
    def test_step_count_law(self, terms):
        o = Originator(terms)
        for k in (1, max(1, o.n // 2), o.n - 1):
            assert path_of_order(o, k).steps == o.n - k


class TestCircuit:
    def test_hand_rows(self):
        c = build_circuit(PRIMES5)
        expected = [[1, 2, 2, 4], [1, 0, 2], [1, 2], [1]]
        assert [c.row(k).tolist() for k in range(1, 5)] == expected

    def test_row_zero_is_the_originator(self):
        c = build_circuit(PRIMES5)
        assert c.row(0).tolist() == [2, 3, 5, 7, 11]

    def test_constant_originator(self):
        c = build_circuit(Originator([4, 4, 4]))
        assert c.row(1).tolist() == [0, 0]
        assert c.row(2).tolist() == [0]

    def test_two_terms(self):
        c = build_circuit(Originator([0, 1]))
        assert c.row(1).tolist() == [1]

    def test_single_term_rejected(self):
        with pytest.raises(RangeError):
            build_circuit(Originator([7]))

    def test_row_index_out_of_range(self):
        c = build_circuit(PRIMES5)
        with pytest.raises(RangeError):
            c.row(5)
        with pytest.raises(RangeError):
            c.row(-1)

    def test_rows_read_only(self):
        c = build_circuit(PRIMES5)
        with pytest.raises(ValueError):
            c.row(1)[0] = 3

    def test_segment_accessor(self):
        c = build_circuit(PRIMES5)
        assert c.segment(2, 1) == 2
        assert c.segment(3, 2) == 2
        with pytest.raises(RangeError):
            c.segment(4, 2)

    def test_path_accessor_matches_rows(self):
        c = build_circuit(PRIMES5)
        p = c.path(2)
        assert p.order == 2 and p.steps == 3

    def test_segment_count_matches_step_law(self):
        for n in (2, 3, 7, 20):
            c = build_circuit(first_n_primes(n))
            assert c.segment_count == total_maximal_steps(n)
            assert all(len(c.row(k)) == n - k for k in range(1, n))

    @given(terms_strategy)
    @settings(max_examples=80)
    def test_rows_match_oracle(self, terms):
        c = build_circuit(Originator(terms))
        assert [c.row(k).tolist() for k in range(1, c.n)] == oracle.triangle_rows(terms)

    @given(terms_strategy)
    @settings(max_examples=80)
    def test_columns_match_oracle(self, terms):
        c = build_circuit(Originator(terms))
        for s in range(1, c.n):
            assert c.column(s).tolist() == oracle.column(terms, s)
            assert trace(c, s) == oracle.tau(terms, s)

    def test_column_index_out_of_range(self):
        c = build_circuit(PRIMES5)
        assert c.column(4).tolist() == [4]
        with pytest.raises(RangeError):
            c.column(0)
        with pytest.raises(RangeError):
            c.column(5)

    @given(terms_strategy)
    @settings(max_examples=40)
    def test_truncation_consistency(self, terms):
        # the triangle of a prefix is the prefix of the triangle
        whole = build_circuit(Originator(terms))
        m = max(2, len(terms) - 3)
        part = build_circuit(Originator(terms[:m]))
        for k in range(1, m):
            assert part.row(k).tolist() == whole.row(k)[: m - k].tolist()


class TestStatistics:
    def test_path_length_examples(self):
        assert path_length(Path(order=1, segments=[1, 2, 2, 4])) == 9
        assert path_length(Path(order=3, segments=[0, 0])) == 0
        assert path_length(Path(order=4, segments=[1])) == 1

    def test_circuit_length_examples(self):
        assert circuit_length(build_circuit(PRIMES5)) == 16
        assert circuit_length(build_circuit(Originator([4, 4, 4]))) == 0
        assert circuit_length(build_circuit(Originator([0, 1]))) == 1

    def test_path_lengths_vector(self):
        assert path_lengths(build_circuit(PRIMES5)) == [9, 3, 3, 1]

    def test_trace_examples(self):
        c = build_circuit(PRIMES5)
        assert trace(c, 1) == 4
        assert trace(c, 2) == 4
        assert all(trace(build_circuit(Originator([4, 4, 4])), s) == 0 for s in (1, 2))

    def test_trace_out_of_range(self):
        c = build_circuit(PRIMES5)
        with pytest.raises(RangeError):
            trace(c, 0)
        with pytest.raises(RangeError):
            trace(c, 5)

    def test_traces_vector(self):
        assert traces(build_circuit(PRIMES5)) == [4, 4, 4, 4]

    def test_total_maximal_steps(self):
        assert total_maximal_steps(5) == 10
        assert total_maximal_steps(1) == 0
        assert total_maximal_steps(2) == 1
        with pytest.raises(RangeError):
            total_maximal_steps(0)

    def test_statistic_sum_overflow(self):
        big = (1 << 62) - 1
        o = Originator([0, big, 0, big, 0])
        c = build_circuit(o)
        with pytest.raises(Int64OverflowError):
            circuit_length(c)

    def test_trace_overflow(self):
        # Column 1 is 2^62, 0, 2^62; column 3 is a single 0.
        c = build_circuit(Originator([0, 2**62, 0, 0]))
        message = (
            f"trace {2**63} exceeds the signed 64-bit range; "
            f"use a smaller or flatter originator"
        )
        with pytest.raises(Int64OverflowError) as exc:
            trace(c, 1)
        assert str(exc.value) == message
        with pytest.raises(Int64OverflowError) as exc:
            traces(c)
        assert str(exc.value) == message
        assert trace(c, 3) == 0

    def test_path_length_overflow(self):
        big = (1 << 62) - 1
        p = Path(order=1, segments=[big, big, big])
        with pytest.raises(Int64OverflowError):
            path_length(p)

    @given(terms_strategy)
    @settings(max_examples=80)
    def test_statistics_match_oracle(self, terms):
        c = build_circuit(Originator(terms))
        assert circuit_length(c) == oracle.kappa(terms)
        assert traces(c) == oracle.all_taus(terms)
        assert path_lengths(c) == [oracle.iota(r) for r in oracle.triangle_rows(terms)]

    @given(terms_strategy)
    @settings(max_examples=80)
    def test_trace_sum_identity(self, terms):
        c = build_circuit(Originator(terms))
        assert circuit_length(c) == sum(traces(c))
