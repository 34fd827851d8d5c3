from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from gapcircuit import triangle
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
from gapcircuit.triangle import (
    CIRCUIT_CELL_LIMIT,
    _blocks,
    _rows,
    _StreamedCircuit,
    _Summary,
    _summarize_rows,
)

PRIMES5 = Originator([2, 3, 5, 7, 11])

terms_strategy = st.lists(
    st.integers(-(10**15), 10**15), min_size=2, max_size=40
)

I64_MAX = 2**63 - 1

# Terms at the int64 edge: wide signed, wide nonnegative, and one 2^62 spike
# among small terms.
edge_terms_strategy = st.one_of(
    st.lists(st.integers(-(2**62), 2**62), min_size=2, max_size=30),
    st.lists(st.integers(0, 2**62), min_size=2, max_size=30),
    st.lists(st.integers(0, 100), min_size=2, max_size=30).flatmap(
        lambda small: st.integers(0, len(small) - 1).map(
            lambda at: small[:at] + [2**62] + small[at + 1 :]
        )
    ),
)


def overflow_message(what, total):
    return (
        f"{what} {total} exceeds the signed 64-bit range; "
        f"use a smaller or flatter originator"
    )


def assert_exact(read, totals, what):
    """read() returns the oracle totals, or raises naming the first outside int64."""
    outside = [t for t in totals if not -(2**63) <= t <= I64_MAX]
    if outside:
        with pytest.raises(Int64OverflowError) as exc:
            read()
        assert str(exc.value) == overflow_message(what, outside[0])
    else:
        got = read()
        assert (got if isinstance(got, list) else [got]) == totals


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

    @given(st.lists(st.integers(-(2**63), I64_MAX), min_size=2, max_size=12))
    @settings(max_examples=300)
    def test_full_int64_range_matches_oracle(self, terms):
        # Any int64 pair whose absolute difference leaves int64 is reported,
        # the first one in order; every other first row is exact.
        expected = oracle.triangle_rows(terms)[0]
        p = Path(order=0, segments=terms)
        outside = [i for i, d in enumerate(expected) if d > I64_MAX]
        if outside:
            i = outside[0]
            with pytest.raises(Int64OverflowError) as exc:
                derive(p)
            assert str(exc.value) == (
                f"segment |{terms[i + 1]} - {terms[i]}| does not fit "
                f"in a signed 64-bit integer"
            )
        else:
            assert derive(p).segments.tolist() == expected

    @pytest.mark.parametrize(
        "terms",
        [[0, -(2**63)], [-(2**63), 0], [-1, I64_MAX], [I64_MAX, -1], [5, 6, -(2**63), 1]],
    )
    def test_difference_of_two_to_the_63(self, terms):
        # 2^63 wraps to -2^63 in int64, and -2^63 has no int64 absolute value.
        with pytest.raises(Int64OverflowError):
            derive(Path(order=0, segments=terms))

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
        # The cached tally keeps the exact totals: reads still fail or pass alike.
        with pytest.raises(Int64OverflowError) as exc:
            trace(c, 1)
        assert str(exc.value) == message
        with pytest.raises(Int64OverflowError) as exc:
            path_lengths(c)
        assert str(exc.value) == overflow_message("path length", 2**63)
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

    @given(edge_terms_strategy)
    @settings(max_examples=150)
    def test_statistics_at_int64_edge(self, terms):
        rows = oracle.triangle_rows(terms)
        if max(rows[0]) > I64_MAX:
            with pytest.raises(Int64OverflowError):
                build_circuit(Originator(terms))
            return
        c = build_circuit(Originator(terms))
        iotas = [oracle.iota(r) for r in rows]
        assert_exact(lambda: path_lengths(c), iotas, "path length")
        assert_exact(lambda: traces(c), oracle.all_taus(terms), "trace")
        for s in range(1, c.n):
            assert_exact(lambda: trace(c, s), [oracle.tau(terms, s)], "trace")
        for k in range(1, c.n):
            assert_exact(lambda: path_length(c.path(k)), [iotas[k - 1]], "path length")
        seed_path = trivial_path(c.originator)
        assert_exact(lambda: path_length(seed_path), [sum(terms)], "path length")
        assert_exact(lambda: circuit_length(c), [oracle.kappa(terms)], "circuit length")

    def test_wide_walk_traces_fit_where_bound_does_not(self):
        # (n-1) * max(row 1) leaves int64, every trace stays inside it, and
        # some path lengths and the circuit length leave it.
        rng = np.random.default_rng(55)
        terms = np.cumsum(rng.integers(-(2**55), 2**55, 3000)).tolist()
        sums, taus = oracle.row_sums_and_traces(terms)
        row_1_max = max(abs(b - a) for a, b in zip(terms, terms[1:]))
        assert (len(terms) - 1) * row_1_max > I64_MAX
        assert max(taus) <= I64_MAX < max(sums)
        c = build_circuit(Originator(terms))
        assert traces(c) == taus
        assert [trace(c, s) for s in range(1, c.n)] == taus
        assert_exact(lambda: path_lengths(c), sums, "path length")
        assert_exact(lambda: circuit_length(c), [sum(sums)], "circuit length")

    @given(terms_strategy)
    @settings(max_examples=80)
    def test_trace_sum_identity(self, terms):
        c = build_circuit(Originator(terms))
        assert circuit_length(c) == sum(traces(c))


def streamed(terms):
    return _StreamedCircuit(Originator(terms))


def outcome(read):
    """read()'s value, or the type and message of the error it raises."""
    try:
        return read()
    except (Int64OverflowError, RangeError) as exc:
        return type(exc), str(exc)


class TestStreamedTally:
    """The totals of streamed rows equal the circuit's and the oracle's."""

    def assert_tallies_agree(self, terms):
        totals = streamed(terms)._summary(checks=False)
        assert totals == build_circuit(Originator(terms))._summary(checks=False)
        assert (totals.row_sums, totals.traces) == oracle.row_sums_and_traces(terms)
        assert streamed(terms)._summary().row_maxima == oracle.row_maxima(terms)

    @given(terms_strategy)
    @settings(max_examples=80)
    def test_matches_circuit_and_oracle(self, terms):
        self.assert_tallies_agree(terms)

    @given(edge_terms_strategy)
    @settings(max_examples=150)
    def test_matches_at_int64_edge(self, terms):
        if max(oracle.triangle_rows(terms)[0]) > I64_MAX:
            return
        self.assert_tallies_agree(terms)

    @pytest.mark.parametrize(
        "terms", [[9, 4], [2, 3, 5], [-7, 7], [0, 0], [4, 4, 4], [5] * 6, [-(2**62)] * 4]
    )
    def test_small_and_constant(self, terms):
        self.assert_tallies_agree(terms)

    @pytest.mark.parametrize(
        "terms", [[0, 2**31 - 1, 0], [0, 2**31, 0], [0, 2**40, -3, 2**40 + 4, -4]]
    )
    def test_rows_below_and_above_one_limb(self, terms):
        self.assert_tallies_agree(terms)

    @given(st.integers(31, 61), st.lists(st.integers(0, 100), min_size=2, max_size=30))
    @settings(max_examples=80)
    def test_wide_row_above_narrow_rows(self, bits, small):
        # Row 1 is 2^bits + small, alternating in sign; rows 2.. are small.
        steps = [(2**bits + d) * (-1) ** i for i, d in enumerate(small)]
        self.assert_tallies_agree(np.cumsum([0] + steps).tolist())

    def test_wide_walk(self):
        # Traces fit in int64 and path lengths do not: both sources say so alike.
        rng = np.random.default_rng(55)
        terms = np.cumsum(rng.integers(-(2**55), 2**55, 3000)).tolist()
        self.assert_tallies_agree(terms)
        self.assert_reads_agree(terms)
        assert outcome(lambda: path_lengths(streamed(terms)))[0] is Int64OverflowError

    def assert_reads_agree(self, terms):
        """Each statistic, or the error reading it raises, is the same from both."""
        s = streamed(terms)
        c = outcome(lambda: build_circuit(Originator(terms)))
        if isinstance(c, tuple):
            # The first derivation overflows: every read of the stream says so.
            assert c[0] is Int64OverflowError
            for read in (path_lengths, traces, circuit_length):
                assert outcome(lambda: read(s)) == c
            return
        for read in (path_lengths, traces, circuit_length):
            assert outcome(lambda: read(s)) == outcome(lambda: read(c))
        for k in range(1, s.n):
            assert outcome(lambda: trace(s, k)) == outcome(lambda: trace(c, k))

    @given(edge_terms_strategy)
    @settings(max_examples=150)
    def test_reads_match_circuit_at_int64_edge(self, terms):
        self.assert_reads_agree(terms)

    @pytest.mark.parametrize(
        "terms",
        [
            [0, (1 << 62) - 1, 0, (1 << 62) - 1, 0],
            [0, 2**62, 0, 0],
            [-(1 << 62), 1 << 62],
            [0, -(2**63)],
            [5, 6, -(2**63), 1],
        ],
    )
    def test_reads_match_circuit_on_overflow_inputs(self, terms):
        self.assert_reads_agree(terms)

    def test_rows_stream_in_one_buffer(self):
        rows = _rows(PRIMES5)
        bases = set()
        got = []
        for row in rows:
            got.append(row.tolist())
            bases.add(id(row.base if row.base is not None else row))
        assert got == [[1, 2, 2, 4], [1, 0, 2], [1, 2], [1]]
        assert len(bases) == 1


def terms_at_bound(total):
    """n terms in [0, M1] whose row 1 reaches M1, for each n with M1 (n - 1) = total."""
    widths = [w for w in range(1, 80) if total % w == 0 and total // w <= I64_MAX]

    def terms(w):
        top = total // w
        value = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
        rest = st.lists(value, min_size=w - 1, max_size=w - 1)
        # The pair 0, M1 makes M1 row 1's maximum.
        at = st.integers(0, w - 1)
        return st.builds(lambda rest, at: rest[:at] + [0, top] + rest[at:], rest, at)

    return st.sampled_from(widths).flatmap(terms)


class TestExactBound:
    """Rows go straight into int64 when M1 (n - 1) <= I64_MAX, else into limbs; both are exact."""

    @given(st.one_of(terms_at_bound(I64_MAX), terms_at_bound(I64_MAX + 1)), st.booleans())
    @example([0, (I64_MAX + 1) // 8] * 4 + [0], False)
    @example([0, (I64_MAX + 1) // 8] * 4 + [0], True)
    @example([0, I64_MAX // 7] * 4, False)
    @example([0, I64_MAX], True)
    @settings(max_examples=200)
    def test_matches_oracle(self, terms, checks):
        summary = _summarize_rows(Originator(terms), checks)
        assert (summary.row_sums, summary.traces) == oracle.row_sums_and_traces(terms)
        assert summary.row_maxima == (oracle.row_maxima(terms) if checks else None)


class TestSummary:
    """The summary of streamed rows equals the circuit's and the oracle's."""

    def assert_summaries_agree(self, terms):
        s = streamed(terms)._summary()
        assert s == build_circuit(Originator(terms))._summary()
        assert streamed(terms)._summary(checks=False) == _Summary(s.row_sums, s.traces)
        edges = oracle.row_edges(terms)
        assert s.row_minima == [e[0] for e in edges]
        assert s.firsts == [e[1] for e in edges]
        assert s.second_lasts == [e[2] for e in edges[:-1]]
        assert s.lasts == [e[3] for e in edges]
        assert s.narrowing == oracle.narrowing(terms)
        assert list(zip(s.column_minima, s.column_argmins)) == oracle.column_minima(terms)

    @given(terms_strategy)
    @settings(max_examples=80)
    def test_matches_circuit_and_oracle(self, terms):
        self.assert_summaries_agree(terms)

    @given(edge_terms_strategy)
    @settings(max_examples=150)
    def test_matches_at_int64_edge(self, terms):
        if max(oracle.triangle_rows(terms)[0]) > I64_MAX:
            return
        self.assert_summaries_agree(terms)

    @pytest.mark.parametrize(
        "terms",
        [[9, 4], [2, 3, 5], [0, 0], [4, 4, 4], [5] * 6, [0, 2**63 - 1, 0], [2**63 - 1, 0, 2**63 - 1]],
    )
    def test_small_constant_and_extreme(self, terms):
        # A column whose minimum is 2^63 - 1 keeps row 1 as its first.
        self.assert_summaries_agree(terms)

    def test_full_summary_serves_stats_reads(self, monkeypatch):
        s = streamed(oracle.first_primes(50))
        summary = s._summary()
        monkeypatch.setattr(triangle, "_summarize_rows", None)
        assert s._summary(checks=False) is summary

    def test_overflow_raises_at_first_read(self):
        s = streamed([5, 6, -(2**63), 1])
        with pytest.raises(Int64OverflowError, match=r"segment \|-9223372036854775808 - 6\|"):
            s._summary()


def oracle_summary(terms, checks):
    """The summary of ``terms`` as the oracle computes it, row by row."""
    sums, taus = oracle.row_sums_and_traces(terms)
    if not checks:
        return _Summary(sums, taus)
    edges = oracle.row_edges(terms)
    minima = oracle.column_minima(terms)
    return _Summary(
        sums,
        taus,
        oracle.row_maxima(terms),
        [e[0] for e in edges],
        [e[1] for e in edges],
        [e[2] for e in edges[:-1]],
        [e[3] for e in edges],
        oracle.narrowing(terms),
        [least for least, _ in minima],
        [first for _, first in minima],
    )


class TestBlockPass:
    """The summary pass agrees with the oracle whatever the block height:
    blocks of 1 to 7 rows, cut anywhere in the triangle, on the exact and the
    limb sums, with the check fields asked for first or after the totals."""

    @given(
        st.one_of(
            terms_strategy,
            edge_terms_strategy,
            terms_at_bound(I64_MAX + 1),
            st.tuples(st.integers(-(2**63), I64_MAX), st.integers(2, 20)).map(
                lambda c: [c[0]] * c[1]
            ),
        ),
        st.integers(1, 7),
        st.booleans(),
    )
    @example([5, 9], 1, False)
    @example([5, 9, 2], 3, True)
    @example(list(range(0, 80, 10)), 2, True)
    @example(oracle.first_primes(12), 1, True)
    @example(oracle.first_primes(9), 3, False)
    @example([0, 2**62, 0, 2**62, 0], 2, True)
    @example([0, 2**63 - 1, -1], 2, False)
    @example([0, 2**63 - 1, 2**63 - 1, 0], 1, True)
    @example([0, 2**63 - 1, 2**63 - 1, 0], 2, True)
    @settings(max_examples=300)
    def test_matches_oracle(self, terms, height, totals_first):
        s = streamed(terms)
        with mock.patch.object(triangle, "_block_height", lambda width: height):
            if max(oracle.triangle_rows(terms)[0]) > I64_MAX:
                for checks in (False, True):
                    with pytest.raises(Int64OverflowError):
                        s._summary(checks)
                return
            if totals_first:
                assert s._summary(checks=False) == oracle_summary(terms, False)
            assert s._summary() == oracle_summary(terms, True)

    @pytest.mark.parametrize("width", [1, 2, 3, 1000, triangle._BLOCK_CELLS // 2 + 1, 10**6])
    @pytest.mark.parametrize("checks, least", [(False, 2), (True, 2)])
    def test_block_height(self, width, checks, least):
        # As many rows as fit in _BLOCK_CELLS, and the least height when fewer
        # do: the summary pass reads the same blocks with or without checks.
        height = triangle._block_height(width)
        assert height * width <= max(triangle._BLOCK_CELLS, least * width) < (height + 1) * width

        shapes = []

        def first_block(o):
            block, ends = next(_blocks(o))
            shapes.append(block.shape)
            yield block, ends

        with mock.patch.object(triangle, "_blocks", first_block):
            _summarize_rows(Originator(np.arange(width + 1) ** 2), checks)
        assert shapes == [(min(width, height), width)]


class TestSmallBlocks:
    """The block stream with ``_BLOCK_CELLS`` cut to 4..64 cells, read by the
    summary and by the rows: rows wider than half a block leave the buffer
    two rows long."""

    @given(
        st.one_of(
            terms_strategy,
            edge_terms_strategy,
            terms_at_bound(I64_MAX + 1),
            st.tuples(st.integers(-(2**63), I64_MAX), st.integers(2, 20)).map(
                lambda c: [c[0]] * c[1]
            ),
        ),
        st.integers(4, 64),
    )
    @example(oracle.first_primes(12), 4)
    @example(oracle.first_primes(40), 17)
    @example([0, 2**62, 0, 2**62, 0], 5)
    @example([0, 2**63 - 1, -1], 4)
    @settings(max_examples=300)
    def test_matches_oracle(self, terms, cells):
        o = Originator(terms)
        with mock.patch.object(triangle, "_BLOCK_CELLS", cells):
            if max(oracle.triangle_rows(terms)[0]) > I64_MAX:
                for checks in (False, True):
                    with pytest.raises(Int64OverflowError):
                        _summarize_rows(o, checks)
                with pytest.raises(Int64OverflowError):
                    next(_rows(o))
                return
            for checks in (False, True):
                assert _summarize_rows(o, checks) == oracle_summary(terms, checks)
            assert [row.tolist() for row in _rows(o)] == oracle.triangle_rows(terms)

    @given(st.integers(4, 64), st.integers(1, 40))
    @example(4, 1)
    @example(64, 1)
    @settings(max_examples=100)
    def test_every_block_at_the_front(self, cells, wider):
        # Rows wider than a block: every block starts at the buffer's first
        # cell and holds two rows or more, so its last row lies past the next
        # block's first.
        o = Originator(oracle.first_primes(cells + 1 + wider))
        width = o.n - 1
        with mock.patch.object(triangle, "_BLOCK_CELLS", cells):
            for block, _ in _blocks(o):
                height = len(block)
                assert block.shape[1] == width
                assert block.ctypes.data == block.base.ctypes.data
                assert min(width, 2) <= height <= width
                assert height * width <= max(cells, 2 * width)
                width -= height
        assert width == 0


class TestCircuitCellLimit:
    def test_refused_before_allocating(self, monkeypatch):
        o = Originator(np.arange(30000))

        def refuse(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(RangeError) as exc:
            build_circuit(o)
        assert str(exc.value) == (
            "a circuit of 30000 terms would hold 449985000 cells, over the limit "
            f"of {CIRCUIT_CELL_LIMIT}"
        )

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(triangle, "CIRCUIT_CELL_LIMIT", 10)
        assert build_circuit(PRIMES5).segment_count == 10
        with pytest.raises(RangeError, match="6 terms would hold 15 cells"):
            build_circuit(first_n_primes(6))
