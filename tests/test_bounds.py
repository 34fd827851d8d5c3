import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gapcircuit import (
    Originator,
    RandomModel,
    RangeError,
    build_circuit,
    check_average_trace_bound,
    check_circuit_bounds,
    check_length_bounds,
    check_monotone_length_decrease,
    check_small_segment_existence,
    check_strong_gilbreath,
    check_trace_circuit_theorem,
    check_trace_recurrence,
    check_trace_sum_identity,
    check_zero_existence,
    first_n_primes,
    random_generalized,
    render_sequence,
    run_all_checks,
    summarize,
)
from gapcircuit.bounds import is_equality_case

PRIMES5 = build_circuit(Originator([2, 3, 5, 7, 11]))
CONSTANT = build_circuit(Originator([4, 4, 4, 4]))


class TestLengthBounds:
    def test_primes_k2(self):
        r = check_length_bounds(PRIMES5, 2)
        assert (r.lhs, r.middle, r.rhs) == (1, 3, 6)
        assert r.holds and r.precondition_met

    def test_constant_any_k(self):
        for k in (1, 2, 3):
            r = check_length_bounds(CONSTANT, k)
            assert (r.lhs, r.middle, r.rhs) == (0, 0, 0)
            assert r.holds

    def test_single_segment_row(self):
        # row 0 of (0,1) has d_1 reachable only at index 1, so the lower
        # bound degenerates to |d_1 - d_1| = 0
        r = check_length_bounds(build_circuit(Originator([0, 1])), 1)
        assert (r.lhs, r.middle, r.rhs) == (0, 1, 1)
        assert r.holds

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            check_length_bounds(PRIMES5, 5)

    def test_upper_is_spread_times_steps(self):
        terms = [3, 1, 4, 1, 5, 9, 2, 6]
        c = build_circuit(Originator(terms))
        r = check_length_bounds(c, 3)
        assert r.rhs == (8 - 3) * oracle.row_maxima(terms)[2]
        assert r.lhs == oracle.edge_gap(terms, 3)


class TestSmallSegmentExistence:
    def test_primes_k2_cap2(self):
        r = check_small_segment_existence(PRIMES5, 2, 2)
        assert r.precondition_met
        assert r.holds
        assert r.witnesses == ((1, 1),)

    def test_generous_cap(self):
        r = check_small_segment_existence(PRIMES5, 1, 100)
        assert r.precondition_met and r.holds
        m, value = r.witnesses[0]
        assert value <= 100 and PRIMES5.row(1)[m - 1] == value

    def test_tight_cap_is_vacuous(self):
        r = check_small_segment_existence(PRIMES5, 1, 1)
        assert not r.precondition_met

    def test_cap_must_be_positive(self):
        with pytest.raises(RangeError):
            check_small_segment_existence(PRIMES5, 1, 0)

    def test_witness_rereads_from_circuit(self):
        c = build_circuit(first_n_primes(60))
        for k in range(1, 60):
            cap = max(int(c.row(k).max()), 1)
            r = check_small_segment_existence(c, k, cap)
            assert r.precondition_met
            m, value = r.witnesses[0]
            assert int(c.row(k)[m - 1]) == value <= cap


class TestMonotoneLengthDecrease:
    def test_primes_k1(self):
        r = check_monotone_length_decrease(PRIMES5, 1)
        assert r.precondition_met
        assert (r.lhs, r.rhs) == (3, 9)
        assert r.holds

    def test_constant_equality_case(self):
        r = check_monotone_length_decrease(CONSTANT, 1)
        assert r.precondition_met
        assert not r.holds
        assert r.extra["non_strict_holds"]
        assert is_equality_case(r)

    def test_hypothesis_failure_is_vacuous(self):
        # row 2 of the prime circuit contains 0 right before 2
        r = check_monotone_length_decrease(PRIMES5, 2)
        assert not r.precondition_met

    def test_nonzero_equality_case(self):
        # (1,3,5,9): row 2 = (0,2), row 3 = (2); lengths tie at 2
        c = build_circuit(Originator([1, 3, 5, 9]))
        r = check_monotone_length_decrease(c, 2)
        assert r.precondition_met
        assert r.lhs == r.rhs == 2
        assert is_equality_case(r)

    def test_order_range(self):
        with pytest.raises(RangeError):
            check_monotone_length_decrease(PRIMES5, 4)


class TestCircuitBounds:
    def test_hand_values(self):
        r = check_circuit_bounds(PRIMES5)
        assert (r.lhs, r.middle, r.rhs) == (3, 16, 27)
        assert r.holds

    def test_constant(self):
        r = check_circuit_bounds(CONSTANT)
        assert (r.lhs, r.middle, r.rhs) == (0, 0, 0)
        assert r.holds

    def test_zero_one_two(self):
        r = check_circuit_bounds(build_circuit(Originator([0, 1, 2])))
        assert (r.lhs, r.middle, r.rhs) == (1, 2, 2)
        assert r.holds

    def test_needs_three_terms(self):
        with pytest.raises(RangeError):
            check_circuit_bounds(build_circuit(Originator([0, 1])))

    def test_integral_term_against_oracle(self):
        terms = oracle.first_primes(40)
        c = build_circuit(Originator(terms))
        r = check_circuit_bounds(c)
        maxima = oracle.row_maxima(terms)
        assert r.rhs == sum(maxima) + oracle.panel_integral(terms)
        assert r.lhs == (40 - 2) * min(
            oracle.edge_gap(terms, k) for k in range(1, 39)
        )


class TestTraceRecurrence:
    def test_primes_s1(self):
        r = check_trace_recurrence(PRIMES5, 1)
        assert (r.lhs, r.rhs) == (8, 6)
        assert r.holds

    def test_primes_s3(self):
        r = check_trace_recurrence(PRIMES5, 3)
        terms = [2, 3, 5, 7, 11]
        rows = oracle.triangle_rows(terms)
        expected_rhs = (7 - 5) + rows[1][2] + oracle.tau(terms, 4)
        assert r.lhs == 2 * oracle.tau(terms, 3)
        assert r.rhs == expected_rhs
        assert r.holds

    def test_constant(self):
        r = check_trace_recurrence(CONSTANT, 1)
        assert (r.lhs, r.rhs) == (0, 0)
        assert r.holds

    def test_segment_range(self):
        with pytest.raises(RangeError):
            check_trace_recurrence(PRIMES5, 4)


class TestAverageTraceBound:
    def test_hand_values(self):
        r = check_average_trace_bound(PRIMES5)
        assert (r.lhs, r.middle, r.rhs) == (3, 16, 34)
        assert r.holds

    def test_witnesses(self):
        r = check_average_trace_bound(PRIMES5)
        (m_min, tau_min), (k_max, delta_max) = r.witnesses
        assert (m_min, tau_min) == (1, 4)
        assert (k_max, delta_max) == (1, 4)

    def test_constant(self):
        r = check_average_trace_bound(CONSTANT)
        assert (r.lhs, r.middle, r.rhs) == (0, 0, 0)

    def test_zero_two_four(self):
        terms = [0, 2, 4]
        r = check_average_trace_bound(build_circuit(Originator(terms)))
        maxima = oracle.row_maxima(terms)
        assert r.middle == sum(oracle.all_taus(terms))
        assert r.rhs == 2 * max(maxima) + oracle.panel_integral(terms)
        assert r.holds


class TestTraceCircuitTheorem:
    def test_hand_values(self):
        r = check_trace_circuit_theorem(PRIMES5)
        assert (r.lhs, r.rhs) == (20, 18)
        assert r.holds and r.precondition_met

    def test_constant_equality(self):
        r = check_trace_circuit_theorem(CONSTANT)
        assert r.lhs == r.rhs == 0
        assert r.holds

    def test_one_three_seven_equality(self):
        r = check_trace_circuit_theorem(build_circuit(Originator([1, 3, 7])))
        assert r.lhs == r.rhs == 12
        assert r.holds

    def test_decreasing_tail_flagged(self):
        r = check_trace_circuit_theorem(build_circuit(Originator([2, 9, 4])))
        assert not r.precondition_met


class TestZeroExistence:
    def test_primes_s2_vacuous(self):
        r = check_zero_existence(PRIMES5, 2)
        assert not r.precondition_met

    def test_constant_s1(self):
        r = check_zero_existence(CONSTANT, 1)
        assert r.precondition_met
        assert r.holds
        assert r.witnesses == ((1, 0),)

    def test_zero_one_one(self):
        c = build_circuit(Originator([0, 1, 1]))
        assert not check_zero_existence(c, 1).precondition_met
        r = check_zero_existence(c, 2)
        assert r.precondition_met and r.holds
        assert r.witnesses == ((1, 0),)

    def test_witness_is_smallest_order(self):
        c = build_circuit(Originator([5, 5, 1, 1, 9]))
        r = check_zero_existence(c, 1)
        t, value = r.witnesses[0]
        assert value == 0
        assert int(c.row(t)[0]) == 0
        assert all(int(c.row(u)[0]) != 0 for u in range(1, t))

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=25))
    @settings(max_examples=80)
    def test_matches_oracle_column(self, terms):
        c = build_circuit(Originator(terms))
        for s in range(1, c.n):
            column = oracle.column(terms, s)
            r = check_zero_existence(c, s)
            if 0 in column:
                t = column.index(0) + 1
                assert r.witnesses == ((t, 0),)
                assert r.lhs == min(column[:t]) == 0
            else:
                assert r.witnesses == ()
                assert r.lhs == min(column)
            assert r.holds == (0 in column)
            assert r.precondition_met == (sum(column) < len(column))


class TestStrongGilbreath:
    def test_primes(self):
        r = check_strong_gilbreath(PRIMES5)
        assert r.precondition_met and r.holds
        assert (r.lhs, r.rhs) == (4, 4)

    def test_constant_vacuous(self):
        r = check_strong_gilbreath(CONSTANT)
        assert not r.precondition_met
        assert not r.holds

    def test_zero_two_vacuous(self):
        r = check_strong_gilbreath(build_circuit(Originator([0, 2])))
        assert not r.precondition_met
        assert r.witnesses == ((1, 2),)

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=25))
    @settings(max_examples=80)
    def test_matches_oracle_leaders(self, terms):
        leaders = oracle.column(terms, 1)
        r = check_strong_gilbreath(build_circuit(Originator(terms)))
        bad = [(k, v) for k, v in enumerate(leaders, start=1) if v != 1]
        assert r.holds == (not bad)
        assert r.witnesses == tuple(bad[:1])
        assert r.precondition_met == (min(leaders) > 0 and sum(leaders) == len(leaders))

    def test_never_inconsistent_on_random_inputs(self):
        for seed in range(200):
            o = random_generalized(RandomModel(30, 8, seed))
            r = check_strong_gilbreath(build_circuit(o))
            assert not (r.precondition_met and not r.holds)


class TestTraceSumIdentity:
    def test_primes(self):
        r = check_trace_sum_identity(PRIMES5)
        assert r.lhs == r.rhs == 16
        assert r.holds

    def test_constant(self):
        r = check_trace_sum_identity(CONSTANT)
        assert r.lhs == r.rhs == 0

    def test_two_terms(self):
        r = check_trace_sum_identity(build_circuit(Originator([0, 1])))
        assert r.lhs == r.rhs == 1

    @given(st.lists(st.integers(-(10**9), 10**9), min_size=2, max_size=30))
    @settings(max_examples=60)
    def test_identity_everywhere(self, terms):
        r = check_trace_sum_identity(build_circuit(Originator(terms)))
        assert r.holds


class TestSuite:
    def test_prime_prefixes_have_no_failures(self):
        for n in (3, 10, 50, 100):
            reports = run_all_checks(build_circuit(first_n_primes(n)))
            summary = summarize(reports)
            assert summary["failed"] == 0
            assert summary["checked"] == len(reports)
            assert (
                summary["held"] + summary["vacuous"] + summary["failed"]
                == summary["checked"]
            )

    def test_two_term_circuit_runs_every_applicable_check(self):
        reports = run_all_checks(build_circuit(Originator([0, 1])))
        names = {r.name.split("(")[0] for r in reports}
        assert names == {
            "length_bounds",
            "small_segment_existence",
            "zero_existence",
            "strong_gilbreath",
            "trace_sum_identity",
        }

    def test_json_shape(self):
        payload = check_circuit_bounds(PRIMES5).to_json_dict()
        assert list(payload) == [
            "name",
            "lhs",
            "rhs",
            "middle",
            "holds",
            "precondition_met",
            "witnesses",
        ]

    def test_equality_counts_as_held_not_failed(self):
        reports = run_all_checks(CONSTANT)
        summary = summarize(reports)
        assert summary["failed"] == 0
        assert any(
            is_equality_case(r)
            for r in reports
            if r.name.startswith("monotone_length_decrease")
        )

    def test_random_generalized_nonvacuous_reports_hold(self, tmp_path):
        # 1000 sequences; any violating sequence gets dumped for replay
        for seed in range(1000):
            n = 2 + seed % 199
            g_max = 2 * (1 + seed % 10)
            o = random_generalized(RandomModel(n, g_max, seed))
            summary = summarize(run_all_checks(build_circuit(o)))
            if summary["failed"]:
                destination = tmp_path / f"bounds-counterexample-{seed}.txt"
                destination.write_text(render_sequence(o))
                raise AssertionError(
                    f"non-vacuous failure for seed {seed}; sequence dumped "
                    f"to {destination}"
                )
