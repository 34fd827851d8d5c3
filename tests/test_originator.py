import io
import re
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gapcircuit import (
    EmptyInputError,
    Int64OverflowError,
    Originator,
    RandomModel,
    RangeError,
    SequenceParseError,
    SieveBudgetError,
    dump_sequence,
    first_n_primes,
    load_sequence,
    primes_up_to,
    random_generalized,
    render_sequence,
)
from gapcircuit import originator, sieve
from gapcircuit.sieve import BUDGET_ENV_VAR, sieve_budget_bytes

I64_MAX = (1 << 63) - 1


def assert_model_matches_reference(n, g_max, seed):
    expected = oracle.random_generalized(n, g_max, seed)
    model = RandomModel(n, g_max, seed)
    if expected[-1] > I64_MAX:
        with pytest.raises(Int64OverflowError):
            random_generalized(model)
    else:
        assert list(random_generalized(model)) == expected


class TestOriginatorType:
    def test_terms_are_read_only_int64(self):
        o = Originator([3, 1, 4])
        assert o.terms.dtype == np.int64
        with pytest.raises(ValueError):
            o.terms[0] = 9

    def test_read_only_owner_not_copied(self):
        values = np.array([2, 3, 5, 7], dtype=np.int64)
        values.setflags(write=False)
        assert Originator(values).terms is values
        primes = sieve.first_n_primes_array(100)
        assert Originator(primes).terms is primes

    def test_writable_array_copied(self):
        values = np.array([2, 3, 5, 7], dtype=np.int64)
        o = Originator(values)
        assert not np.shares_memory(o.terms, values)
        values[0] = 99
        assert list(o) == [2, 3, 5, 7]

    def test_read_only_view_of_writable_base_copied(self):
        base = np.array([1, 2, 3, 5, 7, 11], dtype=np.int64)
        view = base[1:5]
        view.setflags(write=False)
        o = Originator(view)
        assert not np.shares_memory(o.terms, base)
        base[1] = 99
        assert list(o) == [2, 3, 5, 7]

    def test_empty_rejected(self):
        with pytest.raises(RangeError):
            Originator([])

    def test_negative_and_unsorted_allowed(self):
        o = Originator([10, -4, 7])
        assert list(o) == [10, -4, 7]
        assert o.n == 3

    def test_term_out_of_64_bits_rejected(self):
        with pytest.raises(Int64OverflowError):
            Originator([0, 1 << 63])

    def test_equality_by_value(self):
        assert Originator([2, 3, 5]) == Originator(np.array([2, 3, 5]))
        assert Originator([2, 3]) != Originator([2, 3, 5])


class TestPrimes:
    def test_first_five(self):
        assert list(first_n_primes(5)) == [2, 3, 5, 7, 11]

    def test_single(self):
        assert list(first_n_primes(1)) == [2]

    def test_millionth_prime(self):
        o = first_n_primes(10**6)
        assert o.n == 10**6
        assert int(o.terms[-1]) == 15485863

    def test_up_to_11(self):
        assert list(primes_up_to(11)) == [2, 3, 5, 7, 11]

    def test_up_to_2(self):
        assert list(primes_up_to(2)) == [2]

    def test_count_to_1e8(self):
        assert primes_up_to(10**8).n == 5761455

    def test_limit_below_2_rejected(self):
        with pytest.raises(RangeError):
            primes_up_to(1)

    def test_zero_count_rejected(self):
        with pytest.raises(RangeError):
            first_n_primes(0)

    def test_agrees_with_trial_division(self):
        assert list(first_n_primes(200)) == oracle.first_primes(200)
        assert list(primes_up_to(3000)) == oracle.primes_below(3000)

    def test_agrees_with_sympy(self):
        # independent oracle for the big frozen values above
        assert sympy.prime(10**6) == 15485863
        assert sympy.primepi(10**8) == 5761455

    def test_prefix_property(self):
        longer = list(first_n_primes(501))
        assert list(first_n_primes(500)) == longer[:-1]

    def test_factories_agree(self):
        by_count = first_n_primes(1229)
        by_limit = primes_up_to(10**4)
        assert by_count == by_limit

    def test_budget_error(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "1024")
        with pytest.raises(SieveBudgetError):
            first_n_primes(10**6)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "4096")
        assert sieve_budget_bytes() == 4096
        with pytest.raises(SieveBudgetError):
            first_n_primes(10**6)

    def test_bad_budget_env(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
        with pytest.raises(SieveBudgetError):
            sieve_budget_bytes()


class TestRandomGeneralized:
    def test_length_one(self):
        assert list(random_generalized(RandomModel(1, 2, 99))) == [1]

    def test_gap_two_is_odd_arithmetic(self):
        assert list(random_generalized(RandomModel(4, 2, 5))) == [1, 3, 5, 7]

    def test_structure(self):
        o = random_generalized(RandomModel(100, 6, 42))
        terms = list(o)
        assert terms[0] == 1
        gaps = [b - a for a, b in zip(terms, terms[1:])]
        assert all(g in (2, 4, 6) for g in gaps)

    def test_deterministic(self):
        a = random_generalized(RandomModel(50, 10, 7))
        b = random_generalized(RandomModel(50, 10, 7))
        assert a == b

    def test_seed_changes_sequence(self):
        a = random_generalized(RandomModel(50, 10, 7))
        b = random_generalized(RandomModel(50, 10, 8))
        assert a != b

    def test_odd_gap_rejected(self):
        with pytest.raises(RangeError):
            RandomModel(10, 3, 0)

    def test_zero_gap_rejected(self):
        with pytest.raises(RangeError):
            RandomModel(10, 0, 0)

    def test_bad_seed_rejected(self):
        with pytest.raises(RangeError):
            RandomModel(10, 2, -1)

    @given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 2**64 - 1))
    def test_gaps_even_and_bounded(self, n, half_gap, seed):
        g_max = 2 * half_gap
        terms = list(random_generalized(RandomModel(n, g_max, seed)))
        assert len(terms) == n
        for a, b in zip(terms, terms[1:]):
            assert b > a
            assert (b - a) % 2 == 0
            assert b - a <= g_max

    def test_largest_gap_draws(self):
        for seed in range(50):
            assert_model_matches_reference(2, 2**63 - 2, seed)

    @pytest.mark.parametrize("g_max", [2**63, 2**64, 2**66])
    def test_gap_beyond_int64_rejected(self, g_max):
        with pytest.raises(RangeError):
            RandomModel(2, g_max, 0)

    def test_overflow_rejected(self):
        # n - 1 gaps of at least 2 starting from 1 cannot stay in 64 bits here
        huge = RandomModel(2**62 + 2, 4, 1)
        with pytest.raises(Int64OverflowError):
            random_generalized(huge)

    @pytest.mark.parametrize("n, budget", [(10**6, "64"), (10**11, None)])
    def test_budget_refused_before_allocating(self, monkeypatch, n, budget):
        # 10^6 terms would take 16 MB at the peak of the draw
        if budget is None:
            monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(BUDGET_ENV_VAR, budget)
        tracemalloc.start()
        try:
            with pytest.raises(SieveBudgetError, match=f"^a walk of {n} terms needs {8 * n} bytes"):
                random_generalized(RandomModel(n, 2, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024



class TestExactSum:
    @given(st.lists(st.integers(-(2**63), I64_MAX), max_size=40))
    def test_matches_python_sum(self, values):
        assert originator._exact_sum(np.array(values, dtype=np.int64)) == sum(values)

    def test_extremes(self):
        for value in (-(2**63), -1, 2**31 - 1, 2**31, I64_MAX):
            values = np.full(3000, value, dtype=np.int64)
            assert originator._exact_sum(values) == 3000 * value

    def test_overflow_message(self):
        # three terms with gaps up to 2^63 - 2: the last term overflows for
        # some seeds, and the message gives its exact value
        overflowing = 0
        for seed in range(40):
            expected = oracle.random_generalized(3, 2**63 - 2, seed)
            model = RandomModel(3, 2**63 - 2, seed)
            if expected[-1] <= I64_MAX:
                assert list(random_generalized(model)) == expected
                continue
            overflowing += 1
            with pytest.raises(Int64OverflowError) as err:
                random_generalized(model)
            assert str(err.value) == (
                f"term {expected[-1]} does not fit in a signed 64-bit integer"
            )
        assert overflowing > 5


class TestRandomStream:
    def test_seed_zero_pinned(self):
        assert originator._splitmix64(0, 0, 3).tolist() == [
            0xE220A838CE4CC9C2,
            0x6E789E6A4A741615,
            0x06C45D188EE3D1F2,
        ]

    @given(st.integers(0, 2**64 - 1), st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=60)
    def test_stretch_matches_scalar_reference(self, seed, start, count):
        rng = oracle.SplitMix64(seed)
        expected = [rng.next_u64() for _ in range(start + count)][start:]
        assert originator._splitmix64(seed, start, count).tolist() == expected

    @given(st.integers(1, 80), st.integers(1, 2**62 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=200)
    def test_model_matches_scalar_reference(self, n, half_gap, seed):
        assert_model_matches_reference(n, 2 * half_gap, seed)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 16])
    def test_rejections_match_scalar_reference(self, monkeypatch, block):
        # 2^64 // (g_max / 2) is 4, so about a fifth of all draws are skipped.
        monkeypatch.setattr(originator, "_DRAW_BLOCK", block)
        for seed in range(600):
            assert_model_matches_reference(2 + seed % 3, 2 * (2**64 // 5 + 1), seed)

    @pytest.mark.parametrize("g_max", [2, 4, 6, 100, 2**40, 2**62, 2**63 - 2])
    @pytest.mark.parametrize("n", [2, 3, 300])
    def test_gap_ceilings_match_scalar_reference(self, g_max, n):
        # Walks of 300 terms overflow for the widest ceilings, and raise.
        for seed in (0, 1, 7, 2**63, 2**64 - 1):
            assert_model_matches_reference(n, g_max, seed)

    def test_long_model_crosses_draw_blocks(self):
        assert_model_matches_reference(3 * (1 << 16) + 5, 100, 5)


class TestSequenceText:
    def test_newline_separated(self):
        assert list(load_sequence("2\n3\n5\n")) == [2, 3, 5]

    def test_comma_separated_order_kept(self):
        assert list(load_sequence("10, 4, 7")) == [10, 4, 7]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            load_sequence("")

    def test_comments_and_blank_lines(self):
        text = "# header\n2, 3\n\n5 # trailing\n"
        assert list(load_sequence(text)) == [2, 3, 5]

    def test_signs(self):
        assert list(load_sequence("-3\n+4\n0\n")) == [-3, 4, 0]

    def test_parse_error_has_position(self):
        with pytest.raises(SequenceParseError) as err:
            load_sequence("2\n3\nfive\n")
        assert err.value.line == 3
        assert err.value.column == 1
        assert "five" in str(err.value)

    def test_float_rejected(self):
        with pytest.raises(SequenceParseError):
            load_sequence("2.5")

    def test_term_overflow_positioned(self):
        with pytest.raises(Int64OverflowError) as err:
            load_sequence(f"1\n{1 << 63}\n")
        assert "line 2" in str(err.value)

    def test_comment_only_is_empty(self):
        with pytest.raises(EmptyInputError):
            load_sequence("# nothing here\n")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "seq.txt"
        o = Originator([5, -2, 19, 0])
        dump_sequence(o, path)
        assert load_sequence(path) == o

    def test_stream_input(self):
        assert list(load_sequence(io.StringIO("8\n9\n"))) == [8, 9]

    def test_bytes_input(self):
        assert list(load_sequence(b"1,2,3")) == [1, 2, 3]

    @given(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_roundtrip_property(self, terms):
        o = Originator(terms)
        assert load_sequence(render_sequence(o)) == o


# Tokens of every kind: integers of up to 25 digits (leading zeros included,
# around the int64 edge too), bad tokens, separators and comments.
_text_pieces = st.one_of(
    st.integers(-(2**64), 2**64).map(str),
    st.integers(0, 10**25).map(lambda v: "+" + str(v).zfill(22)),
    st.sampled_from(["9223372036854775807", "-9223372036854775808", "9223372036854775808",
                     "1.5", "x", "1-2", "+", "--3", "\u0663"]),
    st.sampled_from([" ", ",", ", ", "\t", "\r", "\n", "\n\n", "# note 5\n", "#"]),
)


class TestSequenceTextFastPath:
    """Lines read whole by one pattern give what a token-by-token read gives:
    the same terms, or the same error at the same line and column."""

    @given(st.lists(_text_pieces, max_size=30).map("".join))
    @settings(max_examples=300)
    def test_matches_token_reader(self, text):
        want = oracle.parse_sequence(text)
        try:
            got = load_sequence(text).terms.tolist()
        except EmptyInputError:
            got = []
        except SequenceParseError as exc:
            got = ("token", exc.line, exc.column)
        except Int64OverflowError as exc:
            line, column = re.match(r"line (\d+), column (\d+):", str(exc)).groups()
            got = ("overflow", int(line), int(column))
        assert got == want
