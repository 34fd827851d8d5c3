import json

import pytest

from gapcircuit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangleCommand:
    def test_text_render(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--primes", "5", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0].split() == ["2", "3", "5", "7", "11"]
        assert lines[1].split() == ["1", "2", "2", "4"]
        assert lines[4].split() == ["1"]

    def test_text_columns_align(self, capsys):
        _, out, _ = run_cli(capsys, "triangle", "--primes", "6", "--format", "text")
        lines = out.splitlines()
        # every cell is padded to the widest value ("13"), so columns sit at
        # fixed offsets: stride 3, line length 3 * cells - 1
        for i, line in enumerate(lines):
            cells = 6 - i
            assert len(line) == 3 * cells - 1
            assert all(line[3 * j] != " " for j in range(cells))

    def test_json_has_derived_rows_only(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--primes", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload == {
            "n": 5,
            "rows": [[1, 2, 2, 4], [1, 0, 2], [1, 2], [1]],
        }

    def test_csv_one_line_per_row(self, capsys):
        _, out, _ = run_cli(capsys, "triangle", "--primes", "5", "--format", "csv")
        assert out == "1,2,2,4\n1,0,2\n1,2\n1\n"

    def test_constant_file(self, capsys, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("6\n6\n6\n")
        code, out, _ = run_cli(capsys, "triangle", "--file", str(path))
        assert code == 0
        assert json.loads(out)["rows"] == [[0, 0], [0]]

    def test_single_term_rejected(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--primes", "1")
        assert code == 2
        assert "two terms" in err

    def test_cap_names_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--primes", "50", "--cap", "10")
        assert code == 2
        assert "--cap" in err

    def test_cap_can_be_raised(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--primes", "50", "--cap", "50", "--format", "csv"
        )
        assert code == 0
        assert len(out.splitlines()) == 49


class TestStatsCommand:
    def test_first_five_primes(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--primes", "5")
        assert code == 0
        assert json.loads(out) == {
            "n": 5,
            "total_maximal_steps": 10,
            "circuit_length": 16,
            "path_lengths": [9, 3, 3, 1],
            "traces": [4, 4, 4, 4],
        }

    def test_two_primes(self, capsys):
        _, out, _ = run_cli(capsys, "stats", "--primes", "2")
        payload = json.loads(out)
        assert payload["circuit_length"] == 1
        assert payload["traces"] == [1]

    def test_constant_input(self, capsys, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("3, 3, 3, 3")
        _, out, _ = run_cli(capsys, "stats", "--file", str(path))
        payload = json.loads(out)
        assert payload["circuit_length"] == 0
        assert payload["path_lengths"] == [0, 0, 0]
        assert payload["total_maximal_steps"] == 6

    def test_csv_row_count(self, capsys):
        _, out, _ = run_cli(capsys, "stats", "--primes", "7", "--format", "csv")
        lines = out.splitlines()
        # header + n + steps + kappa + 6 path lengths + 6 traces
        assert len(lines) == 16
        assert lines[0] == "statistic,index,value"
        assert lines[1] == "n,,7"


class TestCheckCommand:
    def test_hundred_primes_no_failures(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--primes", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["checked"] == len(payload["reports"])

    def test_constant_equality_not_a_failure(self, capsys, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("9\n9\n9\n9\n")
        code, out, _ = run_cli(capsys, "check", "--file", str(path), "--format", "text")
        assert code == 0
        assert "equality" in out
        assert "failed=0" in out

    def test_two_primes_no_range_errors(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--primes", "2")
        assert code == 0
        names = [r["name"] for r in json.loads(out)["reports"]]
        assert "trace_sum_identity" in names

    def test_csv_shape(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--primes", "5", "--format", "csv")
        lines = out.splitlines()
        header = lines[0].split(",")
        assert header == [
            "name",
            "lhs",
            "middle",
            "rhs",
            "holds",
            "precondition_met",
            "witnesses",
            "extra",
        ]
        assert len(lines) == 1 + 23  # header + one row per report

    def test_report_json_matches_module_count(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--primes", "10")
        payload = json.loads(out)
        n = 10
        expected = (n - 1) + (n - 1) + (n - 2) + 1 + (n - 2) + 1 + 1 + (n - 1) + 1 + 1
        assert payload["summary"]["checked"] == expected


class TestVerifyCommand:
    def test_primes_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--primes", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ones"] is True
        assert payload["method"] == "frontier"
        assert "elapsed_ms" not in payload

    def test_timing_flag_adds_elapsed(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--primes", "100", "--timing")
        assert "elapsed_ms" in json.loads(out)

    def test_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text("1\n3\n5\n7\n")
        code, out, _ = run_cli(capsys, "verify", "--file", str(path))
        assert code == 1
        assert json.loads(out)["first_failure"] == [1, 2]

    def test_methods_agree_on_conclusions(self, capsys):
        _, naive_out, _ = run_cli(
            capsys, "verify", "--primes", "10000", "--method", "naive"
        )
        _, frontier_out, _ = run_cli(capsys, "verify", "--primes", "10000")
        a, b = json.loads(naive_out), json.loads(frontier_out)
        for field in ("n", "all_ones", "max_order_checked", "first_failure"):
            assert a[field] == b[field]

    def test_scan_depth_flag(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--primes", "100", "--scan-depth", "1")
        assert json.loads(out)["method"] == "naive"

    def test_csv_single_row(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--primes", "50", "--format", "csv")
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("50,frontier,true,49,,,")


class TestSearchCommand:
    def test_deterministic_output(self, capsys):
        args = ("search", "--n", "100", "--gmax", "6", "--trials", "100", "--seed", "7")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_always_exit_zero_even_with_failures(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "4", "--gmax", "2", "--trials", "5"
        )
        assert code == 0
        assert json.loads(out)["failures"] == 5

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "search", "--n", "4", "--gmax", "2", "--trials", "0"
        )
        assert code == 2
        assert "trial count" in err

    def test_odd_gmax_rejected(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n", "4", "--gmax", "3")
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize("command", ["verify", "search"])
    @pytest.mark.parametrize("g_max", [2**63, 2**64, 2**66])
    def test_gmax_beyond_int64_rejected(self, capsys, command, g_max):
        code, _, err = run_cli(capsys, command, "--n", "3", "--gmax", str(g_max))
        assert code == 2
        assert "maximum gap" in err

    def test_dump_dir(self, capsys, tmp_path):
        target = tmp_path / "dumps"
        code, out, _ = run_cli(
            capsys,
            "search",
            "--n", "6",
            "--gmax", "4",
            "--trials", "3",
            "--dump-dir", str(target),
        )
        assert code == 0
        payload = json.loads(out)
        assert len(list(target.iterdir())) == len(payload["examples"])

    def test_csv_single_row(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "--n", "4", "--gmax", "2", "--trials", "3", "--format", "csv"
        )
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1] == "4,2,3,0,500,3,1.0,1:3"


class TestInputResolution:
    def test_no_source(self, capsys):
        code, _, err = run_cli(capsys, "stats")
        assert code == 2
        assert "exactly one input source" in err

    def test_two_sources(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--primes", "5", "--limit", "11")
        assert code == 2
        assert "exactly one input source" in err

    def test_n_without_gmax(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--n", "10")
        assert code == 2
        assert "--gmax" in err

    def test_gmax_without_n(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--gmax", "4")
        assert code == 2

    def test_generator_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--n", "4", "--gmax", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_limit_source(self, capsys):
        _, out, _ = run_cli(capsys, "triangle", "--limit", "11")
        assert json.loads(out)["n"] == 5

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--file", "/nonexistent/seq.txt")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_position_surfaces(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\nthree\n")
        code, _, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 2
        assert "line 2" in err

    def test_unknown_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--primes", "5", "--format", "xml"])
        assert exc.value.code == 2

    def test_sieve_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GAPCIRCUIT_SIEVE_BUDGET", "64")
        code, _, err = run_cli(capsys, "verify", "--primes", "100000")
        assert code == 2
        assert "GAPCIRCUIT_SIEVE_BUDGET" in err
