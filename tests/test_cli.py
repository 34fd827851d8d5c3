import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from gapcircuit import (
    BoundReport,
    bounds,
    Int64OverflowError,
    Originator,
    build_circuit,
    cli,
    run_all_checks,
    sieve,
    summarize,
    triangle,
    verifier,
)
from gapcircuit.cli import main
from gapcircuit.verifier import SearchReport, VerifyReport
from test_triangle import edge_terms_strategy, outcome, terms_strategy


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

    @pytest.mark.parametrize("batch", [1, 7, 4096])
    def test_json_across_batches(self, capsys, monkeypatch, batch):
        # 19 900 values: more than one batch of 4096
        monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", batch)
        rows = oracle.triangle_rows(oracle.first_primes(200))
        want = json.dumps({"n": 200, "rows": rows}, indent=2) + "\n"
        assert run_cli(capsys, "triangle", "--primes", "200") == (0, want, "")

    def test_json_holds_no_more_than_csv(self):
        # both list one row at a time, so neither holds much beside the triangle
        peaks = {}
        for fmt in ("json", "csv"):
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(["triangle", "--primes", "700", "--format", fmt]) == 0
                    _, peaks[fmt] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert peaks["json"] <= 1.1 * peaks["csv"]

    @pytest.mark.parametrize(
        "terms",
        [
            [-100, 5, 3],
            [999, -1],  # row 1's 1000 is the widest value
            [7, -7],
            [-5, -3],
            [0, 12345, 3],
            [3, 1, 4, 1, 5, 9, 2, 6],
            [0, 2**62, 2**61],
        ],
    )
    def test_text_width_fits_every_value(self, capsys, tmp_path, terms):
        path = tmp_path / "terms.txt"
        path.write_text("\n".join(map(str, terms)) + "\n")
        rows = [terms] + oracle.triangle_rows(terms)
        width = max(len(str(v)) for row in rows for v in row)
        want = "".join(" ".join(str(v).ljust(width) for v in row) + "\n" for row in rows)
        assert run_cli(capsys, "triangle", "--file", str(path), "--format", "text") == (0, want, "")


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


def _refuse_circuit(*args, **kwargs):
    raise AssertionError("circuit built")


class TestStreamedStats:
    """stats tallies streamed rows: no circuit, O(n) memory."""

    @pytest.fixture
    def wide_walk(self, tmp_path):
        rng = np.random.default_rng(32)
        terms = np.cumsum(rng.integers(-(2**32), 2**32, 2000, endpoint=True))
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(map(str, terms.tolist())) + "\n")
        return str(path)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("source", ["primes", "file"])
    def test_same_output_without_a_circuit(self, capsys, monkeypatch, wide_walk, source, fmt):
        given = ["--primes", "3000"] if source == "primes" else ["--file", wide_walk]
        argv = ["stats", *given, "--format", fmt]
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_StreamedCircuit", cli.build_circuit)
            want = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "build_circuit", _refuse_circuit)
        monkeypatch.setattr(triangle, "Circuit", _refuse_circuit)
        assert want[0] == 0
        assert run_cli(capsys, *argv) == want

    def test_peak_memory_far_below_the_triangle(self, capsys):
        # the triangle of 3000 terms holds 3000 * 2999 / 2 int64 cells: 36 MB
        tracemalloc.start()
        try:
            code = main(["stats", "--primes", "3000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3000
        assert peak < 36e6 / 4

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--primes", "1"], "a triangle needs at least two terms, got 1"),
            pytest.param(
                ["--primes", "200000"],
                "the triangle of 200000 terms would derive 19999900000 cells, over the "
                "limit of 17179869184",
                id="cell-limit",
            ),
        ],
    )
    def test_gates_keep_their_messages(self, capsys, argv, message):
        assert run_cli(capsys, "stats", *argv) == (2, "", f"error: {message}\n")


class TestCircuitCellLimit:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["triangle", "--primes", "30000", "--cap", "30000"],
                "a circuit of 30000 terms would hold 449985000 cells, over the limit "
                "of 268435456",
            ),
            (
                ["check", "--primes", "200000"],
                "the triangle of 200000 terms would derive 19999900000 cells, over the "
                "limit of 17179869184",
            ),
        ],
        ids=["triangle", "check"],
    )
    def test_refused_before_allocating(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(triangle, "Circuit", _refuse_circuit)
        monkeypatch.setattr(triangle, "_summarize_rows", _refuse_circuit)
        tracemalloc.start()
        try:
            result = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (2, "", f"error: {message}\n")
        assert peak < 8 * 2**20


class TestDerivationLimit:
    """stats and check derive the whole triangle without holding it: one
    cell limit, shared with the naive sweep, and no --cap."""

    def test_stats_beyond_the_old_cap(self, capsys):
        code, out, err = run_cli(capsys, "stats", "--primes", "20000")
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 20000

    def test_check_beyond_the_circuit_limit(self, capsys):
        code, out, err = run_cli(capsys, "check", "--primes", "30000", "--format", "text")
        assert (code, err) == (0, "")
        summary = out.splitlines()[-1]
        assert summary.startswith(f"summary: checked={5 * 30000 - 2} ")
        assert summary.endswith(" failed=0")

    @pytest.mark.parametrize("command", ["stats", "check"])
    def test_limit_is_inclusive(self, capsys, monkeypatch, command):
        # five terms make 10 cells, six make 15
        monkeypatch.setattr(cli, "SWEEP_CELL_LIMIT", 10)
        assert run_cli(capsys, command, "--primes", "5")[0] == 0
        monkeypatch.setattr(triangle, "_summarize_rows", _refuse_circuit)
        assert run_cli(capsys, command, "--primes", "6") == (
            2,
            "",
            "error: the triangle of 6 terms would derive 15 cells, over the limit of 10\n",
        )

    @pytest.mark.parametrize("command", ["stats", "check"])
    def test_cap_is_not_an_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--primes", "5", "--cap", "10"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cap 10" in captured.err

    def test_triangle_keeps_its_cap(self, capsys):
        # TestCircuitCellLimit holds triangle's cell-limit message.
        assert run_cli(capsys, "triangle", "--primes", "50", "--cap", "10") == (
            2,
            "",
            "error: 50 terms exceeds the triangle cap of 10; raise it with --cap\n",
        )


class TestClosedStdout:
    """A reader that stops early ends the command quietly, with exit code 141."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--primes", "2000", "--format", "text"],
            ["triangle", "--primes", "2000", "--cap", "2000", "--format", "csv"],
        ],
        ids=["check", "triangle"],
    )
    def test_exit_141_and_no_traceback(self, argv):
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        # Both outputs are far larger than a pipe buffer, so a write must fail.
        proc = subprocess.Popen(
            [sys.executable, "-m", "gapcircuit", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")


class TestReadmeExamples:
    """Every complete ``$ gapcircuit ...`` example in README.md prints what it shows."""

    def test_examples_match(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        compared = []
        for block in re.findall(r"^```\n\$ gapcircuit (.*?)^```$", readme, re.M | re.S):
            command, *shown = block.splitlines()
            if any("…" in line for line in shown):
                continue  # an abbreviated example
            argv, _, tail = command.partition(" | tail -")
            _, out, err = run_cli(capsys, *argv.split())
            lines = [line.rstrip() for line in out.splitlines()]
            if tail:
                lines = lines[-int(tail) :]
            assert (lines, err) == (shown, ""), command
            compared.append(argv.split()[0])
        assert compared == ["triangle", "stats", "check", "verify"]


class TestStreamedCheck:
    """check runs every relation on streamed rows: no circuit, O(n) memory."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_same_output_without_a_circuit(self, capsys, monkeypatch, fmt):
        argv = ["check", "--primes", "500", "--format", fmt]
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_StreamedCircuit", cli.build_circuit)
            want = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "build_circuit", _refuse_circuit)
        monkeypatch.setattr(triangle, "Circuit", _refuse_circuit)
        assert want[0] == 0
        assert run_cli(capsys, *argv) == want

    def test_peak_memory_below_half_the_triangle(self, capsys, monkeypatch):
        # the triangle of 3000 terms holds 3000 * 2999 / 2 int64 cells: 36 MB
        monkeypatch.setattr(cli, "build_circuit", _refuse_circuit)
        monkeypatch.setattr(triangle, "Circuit", _refuse_circuit)
        tracemalloc.start()
        try:
            code = main(["check", "--primes", "3000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["summary"]["checked"] == 5 * 3000 - 2
        assert peak < 36e6 / 2

    @pytest.mark.parametrize(
        "terms",
        [[0, (1 << 62) - 1, 0, (1 << 62) - 1, 0], [0, 2**62, 0, 0], [0, -(2**63)], [5, 6, -(2**63), 1]],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_overflow_prints_nothing(self, capsys, tmp_path, terms, fmt):
        path = tmp_path / "terms.txt"
        path.write_text("\n".join(map(str, terms)) + "\n")
        with pytest.raises(Int64OverflowError) as exc:
            run_all_checks(build_circuit(Originator(terms)))
        code, out, err = run_cli(capsys, "check", "--file", str(path), "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(),
)
# Report dicts, as to_json_dict makes them.
json_reports = st.builds(
    BoundReport,
    name=st.text(),
    lhs=st.integers(),
    rhs=st.integers(),
    holds=st.booleans(),
    precondition_met=st.booleans(),
    middle=st.none() | st.integers(),
    witnesses=st.lists(st.tuples(st.integers(), st.integers()), max_size=2).map(tuple),
    extra=st.none()
    | st.dictionaries(st.text(), json_scalars | st.lists(json_scalars), max_size=3),
).map(BoundReport.to_json_dict)


def _json_containers(items: st.SearchStrategy) -> st.SearchStrategy:
    return (
        st.lists(items, max_size=4)
        | st.lists(items, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), items, max_size=4)
    )


def _json_values(depth: int) -> st.SearchStrategy:
    """Scalars and reports, alone or in containers nested up to ``depth`` deep."""
    leaves = json_scalars | json_reports
    return leaves if depth == 0 else leaves | _json_containers(_json_values(depth - 1))


# dicts, lists and tuples nested up to 5 deep
json_payloads = _json_containers(_json_values(4))


class TestJsonWriter:
    PAYLOADS = [
        {"n": 3, "rows": [[1, 2], [1]], "empty": [], "nested": {}, "none": None},
        {"reports": [{"holds": True, "extra": {"cap": 2**70}}], "rate": 0.25, "text": "é\"\n"},
        [],
        {},
        [1, [2, [3, []]], {"a": {"b": [False]}}],
    ]

    @pytest.mark.parametrize("batch", [1, 2, 7, cli.JSON_BATCH_CHUNKS])
    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_bytes_equal_json_dumps(self, capsys, monkeypatch, batch, payload):
        monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", batch)
        cli._emit_json(payload)
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("batch", [1, 2, 7, cli.JSON_BATCH_CHUNKS])
    @given(payload=json_payloads)
    @example(payload=[[], {}, ()])
    @example(payload={"a": [[], [{}]], "b": ([], ())})
    @example(payload=[2**64, -(2**70), True, None, -0.0, float("nan"), float("-inf")])
    @example(payload={"z": -0.0, "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf")})
    @example(payload={'q"\n\x01é': ['"\\\u2028\x7f', "\U0001f600", ""]})
    @settings(max_examples=150, deadline=None)
    def test_matches_json_dumps(self, batch, payload):
        want = json.dumps(payload, indent=2) + "\n"
        with mock.patch.object(cli, "JSON_BATCH_CHUNKS", batch), redirect_stdout(io.StringIO()) as out:
            cli._emit_json(payload)
        assert out.getvalue() == want

    def test_written_in_batches(self, monkeypatch):
        # every write holds about JSON_BATCH_CHUNKS values, long lists included
        writes = []
        monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", 4)
        monkeypatch.setattr(cli.sys, "stdout", mock.Mock(write=writes.append))
        payload = {"a": list(range(100)), "b": iter(range(50)), "c": [[0, 1]] * 20}
        cli._emit_json(payload)
        assert len(writes) > 150 // 4
        assert max(len(re.findall(r"\d+", text)) for text in writes) <= 2 * 4
        assert "".join(writes) == json.dumps({**payload, "b": list(range(50))}, indent=2) + "\n"

    def test_iterator_items_written_as_read(self, monkeypatch):
        # each row is written in full before the next one is read
        writes, closed = [], []
        monkeypatch.setattr(cli.sys, "stdout", mock.Mock(write=writes.append))

        def rows():
            for k in range(5):
                closed.append("".join(writes).count("]"))
                yield [k, k + 1]

        cli._emit_json({"n": 5, "rows": rows()})
        assert closed == [0, 1, 2, 3, 4]
        rows_written = [[k, k + 1] for k in range(5)]
        assert "".join(writes) == json.dumps({"n": 5, "rows": rows_written}, indent=2) + "\n"

    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_check_report_bytes(self, capsys, monkeypatch, batch):
        want = run_cli(capsys, "check", "--primes", "30")
        monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", batch)
        assert run_cli(capsys, "check", "--primes", "30") == want
        assert want[1] == json.dumps(json.loads(want[1]), indent=2) + "\n"


# Originators for check: prime prefixes, mixed signs, constants (equality
# cases) and the int64 edge, some of which overflow.
check_terms = st.one_of(
    st.integers(2, 150).map(oracle.first_primes),
    terms_strategy,
    st.tuples(st.integers(-(10**15), 10**15), st.integers(2, 30)).map(lambda vn: [vn[0]] * vn[1]),
    edge_terms_strategy,
)

# Report shapes: 0-2 witnesses, middle or not, extras of ints, bools, strings
# and lists of them, and names that hold %, quotes, commas and non-ASCII.
template_reports = st.builds(
    BoundReport,
    name=st.text()
    | st.sampled_from(["100%", "%d %s %%(k)s", 'q"\\é\u2028', "trace(s=%d)", "a,b\r\nc"]),
    lhs=st.integers(),
    rhs=st.integers(),
    holds=st.booleans(),
    precondition_met=st.booleans(),
    middle=st.none() | st.integers(),
    witnesses=st.lists(st.tuples(st.integers(), st.integers()), max_size=2).map(tuple),
    extra=st.none()
    | st.just({"internal_inconsistency": True})
    | st.dictionaries(
        st.text() | st.sampled_from(["%", "%d", "1", '"']),
        st.integers()
        | st.booleans()
        | st.text()
        | st.lists(st.integers() | st.booleans() | st.text(), max_size=3),
        min_size=1,
        max_size=3,
    ),
)


def _refuse_report(*args, **kwargs):
    raise AssertionError("a report was made")


def _report_text(report) -> str:
    """The JSON text of one report in check's list of reports."""
    return json.dumps(report.to_json_dict(), indent=2).replace("\n", "\n    ")


CHECK_FORMATS = ["json", "csv", "text"]


def _check_oracle(fmt: str, reports: list[BoundReport]) -> str:
    """check's output in ``fmt``, made from the reports one at a time."""
    summary = summarize(reports)
    if fmt == "json":
        payload = {"reports": [r.to_json_dict() for r in reports], "summary": summary}
        return json.dumps(payload, indent=2) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["name", "lhs", "middle", "rhs", "holds", "precondition_met", "witnesses", "extra"]
        )
        for r in reports:
            writer.writerow(
                [
                    r.name,
                    r.lhs,
                    "" if r.middle is None else r.middle,
                    r.rhs,
                    json.dumps(r.holds),
                    json.dumps(r.precondition_met),
                    ";".join(f"{i}:{v}" for i, v in r.witnesses),
                    json.dumps(r.extra, separators=(",", ":")) if r.extra else "",
                ]
            )
        return out.getvalue()
    for r in reports:
        middle = f" middle={r.middle}" if r.middle is not None else ""
        status = bounds.report_status(r)
        print(f"{status:<8} {r.name}: lhs={r.lhs}{middle} rhs={r.rhs}", file=out)
    line = "summary: checked={checked} held={held} vacuous={vacuous} failed={failed}"
    print(line.format(**summary), file=out)
    return out.getvalue()


class TestCheckColumns:
    """check writes every format from the checks' columns, a template per
    report shape, with the bytes of its reports written one at a time over
    run_all_checks."""

    @pytest.mark.parametrize("batch", [1, 7, 4096])
    @given(terms=check_terms)
    @example(terms=[0, 1])
    @example(terms=[5, 6, -(2**63), 1])
    @example(terms=[7, 7, 7, 7, 7])
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_json_dumps(self, tmp_path_factory, batch, terms):
        path = tmp_path_factory.mktemp("check") / "terms.txt"
        path.write_text("\n".join(map(str, terms)) + "\n")
        reports = outcome(lambda: run_all_checks(build_circuit(Originator(terms))))
        for fmt in CHECK_FORMATS:
            with mock.patch.object(cli, "JSON_BATCH_CHUNKS", batch), redirect_stdout(
                io.StringIO()
            ) as out, redirect_stderr(io.StringIO()) as err:
                code = main(["check", "--file", str(path), "--format", fmt])
            if isinstance(reports, tuple):
                assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {reports[1]}\n")
                continue
            summary = summarize(reports)
            assert out.getvalue() == _check_oracle(fmt, reports)
            assert code == (summary["failed"] > 0)
        if isinstance(reports, tuple):
            return
        records = bounds._check_columns(triangle._StreamedCircuit(Originator(terms)))
        statuses = list(map(bounds._statuses, records))
        assert list(chain.from_iterable(statuses)) == list(map(bounds.report_status, reports))
        assert bounds._column_counts(statuses) == summary

    @given(report=template_reports)
    @example(report=BoundReport("x", 1, 2, True, False, extra={"a": [], "b": [True, 3]}))
    @example(report=BoundReport("%d", 1, 1, False, True, extra={"non_strict_holds": True}))
    @example(report=BoundReport("a,b", 1, 2, False, True, witnesses=((1, 2),), extra={"a": []}))
    @settings(max_examples=200, deadline=None)
    def test_template_render_equals_put_json(self, report):
        fields = {name: getattr(report, name) for name in BoundReport.__dataclass_fields__}
        record = bounds._one(**fields)
        assert bounds._report(record) == report
        status = bounds._statuses(record)
        summary = bounds._column_counts([status])
        written = {
            "json": "".join(cli._check_json([record], summary)),
            "csv": "".join(cli._check_rows([record])),
            "text": "".join(cli._check_lines([record], [status], summary)),
        }
        assert _report_text(report) in written["json"]
        for fmt in CHECK_FORMATS:
            assert written[fmt] == _check_oracle(fmt, [report])

    @pytest.mark.parametrize("fmt", CHECK_FORMATS)
    def test_no_report_made(self, capsys, monkeypatch, fmt):
        # The first run also fills the template cache for every shape it meets.
        want = run_cli(capsys, "check", "--primes", "200", "--format", fmt)
        monkeypatch.setattr(BoundReport, "__init__", _refuse_report)
        monkeypatch.setattr(BoundReport, "to_json_dict", _refuse_report)
        monkeypatch.setattr(bounds, "report_status", _refuse_report)
        monkeypatch.setattr(bounds, "is_equality_case", _refuse_report)
        assert run_cli(capsys, "check", "--primes", "200", "--format", fmt) == want

    @pytest.mark.parametrize("fmt", CHECK_FORMATS)
    def test_written_in_slices(self, monkeypatch, fmt):
        # no write holds more than JSON_BATCH_CHUNKS reports
        want = run_all_checks(build_circuit(Originator(oracle.first_primes(30))))
        writes = []
        monkeypatch.setattr(cli, "JSON_BATCH_CHUNKS", 4)
        monkeypatch.setattr(cli.sys, "stdout", mock.Mock(write=writes.append))
        assert main(["check", "--primes", "30", "--format", fmt]) == 0
        assert len(writes) > len(want) // 4
        if fmt == "json":
            assert max(text.count('"name": ') for text in writes) <= 4
        else:
            assert max(len(text.splitlines()) for text in writes) <= 4
        assert "".join(writes) == _check_oracle(fmt, want)


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


def _refuse(*args, **kwargs):
    raise AssertionError("all primes requested at once")


class TestStreamedVerify:
    """verify --primes/--limit read the sieve one window at a time."""

    def test_peak_memory_far_below_the_primes(self, capsys):
        # 2*10^6 int64 primes alone take 16 MB
        tracemalloc.start()
        try:
            code = main(["verify", "--primes", "2000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["stabilization_row"] == 162
        assert peak < 8 * 2**20

    def test_primes_never_held(self, capsys, monkeypatch):
        monkeypatch.setattr(sieve, "first_n_primes_array", _refuse)
        monkeypatch.setattr(sieve, "primes_up_to_array", _refuse)
        for argv, n in (
            (["verify", "--primes", "2000000"], 2000000),
            (["verify", "--limit", "1000000"], 78498),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            payload = json.loads(out)
            assert payload["n"] == n and payload["method"] == "frontier"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--primes", "1"], "verification needs at least two terms, got 1"),
            (["--limit", "2"], "verification needs at least two terms, got 1"),
            (["--limit", "1"], "prime limit must be at least 2, got 1"),
            (["--primes", "0"], "prime count must be at least 1, got 0"),
            (["--primes", "0", "--scan-depth", "0"], "prime count must be at least 1, got 0"),
            (["--primes", "5", "--scan-depth", "0"], "scan depth must be at least 1, got 0"),
        ],
    )
    def test_small_inputs_keep_their_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["stats", "check"])
    @pytest.mark.parametrize("argv, capacity", [(["--primes", "100000"], 100000), (["--limit", "100000"], 9649)])
    def test_sieve_budget_messages(self, capsys, monkeypatch, command, argv, capacity):
        # 4096 bytes admit the base primes of a stream, but not the held array
        monkeypatch.setenv("GAPCIRCUIT_SIEVE_BUDGET", "4096")
        code, out, err = run_cli(capsys, command, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {capacity} primes need {8 * capacity} bytes, over the budget of 4096 "
            "bytes (raise GAPCIRCUIT_SIEVE_BUDGET to allow this)\n"
        )

    @pytest.mark.parametrize("argv", [["--primes", "100000"], ["--limit", "100000"]])
    def test_budget_leaves_streams_alone(self, capsys, monkeypatch, argv):
        free = run_cli(capsys, "verify", *argv, "--format", "text")
        monkeypatch.setenv("GAPCIRCUIT_SIEVE_BUDGET", "4096")
        assert run_cli(capsys, "verify", *argv, "--format", "text") == free
        assert free[0] == 0

    def test_budget_admits_an_array_of_its_size(self, capsys, monkeypatch):
        monkeypatch.setenv("GAPCIRCUIT_SIEVE_BUDGET", "64")
        code, out, _ = run_cli(capsys, "stats", "--primes", "8")
        assert code == 0 and json.loads(out)["n"] == 8
        code, out, err = run_cli(capsys, "stats", "--primes", "9")
        assert (code, out) == (2, "")
        assert err.startswith("error: 9 primes need 72 bytes, over the budget of 64 bytes")

    def test_naive_guard(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--primes", "200000", "--method", "naive")
        assert (code, out) == (2, "")
        assert err == (
            "error: the naive sweep of 200000 terms would derive 19999900000 cells, "
            "over the limit of 17179869184; use --method frontier with a larger "
            "--scan-depth\n"
        )

    def test_streamed_fallback_guard(self, capsys, monkeypatch):
        # the scan cannot settle at depth 1, and the sweep is refused before
        # the primes would be sieved again
        monkeypatch.setattr(sieve, "first_n_primes_array", _refuse)
        code, out, err = run_cli(capsys, "verify", "--primes", "200000", "--scan-depth", "1")
        assert (code, out) == (2, "")
        assert "naive sweep of 200000 terms" in err

    def test_streamed_fallback_sweeps(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--limit", "1000", "--scan-depth", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "naive" and payload["max_order_checked"] == 167


VERIFY_OUTPUTS = json.loads((Path(__file__).parent / "verify_cli_outputs.json").read_text())


class TestVerifyOutputsPinned:
    """``verify`` stdout, stderr and exit code, byte for byte, in every format.

    The expected outputs in ``verify_cli_outputs.json`` were recorded from
    the command line at commit 15bcced, except the two ``budget-*`` cases,
    re-recorded when the budget stopped applying to streamed runs: their
    base primes fit in it, so the scan depth of 0 is refused instead.  A
    case's ``file`` text, when given, is written to a file whose path
    replaces ``{file}`` in its arguments.
    """

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("case", VERIFY_OUTPUTS, ids=[c["id"] for c in VERIFY_OUTPUTS])
    def test_bytes_unchanged(self, capsys, monkeypatch, tmp_path, case, fmt):
        path = tmp_path / "terms.txt"
        if case["file"] is not None:
            path.write_text(case["file"])
        for name, value in case["env"].items():
            monkeypatch.setenv(name, value)
        argv = [arg.replace("{file}", str(path)) for arg in case["argv"]]
        code, out, err = run_cli(capsys, "verify", *argv, "--format", fmt)
        expected = case["outputs"][fmt]
        assert (out, err, code) == (expected["stdout"], expected["stderr"], expected["exit"])


CLI_OUTPUTS = json.loads((Path(__file__).parent / "cli_outputs.json").read_text())


def _pinned(text: str, want) -> object:
    """``text`` as pinned: itself, or its byte count and sha256 when ``want`` is."""
    if isinstance(want, str):
        return text
    data = text.encode("utf-8")
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


class TestCliOutputsPinned:
    """``check``, ``stats``, ``triangle`` and ``search`` output, byte for byte.

    The expected stdout, stderr and exit code in ``cli_outputs.json`` were
    recorded from the command line at commit 295ba59.  Outputs over 64 KB are
    pinned by their byte count and sha256.  A case's ``file`` names one of the
    file texts (the ``stats_wide`` benchmark input of seed 1, and an
    originator whose path lengths overflow int64); it is written to a file
    whose path replaces ``{file}`` in the arguments.
    """

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize(
        "case", CLI_OUTPUTS["cases"], ids=[c["id"] for c in CLI_OUTPUTS["cases"]]
    )
    def test_bytes_unchanged(self, capsys, tmp_path, case, fmt):
        path = tmp_path / "terms.txt"
        if case["file"] is not None:
            path.write_text(CLI_OUTPUTS["files"][case["file"]])
        argv = [arg.replace("{file}", str(path)) for arg in case["argv"]]
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        expected = case["outputs"][fmt]
        got = (_pinned(out, expected["stdout"]), _pinned(err, expected["stderr"]), code)
        assert got == (expected["stdout"], expected["stderr"], expected["exit"])


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

    @pytest.mark.parametrize(
        "fmt, want, timed",
        [
            (
                "json",
                '{\n  "n": 4,\n  "g_max": 2,\n  "trials": 3,\n  "seed": 0,\n  "scan_depth": 500,\n'
                '  "failures": 0,\n  "failure_rate": 0.0,\n  "failure_orders": {},\n'
                '  "examples": []\n}\n',
                '{\n  "n": 4,\n  "g_max": 2,\n  "trials": 3,\n  "seed": 0,\n  "scan_depth": 500,\n'
                '  "failures": 0,\n  "failure_rate": 0.0,\n  "failure_orders": {},\n'
                '  "examples": [],\n  "elapsed_ms": 12.346\n}\n',
            ),
            (
                "csv",
                "n,g_max,trials,seed,scan_depth,failures,failure_rate,failure_orders\n"
                "4,2,3,0,500,0,0.0,\n",
                "n,g_max,trials,seed,scan_depth,failures,failure_rate,failure_orders,elapsed_ms\n"
                "4,2,3,0,500,0,0.0,,12.346\n",
            ),
            (
                "text",
                "n = 4\ng_max = 2\ntrials = 3\nseed = 0\nfailures = 0\nfailure_rate = 0.0\n"
                "failure_orders: none\nexamples: none\n",
                "n = 4\ng_max = 2\ntrials = 3\nseed = 0\nfailures = 0\nfailure_rate = 0.0\n"
                "failure_orders: none\nexamples: none\nelapsed_ms = 12.346\n",
            ),
        ],
    )
    def test_report_without_failures(self, capsys, monkeypatch, fmt, want, timed):
        report = SearchReport(4, 2, 3, 0, 500, 0, (), (), 0.0123456789)
        monkeypatch.setattr(cli, "search_counterexamples", lambda *a, **k: report)
        argv = ["search", "--n", "4", "--gmax", "2", "--trials", "3", "--format", fmt]
        assert run_cli(capsys, *argv) == (0, want, "")
        assert run_cli(capsys, *argv, "--timing") == (0, timed, "")

    @pytest.mark.parametrize("target", ["f", "f/sub"])
    def test_unusable_dump_dir(self, capsys, monkeypatch, tmp_path, target):
        # the directory is made before the first trial, so no trial runs
        monkeypatch.setattr(verifier, "random_generalized", _refuse_circuit)
        (tmp_path / "f").touch()
        path = tmp_path / target
        code, out, err = run_cli(
            capsys, "search", "--n", "4", "--gmax", "2", "--trials", "3", "--dump-dir", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write to the dump directory: ")
        assert err.endswith(f"{str(path)!r}\n")

    def test_bad_scan_depth_refused_before_any_effect(self, capsys, monkeypatch, tmp_path):
        # the depth is checked with the trials and the seed: no directory, no draw
        monkeypatch.setattr(verifier, "random_generalized", _refuse_circuit)
        path = tmp_path / "D" / "x"
        argv = ["search", "--n", "5", "--gmax", "4", "--trials", "2", "--scan-depth", "0"]
        code, out, err = run_cli(capsys, *argv, "--dump-dir", str(path))
        assert (code, out, err) == (2, "", "error: scan depth must be at least 1, got 0\n")
        assert not (tmp_path / "D").exists()


class TestElapsedMs:
    """Every format prints the one rounded ``elapsed_ms`` of a report."""

    @pytest.mark.parametrize("elapsed", [0.0123456789, 1.0005, 2.5e-7])
    def test_formats_agree(self, capsys, monkeypatch, elapsed):
        verify = VerifyReport(5, "frontier", True, 4, None, 1, elapsed)
        search = SearchReport(4, 2, 3, 0, 500, 3, ((1, 3),), (), elapsed)
        monkeypatch.setattr(cli, "_verify", lambda args: verify)
        monkeypatch.setattr(cli, "search_counterexamples", lambda *a, **k: search)
        for command, report in (
            (["verify", "--primes", "5"], verify),
            (["search", "--n", "4", "--gmax", "2"], search),
        ):
            printed = []
            for fmt in ("json", "csv", "text"):
                _, out, _ = run_cli(capsys, *command, "--timing", "--format", fmt)
                if fmt == "json":
                    printed.append(json.loads(out)["elapsed_ms"])
                elif fmt == "csv":
                    header, row = out.splitlines()
                    printed.append(float(dict(zip(header.split(","), row.split(",")))["elapsed_ms"]))
                else:
                    printed.append(float(out.splitlines()[-1].removeprefix("elapsed_ms = ")))
            assert printed == [report.elapsed_ms] * 3


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
