"""Mutation gate: every listed source mutant must make its tests fail.

    python3 tools/mutants.py

Each mutant is one exact text in one file under ``src/`` and its
replacement.  For each, the script copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` to a temporary directory, makes the
one replacement there, and runs the mutant's test selection with ``-x``
and a fixed Hypothesis seed, one mutant at a time.  A mutant is killed when the tests
fail.  First the selections run once on the unmutated copy, which must pass
and import the package from the copy.

Exit code 0 when every mutant is killed; 1 when one survives, when its
tests cannot run, or when its text does not occur exactly once, so that a
mutant gone stale with the code fails loudly instead of passing quietly; 2
when the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# A mutant whose tests run this long counts as killed: it hangs them.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    text: str
    replacement: str
    tests: tuple[str, ...]


SIEVE_TESTS = ("tests/test_sieve.py",)
# The verifier's mutants run the classes that test the tile scan and the fold, or the sweep.
SCAN_TESTS = tuple(
    f"tests/test_verifier.py::{name}"
    for name in ("TestTiledFrontier", "TestStreamedFrontier", "TestTileRecords")
)
SWEEP_TESTS = ("tests/test_verifier.py::TestNaiveSweep", "tests/test_verifier.py::TestTileRecords")
# The summary's mutants run the classes that compare the block pass with the oracle.
SUMMARY_TESTS = tuple(
    f"tests/test_triangle.py::{name}" for name in ("TestBlockPass", "TestSummary", "TestSmallBlocks")
)
# The search's mutants run the tests of the prefix shortcut: the differential
# test, the count of terms drawn and the errors of the whole walk.
SEARCH_TESTS = (
    "tests/test_verifier.py::TestSearch::test_matches_whole_walk_search",
    "tests/test_verifier.py::TestTileRecords::test_search_scans_one_tile_per_trial",
    "tests/test_cli.py::TestSearchCommand::test_errors_of_the_whole_walk",
)
CHECK_WRITER_TESTS = ("tests/test_cli.py::TestCheckColumns",)
JSON_WRITER_TESTS = ("tests/test_cli.py::TestJsonWriter",)
RANDOM_STREAM_TESTS = ("tests/test_originator.py::TestRandomStream",)
BOUNDS_TESTS = ("tests/test_bounds.py",)

MUTANTS = (
    Mutant(
        "pattern phase j + 1",
        "src/gapcircuit/sieve.py",
        "at = (lo - 1) // 2 % _PERIOD",
        "at = (lo + 1) // 2 % _PERIOD",
        SIEVE_TESTS,
    ),
    Mutant(
        "pattern phase j - 1",
        "src/gapcircuit/sieve.py",
        "at = (lo - 1) // 2 % _PERIOD",
        "at = (lo - 3) // 2 % _PERIOD",
        SIEVE_TESTS,
    ),
    Mutant(
        "pattern without the root >= 13 guard",
        "src/gapcircuit/sieve.py",
        "skip = len(_PRESIEVED) if len(steps) >= len(_PRESIEVED) else 0",
        "skip = len(_PRESIEVED)",
        SIEVE_TESTS,
    ),
    Mutant(
        "doubling copy leaves the rest of the window set",
        "src/gapcircuit/sieve.py",
        "flags[filled : filled + copied] = flags[:copied]",
        "flags[filled : filled + copied] = True",
        SIEVE_TESTS,
    ),
    Mutant(
        "the fold keeps the last tile's stop row, not the largest",
        "src/gapcircuit/verifier.py",
        "certificate = max(certificate, record.stop)",
        "certificate = record.stop",
        SCAN_TESTS,
    ),
    Mutant(
        "the fold keeps the smallest stop row, not the largest",
        "src/gapcircuit/verifier.py",
        "certificate = max(certificate, record.stop)",
        "certificate = min(certificate, record.stop)",
        SCAN_TESTS,
    ),
    Mutant(
        "the fold checks the leaders on every tile",
        "src/gapcircuit/verifier.py",
        "leaders=tile[0] == 0",
        "leaders=True",
        SCAN_TESTS,
    ),
    Mutant(
        "the fold checks the leaders on no tile",
        "src/gapcircuit/verifier.py",
        "leaders=tile[0] == 0",
        "leaders=False",
        SCAN_TESTS,
    ),
    Mutant(
        "the fold gives every tile row 1 as its certificate",
        "src/gapcircuit/verifier.py",
        "_scan_tile(tile, scan_depth, certificate,",
        "_scan_tile(tile, scan_depth, 1,",
        SCAN_TESTS,
    ),
    Mutant(
        "an unsettled record does not fall back to the naive sweep",
        "src/gapcircuit/verifier.py",
        "if certificate is None and first_failure is None:",
        "if scan_depth is None:",
        SCAN_TESTS,
    ),
    Mutant(
        "the leaders' tile checked only every SETTLE_EVERY rows",
        "src/gapcircuit/verifier.py",
        "(certificate is not None and k >= certificate)",
        "(certificate is not None and k >= certificate and not leaders)",
        SCAN_TESTS,
    ),
    Mutant(
        "no tile stops below the certificate",
        "src/gapcircuit/verifier.py",
        "k % SETTLE_EVERY == 0 or (",
        "k % SETTLE_EVERY == 0 and certificate is None or (",
        SCAN_TESTS,
    ),
    Mutant(
        "the naive sweep still certifies",
        "src/gapcircuit/verifier.py",
        "if certificate is not None and peak <= 2",
        "if peak <= 2",
        SWEEP_TESTS,
    ),
    Mutant(
        "the naive tile stops one row early",
        "src/gapcircuit/verifier.py",
        "if cur.size <= lead:",
        "if cur.size <= lead + (certificate is None):",
        SWEEP_TESTS,
    ),
    Mutant(
        "less for less_equal in the narrowest dtype",
        "src/gapcircuit/verifier.py",
        "if bound <= top:",
        "if bound < top:",
        SCAN_TESTS,
    ),
    Mutant(
        "row-1 chunks queued without narrowing",
        "src/gapcircuit/verifier.py",
        "chunk = chunk.astype(_narrowest_dtype(int(chunk.max())), copy=False)",
        "pass",
        ("tests/test_verifier.py::TestStreamedMemory",),
    ),
    Mutant(
        "row-1 chunks not carrying the last term",
        "src/gapcircuit/verifier.py",
        "last = terms[-1:].copy()",
        "last = terms[:0]",
        SCAN_TESTS,
    ),
    Mutant(
        "the windows left after the scan not read, so n is undercounted",
        "src/gapcircuit/verifier.py",
        "    for _ in chunks:  # read the rest to count the terms and check every difference\n"
        "        pass\n",
        "",
        SCAN_TESTS,
    ),
    Mutant(
        "the search takes a passing prefix as the whole walk's verdict",
        "src/gapcircuit/verifier.py",
        "        if report.all_ones and n < model.n:  # the prefix passed: the whole walk decides\n"
        "            o = random_generalized(RandomModel(model.n, model.g_max, trial_seed))\n"
        "            report = verify_frontier(o, scan_depth)\n",
        "",
        SEARCH_TESTS,
    ),
    Mutant(
        "the search draws every walk whole, as if it may overflow",
        "src/gapcircuit/verifier.py",
        "prefix = model.n if _walk_may_overflow(model) else",
        "prefix = model.n if True else",
        SEARCH_TESTS,
    ),
    Mutant(
        "the search draws a prefix where the walk may overflow",
        "src/gapcircuit/verifier.py",
        "prefix = model.n if _walk_may_overflow(model) else",
        "prefix = model.n if False else",
        SEARCH_TESTS,
    ),
    Mutant(
        "the search draws the kept examples as prefixes",
        "src/gapcircuit/verifier.py",
        "n = model.n if len(examples) < KEPT_FAILURES else prefix",
        "n = prefix",
        SEARCH_TESTS,
    ),
    Mutant(
        "greater_equal for greater in the cell limit",
        "src/gapcircuit/triangle.py",
        "if cells > limit:",
        "if cells >= limit:",
        ("tests/test_verifier.py::TestSweepGuard",),
    ),
    Mutant(
        "the tile queue goes on past the tile that reaches row 1's end",
        "src/gapcircuit/verifier.py",
        "if pending.size <= columns + halo:  # this tile reached the end of row 1",
        "if pending.size == 0:",
        SCAN_TESTS,
    ),
    Mutant(
        "verify --method naive keeps its scan depth",
        "src/gapcircuit/cli.py",
        "None if naive else args.scan_depth",
        "args.scan_depth",
        ("tests/test_cli.py::TestStreamedVerify",),
    ),
    Mutant(
        "--primes N sieved before its count is checked",
        "src/gapcircuit/cli.py",
        'count, at_least = args.primes, ""',
        'count, at_least = 0, ""',
        ("tests/test_cli.py::TestCountRefusedBeforeSieving",),
    ),
    Mutant(
        "--limit L sieved before its bound is checked",
        "src/gapcircuit/cli.py",
        'count, at_least = sieve.prime_count_lower_bound(args.limit), "at least "',
        'count, at_least = 0, "at least "',
        ("tests/test_cli.py::TestLimitRefusedBeforeSieving",),
    ),
    Mutant(
        "--n N drawn before its count is checked",
        "src/gapcircuit/cli.py",
        "count = RandomModel(args.n, args.gmax, args.seed).n",
        "count = RandomModel(args.n, args.gmax, args.seed).n and 0",
        ("tests/test_cli.py::TestWalkCountRefusedBeforeDrawing",),
    ),
    Mutant(
        "verify --method naive sieves --limit L before its bound is checked",
        "src/gapcircuit/cli.py",
        "_input_source(args, _sweep_cells if naive else None)",
        "_input_source(args, _sweep_cells if naive and args.limit is None else None)",
        ("tests/test_cli.py::TestLimitRefusedBeforeSieving::test_refused_unsieved",),
    ),
    Mutant(
        "a held input's exact count left unchecked",
        "src/gapcircuit/cli.py",
        "        limit(o.n)\n",
        "",
        ("tests/test_cli.py::TestLimitRefusedBeforeSieving",),
    ),
    Mutant(
        "triangle's row 1 derived after json and csv start writing",
        "src/gapcircuit/cli.py",
        "    first = next(rows)  # the one derivation that can overflow, before a byte is written\n"
        "    # Every format reads the one stream of rows, each row listed as it is written.\n"
        "    lists = (row.tolist() for row in chain([first], rows))\n",
        '    first = next(rows) if args.format == "text" else o.terms\n'
        '    lists = (row.tolist() for row in (chain([first], rows) if args.format == "text" else rows))\n',
        ("tests/test_cli.py::TestStreamedTriangle::test_overflow_prints_nothing",),
    ),
    Mutant(
        "triangle's text width without row 1's maximum",
        "src/gapcircuit/cli.py",
        "(o.terms.min(), o.terms.max(), first.max())",
        "(o.terms.min(), o.terms.max())",
        ("tests/test_cli.py::TestTriangleCommand",),
    ),
    Mutant(
        "a wrong separator between the JSON batches of a flat list",
        "src/gapcircuit/cli.py",
        "[1:-1])\n                    separator = \",\" + inner",
        "[1:-1])\n                    separator = inner",
        JSON_WRITER_TESTS,
    ),
    Mutant(
        "a list of lists sent to the C encoder",
        "src/gapcircuit/cli.py",
        "if value and _SCALAR_TYPES.issuperset(map(type, value)):",
        "if value:",
        JSON_WRITER_TESTS,
    ),
    Mutant(
        "check's slots filled in reverse order",
        "src/gapcircuit/cli.py",
        "for place, kind in slots:",
        "for place, kind in slots[::-1]:",
        CHECK_WRITER_TESTS,
    ),
    Mutant(
        "check's lhs marker given the rhs column",
        "src/gapcircuit/cli.py",
        'lhs=field("lhs")',
        'lhs=field("rhs")',
        CHECK_WRITER_TESTS,
    ),
    Mutant(
        "check's extra list items all read the list's first column",
        "src/gapcircuit/cli.py",
        "column if item is None else column[item]",
        "column if item is None else column[0]",
        CHECK_WRITER_TESTS,
    ),
    Mutant(
        "check's templates keep a literal % unescaped",
        "src/gapcircuit/cli.py",
        'text.replace("%", "%%")',
        "text",
        CHECK_WRITER_TESTS,
    ),
    Mutant(
        "check's rows all take the witness count of their record's first row",
        "src/gapcircuit/cli.py",
        "else map(len, r.witnesses)",
        "else repeat(len(r.witnesses[0]), len(r.lhs))",
        CHECK_WRITER_TESTS,
    ),
    Mutant(
        "check's slices not bounded by JSON_BATCH_CHUNKS",
        "src/gapcircuit/cli.py",
        "yield slice(first, min(first + JSON_BATCH_CHUNKS, stop)), shape",
        "yield slice(first, stop), shape",
        CHECK_WRITER_TESTS,
    ),
    Mutant(
        "SplitMix64's last xor-shift 31, not 33",
        "src/gapcircuit/originator.py",
        "z ^= z >> np.uint64(33)",
        "z ^= z >> np.uint64(31)",
        RANDOM_STREAM_TESTS,
    ),
    Mutant(
        "the draw counter starting at start, not start + 1",
        "src/gapcircuit/originator.py",
        "np.arange(start + 1, start + count + 1,",
        "np.arange(start, start + count,",
        RANDOM_STREAM_TESTS,
    ),
    Mutant(
        "the draws above the last whole cycle kept",
        "src/gapcircuit/originator.py",
        "if int(block.max()) > top:",
        "if False:",
        RANDOM_STREAM_TESTS,
    ),
    Mutant(
        "the fast line pattern takes 19 digits",
        "src/gapcircuit/originator.py",
        r"[+-]?[0-9]{1,18}(?:[\s,]+[+-]?[0-9]{1,18})*",
        r"[+-]?[0-9]{1,19}(?:[\s,]+[+-]?[0-9]{1,19})*",
        ("tests/test_originator.py::TestSequenceTextFastPath",),
    ),
    Mutant(
        "equality counted as failed",
        "src/gapcircuit/bounds.py",
        '"equality": "held"',
        '"equality": "failed"',
        BOUNDS_TESTS,
    ),
    Mutant(
        "any strict failure with the non-strict flag is equality",
        "src/gapcircuit/bounds.py",
        "if non_strict and lhs == rhs",
        "if non_strict",
        BOUNDS_TESTS,
    ),
    Mutant(
        "panel prefix sums skip row 1's maximum",
        "src/gapcircuit/bounds.py",
        "prefix += maxima[u - 1]",
        "prefix += maxima[u]",
        BOUNDS_TESTS,
    ),
    Mutant(
        "trace recurrence reads the deepest segment of the next column",
        "src/gapcircuit/bounds.py",
        "lasts[n - s - 1]",
        "lasts[n - s]",
        BOUNDS_TESTS,
    ),
    Mutant(
        "order 1's edge gap reads the last term",
        "src/gapcircuit/bounds.py",
        "a[c.n - 2]",
        "a[c.n - 1]",
        BOUNDS_TESTS,
    ),
    Mutant(
        "the suite's sandwich lower bound over all n - 1 edge gaps",
        "src/gapcircuit/bounds.py",
        "_sandwich_lower(gaps[:-1])",
        "_sandwich_lower(gaps)",
        ("tests/test_bounds.py::TestSuite",),
    ),
    Mutant(
        "every block summed straight into int64",
        "src/gapcircuit/triangle.py",
        "exact = int(block[0].max()) * width <= I64_MAX",
        "exact = True",
        SUMMARY_TESTS,
    ),
    Mutant(
        "less for less_equal in the block's narrowing flag",
        "src/gapcircuit/triangle.py",
        "np.less_equal(block[1:, :-1], block[:-1, 1:], out=pairs)",
        "np.less(block[1:, :-1], block[:-1, 1:], out=pairs)",
        SUMMARY_TESTS,
    ),
    Mutant(
        "less_equal for less in the column-minimum update",
        "src/gapcircuit/triangle.py",
        "improved = np.less(least, column_minima[:width]",
        "improved = np.less_equal(least, column_minima[:width]",
        SUMMARY_TESTS,
    ),
    Mutant(
        "the last entry read for the second-to-last",
        "src/gapcircuit/triangle.py",
        "second_lasts += block[:, -2::-1].diagonal()",
        "second_lasts += block[:, ::-1].diagonal()",
        SUMMARY_TESTS,
    ),
    Mutant(
        "column argmins counted from 0",
        "src/gapcircuit/triangle.py",
        "reached[:, cols].argmax(axis=0) + k",
        "reached[:, cols].argmax(axis=0) + k - 1",
        SUMMARY_TESTS,
    ),
    Mutant(
        "a block of one row when a row is wider than half the buffer",
        "src/gapcircuit/triangle.py",
        "return max(2, _BLOCK_CELLS // width)",
        "return max(1, _BLOCK_CELLS // width)",
        SUMMARY_TESTS,
    ),
    Mutant(
        "the last row's narrowing with its operands swapped",
        "src/gapcircuit/triangle.py",
        "np.subtract(last[:-1], last[1:], out=",
        "np.subtract(last[1:], last[:-1], out=",
        SUMMARY_TESTS,
    ),
    Mutant(
        "the last row narrows when one entry does",
        "src/gapcircuit/triangle.py",
        "out=flags[: rise.size]).all())",
        "out=flags[: rise.size]).any())",
        SUMMARY_TESTS,
    ),
    Mutant(
        "row n - 1's narrowing entry kept",
        "src/gapcircuit/triangle.py",
        "del narrowing[-1]",
        "narrowing[-1]",
        SUMMARY_TESTS,
    ),
    Mutant(
        "the view of the cells past the rows' ends one column off",
        "src/gapcircuit/triangle.py",
        "block[1:, : width - height : -1]",
        "block[1:, -2 : width - height - 1 : -1]",
        SUMMARY_TESTS,
    ),
    Mutant(
        "the column-minimum fold drops the middle row of an odd block",
        "src/gapcircuit/triangle.py",
        "h = r // 2 if rows is out else (r + 1) // 2",
        "h = r // 2",
        SUMMARY_TESTS,
    ),
    Mutant(
        "the row stream yields each block's rows uncut",
        "src/gapcircuit/triangle.py",
        "yield block[j, : width - j]",
        "yield block[j]",
        ("tests/test_triangle.py::TestSmallBlocks",),
    ),
)


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, into / tree, ignore=skip)
    # tests/test_cli.py runs the README's examples.
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, into)


def _env(copy: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GAPCIRCUIT_")}
    env["PYTHONPATH"] = str(copy / "src")
    return env


def _pytest(copy: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit code on ``tests`` in ``copy``; None when it timed out."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    command += ["--hypothesis-seed=0", *tests]
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    try:
        done = subprocess.run(command, cwd=copy, env=_env(copy), timeout=TIMEOUT_S, **quiet)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def _check_unmutated() -> str | None:
    """Why the unmutated copy cannot judge the mutants, or None when it can."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        where = subprocess.run(
            [sys.executable, "-c", "import gapcircuit; print(gapcircuit.__file__)"],
            cwd=copy, env=_env(copy), capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(copy / "src")):
            return f"the copy imports gapcircuit from {where.stdout.strip() or where.stderr!r}"
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = _pytest(copy, tests)
        if code != 0:
            return f"the unmutated tests {' '.join(tests)} exit with {code}"
    return None


def _judge(mutant: Mutant) -> str:
    """'killed', 'killed (timed out)', 'SURVIVED', or why the mutant is stale."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / mutant.file
        source = path.read_text()
        count = source.count(mutant.text)
        if count != 1:
            return f"STALE: its text occurs {count} times in {mutant.file}"
        path.write_text(source.replace(mutant.text, mutant.replacement))
        code = _pytest(copy, mutant.tests)
    if code is None:
        return "killed (timed out)"
    if code == 1:
        return "killed"
    if code == 0:
        return "SURVIVED"
    # Usage errors, collection errors and interruptions say nothing of the mutant.
    return f"ERROR: pytest exited with {code}"


def main() -> int:
    problem = _check_unmutated()
    if problem:
        print(f"cannot judge the mutants: {problem}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = _judge(mutant)
        failed += not verdict.startswith("killed")
        print(f"{verdict:<20} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
