"""Mutation gate: every listed source mutant must make its tests fail.

    python3 tools/mutants.py

Each mutant is one exact text in one file under ``src/`` and its
replacement.  For each, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, makes the one replacement
there, and runs the mutant's test selection with ``-x`` and a fixed
Hypothesis seed, one mutant at a time.  A mutant is killed when the tests
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
VERIFIER_TESTS = ("tests/test_verifier.py",)
TRIANGLE_TESTS = ("tests/test_triangle.py",)

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
        "a tile's stop sets the certificate to its own row",
        "src/gapcircuit/verifier.py",
        "certificate = max(certificate, k)",
        "certificate = k",
        VERIFIER_TESTS,
    ),
    Mutant(
        "min for max in the certificate",
        "src/gapcircuit/verifier.py",
        "certificate = max(certificate, k)",
        "certificate = min(certificate, k)",
        VERIFIER_TESTS,
    ),
    Mutant(
        "tile 0 checked only every SETTLE_EVERY rows",
        "src/gapcircuit/verifier.py",
        "checked = k >= certificate or",
        "checked = (k >= certificate and lo > 0) or",
        VERIFIER_TESTS,
    ),
    Mutant(
        "no tile stops below the certificate",
        "src/gapcircuit/verifier.py",
        " or k % SETTLE_EVERY == 0\n",
        "\n",
        VERIFIER_TESTS,
    ),
    Mutant(
        "the naive mode still certifies",
        "src/gapcircuit/verifier.py",
        "checked = cur.size == 1",
        "checked = True",
        VERIFIER_TESTS,
    ),
    Mutant(
        "the naive tile stops one row early",
        "src/gapcircuit/verifier.py",
        "checked = cur.size == 1",
        "checked = cur.size == 2",
        VERIFIER_TESTS,
    ),
    Mutant(
        "the naive scan goes on past its one tile",
        "src/gapcircuit/verifier.py",
        "        if not certify:\n            return None, None\n",
        "",
        VERIFIER_TESTS,
    ),
    Mutant(
        "less for less_equal in the block's narrowing flag",
        "src/gapcircuit/triangle.py",
        "np.less_equal(block[1:, :-1], block[:-1, 1:], out=pairs)",
        "np.less(block[1:, :-1], block[:-1, 1:], out=pairs)",
        TRIANGLE_TESTS,
    ),
    Mutant(
        "less_equal for less in the column-minimum update",
        "src/gapcircuit/triangle.py",
        "improved = np.less(least, column_minima[:width]",
        "improved = np.less_equal(least, column_minima[:width]",
        TRIANGLE_TESTS,
    ),
    Mutant(
        "the last entry read for the second-to-last",
        "src/gapcircuit/triangle.py",
        "second_lasts += block[:, -2::-1].diagonal()",
        "second_lasts += block[:, ::-1].diagonal()",
        TRIANGLE_TESTS,
    ),
    Mutant(
        "column argmins counted from 0",
        "src/gapcircuit/triangle.py",
        "reached[:, cols].argmax(axis=0) + k",
        "reached[:, cols].argmax(axis=0) + k - 1",
        TRIANGLE_TESTS,
    ),
)


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, into / tree, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", into)


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
