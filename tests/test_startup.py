"""Start-up: lazy package exports, and the command line's BLAS thread default.

Each case runs in a fresh interpreter, since what a test looks at (the
modules loaded, the environment, the process's threads) is set once per
process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def child(code: str, **env: str) -> dict:
    """The JSON that ``code`` prints as its last line, run in a fresh interpreter.

    The child sees neither thread variable unless ``env`` sets it.
    """
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    environ = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    environ.update(env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyExports:
    def test_import_loads_no_numpy(self):
        got = child(
            "import json, sys, gapcircuit\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('gapcircuit.'))\n"
            "print(json.dumps(['numpy' in sys.modules, loaded]))"
        )
        assert got == [False, []]

    def test_names_are_their_modules_objects(self):
        got = child(
            "import importlib, json, gapcircuit\n"
            "print(json.dumps({name: getattr(gapcircuit, name) is getattr(\n"
            "    importlib.import_module(f'gapcircuit.{gapcircuit._SOURCES[name]}'), name)\n"
            "    for name in gapcircuit.__all__}))"
        )
        assert len(got) == 46
        assert all(got.values())

    def test_star_import_binds_all(self):
        got = child(
            "import json, gapcircuit\n"
            "namespace = {}\n"
            "exec('from gapcircuit import *', namespace)\n"
            "names = gapcircuit.__all__\n"
            "print(json.dumps([sorted(set(namespace) - {'__builtins__'}), names,\n"
            "    all(namespace[name] is getattr(gapcircuit, name) for name in names)]))"
        )
        bound, names, same = got
        assert bound == sorted(names)
        assert same

    def test_submodule_attributes_resolve(self):
        got = child(
            "import json, sys, gapcircuit\n"
            "names = ['bounds', 'cli', 'errors', 'originator', 'sieve', 'triangle', 'verifier']\n"
            "print(json.dumps([getattr(gapcircuit, name) is sys.modules[f'gapcircuit.{name}']\n"
            "    for name in names]))"
        )
        assert got == [True] * 7

    def test_unknown_attribute_raises(self):
        got = child(
            "import json, gapcircuit\n"
            "try:\n"
            "    gapcircuit.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(json.dumps(str(exc)))"
        )
        assert got == "module 'gapcircuit' has no attribute 'no_such_name'"

    def test_dir_lists_all(self):
        got = child(
            "import json, gapcircuit\n"
            "listed = dir(gapcircuit)\n"
            "print(json.dumps([sorted(set(gapcircuit.__all__) - set(listed)), 'sieve' in listed]))"
        )
        assert got == [[], True]

    def test_library_import_leaves_environment_alone(self):
        got = child(
            "import json, os, gapcircuit\n"
            "gapcircuit.cli, gapcircuit.trace\n"
            "print(json.dumps([os.environ.get(name) for name in "
            + repr(THREAD_VARIABLES)
            + "]))"
        )
        assert got == [None, None]


THREADS = (
    "import json, os\n"
    "import gapcircuit.__main__\n"
    "import numpy\n"
    "with open('/proc/self/status') as status:\n"
    "    threads = next(int(line.split()[1]) for line in status if line.startswith('Threads:'))\n"
    "print(json.dumps([threads] + [os.environ.get(name) for name in "
    + repr(THREAD_VARIABLES)
    + "]))"
)


class TestThreadDefault:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_entry_starts_blas_with_one_thread(self):
        assert child(THREADS) == [1, "1", "1"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_callers_value_wins(self):
        assert child(THREADS, OPENBLAS_NUM_THREADS="2")[1:] == ["2", "1"]

    def test_installed_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["gapcircuit"]
        module, _, attribute = target.partition(":")
        got = child(
            "import importlib, json, os\n"
            f"entry = getattr(importlib.import_module({module!r}), {attribute!r})\n"
            "import gapcircuit.cli\n"
            "print(json.dumps([entry is gapcircuit.cli.main]\n"
            "    + [os.environ.get(name) for name in "
            + repr(THREAD_VARIABLES)
            + "]))"
        )
        assert got == [True, "1", "1"]
