"""Difference triangles of integer sequences, their statistics, and checks.

The package builds the triangle of iterated absolute differences over a
seed sequence (the originator), measures its rows (lengths, circuit
length, traces), evaluates a family of exact inequalities on it, and
verifies at scale that every derived row of a prime triangle starts
with 1.

Importing the package loads none of its modules, and so not NumPy: each
public name and each submodule is imported on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each submodule, with the public names it defines.
_MODULES = {
    "bounds": (
        "BoundReport",
        "check_average_trace_bound",
        "check_circuit_bounds",
        "check_length_bounds",
        "check_monotone_length_decrease",
        "check_small_segment_existence",
        "check_strong_gilbreath",
        "check_trace_circuit_theorem",
        "check_trace_recurrence",
        "check_trace_sum_identity",
        "check_zero_existence",
        "run_all_checks",
        "summarize",
    ),
    "cli": (),
    "errors": (
        "EmptyInputError",
        "GapCircuitError",
        "Int64OverflowError",
        "RangeError",
        "SequenceParseError",
        "SieveBudgetError",
        "UsageError",
    ),
    "originator": (
        "Originator",
        "RandomModel",
        "dump_sequence",
        "first_n_primes",
        "load_sequence",
        "primes_up_to",
        "random_generalized",
        "render_sequence",
    ),
    "sieve": (),
    "triangle": (
        "Circuit",
        "Path",
        "build_circuit",
        "circuit_length",
        "derive",
        "path_lengths",
        "path_length",
        "path_of_order",
        "total_maximal_steps",
        "trace",
        "traces",
        "trivial_path",
    ),
    "verifier": (
        "FailingCase",
        "SearchReport",
        "VerifyReport",
        "search_counterexamples",
        "verify_frontier",
        "verify_naive",
    ),
}
# The module each name resolves through: a submodule is its own.
_SOURCES = {name: module for module, names in _MODULES.items() for name in (module, *names)}

__all__ = sorted(_SOURCES.keys() - _MODULES.keys())


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SOURCES.keys())
