"""Traced in-process run of one gapcircuit CLI job, and the per-layer summary.

Run as a script, this imports the package under import spans, wraps the
public functions of each layer where the calling module looks them up,
calls ``gapcircuit.cli.main(argv)`` with stdout captured, and writes the
spans, the counts and the captured output as one JSON file:

    python3 bench/tracing.py OUT.json -- verify --primes 1000

Spans stay in memory until the job ends.  Each holds its name, layer,
parent id, start and end (``perf_counter_ns``) and the process's
``ru_maxrss`` high-water mark at both ends.  The job itself is the root
span; its self time counts to ``cli``.  Circuit methods such as
``Circuit.row`` are not wrapped, so their time counts to the caller.

``layer_summary`` turns the spans into per-layer self times and memory
rises; the harness imports it without importing gapcircuit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.machinery
import io
import json
import resource
import sys
import time
from pathlib import Path

LAYERS = ("sieve", "originator", "triangle", "bounds", "verifier", "cli")

# (module the caller looks the name up in, attribute, layer it belongs to),
# for every call the four benchmark workloads make across a layer boundary
WRAPPED = (
    ("gapcircuit.cli", "main", "cli"),
    ("gapcircuit.cli", "first_n_primes", "originator"),
    ("gapcircuit.cli", "load_sequence", "originator"),
    ("gapcircuit.cli", "random_generalized", "originator"),
    ("gapcircuit.verifier", "random_generalized", "originator"),
    ("gapcircuit.sieve", "first_n_primes_array", "sieve"),
    ("gapcircuit.sieve", "primes_up_to_array", "sieve"),
    ("gapcircuit.cli", "build_circuit", "triangle"),
    ("gapcircuit.cli", "path_lengths", "triangle"),
    ("gapcircuit.cli", "traces", "triangle"),
    ("gapcircuit.cli", "circuit_length", "triangle"),
    ("gapcircuit.cli", "total_maximal_steps", "triangle"),
    ("gapcircuit.bounds", "trace", "triangle"),
    ("gapcircuit.bounds", "traces", "triangle"),
    ("gapcircuit.bounds", "circuit_length", "triangle"),
    ("gapcircuit.cli", "run_all_checks", "bounds"),
    ("gapcircuit.cli", "summarize", "bounds"),
    ("gapcircuit.cli", "verify_frontier", "verifier"),
    ("gapcircuit.cli", "search_counterexamples", "verifier"),
    ("gapcircuit.verifier", "verify_frontier", "verifier"),
)

IMPORTED = {f"gapcircuit.{layer}": layer for layer in LAYERS}

# Counts that must repeat exactly between two traced runs of one job.
COUNTS = (
    "sieve.primes",
    "sieve.sieved",
    "originator.calls",
    "originator.terms",
    "triangle.cells",
    "triangle.trace_calls",
    "bounds.reports",
    "verifier.calls",
    "verifier.rows_derived",
    "verifier.cells",
    "cli.stdout_bytes",
)


def _rows_derived(report) -> int:
    """Rows 1..r the verifier held to reach its verdict."""
    if report.first_failure:
        return report.first_failure[0]
    if report.stabilization_row is not None:
        return report.stabilization_row
    return report.max_order_checked


def _count(counts: dict[str, int], name: str, layer: str, outer: str | None, args, result) -> None:
    if layer == "sieve":
        if name == "primes_up_to_array":
            counts["sieve.sieved"] += len(result)
        if outer != "sieve":
            counts["sieve.primes"] += len(result)
    elif layer == "originator":
        counts["originator.calls"] += 1
        if hasattr(result, "terms"):
            counts["originator.terms"] += len(result.terms)
    elif name == "build_circuit":
        counts["triangle.cells"] += result.segment_count
    elif name == "trace":
        counts["triangle.trace_calls"] += 1
    elif name == "run_all_checks":
        counts["bounds.reports"] += len(result)
    elif name == "verify_frontier":
        n, rows = args[0].n, _rows_derived(result)
        counts["verifier.calls"] += 1
        counts["verifier.rows_derived"] += rows
        counts["verifier.cells"] += rows * (n - 1) - rows * (rows - 1) // 2


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans and the counts taken at their boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self.stack[-1] if self.stack else None
        record = [name, layer, parent, time.perf_counter_ns(), 0, _maxrss_kb(), 0]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.stack.pop()
            record[4] = time.perf_counter_ns()
            record[6] = _maxrss_kb()

    def outer_layer(self) -> str | None:
        return self.spans[self.stack[-1]][1] if self.stack else None

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.outer_layer()
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            _count(self.counts, name, layer, outer, args, result)
            return result

        return traced


class _ImportSpans:
    """Meta-path finder that times the execution of each layer's module body."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        layer = IMPORTED.get(fullname)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def traced_exec(module):
            with self.tracer.span(f"import {fullname}", layer):
                exec_module(module)

        spec.loader.exec_module = traced_exec
        return spec


def traced_job(argv: list[str], src: Path) -> dict:
    """Import gapcircuit and run ``main(argv)`` under spans."""
    import numpy  # noqa: F401  (a dependency, not a layer: load it before the spans)

    tracer = Tracer()
    finder = _ImportSpans(tracer)
    captured = io.StringIO()
    with tracer.span("job", "cli"):
        sys.meta_path.insert(0, finder)
        try:
            cli = importlib.import_module("gapcircuit.cli")
        finally:
            sys.meta_path.remove(finder)
        if not Path(cli.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"gapcircuit was imported from {cli.__file__}, not from {src}")
        for module, attribute, layer in WRAPPED:
            owner = sys.modules[module]
            setattr(owner, attribute, tracer.wrap(getattr(owner, attribute), attribute, layer))
        with contextlib.redirect_stdout(captured):
            returncode = cli.main(argv)
    stdout = captured.getvalue()
    tracer.counts["cli.stdout_bytes"] = len(stdout.encode("utf-8"))
    return {"returncode": returncode, "spans": tracer.spans, "counts": tracer.counts, "stdout": stdout}


def layer_summary(spans: list[list]) -> dict[str, float]:
    """Self time (s) and self rise of ``ru_maxrss`` (MB) per layer, and the job's time.

    A span's self part is its own minus what its direct children cover, so
    the self times of all layers add up to the root span exactly.
    """
    child_ns = [0] * len(spans)
    child_kb = [0] * len(spans)
    for name, layer, parent, t0, t1, r0, r1 in spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
            child_kb[parent] += r1 - r0
    busy_ns = dict.fromkeys(LAYERS, 0)
    rise_kb = dict.fromkeys(LAYERS, 0)
    for i, (name, layer, parent, t0, t1, r0, r1) in enumerate(spans):
        busy_ns[layer] += t1 - t0 - child_ns[i]
        rise_kb[layer] += r1 - r0 - child_kb[i]
    roots = [s for s in spans if s[2] is None]
    out = {"trace.job_s": sum(t1 - t0 for _, _, _, t0, t1, _, _ in roots) / 1e9}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy_ns[layer] / 1e9
        out[f"{layer}.rss_rise_mb"] = rise_kb[layer] / 1024
    return out


def main() -> int:
    out_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: tracing.py OUT.json -- CLI-ARGS...")
    src = Path(__file__).resolve().parent.parent / "src"
    result = traced_job(argv, src)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
