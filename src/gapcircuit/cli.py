"""Command-line front end: triangle, stats, check, verify, search.

Every command reads one originator (or, for search, a random model), writes
one report to stdout in json, csv, or text form, and exits 0 on success,
1 when the checked property fails, 2 on usage or parameter errors, and 141
(128 + SIGPIPE) when the reader of stdout goes away.
Output is deterministic for fixed flags: no timestamps, no wall-clock
entropy; timing figures appear only under --timing.  The entry point is
``gapcircuit.__main__``, which sets NumPy's BLAS thread default before
importing this module.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import cache, partial
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import sieve
from .bounds import BoundReport, _check_columns, _Columns, _column_counts, _statuses
# Not called here; the benchmark's tracer (bench/tracing.py) wraps them by
# their names in this module.
from .bounds import run_all_checks, summarize  # noqa: F401
from .errors import GapCircuitError, UsageError
from .originator import (
    Originator,
    RandomModel,
    first_n_primes,
    load_sequence,
    primes_up_to,
    random_generalized,
)
from .triangle import (
    SWEEP_CELL_LIMIT,
    _StreamedCircuit,
    _triangle_cells,
    build_circuit,
    circuit_length,
    path_lengths,
    total_maximal_steps,
    traces,
)
from .verifier import (
    DEFAULT_SCAN_DEPTH,
    VerifyReport,
    search_counterexamples,
    verify_frontier,
    verify_frontier_windows,
    verify_naive,
)

DEFAULT_TRIANGLE_CAP = 10_000

# The items of a flat list written at once, or check's reports: the rendered
# report is never held whole.
JSON_BATCH_CHUNKS = 4096


# The JSON text of each scalar type, as ``json.dumps`` writes it.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: ("false", "true").__getitem__,
    type(None): lambda value: "null",
}
_SCALAR_TYPES = frozenset(_SCALARS)


@cache
def _flat_encoder(depth: int):
    """The C encoder of a list of scalars at ``depth``.

    Its item separator carries the newline and indent of the items, so only
    the brackets' own newlines are left to add.
    """
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _put_json(value, depth: int) -> None:
    """Write ``value`` to stdout as ``json.dumps(value, indent=2)`` writes it at ``depth``.

    A non-empty list or tuple of scalars goes to the C encoder,
    ``JSON_BATCH_CHUNKS`` items a write.  Any other container is walked here
    and written an item at a time, a scalar as ``_SCALARS`` spells it.  Any
    other iterator is written as a list, each item read only once the one
    before it is written.  Dict keys must be strings.
    """
    write = sys.stdout.write
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        write(scalar(value))
        return
    inner = "\n" + "  " * (depth + 1)
    keyed = isinstance(value, dict)
    if not keyed:
        if isinstance(value, (list, tuple)):
            if value and _SCALAR_TYPES.issuperset(map(type, value)):
                encode = _flat_encoder(depth)
                separator = "[" + inner
                for start in range(0, len(value), JSON_BATCH_CHUNKS):
                    write(separator + encode(value[start : start + JSON_BATCH_CHUNKS])[1:-1])
                    separator = "," + inner
                write("\n" + "  " * depth + "]")
                return
        elif not isinstance(value, Iterator):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    opening, closing = "{}" if keyed else "[]"
    separator = opening + inner
    for item in value.items() if keyed else value:
        if keyed:
            key, item = item
            separator += encode_basestring_ascii(key) + ": "
        write(separator)
        _put_json(item, depth + 1)
        separator = "," + inner
    write(opening + closing if separator[0] == opening else "\n" + "  " * depth + closing)


def _emit_json(payload) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline, as ``_put_json`` writes it."""
    _put_json(payload, 0)
    sys.stdout.write("\n")


def _slices(r: _Columns) -> Iterator[tuple[slice, tuple]]:
    """``r``'s rows in slices of at most ``JSON_BATCH_CHUNKS`` rows of one shape.

    A shape is the record's name, whether the name takes an index and
    whether the record has a middle, the rows' number of witnesses, and their
    extra's (key, kind) pairs or None, where a kind is the value's type or,
    for a list, the tuple of its items' types.  Rows of one witness count
    share a shape; a record's other fields have one shape for all its rows.
    """
    counts = repeat(0, len(r.lhs)) if r.witnesses is None else map(len, r.witnesses)
    start = 0
    for witnesses, run in groupby(counts):
        stop = start + len(list(run))
        extra = None
        if r.extra:
            extra = tuple(
                (key, tuple(type(items[start]) for items in column))
                if isinstance(column, tuple)
                else (key, type(column[start]))
                for key, column in r.extra.items()
            )
        shape = (r.name, r.indices is not None, r.middle is not None, witnesses, extra)
        for first in range(start, stop, JSON_BATCH_CHUNKS):
            yield slice(first, min(first + JSON_BATCH_CHUNKS, stop)), shape
        start = stop


@cache
def _stub(shape: tuple) -> tuple[dict, Callable[[str], str]]:
    """A stub report's JSON dict of ``shape`` (see ``_slices``), and what makes its texts templates.

    The stub is a ``BoundReport``, made once per shape, whose name index and
    every other scalar is a distinct marker int.  The function turns a text
    written from the stub into a ``%`` template: each marker becomes ``%d``
    for an int or ``%s`` for a value spelled beforehand, and any other ``%``
    is escaped.  Its slots come in the order of the text.
    """
    name, indexed, middle, witnesses, extra = shape
    # Markers all have one number of digits, more than the JSON text of the
    # name or of any key, so no marker is inside a key or another marker.
    texts = [name, *(key for key, _ in extra or ())]
    base = 10 ** (max(map(len, map(encode_basestring_ascii, texts))) + 9)
    slots: list[str] = []

    def marker(kind) -> int:
        slots.append("%d" if kind is int else "%s")
        return base + len(slots)

    report = BoundReport(
        name=name % marker(int) if indexed else name,
        lhs=marker(int),
        rhs=marker(int),
        middle=marker(int) if middle else None,
        holds=marker(bool),
        precondition_met=marker(bool),
        witnesses=tuple((marker(int), marker(int)) for _ in range(witnesses)),
        extra=extra and {
            key: list(map(marker, kind)) if isinstance(kind, tuple) else marker(kind)
            for key, kind in extra
        },
    ).to_json_dict()

    def template(text: str) -> str:
        text = text.replace("%", "%%")
        for column, slot in enumerate(slots, start=base + 1):
            text = text.replace(str(column), slot)
        return text

    return report, template


@cache
def _report_template(shape: tuple) -> str:
    """A report's JSON text at depth 2 of ``json.dumps(indent=2)``, as a ``%`` template."""
    report, template = _stub(shape)
    return template(json.dumps(report, indent=2).replace("\n", "\n    "))


@cache
def _row_template(shape: tuple) -> str:
    """A report's CSV row, as ``csv.writer`` writes it, as a ``%`` template.

    The stub's quoting holds for every row: no value filled in holds a comma,
    a quote or a line break, except a string in the extra, whose cell its
    quoted keys always quote, and whose quotes come doubled (``_CSV_SCALARS``).
    """
    r, template = _stub(shape)
    extra = json.dumps(r["extra"], separators=(",", ":")) if "extra" in r else ""
    witnesses = ";".join(f"{i}:{v}" for i, v in r["witnesses"])
    row = [r["name"], r["lhs"], r.get("middle", ""), r["rhs"], r["holds"], r["precondition_met"]]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([*row, witnesses, extra])
    return template(out.getvalue())


@cache
def _line_template(shape: tuple) -> str:
    """A report's text line, its status first, as a ``%`` template."""
    r, template = _stub(shape)
    middle = f" middle={r['middle']}" if "middle" in r else ""
    return "%-8s " + template(f"{r['name']}: lhs={r['lhs']}{middle} rhs={r['rhs']}\n")


# The spelling of each scalar type in a CSV extra cell.
_CSV_SCALARS = {**_SCALARS, str: lambda value: encode_basestring_ascii(value).replace('"', '""')}


def _lead(r: _Columns, rows: slice) -> list[Iterable[int]]:
    """The index column of ``rows``, where the name takes one, and the lhs column."""
    return [r.lhs[rows]] if r.indices is None else [r.indices[rows], r.lhs[rows]]


def _middle(r: _Columns, rows: slice) -> list[list[int]]:
    """The middle column of ``rows``, where the record has one."""
    return [] if r.middle is None else [r.middle[rows]]


def _outcome(r: _Columns, rows: slice, shape: tuple, spelling: dict) -> list[Iterable]:
    """The holds, precondition_met, witness-item and extra-scalar columns of ``rows``.

    Booleans and any extra value but an int are spelled by ``spelling``."""
    _, _, _, witnesses, extra = shape
    spell = spelling[bool]
    columns = [map(spell, r.holds[rows]), map(spell, r.precondition_met[rows])]
    if witnesses:
        flat = list(chain.from_iterable(chain.from_iterable(r.witnesses[rows])))
        columns += [flat[at :: 2 * witnesses] for at in range(2 * witnesses)]
    for key, kind in extra or ():
        column = r.extra[key]
        if not isinstance(kind, tuple):
            column, kind = (column,), (kind,)
        for items, item_kind in zip(column, kind):
            items = items[rows]
            columns.append(items if item_kind is int else map(spelling[item_kind], items))
    return columns


def _check_json(records: list[_Columns], summary: dict[str, int]) -> Iterator[str]:
    """check's JSON, a text per slice of ``_slices``: the bytes of ``_emit_json``
    on ``{"reports": [...], "summary": summary}`` with each report's JSON dict."""
    separator = '{\n  "reports": [\n    '
    for r in records:
        for rows, shape in _slices(r):
            outcome = _outcome(r, rows, shape, _SCALARS)
            columns = [*_lead(r, rows), r.rhs[rows], *_middle(r, rows), *outcome]
            yield separator + ",\n    ".join(map(_report_template(shape).__mod__, zip(*columns)))
            separator = ",\n    "
    # The list is never empty: every circuit gets the two whole-circuit checks.
    yield '\n  ],\n  "summary": ' + json.dumps(summary, indent=2).replace("\n", "\n  ") + "\n}\n"


def _check_rows(records: list[_Columns]) -> Iterator[str]:
    """check's CSV, the header and then a text per slice of ``_slices``."""
    yield "name,lhs,middle,rhs,holds,precondition_met,witnesses,extra\n"
    for r in records:
        for rows, shape in _slices(r):
            outcome = _outcome(r, rows, shape, _CSV_SCALARS)
            columns = [*_lead(r, rows), *_middle(r, rows), r.rhs[rows], *outcome]
            yield "".join(map(_row_template(shape).__mod__, zip(*columns)))


def _check_lines(records: list[_Columns], statuses: list[list[str]], summary) -> Iterator[str]:
    """check's text, a text per slice of ``_slices`` and then the summary line."""
    for r, status in zip(records, statuses):
        for rows, shape in _slices(r):
            columns = [status[rows], *_lead(r, rows), *_middle(r, rows), r.rhs[rows]]
            yield "".join(map(_line_template(shape).__mod__, zip(*columns)))
    yield "summary: " + " ".join(f"{key}={count}" for key, count in summary.items()) + "\n"


def _emit(format: str, payload, rows: Iterable[list], lines: Iterable[str]) -> None:
    """Write one report: ``payload`` as JSON, ``rows`` as CSV or ``lines`` as text.

    Only the one ``format`` chooses is read, so the other two may be
    generators that are never started.
    """
    if format == "json":
        _emit_json(payload)
    elif format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        for line in lines:
            print(line)


def _spelled(value, none: str):
    """A payload scalar as a CSV cell or in a text line: booleans as JSON spells them."""
    if value is None:
        return none
    return _SCALARS[bool](value) if isinstance(value, bool) else value


def _input_source(args: argparse.Namespace) -> str:
    """The one input source given: "primes", "limit", "file" or "n"."""
    chosen = [name for name in ("primes", "limit", "file", "n") if getattr(args, name) is not None]
    if (args.n is None) != (args.gmax is None):
        raise UsageError("--n and --gmax must be given together")
    if len(chosen) != 1:
        raise UsageError(
            "choose exactly one input source: --primes, --limit, --file, or --n/--gmax"
        )
    return chosen[0]


def _resolve_originator(args: argparse.Namespace) -> Originator:
    source = _input_source(args)
    if source == "primes":
        return first_n_primes(args.primes)
    if source == "limit":
        return primes_up_to(args.limit)
    if source == "file":
        try:
            return load_sequence(Path(args.file))
        except OSError as exc:
            raise UsageError(f"cannot read sequence file: {exc}") from None
    return random_generalized(RandomModel(args.n, args.gmax, args.seed))


def _require_two_terms(o: Originator) -> None:
    if o.n < 2:
        raise UsageError(f"a triangle needs at least two terms, got {o.n}")


def _streamed_circuit(o: Originator) -> _StreamedCircuit:
    """The circuit of ``o`` as streamed rows, refused above ``SWEEP_CELL_LIMIT`` cells."""
    _require_two_terms(o)
    refusal = "the triangle of {n} terms would derive {cells} cells, over the limit of {limit}"
    _triangle_cells(o.n, SWEEP_CELL_LIMIT, refusal)
    return _StreamedCircuit(o)


def _triangle_text(c) -> Iterator[str]:
    """Every row, the originator first, in columns as wide as the widest value."""
    terms = c.originator.terms
    # No derived segment exceeds row 1's maximum: |x - y| <= max(x, y).
    widest = (int(terms.min()), int(terms.max()), int(c.row(1).max()))
    width = max(len(str(v)) for v in widest)
    for k in range(c.n):
        yield " ".join(str(v).ljust(width) for v in c.row(k).tolist())


def cmd_triangle(args: argparse.Namespace) -> int:
    o = _resolve_originator(args)
    _require_two_terms(o)
    if o.n > args.cap:
        raise UsageError(
            f"{o.n} terms exceeds the triangle cap of {args.cap}; raise it with --cap"
        )
    c = build_circuit(o)
    # JSON and CSV read the one stream of rows, each row listed as it is written.
    rows = (c.row(k).tolist() for k in range(1, c.n))
    _emit(args.format, {"n": c.n, "rows": rows}, rows, _triangle_text(c))
    return 0


def _stats_csv(payload: dict) -> Iterator[list]:
    yield ["statistic", "index", "value"]
    for key in ("n", "total_maximal_steps", "circuit_length"):
        yield [key, "", payload[key]]
    yield from (["path_length", k, v] for k, v in enumerate(payload["path_lengths"], start=1))
    yield from (["trace", s, v] for s, v in enumerate(payload["traces"], start=1))


def _stats_text(payload: dict) -> Iterator[str]:
    for key, value in payload.items():
        if isinstance(value, list):
            yield f"{key}: " + " ".join(map(str, value))
        else:
            yield f"{key} = {value}"


def cmd_stats(args: argparse.Namespace) -> int:
    c = _streamed_circuit(_resolve_originator(args))
    # Read in this order, so that an input that overflows several of them
    # names "path length" in its error.
    iotas = path_lengths(c)
    taus = traces(c)
    kappa = circuit_length(c)
    payload = {
        "n": c.n,
        "total_maximal_steps": total_maximal_steps(c.n),
        "circuit_length": kappa,
        "path_lengths": iotas,
        "traces": taus,
    }
    _emit(args.format, payload, _stats_csv(payload), _stats_text(payload))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    # Every value, status and count is computed here, before a byte is
    # written; every format is written from the checks' columns, at most
    # JSON_BATCH_CHUNKS reports a write, and no report is made.
    c = _streamed_circuit(_resolve_originator(args))
    records = _check_columns(c)
    if args.format == "text":
        # Only text reads the status columns again, after they are counted.
        statuses = list(map(_statuses, records))
        summary = _column_counts(statuses)
        texts = _check_lines(records, statuses, summary)
    else:
        summary = _column_counts(map(_statuses, records))
        texts = _check_json(records, summary) if args.format == "json" else _check_rows(records)
    for text in texts:
        sys.stdout.write(text)
    return 0 if summary["failed"] == 0 else 1


def _verify(args: argparse.Namespace) -> VerifyReport:
    if args.method == "naive":
        return verify_naive(_resolve_originator(args))
    # Sieved primes are scanned one window at a time, never held all at once.
    source = _input_source(args)
    if source == "primes":
        read = partial(sieve.first_n_prime_windows, args.primes)
    elif source == "limit":
        read = partial(sieve.prime_windows, args.limit)
    else:
        return verify_frontier(_resolve_originator(args), args.scan_depth)
    return verify_frontier_windows(read, args.scan_depth)


def _verify_csv(payload: dict) -> Iterator[list]:
    """A header and one row; ``first_failure`` takes two cells."""
    cells = {}
    for key, value in payload.items():
        if key == "first_failure":
            cells["failure_order"], cells["failure_value"] = value or ("", "")
        else:
            cells[key] = _spelled(value, "")
    yield list(cells)
    yield list(cells.values())


def _verify_text(payload: dict) -> Iterator[str]:
    for key, value in payload.items():
        if key == "first_failure" and value:
            value = "k={} value={}".format(*value)
        yield f"{key} = {_spelled(value, 'none')}"


def cmd_verify(args: argparse.Namespace) -> int:
    report = _verify(args)
    payload = report.to_json_dict(timing=args.timing)
    _emit(args.format, payload, _verify_csv(payload), _verify_text(payload))
    return 0 if report.all_ones else 1


def _search_csv(payload: dict) -> Iterator[list]:
    """A header and one row, without the examples."""
    cells = {key: value for key, value in payload.items() if key != "examples"}
    cells["failure_orders"] = ";".join(f"{k}:{c}" for k, c in payload["failure_orders"].items())
    yield list(cells)
    yield list(cells.values())


def _search_text(payload: dict) -> Iterator[str]:
    """``name = value`` lines, without the scan depth, and a line per example."""
    for key, value in payload.items():
        if key == "failure_orders":
            yield "failure_orders: " + (" ".join(f"{k}:{c}" for k, c in value.items()) or "none")
        elif key == "examples":
            yield "examples:" if value else "examples: none"
            for case in value:
                yield (
                    "  trial={trial} seed={seed} "
                    "failure_order={failure_order} failure_value={failure_value}"
                ).format(**case)
        elif key != "scan_depth":
            yield f"{key} = {value}"


def cmd_search(args: argparse.Namespace) -> int:
    model = RandomModel(args.n, args.gmax, args.seed)
    try:
        report = search_counterexamples(
            model,
            args.trials,
            args.seed,
            scan_depth=args.scan_depth,
            dump_dir=args.dump_dir,
        )
    except OSError as exc:  # only writing --dump-dir touches the file system
        raise UsageError(f"cannot write to the dump directory: {exc}") from None
    payload = report.to_json_dict(timing=args.timing)
    _emit(args.format, payload, _search_csv(payload), _search_text(payload))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcircuit",
        description="Difference triangles of integer sequences: "
        "build them, measure them, bound-check them, and verify that every "
        "derived row starts with 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_argument_group("input source (exactly one)")
    group.add_argument("--primes", type=int, metavar="N", help="the first N primes")
    group.add_argument("--limit", type=int, metavar="L", help="all primes up to L")
    group.add_argument(
        "--file",
        metavar="PATH",
        help="sequence file: integers separated by newlines or commas, '#' comments",
    )
    group.add_argument(
        "--n", type=int, metavar="N", help="length of a random even-gap sequence"
    )
    group.add_argument(
        "--gmax", type=int, metavar="G", help="largest gap for --n (must be even)"
    )
    group.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="seed for the random sequence (default: 0)",
    )

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json",
        help="output format (default: json)",
    )

    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument(
        "--timing",
        action="store_true",
        help="include elapsed wall time in the report (breaks byte-for-byte determinism)",
    )

    p = sub.add_parser(
        "triangle",
        parents=[source, fmt],
        help="print every derived row of the difference triangle",
    )
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_TRIANGLE_CAP,
        metavar="N",
        help="largest originator to materialize as a triangle (default: %(default)s)",
    )
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser(
        "stats",
        parents=[source, fmt],
        help="path lengths, circuit length, traces, and step counts",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "check",
        parents=[source, fmt],
        help="evaluate every bound and identity on the circuit",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "verify",
        parents=[source, fmt, timing],
        help="check that every derived row starts with 1",
    )
    p.add_argument(
        "--method",
        choices=("naive", "frontier"),
        default="frontier",
        help="row-by-row sweep or early stabilization certificate (default: frontier)",
    )
    p.add_argument(
        "--scan-depth",
        type=int,
        default=DEFAULT_SCAN_DEPTH,
        metavar="K",
        help="rows to scan for a stable row before falling back (default: %(default)s)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "search",
        parents=[fmt, timing],
        help="hunt for random even-gap sequences whose triangle breaks the property",
    )
    p.add_argument("--n", type=int, required=True, metavar="N", help="sequence length")
    p.add_argument(
        "--gmax", type=int, required=True, metavar="G", help="largest gap (must be even)"
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="S", help="search seed (default: 0)"
    )
    p.add_argument(
        "--trials", type=int, default=100, metavar="T", help="sequences to try (default: %(default)s)"
    )
    p.add_argument(
        "--scan-depth",
        type=int,
        default=DEFAULT_SCAN_DEPTH,
        metavar="K",
        help="verification scan depth per trial (default: %(default)s)",
    )
    p.add_argument(
        "--dump-dir",
        metavar="DIR",
        help="write kept failing sequences here as <seed>.txt files",
    )
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is then caught below, not at exit
        return code
    except GapCircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point it at nothing, so that the flush at
        # exit cannot raise again, and exit as a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
