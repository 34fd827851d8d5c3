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
from operator import itemgetter
from pathlib import Path

from . import sieve
from .bounds import BoundReport, _check_columns, _Columns, _column_counts, _statuses
# Not called here; the benchmark's tracer (bench/tracing.py) wraps them by
# their names in this module.
from .bounds import run_all_checks, summarize  # noqa: F401
from .triangle import build_circuit  # noqa: F401
from .verifier import verify_frontier  # noqa: F401
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
    _rows,
    _StreamedCircuit,
    _triangle_cells,
    circuit_length,
    path_lengths,
    total_maximal_steps,
    traces,
)
from .verifier import (
    DEFAULT_SCAN_DEPTH,
    VerifyReport,
    _sweep_cells,
    search_counterexamples,
    verify_frontier_windows,
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


# The spelling of each scalar type in a CSV extra cell.
_CSV_SCALARS = {**_SCALARS, str: lambda value: encode_basestring_ascii(value).replace('"', '""')}

# check's CSV columns: each one's header and its cell of a report's JSON dict.
_CSV_CELLS = (
    *(
        (key, lambda r, key=key: r.get(key, ""))
        for key in ("name", "lhs", "middle", "rhs", "holds", "precondition_met")
    ),
    ("witnesses", lambda r: ";".join(f"{i}:{v}" for i, v in r["witnesses"])),
    ("extra", lambda r: json.dumps(r["extra"], separators=(",", ":")) if "extra" in r else ""),
)


@cache
def _template(format: str, shape: tuple) -> tuple[str, tuple]:
    """A ``%`` template of check's text of a report of ``shape`` (see ``_slices``), and its slots.

    The format's own writer writes a stub ``BoundReport`` whose name index
    and every other scalar is a distinct marker int; the text line's status
    is one more.  Each marker is made with its slot, the place its column
    comes from and its kind.  In the template each marker becomes its slot:
    ``%d`` for an int, written as it is, ``%s`` for a value spelled
    beforehand as its kind is, and ``%-8s`` for the status; any other ``%``
    is escaped.  The slots, each (place, kind), come in text order:
    ``place(r, status, rows)`` is the column of ``rows`` of the record ``r``
    whose statuses are ``status``, and kind is None for a column written as
    it is.

    The stub's CSV quoting holds for every row: no value filled in holds a
    comma, a quote or a line break, except a string in the extra, whose cell
    its quoted keys always quote, and whose quotes come doubled
    (``_CSV_SCALARS``).
    """
    name, indexed, middle, witnesses, extra = shape
    # Markers all have one number of digits, more than the JSON text of the
    # name or of any key, so no marker is inside a key or another marker.
    texts = [name, *(key for key, _ in extra or ())]
    base = 10 ** (max(map(len, map(encode_basestring_ascii, texts))) + 9)
    slots: dict[str, tuple] = {}

    def marker(place, kind=int, slot="%s") -> int:
        if kind is int:
            kind, slot = None, "%d"
        slots[str(base + len(slots) + 1)] = slot, place, kind
        return base + len(slots)

    def field(key: str, kind=int) -> int:
        return marker(lambda r, status, rows: getattr(r, key)[rows], kind)

    def witness(pair: int, item: int) -> int:
        get_pair, get_item = itemgetter(pair), itemgetter(item)
        return marker(lambda r, status, rows: map(get_item, map(get_pair, r.witnesses[rows])))

    def extra_item(key: str, kind, item: int | None = None) -> int:
        def place(r, status, rows):
            column = r.extra[key]
            return (column if item is None else column[item])[rows]

        return marker(place, kind)

    report = BoundReport(
        name=name % field("indices") if indexed else name,
        lhs=field("lhs"),
        rhs=field("rhs"),
        middle=field("middle") if middle else None,
        holds=field("holds", bool),
        precondition_met=field("precondition_met", bool),
        witnesses=tuple((witness(pair, 0), witness(pair, 1)) for pair in range(witnesses)),
        extra=extra and {
            key: [extra_item(key, kind, item) for item, kind in enumerate(kind)]
            if isinstance(kind, tuple) else extra_item(key, kind)
            for key, kind in extra
        },
    ).to_json_dict()
    if format == "json":  # at depth 2 of json.dumps(indent=2)
        text = json.dumps(report, indent=2).replace("\n", "\n    ")
    elif format == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow([cell(report) for _, cell in _CSV_CELLS])
        text = out.getvalue()
    else:
        lead = marker(lambda r, status, rows: status[rows], None, "%-8s")
        middle = f" middle={report['middle']}" if "middle" in report else ""
        text = f"{lead} {report['name']}: lhs={report['lhs']}{middle} rhs={report['rhs']}\n"
    text = text.replace("%", "%%")
    found = sorted((text.find(mark), mark) for mark in slots)
    for mark, (slot, _, _) in slots.items():
        text = text.replace(mark, slot)
    return text, tuple(slots[mark][1:] for at, mark in found if at >= 0)


def _check_texts(
    format: str, records: list[_Columns], statuses: list[list[str]], summary: dict[str, int]
) -> Iterator[str]:
    """check's output in ``format``: its head, a text per slice of ``_slices``, and its tail.

    A slice fills its shape's template in ``format`` from the template's
    slots.  The JSON is the bytes of ``_emit_json`` on
    ``{"reports": [...], "summary": summary}`` with each report's JSON dict.
    """
    json_counts = json.dumps(summary, indent=2).replace("\n", "\n  ")
    text_counts = " ".join(f"{key}={count}" for key, count in summary.items())
    spelling, head, joiner, tail = {
        # The list is never empty: every circuit gets the two whole-circuit checks.
        "json": (_SCALARS, '{\n  "reports": [\n    ', ",\n    ",
                 f'\n  ],\n  "summary": {json_counts}\n}}\n'),
        "csv": (_CSV_SCALARS, ",".join(header for header, _ in _CSV_CELLS) + "\n", "", ""),
        "text": (_SCALARS, "", "", f"summary: {text_counts}\n"),
    }[format]
    yield head
    separator = ""
    for r, status in zip(records, statuses):
        for rows, shape in _slices(r):
            text, slots = _template(format, shape)
            columns = []
            for place, kind in slots:
                column = place(r, status, rows)
                columns.append(column if kind is None else map(spelling[kind], column))
            yield separator + joiner.join(map(text.__mod__, zip(*columns)))
            separator = joiner
    yield tail


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


def _input_source(args: argparse.Namespace, limit: Callable[..., object] | None = None) -> str:
    """The one input source given: "primes", "limit", "file" or "n".

    ``limit``, which raises for a count of terms over the command's limit,
    meets the input here, before any term is made and after the walk's own
    parameters: N for ``--primes N`` and ``--n N``, and for ``--limit L`` a
    proven lower bound on the primes up to L, with "at least " for its message.
    """
    chosen = [name for name in ("primes", "limit", "file", "n") if getattr(args, name) is not None]
    if (args.n is None) != (args.gmax is None):
        raise UsageError("--n and --gmax must be given together")
    if len(chosen) != 1:
        raise UsageError(
            "choose exactly one input source: --primes, --limit, --file, or --n/--gmax"
        )
    source = chosen[0]
    if limit and source != "file":
        count, at_least = args.primes, ""
        if source == "limit":
            count, at_least = sieve.prime_count_lower_bound(args.limit), "at least "
        elif source == "n":
            count = RandomModel(args.n, args.gmax, args.seed).n
        if count > 1:
            limit(count, at_least)
    return source


def _resolve_originator(
    args: argparse.Namespace, limit: Callable[..., object] | None = None
) -> Originator:
    """The input's originator, held, after ``_input_source(args, limit)``.

    With ``limit``, the held input must then have two terms or more, and
    ``limit`` meets its exact count, which ``--limit L`` and ``--file`` give
    only now.
    """
    source = _input_source(args, limit)
    if source == "primes":
        o = first_n_primes(args.primes)
    elif source == "limit":
        o = primes_up_to(args.limit)
    elif source == "file":
        try:
            o = load_sequence(Path(args.file))
        except OSError as exc:
            raise UsageError(f"cannot read sequence file: {exc}") from None
    else:
        o = random_generalized(RandomModel(args.n, args.gmax, args.seed))
    if limit:
        if o.n < 2:
            raise UsageError(f"a triangle needs at least two terms, got {o.n}")
        limit(o.n)
    return o


def _streamed_circuit(args: argparse.Namespace) -> _StreamedCircuit:
    """The input's circuit as streamed rows, refused above ``SWEEP_CELL_LIMIT`` cells before one."""

    def cells(n: int, at_least: str = "") -> int:
        refusal = (
            f"the triangle of {at_least}{{n}} terms would derive {at_least}{{cells}} cells, "
            "over the limit of {limit}"
        )
        return _triangle_cells(n, SWEEP_CELL_LIMIT, refusal)

    return _StreamedCircuit(_resolve_originator(args, cells))


def cmd_triangle(args: argparse.Namespace) -> int:
    def capped(n: int, at_least: str = "") -> None:
        if n > args.cap:
            raise UsageError(
                f"{at_least}{n} terms exceeds the triangle cap of {args.cap}; raise it with --cap"
            )

    o = _resolve_originator(args, capped)
    rows = _rows(o)
    first = next(rows)  # the one derivation that can overflow, before a byte is written
    # Every format reads the one stream of rows, each row listed as it is written.
    lists = (row.tolist() for row in chain([first], rows))
    # Text pads every value, the originator's too, to the widest: no derived
    # segment exceeds row 1's maximum, as |x - y| <= max(x, y).  A row of m
    # values fills the last m fields of one template, less the last space.
    width = max(len(str(int(v))) for v in (o.terms.min(), o.terms.max(), first.max()))
    field = f"%-{width}d "
    template = field * o.n
    lines = (
        template[(o.n - len(row)) * len(field) : -1] % tuple(row)
        for row in chain([o.terms.tolist()], lists)
    )
    _emit(args.format, {"n": o.n, "rows": lists}, lists, lines)
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
    c = _streamed_circuit(args)
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
    c = _streamed_circuit(args)
    records = _check_columns(c)
    statuses = list(map(_statuses, records))
    summary = _column_counts(statuses)
    for text in _check_texts(args.format, records, statuses, summary):
        sys.stdout.write(text)
    return 0 if summary["failed"] == 0 else 1


def _verify(args: argparse.Namespace) -> VerifyReport:
    naive = args.method == "naive"
    # Sieved primes are read one window at a time by either method, never held
    # all at once.
    source = _input_source(args, _sweep_cells if naive else None)
    if source == "primes":
        read = partial(sieve.first_n_prime_windows, args.primes)
    elif source == "limit":
        read = partial(sieve.prime_windows, args.limit)
    else:
        o = _resolve_originator(args)
        read = lambda: (o.terms,)  # noqa: E731  (a held originator is one window)
    return verify_frontier_windows(read, None if naive else args.scan_depth)


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
        help="largest originator whose triangle is printed (default: %(default)s)",
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
