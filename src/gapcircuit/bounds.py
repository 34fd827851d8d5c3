"""Inequality and identity checks evaluated on concrete circuits.

Every check evaluates both sides of one stated relation with exact integer
arithmetic (no tolerances, no floats) and returns a BoundReport carrying the
numbers, the verdict, and any witnesses.  Checks whose statement has a
hypothesis record it in ``precondition_met``; a report with an unmet
hypothesis is vacuous and is excluded from aggregate pass/fail counts.

Checks read only the originator and the circuit's cached summary with its
check fields (``_summary()``): row sums, extremes and edge entries, column
traces and minima, all from one pass over streamed rows.  The statistics they
call read the same summary, so the rows are derived once for the whole suite,
and ``run_all_checks`` runs in O(n) memory on any circuit, held or streamed.
A small-segment check whose cap is below the row's first entry derives that
one row again.

Each check that runs per order or per segment index is one family function
over a range of indices: it computes the values of the whole range up front
and returns them as one ``_Columns`` record, a list per report field; each
single check returns a one-row record.  ``_check_columns`` evaluates every
record of the suite in report order, so its errors come before any report.
``iter_checks`` and the public ``check_*`` functions make ``BoundReport``s
from the records only as they are read; the ``check`` command writes every
format from the columns themselves, with the status columns of ``_statuses``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any, NamedTuple

from .errors import RangeError
from .triangle import (
    Circuit,
    _fit,
    _Summary,
    _require_segment,
    circuit_length,
    path_of_order,
    trace,
    traces,
)


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Outcome of one check: the compared values, verdict, and witnesses.

    ``lhs`` and ``rhs`` are the two sides of the stated relation; ``middle``
    is present for two-sided bounds (lower <= quantity <= upper).  Witnesses
    are 1-based (index, value) pairs.  ``extra`` carries check-specific
    metadata such as the non-strict verdict of the strict length-decrease
    check.
    """

    name: str
    lhs: int
    rhs: int
    holds: bool
    precondition_met: bool
    middle: int | None = None
    witnesses: tuple[tuple[int, int], ...] = ()
    extra: dict[str, Any] | None = None

    @property
    def vacuous(self) -> bool:
        return not self.precondition_met

    def to_json_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs}
        if self.middle is not None:
            payload["middle"] = self.middle
        payload["holds"] = self.holds
        payload["precondition_met"] = self.precondition_met
        payload["witnesses"] = [[i, v] for i, v in self.witnesses]
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload


class _Columns(NamedTuple):
    """The reports of one check, a list per field: a row per index, or one row.

    Where ``indices`` is a range, row i is the report at ``indices[i]`` and
    ``name`` holds ``%d`` for that index; a one-row record has ``indices``
    None and its name as it is.  ``middle`` is None where the reports have
    none, ``witnesses`` where every row has none, and ``extra`` maps each key
    to its column, or is None where the reports carry no extra.  A key whose
    values are lists of scalars maps to a tuple of columns instead, one per
    list item.  A column is any sequence of values of one type.
    """

    name: str
    indices: range | None
    lhs: list[int]
    rhs: list[int]
    holds: list[bool]
    precondition_met: list[bool]
    middle: list[int] | None = None
    witnesses: list[tuple[tuple[int, int], ...]] | None = None
    extra: dict[str, Sequence | tuple[Sequence, ...]] | None = None


def _one(
    name: str,
    lhs: int,
    rhs: int,
    holds: bool,
    precondition_met: bool,
    middle: int | None = None,
    witnesses: tuple[tuple[int, int], ...] = (),
    extra: dict[str, Any] | None = None,
) -> _Columns:
    """The one-row record of the report these ``BoundReport`` fields make."""
    return _Columns(
        name,
        None,
        [lhs],
        [rhs],
        [holds],
        [precondition_met],
        None if middle is None else [middle],
        [witnesses],
        {
            key: tuple([item] for item in value) if isinstance(value, list) else [value]
            for key, value in extra.items()
        }
        if extra
        else None,
    )


def _reports(r: _Columns) -> Iterator[BoundReport]:
    """The record's reports, each made as it is read."""
    names = [r.name] if r.indices is None else map(r.name.__mod__, r.indices)
    extras = repeat(None)
    if r.extra:
        # A tuple of columns makes a list a row; of no columns, an empty list.
        columns = [
            map(list, zip(*column) if column else repeat((), len(r.lhs)))
            if isinstance(column, tuple)
            else column
            for column in r.extra.values()
        ]
        extras = (dict(zip(r.extra, values)) for values in zip(*columns))
    return map(
        BoundReport,
        names,
        r.lhs,
        r.rhs,
        r.holds,
        r.precondition_met,
        repeat(None) if r.middle is None else r.middle,
        repeat(()) if r.witnesses is None else r.witnesses,
        extras,
    )


def _report(r: _Columns) -> BoundReport:
    """The report of a one-row record."""
    return next(_reports(r))


def _shared(items: Iterable[tuple]) -> list[tuple]:
    """``items`` as a list in which equal tuples are one object.

    A witness column holds one tuple a row; on prime prefixes most of them
    are equal, and sharing them keeps the column to a pointer a row.
    """
    made: dict[tuple, tuple] = {}
    return [made.setdefault(item, item) for item in items]


def _require_order(k: int, hi: int) -> None:
    if not 1 <= k <= hi:
        raise RangeError(f"order must be in [1, {hi}], got {k}")


def _edge_gaps(c: Circuit) -> list[int]:
    """|last-reachable minus first segment| of row k-1 for orders k = 1..n-1.

    These are the lower-bound seeds.  Row k-1 holds n-k+1 segments, so the
    last reachable one is its second-to-last.
    """
    a = c.originator.terms
    summary = c._summary()
    first = abs(int(a[c.n - 2]) - int(a[0]))
    return [first] + [abs(last - lead) for last, lead in zip(summary.second_lasts, summary.firsts)]


def _sandwich_lower(gaps: list[int]) -> int:
    """Both sandwich checks' lower bound: n-2 times the least edge gap of orders 1..n-2."""
    return len(gaps) * min(gaps)


def _panel_integral(maxima: list[int]) -> int:
    """Sum of prefix sums of the per-row maxima: the unit-panel area term.

    The running bound sum(M_1..M_t) is constant on each unit interval
    [u, u+1); integrating it from 1 to n-1 therefore collapses to the exact
    integer sum over panels u = 1..n-2 of the prefix sum(M_1..M_u).
    """
    total = 0
    prefix = 0
    for u in range(1, len(maxima)):
        prefix += maxima[u - 1]
        total += prefix
    return total


def _traces(c: Circuit, segments: range) -> list[int]:
    """The traces of ``segments``, each fitted in order as ``trace`` fits it."""
    totals = c._summary().traces[segments.start - 1 : segments.stop - 1]
    return [_fit(total, "trace") for total in totals]


def _length_bounds(c: Circuit, orders: range, lowers: list[int]) -> _Columns:
    summary = c._summary()
    n = c.n
    rows = slice(orders.start - 1, orders.stop - 1)
    lengths = [_fit(total, "path length") for total in summary.row_sums[rows]]
    uppers = [(n - k) * top for k, top in zip(orders, summary.row_maxima[rows])]
    return _Columns(
        "length_bounds(k=%d)",
        orders,
        lowers,
        uppers,
        [lower <= length <= upper for lower, length, upper in zip(lowers, lengths, uppers)],
        [True] * len(orders),
        middle=lengths,
    )


def check_length_bounds(c: Circuit, k: int) -> BoundReport:
    """Sandwich the order-k path length between its edge gap and spread bound.

    lower = |edge gap of row k-1|, upper = (n-k) * max delta of row k-1;
    holds iff lower <= length <= upper.
    """
    _require_order(k, c.n - 1)
    return _report(_length_bounds(c, range(k, k + 1), [_edge_gaps(c)[k - 1]]))


def _first_at_most(c: Circuit, summary: _Summary, k: int, cap: int) -> tuple[tuple[int, int], ...]:
    """The witnesses: the first 1-based (m, d_m) of row k with d_m <= cap, if any.

    ``summary`` is the circuit's, with its check fields.
    """
    if summary.firsts[k - 1] <= cap:
        return ((1, summary.firsts[k - 1]),)
    if summary.row_minima[k - 1] > cap:
        return ()
    # Only a cap below the row's first segment needs the row's entries.
    row = path_of_order(c.originator, k).segments
    m = int((row <= cap).argmax()) + 1
    return ((m, int(row[m - 1])),)


def _small_segments(c: Circuit, orders: range, caps: list[int]) -> _Columns:
    summary = c._summary()
    rows = slice(orders.start - 1, orders.stop - 1)
    smallest = summary.row_minima[rows]
    return _Columns(
        "small_segment_existence(k=%d)",
        orders,
        smallest,
        caps,
        [least <= cap for least, cap in zip(smallest, caps)],
        [top <= cap for top, cap in zip(summary.row_maxima[rows], caps)],
        witnesses=_shared(_first_at_most(c, summary, k, cap) for k, cap in zip(orders, caps)),
        extra={"cap": caps},
    )


def check_small_segment_existence(c: Circuit, k: int, cap: int) -> BoundReport:
    """Under a delta cap on row k-1, some segment of row k stays at or below it.

    The hypothesis (max delta of row k-1 <= cap) is recorded as the
    precondition; the witness is the first 1-based m with d_m <= cap.
    """
    _require_order(k, c.n - 1)
    if cap < 1:
        raise RangeError(f"cap must be positive, got {cap}")
    return _report(_small_segments(c, range(k, k + 1), [cap]))


def _monotone_decreases(c: Circuit, orders: range) -> _Columns:
    summary = c._summary()
    sums = summary.row_sums
    n = c.n
    shorter, longer = [], []
    for k in orders:
        # Each order's next row is fitted first.
        shorter.append(_fit(sums[k], "path length"))
        longer.append(_fit(sums[k - 1], "path length"))
    return _Columns(
        "monotone_length_decrease(k=%d)",
        orders,
        shorter,
        longer,
        [low < high for low, high in zip(shorter, longer)],
        summary.narrowing[orders.start - 1 : orders.stop - 1],
        extra={
            "non_strict_holds": [low <= high for low, high in zip(shorter, longer)],
            # [1, n - k - 1] for each order k, as a column per item.
            "hypothesis_range": (
                [1] * len(orders),
                range(n - 1 - orders.start, n - 1 - orders.stop, -1),
            ),
        },
    )


def check_monotone_length_decrease(c: Circuit, k: int) -> BoundReport:
    """Row k+1 is strictly shorter in total than row k, given tame deltas.

    Hypothesis (recorded as the precondition): |d_{j+1} - d_j| <= d_{j+1}
    along row k for j = 1..t-1, where t = n-k.  The strict comparison is
    what ``holds`` reports; the non-strict variant is recorded separately in
    ``extra`` because all-zero rows can only achieve equality.
    """
    _require_order(k, c.n - 2)
    return _report(_monotone_decreases(c, range(k, k + 1)))


def check_circuit_bounds(c: Circuit) -> BoundReport:
    """Sandwich the circuit length between edge-gap and delta-spread bounds.

    lower = (n-2) * min edge gap over orders 1..n-2; upper = sum of per-row
    maxima plus the unit-panel integral of their running prefix sums.
    """
    if c.n < 3:
        raise RangeError(f"circuit bounds need at least three terms, got {c.n}")
    return _report(_circuit_bounds(c, _sandwich_lower(_edge_gaps(c)[:-1])))


def _circuit_bounds(c: Circuit, lower: int) -> _Columns:
    maxima = c._summary().row_maxima
    upper = sum(maxima) + _panel_integral(maxima)
    kappa = circuit_length(c)
    return _one(
        name="circuit_bounds",
        lhs=lower,
        middle=kappa,
        rhs=upper,
        holds=lower <= kappa <= upper,
        precondition_met=True,
    )


def _trace_recurrences(c: Circuit, segments: range) -> _Columns:
    n = c.n
    lasts = c._summary().lasts
    tau = _traces(c, range(segments.start, segments.stop + 1))
    a = c.originator.terms[segments.start - 1 : segments.stop].tolist()
    lhs = [2 * t for t in tau[:-1]]
    rhs = [(a[i + 1] - a[i]) + lasts[n - s - 1] + tau[i + 1] for i, s in enumerate(segments)]
    return _Columns(
        "trace_recurrence(s=%d)",
        segments,
        lhs,
        rhs,
        [left >= right for left, right in zip(lhs, rhs)],
        [True] * len(segments),
    )


def check_trace_recurrence(c: Circuit, s: int) -> BoundReport:
    """Twice the trace at s dominates the gap + deepest segment + next trace.

    lhs = 2*trace(s); rhs = (a_{s+1} - a_s) + d_s at order n-s + trace(s+1);
    holds iff lhs >= rhs.
    """
    _require_segment(s, c.n - 2)
    return _report(_trace_recurrences(c, range(s, s + 1)))


def check_average_trace_bound(c: Circuit) -> BoundReport:
    """Sandwich the trace total; witness the smallest trace and largest delta.

    Same lower bound as the circuit bounds; upper = (n-1) * max over all
    per-row maxima plus the unit-panel integral.  The middle value is the
    trace total (equal to the circuit length by the sum identity, but summed
    from traces here).  Witnesses: (argmin trace, min trace) and
    (argmax row max, max row max).
    """
    if c.n < 3:
        raise RangeError(f"average trace bound needs at least three terms, got {c.n}")
    return _report(_average_trace_bound(c, _sandwich_lower(_edge_gaps(c)[:-1])))


def _average_trace_bound(c: Circuit, lower: int) -> _Columns:
    maxima = c._summary().row_maxima
    top = max(maxima)
    upper = (c.n - 1) * top + _panel_integral(maxima)
    tau = traces(c)
    middle = sum(tau)
    # The first index of each extreme, 1-based.
    least = min(tau)
    return _one(
        name="average_trace_bound",
        lhs=lower,
        middle=middle,
        rhs=upper,
        holds=lower <= middle <= upper,
        precondition_met=True,
        witnesses=((tau.index(least) + 1, least), (maxima.index(top) + 1, top)),
    )


def check_trace_circuit_theorem(c: Circuit) -> BoundReport:
    """Circuit length plus first trace dominates the span + diagonal total.

    lhs = kappa + trace(1); rhs = (2a_n - a_{n-1} - a_1) + the sum of the
    deepest segment of each column j = 1..n-2.  The derivation uses
    trace(n-1) = a_n - a_{n-1}, so the precondition records a_n >= a_{n-1};
    both sides are evaluated regardless.
    """
    if c.n < 3:
        raise RangeError(f"the trace-circuit bound needs at least three terms, got {c.n}")
    return _report(_trace_circuit_theorem(c))


def _trace_circuit_theorem(c: Circuit) -> _Columns:
    n = c.n
    a = c.originator.terms
    a_1, a_last, a_prev = int(a[0]), int(a[n - 1]), int(a[n - 2])
    # Segment j of row n-j is that row's last, for j = 1..n-2.
    diagonal = sum(c._summary().lasts[1:])
    lhs = circuit_length(c) + trace(c, 1)
    rhs = (2 * a_last - a_prev - a_1) + diagonal
    return _one(
        name="trace_circuit_theorem",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        precondition_met=a_last >= a_prev,
    )


def _zero_existences(c: Circuit, segments: range) -> _Columns:
    summary = c._summary()
    n = c.n
    columns = slice(segments.start - 1, segments.stop - 1)
    # Rows 1.. hold no negative segment, so a zero is the column minimum.
    smallest = summary.column_minima[columns]
    tau = _traces(c, segments)
    return _Columns(
        "zero_existence(s=%d)",
        segments,
        smallest,
        [0] * len(segments),
        [least == 0 for least in smallest],
        [t < n - s for s, t in zip(segments, tau)],
        witnesses=_shared(
            ((row, 0),) if least == 0 else ()
            for least, row in zip(smallest, summary.column_argmins[columns])
        ),
    )


def check_zero_existence(c: Circuit, s: int) -> BoundReport:
    """A column whose trace is small must contain a zero segment.

    Precondition: trace(s) < n-s.  holds iff some order t in 1..n-s has
    d_s = 0; the witness is the smallest such t.
    """
    _require_segment(s, c.n - 1)
    return _report(_zero_existences(c, range(s, s + 1)))


def check_strong_gilbreath(c: Circuit) -> BoundReport:
    """Positive leading segments with a full trace force every leader to 1.

    Precondition: every row's first segment is positive AND trace(1) = n-1.
    Under it the conclusion (every first segment equals 1) is arithmetically
    forced — n-1 positive integers summing to n-1 are all 1 — so a met
    precondition with a failing conclusion marks an internal inconsistency.
    """
    return _report(_strong_gilbreath(c))


def _strong_gilbreath(c: Circuit) -> _Columns:
    n = c.n
    leaders = c._summary().firsts
    tau_1 = trace(c, 1)
    precondition = min(leaders) > 0 and tau_1 == n - 1
    bad = next(((k, v) for k, v in enumerate(leaders, start=1) if v != 1), None)
    holds = bad is None
    witnesses: tuple[tuple[int, int], ...] = () if holds else (bad,)
    extra = None
    if precondition and not holds:
        extra = {"internal_inconsistency": True}
    return _one(
        name="strong_gilbreath",
        lhs=tau_1,
        rhs=n - 1,
        holds=holds,
        precondition_met=precondition,
        witnesses=witnesses,
        extra=extra,
    )


def check_trace_sum_identity(c: Circuit) -> BoundReport:
    """The circuit length equals the sum of all traces, exactly."""
    return _report(_trace_sum_identity(c))


def _trace_sum_identity(c: Circuit) -> _Columns:
    kappa = circuit_length(c)
    tau_total = sum(traces(c))
    return _one(
        name="trace_sum_identity",
        lhs=kappa,
        rhs=tau_total,
        holds=kappa == tau_total,
        precondition_met=True,
    )


def _check_columns(c: Circuit) -> list[_Columns]:
    """The records of ``run_all_checks``' reports, in its order.

    Every compared value is computed here, in report order, so the first
    ``Int64OverflowError`` that order meets is the one raised.
    """
    n = c.n
    caps = [max(top, 1) for top in c._summary().row_maxima]
    gaps = _edge_gaps(c)
    sandwiches = n >= 3
    lower = _sandwich_lower(gaps[:-1]) if sandwiches else None
    # A list display evaluates its items in order.
    return [
        _length_bounds(c, range(1, n), gaps),
        _small_segments(c, range(1, n), caps),
        _monotone_decreases(c, range(1, n - 1)),
        *([_circuit_bounds(c, lower)] if sandwiches else []),
        _trace_recurrences(c, range(1, n - 1)),
        *([_average_trace_bound(c, lower), _trace_circuit_theorem(c)] if sandwiches else []),
        _zero_existences(c, range(1, n)),
        _strong_gilbreath(c),
        _trace_sum_identity(c),
    ]


def iter_checks(c: Circuit) -> Iterator[BoundReport]:
    """The reports of ``run_all_checks``, in its order, each made as it is read.

    Every compared value is computed before this returns, so an
    ``Int64OverflowError`` is raised here and not while the reports are read.
    """
    return chain.from_iterable(map(_reports, _check_columns(c)))


def run_all_checks(c: Circuit) -> list[BoundReport]:
    """Every check over every valid order and segment index, in a fixed order.

    The small-segment check is driven with cap = max(row max, 1) so its
    hypothesis is satisfiable on every row including all-zero ones, and its
    witness is the row's first segment.
    """
    return list(iter_checks(c))


def _status(met: bool, held: bool, lhs: int, rhs: int, non_strict) -> str:
    """A report's status: "vacuous" (hypothesis unmet), "held", "equality" or "FAILED"."""
    if not met:
        return "vacuous"
    if held:
        return "held"
    return "equality" if non_strict and lhs == rhs else "FAILED"


def is_equality_case(r: BoundReport) -> bool:
    """True for a strict comparison that failed only by landing on equality."""
    non_strict = (r.extra or {}).get("non_strict_holds", False)
    return _status(True, r.holds, r.lhs, r.rhs, non_strict) == "equality"


def report_status(r: BoundReport) -> str:
    """The report's status, by ``_status``."""
    non_strict = (r.extra or {}).get("non_strict_holds", False)
    return _status(r.precondition_met, r.holds, r.lhs, r.rhs, non_strict)


def _statuses(r: _Columns) -> list[str]:
    """The status of each of the record's reports, by ``_status``."""
    non_strict = (r.extra or {}).get("non_strict_holds") or repeat(False)
    return list(map(_status, r.precondition_met, r.holds, r.lhs, r.rhs, non_strict))


# The summary count each status adds to, besides "checked".
_COUNTED_AS = {"vacuous": "vacuous", "held": "held", "equality": "held", "FAILED": "failed"}


def _column_counts(statuses: Iterable[Iterable[str]]) -> dict[str, int]:
    """The summary counts of columns of statuses."""
    summary = {"checked": 0, "held": 0, "vacuous": 0, "failed": 0}
    for status, count in Counter(chain.from_iterable(statuses)).items():
        summary["checked"] += count
        summary[_COUNTED_AS[status]] += count
    return summary


def summarize(reports: list[BoundReport]) -> dict[str, int]:
    """Aggregate counts: vacuous reports aside, equality cases count as held."""
    return _column_counts([map(report_status, reports)])
