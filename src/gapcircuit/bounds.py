"""Inequality and identity checks evaluated on concrete circuits.

Every check evaluates both sides of one stated relation with exact integer
arithmetic (no tolerances, no floats) and returns a BoundReport carrying the
numbers, the verdict, and any witnesses.  Checks whose statement has a
hypothesis record it in ``precondition_met``; a report with an unmet
hypothesis is vacuous and is excluded from aggregate pass/fail counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import RangeError
from .triangle import Circuit, _checked_sum, circuit_length, trace, traces


@dataclass(frozen=True)
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


def _require_order(k: int, hi: int) -> None:
    if not 1 <= k <= hi:
        raise RangeError(f"order must be in [1, {hi}], got {k}")


def _require_segment(s: int, hi: int) -> None:
    if not 1 <= s <= hi:
        raise RangeError(f"segment index must be in [1, {hi}], got {s}")


def _edge_gap(c: Circuit, k: int) -> int:
    """|last-reachable minus first segment| of row k-1: the lower-bound seed."""
    prev = c.row(k - 1)
    return abs(int(prev[c.n - k - 1]) - int(prev[0]))


def _row_max(c: Circuit, k: int) -> int:
    # The absolute consecutive differences of row k-1 are, by construction,
    # exactly row k; its maximum is the delta bound M_k.
    return int(c.row(k).max())


def _row_length(c: Circuit, k: int) -> int:
    return _checked_sum(c.row(k), "path length")


def _sandwich_terms(c: Circuit) -> tuple[int, list[int]]:
    """The lower bound and the per-row maxima shared by both sandwich checks."""
    lower = (c.n - 2) * min(_edge_gap(c, k) for k in range(1, c.n - 1))
    return lower, [_row_max(c, k) for k in range(1, c.n)]


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


def check_length_bounds(c: Circuit, k: int) -> BoundReport:
    """Sandwich the order-k path length between its edge gap and spread bound.

    lower = |edge gap of row k-1|, upper = (n-k) * max delta of row k-1;
    holds iff lower <= length <= upper.
    """
    _require_order(k, c.n - 1)
    lower = _edge_gap(c, k)
    upper = (c.n - k) * _row_max(c, k)
    length = _row_length(c, k)
    return BoundReport(
        name=f"length_bounds(k={k})",
        lhs=lower,
        middle=length,
        rhs=upper,
        holds=lower <= length <= upper,
        precondition_met=True,
    )


def check_small_segment_existence(c: Circuit, k: int, cap: int) -> BoundReport:
    """Under a delta cap on row k-1, some segment of row k stays at or below it.

    The hypothesis (max delta of row k-1 <= cap) is recorded as the
    precondition; the witness is the first 1-based m with d_m <= cap.
    """
    _require_order(k, c.n - 1)
    if cap < 1:
        raise RangeError(f"cap must be positive, got {cap}")
    row = c.row(k)
    precondition = _row_max(c, k) <= cap
    smallest = int(row.min())
    witnesses: tuple[tuple[int, int], ...] = ()
    if smallest <= cap:
        m = int((row <= cap).argmax()) + 1
        witnesses = ((m, int(row[m - 1])),)
    return BoundReport(
        name=f"small_segment_existence(k={k})",
        lhs=smallest,
        rhs=cap,
        holds=smallest <= cap,
        precondition_met=precondition,
        witnesses=witnesses,
        extra={"cap": cap},
    )


def check_monotone_length_decrease(c: Circuit, k: int) -> BoundReport:
    """Row k+1 is strictly shorter in total than row k, given tame deltas.

    Hypothesis (recorded as the precondition): |d_{j+1} - d_j| <= d_{j+1}
    along row k for j = 1..t-1, where t = n-k.  The strict comparison is
    what ``holds`` reports; the non-strict variant is recorded separately in
    ``extra`` because all-zero rows can only achieve equality.
    """
    _require_order(k, c.n - 2)
    t = c.n - k
    row_k = c.row(k)
    row_next = c.row(k + 1)
    precondition = bool((row_next <= row_k[1:]).all())
    shorter = _row_length(c, k + 1)
    longer = _row_length(c, k)
    return BoundReport(
        name=f"monotone_length_decrease(k={k})",
        lhs=shorter,
        rhs=longer,
        holds=shorter < longer,
        precondition_met=precondition,
        extra={
            "non_strict_holds": shorter <= longer,
            "hypothesis_range": [1, t - 1],
        },
    )


def check_circuit_bounds(c: Circuit) -> BoundReport:
    """Sandwich the circuit length between edge-gap and delta-spread bounds.

    lower = (n-2) * min edge gap over orders 1..n-2; upper = sum of per-row
    maxima plus the unit-panel integral of their running prefix sums.
    """
    n = c.n
    if n < 3:
        raise RangeError(f"circuit bounds need at least three terms, got {n}")
    lower, maxima = _sandwich_terms(c)
    upper = sum(maxima) + _panel_integral(maxima)
    kappa = circuit_length(c)
    return BoundReport(
        name="circuit_bounds",
        lhs=lower,
        middle=kappa,
        rhs=upper,
        holds=lower <= kappa <= upper,
        precondition_met=True,
    )


def check_trace_recurrence(c: Circuit, s: int) -> BoundReport:
    """Twice the trace at s dominates the gap + deepest segment + next trace.

    lhs = 2*trace(s); rhs = (a_{s+1} - a_s) + d_s at order n-s + trace(s+1);
    holds iff lhs >= rhs.
    """
    n = c.n
    _require_segment(s, n - 2)
    a = c.originator.terms
    lhs = 2 * trace(c, s)
    rhs = (int(a[s]) - int(a[s - 1])) + c.segment(s, n - s) + trace(c, s + 1)
    return BoundReport(
        name=f"trace_recurrence(s={s})",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        precondition_met=True,
    )


def check_average_trace_bound(c: Circuit) -> BoundReport:
    """Sandwich the trace total; witness the smallest trace and largest delta.

    Same lower bound as the circuit bounds; upper = (n-1) * max over all
    per-row maxima plus the unit-panel integral.  The middle value is the
    trace total (equal to the circuit length by the sum identity, but summed
    from traces here).  Witnesses: (argmin trace, min trace) and
    (argmax row max, max row max).
    """
    n = c.n
    if n < 3:
        raise RangeError(f"average trace bound needs at least three terms, got {n}")
    lower, maxima = _sandwich_terms(c)
    upper = (n - 1) * max(maxima) + _panel_integral(maxima)
    tau = traces(c)
    middle = sum(tau)
    m_min = min(range(1, n), key=lambda s: tau[s - 1])
    k_max = max(range(1, n), key=lambda k: maxima[k - 1])
    return BoundReport(
        name="average_trace_bound",
        lhs=lower,
        middle=middle,
        rhs=upper,
        holds=lower <= middle <= upper,
        precondition_met=True,
        witnesses=((m_min, tau[m_min - 1]), (k_max, maxima[k_max - 1])),
    )


def check_trace_circuit_theorem(c: Circuit) -> BoundReport:
    """Circuit length plus first trace dominates the span + diagonal total.

    lhs = kappa + trace(1); rhs = (2a_n - a_{n-1} - a_1) + the sum of the
    deepest segment of each column j = 1..n-2.  The derivation uses
    trace(n-1) = a_n - a_{n-1}, so the precondition records a_n >= a_{n-1};
    both sides are evaluated regardless.
    """
    n = c.n
    if n < 3:
        raise RangeError(f"the trace-circuit bound needs at least three terms, got {n}")
    a = c.originator.terms
    a_1, a_last, a_prev = int(a[0]), int(a[n - 1]), int(a[n - 2])
    diagonal = sum(c.segment(j, n - j) for j in range(1, n - 1))
    lhs = circuit_length(c) + trace(c, 1)
    rhs = (2 * a_last - a_prev - a_1) + diagonal
    return BoundReport(
        name="trace_circuit_theorem",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        precondition_met=a_last >= a_prev,
    )


def check_zero_existence(c: Circuit, s: int) -> BoundReport:
    """A column whose trace is small must contain a zero segment.

    Precondition: trace(s) < n-s.  holds iff some order t in 1..n-s has
    d_s = 0; the witness is the smallest such t.
    """
    n = c.n
    _require_segment(s, n - 1)
    tau = trace(c, s)
    column = c.column(s)
    # Rows 1.. hold no negative segment, so a zero is the column minimum.
    smallest = int(column.min())
    witnesses: tuple[tuple[int, int], ...] = ()
    if smallest == 0:
        witnesses = ((int(column.argmin()) + 1, 0),)
    return BoundReport(
        name=f"zero_existence(s={s})",
        lhs=smallest,
        rhs=0,
        holds=smallest == 0,
        precondition_met=tau < n - s,
        witnesses=witnesses,
    )


def check_strong_gilbreath(c: Circuit) -> BoundReport:
    """Positive leading segments with a full trace force every leader to 1.

    Precondition: every row's first segment is positive AND trace(1) = n-1.
    Under it the conclusion (every first segment equals 1) is arithmetically
    forced — n-1 positive integers summing to n-1 are all 1 — so a met
    precondition with a failing conclusion marks an internal inconsistency.
    """
    n = c.n
    leaders = c.column(1)
    tau_1 = trace(c, 1)
    precondition = bool((leaders > 0).all()) and tau_1 == n - 1
    holds = bool((leaders == 1).all())
    witnesses: tuple[tuple[int, int], ...] = ()
    if not holds:
        k_bad = int((leaders != 1).argmax()) + 1
        witnesses = ((k_bad, int(leaders[k_bad - 1])),)
    extra = None
    if precondition and not holds:
        extra = {"internal_inconsistency": True}
    return BoundReport(
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
    kappa = circuit_length(c)
    tau_total = sum(traces(c))
    return BoundReport(
        name="trace_sum_identity",
        lhs=kappa,
        rhs=tau_total,
        holds=kappa == tau_total,
        precondition_met=True,
    )


def run_all_checks(c: Circuit) -> list[BoundReport]:
    """Every check over every valid order and segment index, in a fixed order.

    The small-segment check is driven with cap = max(row max, 1) so its
    hypothesis is satisfiable on every row including all-zero ones.
    """
    n = c.n
    reports: list[BoundReport] = []
    for k in range(1, n):
        reports.append(check_length_bounds(c, k))
    for k in range(1, n):
        reports.append(check_small_segment_existence(c, k, max(_row_max(c, k), 1)))
    for k in range(1, n - 1):
        reports.append(check_monotone_length_decrease(c, k))
    if n >= 3:
        reports.append(check_circuit_bounds(c))
    for s in range(1, n - 1):
        reports.append(check_trace_recurrence(c, s))
    if n >= 3:
        reports.append(check_average_trace_bound(c))
        reports.append(check_trace_circuit_theorem(c))
    for s in range(1, n):
        reports.append(check_zero_existence(c, s))
    reports.append(check_strong_gilbreath(c))
    reports.append(check_trace_sum_identity(c))
    return reports


def is_equality_case(report: BoundReport) -> bool:
    """True for a strict comparison that failed only by landing on equality."""
    return (
        not report.holds
        and report.lhs == report.rhs
        and bool(report.extra)
        and report.extra.get("non_strict_holds", False)
    )


def summarize(reports: list[BoundReport]) -> dict[str, int]:
    """Aggregate counts: vacuous reports aside, equality cases count as held."""
    vacuous = sum(1 for r in reports if not r.precondition_met)
    failed = sum(
        1
        for r in reports
        if r.precondition_met and not r.holds and not is_equality_case(r)
    )
    return {
        "checked": len(reports),
        "held": len(reports) - vacuous - failed,
        "vacuous": vacuous,
        "failed": failed,
    }
