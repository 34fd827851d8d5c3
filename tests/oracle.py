"""Brute-force reference implementations used only by the tests.

Everything here is written straight from the definitions with plain Python
integers and lists — no numpy, no shared code with the package — so a test
comparing the two routes actually compares independent computations.
"""

import re


def triangle_rows(terms):
    """All derived rows: row k is the absolute differences of row k-1."""
    rows = []
    row = list(terms)
    while len(row) > 1:
        row = [abs(row[i + 1] - row[i]) for i in range(len(row) - 1)]
        rows.append(row)
    return rows


def iota(row):
    return sum(row)


def kappa(terms):
    return sum(sum(row) for row in triangle_rows(terms))


def column(terms, s):
    """The s-th (1-based) entry of every row long enough, top row first."""
    return [row[s - 1] for row in triangle_rows(terms) if len(row) >= s]


def tau(terms, s):
    """Column sum: the s-th (1-based) entry of every row long enough."""
    return sum(column(terms, s))


def all_taus(terms):
    return [tau(terms, s) for s in range(1, len(terms))]


def row_sums_and_traces(terms):
    """Every row sum and every trace, one derived row at a time (O(n) memory)."""
    sums = []
    taus = [0] * (len(terms) - 1)
    row = list(terms)
    while len(row) > 1:
        row = [abs(b - a) for a, b in zip(row, row[1:])]
        sums.append(sum(row))
        taus[: len(row)] = [t + v for t, v in zip(taus, row)]
    return sums, taus


def leading_ones(terms):
    """(all_ones, first_failure) by inspecting every derived row directly."""
    for k, row in enumerate(triangle_rows(terms), start=1):
        if row[0] != 1:
            return False, (k, row[0])
    return True, None


def frontier(terms, scan_depth):
    """(first_failure, stabilization_row) of the frontier method, by definition.

    Rows are derived one at a time; the scan stops at the first leader that
    is not 1, or at the first row within ``scan_depth`` whose entries after
    the leader are all 0 or 2.  Both are None when neither happens.
    """
    row = list(terms)
    k = 0
    while len(row) > 1:
        row = [abs(row[i + 1] - row[i]) for i in range(len(row) - 1)]
        k += 1
        if row[0] != 1:
            return (k, row[0]), None
        if k <= scan_depth and all(v in (0, 2) for v in row[1:]):
            return None, k
    return None, None


def tile_scan(terms, lo, span, depth, certificate, leaders, every):
    """(width, row-1 maximum, dtype name, stop row, failure) of one tile's scan, by definition.

    The tile holds columns lo .. lo + span - 1 of row 1, fewer at its end,
    so its row k is columns lo .. lo + span - k of row k of the whole
    triangle.  Its region leaves out column 0 when it holds the leaders,
    and a leader other than 1 is its failure.  Its stop row is the row
    where the region runs out of columns or, with a certificate, the first
    row r at or after the region's first row of only 0s and 2s where
    r % every == 0 or r >= certificate; None when rows 1..depth end first.
    """
    rows = triangle_rows(terms)
    entries = rows[0][lo : lo + span]
    top = max(entries)
    dtype = next((f"int{bits}" for bits in (8, 16, 32) if top < 2 ** (bits - 1)), "int64")
    lead = 1 if leaders else 0
    stable = None
    for k in range(1, depth + 1):
        row = rows[k - 1][lo : lo + span - k + 1] if k <= len(rows) else []
        if leaders and row[0] != 1:
            return len(entries), top, dtype, None, (k, row[0])
        if len(row) <= lead:
            return len(entries), top, dtype, k, None
        if stable is None and all(v in (0, 2) for v in row[lead:]):
            stable = k
        if certificate is not None and stable is not None and (k % every == 0 or k >= certificate):
            return len(entries), top, dtype, k, None
    return len(entries), top, dtype, None, None


def first_primes(count):
    """The first `count` primes by incremental trial division."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def primes_below(limit):
    """All primes <= limit via a plain list-of-booleans sieve."""
    if limit < 2:
        return []
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for multiple in range(p * p, limit + 1, p):
                flags[multiple] = False
    return [i for i, is_prime in enumerate(flags) if is_prime]


def edge_gap(terms, k):
    """|d_{n-k} - d_1| of row k-1, rows numbered with row 0 = the terms."""
    n = len(terms)
    row = terms if k == 1 else triangle_rows(terms)[k - 2]
    return abs(row[n - k - 1] - row[0])


def row_maxima(terms):
    """Per-row maxima M_k for k = 1..n-1 (each equals the max delta of row k-1)."""
    return [max(row) for row in triangle_rows(terms)]


def row_edges(terms):
    """(minimum, first, second-to-last or None, last) of every derived row."""
    return [
        (min(row), row[0], row[-2] if len(row) > 1 else None, row[-1])
        for row in triangle_rows(terms)
    ]


def narrowing(terms):
    """For k = 1..n-2: whether every d_j of row k+1 is <= d_{j+1} of row k."""
    rows = triangle_rows(terms)
    return [
        all(rows[k][j] <= rows[k - 1][j + 1] for j in range(len(rows[k])))
        for k in range(1, len(rows))
    ]


def column_minima(terms):
    """(minimum, first 1-based row holding it) of every column s = 1..n-1."""
    minima = []
    for s in range(1, len(terms)):
        col = column(terms, s)
        minima.append((min(col), col.index(min(col)) + 1))
    return minima


def panel_integral(terms):
    """Direct double loop over unit panels: sum_{u=1..n-2} sum_{s=1..u} M_s."""
    maxima = row_maxima(terms)
    total = 0
    for u in range(1, len(terms) - 1):
        for s in range(1, u + 1):
            total += maxima[s - 1]
    return total


_U64_MASK = (1 << 64) - 1


class SplitMix64:
    """The package's random stream, one draw at a time.

    SplitMix64's mix except for the last xor-shift, which is 33 here and 31
    in the published generator.
    """

    def __init__(self, seed):
        self._state = seed & _U64_MASK

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64_MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
        return z ^ (z >> 33)

    def below(self, count):
        """Exactly uniform draw from [0, count) by rejection."""
        threshold = ((1 << 64) // count) * count
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % count


def random_generalized(n, g_max, seed):
    """Terms of the even-gap random model: start at 1, draw each gap in turn."""
    rng = SplitMix64(seed)
    terms = [1]
    for _ in range(n - 1):
        terms.append(terms[-1] + 2 * (1 + rng.below(g_max // 2)))
    return terms


def search(walk, n, g_max, trials, seed, scan_depth, kept):
    """A search report's JSON fields, every trial's whole walk checked row by row.

    ``walk(n, g_max, trial_seed)`` gives a trial's terms, and trial t takes
    draw t - 1 of the stream on ``seed`` as its seed.  The first ``kept``
    failing walks are the examples.  None when a walk leaves int64.
    """
    rng = SplitMix64(seed)
    failures, orders, examples = 0, {}, []
    for trial in range(1, trials + 1):
        trial_seed = rng.next_u64()
        terms = walk(n, g_max, trial_seed)
        if max(terms) > 2**63 - 1:
            return None
        _, failure = leading_ones(terms)
        if failure is None:
            continue
        failures += 1
        orders[failure[0]] = orders.get(failure[0], 0) + 1
        if len(examples) < kept:
            examples.append(
                {
                    "trial": trial,
                    "seed": trial_seed,
                    "failure_order": failure[0],
                    "failure_value": failure[1],
                    "sequence": terms,
                }
            )
    return {
        "n": n,
        "g_max": g_max,
        "trials": trials,
        "seed": seed,
        "scan_depth": scan_depth,
        "failures": failures,
        "failure_rate": failures / trials,
        "failure_orders": {str(k): orders[k] for k in sorted(orders)},
        "examples": examples,
    }


def parse_sequence(text):
    """The sequence text format read one token at a time: the list of terms,
    or the first bad token's ("token" or "overflow", line, column)."""
    terms = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        for match in re.finditer(r"[^\s,]+", line):
            token, column = match.group(), match.start() + 1
            if not re.fullmatch(r"[+-]?[0-9]+", token):
                return ("token", lineno, column)
            if not -(2**63) <= int(token) < 2**63:
                return ("overflow", lineno, column)
            terms.append(int(token))
    return terms
