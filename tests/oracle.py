"""Brute-force reference implementations used only by the tests.

Everything here is written straight from the definitions with plain Python
integers and lists — no numpy, no shared code with the package — so a test
comparing the two routes actually compares independent computations.
"""


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
