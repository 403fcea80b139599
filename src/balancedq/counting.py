"""Exact counting of balanced words and exact minimum redundancy.

All counts are exact Python integers, and no per-length table stays
resident between calls.

- A charge count is one coefficient of (1 + x + ... + x^(q-1))^n, taken by
  inclusion-exclusion with exact ratio updates (direct binomials once q
  outgrows n, so the cost does not grow with q).
- Polarity and symbol-balanced counts are closed multinomial forms, built
  term by term.  polarity_count keeps no memo: a pb prefix row asks it for
  one count per sign class, three in all.
- cpb counts combine the polarity pattern with the half-alphabet charge
  distribution: one central charge count at even q, and at odd q a series
  of central coefficients S_h(j) of A_(2j) = (1 + ... + x^(h-1))^(2j),
  h = q//2, read off a walk along the centre of A_m that keeps about 2h
  entries and steps in O(h) (_halfsum_series: the series, O(n) entries per
  half-alphabet size, and the walk's window, the one table kept).
- The joint (charge, polarity) census is built in closed form from the
  half-alphabet charge tables A_m, h = q//2: mirroring each negative
  symbol's magnitude digit makes the digits of a word with a fixed sign
  pattern sum as A_m, so each polarity column is a sum of scaled, shifted
  copies of A_m.  joint_count reads one cell of the same sum.  Censuses are
  capped at CENSUS_MAX_LENGTH.

On a 2-vCPU Intel Xeon VM with Python 3.11, count_cb(1000, 7) takes about
2 ms, count_cpb(1000, 7) about 6 ms and count_cpb(8000, 7) about 0.25 s
(from a cold series), joint_census(160, 6) about 0.02 s and
joint_census(160, 7) about 0.3 s.

_halfsum_series is grown under a lock and shared, so the functions here are
safe to call from several threads; repeated fills are idempotent.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from functools import lru_cache
from operator import add, mul, sub
from typing import Dict, Iterator, List, Tuple

from .errors import KINDS, CapacityError, InfeasibleParamsError, check_kind

#: Hard bound on joint census length.
CENSUS_MAX_LENGTH = 512

#: Default enumeration budget for the brute-force oracle.
BRUTE_FORCE_BUDGET = 10_000_000

_lock = threading.Lock()


# half-sum series per half-alphabet size h: (m = 2*j, the left index lo and
# the window b_lo..b_(m(h-1)/2) of the walk, [S_h(0), ..., S_h(j)]); see
# _halfsum_squares.
_halfsum_series: Dict[int, Tuple[int, int, List[int], List[int]]] = {}


def _check_nq(n: int, q: int) -> None:
    if not isinstance(q, int) or q < 2:
        raise InfeasibleParamsError(f"alphabet order must be an integer >= 2, got {q!r}")
    if type(n) is not int or n < 0:  # bools and floats are refused too
        raise InfeasibleParamsError(f"length must be a non-negative integer, got {n!r}")


def _check_sum(name: str, value: int) -> None:
    if type(value) is not int:  # bools and floats are refused too
        raise InfeasibleParamsError(f"{name} must be an int, got {value!r}")


def _too_large(n: int, k: int) -> CapacityError:
    return CapacityError(f"an exact count needs C({n}, {k}), which is too large to compute")


def _comb(n: int, k: int) -> int:
    """math.comb(n, k), which refuses k and n - k both past a machine word;
    a count that needs such a binomial raises CapacityError."""
    try:
        return math.comb(n, k)
    except OverflowError:
        raise _too_large(n, k) from None


def _charge_step(prev: Tuple[int, ...], q: int) -> Tuple[int, ...]:
    """Next charge table: each entry is a window sum of q entries of prev.

    table_r[j] counts words of length r whose symbol sum is 2*j - r*(q-1).
    """
    sums = list(itertools.accumulate(prev, initial=0))
    upper = sums[1:] + sums[-1:] * (q - 1)
    lower = [0] * (q - 1) + sums[:-1]
    return tuple(map(sub, upper, lower))


def _charge_coefficient(n: int, q: int, m: int) -> int:
    """[x^m] (1 + x + ... + x^(q-1))^n, by inclusion-exclusion.

    Sum over j of (-1)^j C(n, j) C(m - q*j + n - 1, n - 1), where j counts
    the positions forced past q-1.  Both binomials are stepped by exact
    ratios from the last term back to the first; once q > n - 1 the tail
    binomial is taken directly, as its n - 1 factors are fewer than the
    ratio's q.  At q = 1 this is 1 at m = 0 and 0 elsewhere.
    """
    m = min(m, n * (q - 1) - m)
    if m < 0:
        return 0
    if n == 0:
        return 1
    k = n - 1
    j = m // q
    r = m - q * j
    pick = _comb(n, j)  # C(n, j)
    tail = math.comb(r + k, k)  # C(r + k, k)
    total = 0
    while True:
        total += -pick * tail if j & 1 else pick * tail
        if j == 0:
            return total
        pick = pick * j // (n - j + 1)
        j -= 1
        if q > k:
            tail = math.comb(r + q + k, k)
        else:
            # C(r + q + k, k) = C(r + k, k) * (r+k+1)...(r+k+q) / (r+1)...(r+q)
            rise = math.prod(range(r + k + 1, r + k + q + 1))
            tail = tail * rise // math.prod(range(r + 1, r + q + 1))
        r += q


def charge_count(n: int, q: int, charge: int = 0) -> int:
    """Exact number of length-n words whose symbols sum to charge."""
    _check_nq(n, q)
    _check_sum("charge", charge)
    span = n * (q - 1)
    if abs(charge) > span or (charge + span) % 2:
        return 0
    return _charge_coefficient(n, q, (charge + span) // 2)


def polarity_count(n: int, q: int, polarity: int = 0) -> int:
    """Exact number of length-n words with the given polarity sum.

    The polarity sum is (number of positive) - (number of negative)
    symbols.  With jp positive, jm negative and z zero positions a pattern
    contributes the trinomial n!/(jp! jm! z!) times h**(jp + jm), h = q//2.
    Even q has no zero symbol, which leaves the single term z = 0.
    """
    _check_nq(n, q)
    _check_sum("polarity", polarity)
    p = abs(polarity)
    if p > n:
        return 0
    h = q // 2
    if q % 2 == 0:
        return 0 if (n + p) % 2 else _comb(n, (n + p) // 2) * h**n
    # terms from jp = p upwards; each step moves two zeros to one +, one -
    jm, z = 0, n - p
    if z > sys.maxsize:  # a walk past a machine word of terms would not end
        raise _too_large(n, (n + p) // 2)
    term = _comb(n, p) * h**p
    total = term
    while z >= 2:
        term = term * z * (z - 1) * h * h // ((jm + p + 1) * (jm + 1))
        total += term
        jm += 1
        z -= 2
    return total


# The census in closed form.  Write h = q//2, odd = q%2, and let a word have jp
# positive, jm negative and z = n - jp - jm zero symbols (z = 0 at even q).
# Each symbol s sits at digit (s + q - 1)/2 of the charge tables: a positive
# one at h + odd + e and a negative one at h - 1 - e, where
# e = (|s| - odd - 1)/2 in 0..h-1 is its magnitude digit, and a zero at h.
# Mirroring the negative magnitude digits, e -> h - 1 - e, leaves the word's
# digit sum at first = (h + odd)*jp + h*z plus a sum of jp + jm digits in
# 0..h-1, distributed as A_{jp+jm}, the h-alphabet charge table (A_m = (1,)
# at h = 1).  The pattern's positions can be chosen in n!/(jp! jm! z!) ways,
# and its polarity sum is jp - jm.


def _census_rows(n: int, q: int):
    """rows[j1][j2]: words of length n with symbol sum 2*j1 - n*(q-1) and
    polarity sum j2 - n.

    Only the columns of polarity >= 0 are summed; joint negation maps
    column j2 onto column 2n - j2 reversed.
    """
    h, odd = q // 2, q % 2
    cols = [[0] * (n * (q - 1) + 1) for _ in range(n + 1)]  # cols[d]: polarity d
    table = (1,)  # A_m
    for m in range(n + 1):
        if m:
            table = _charge_step(table, h)
        if not (odd or m == n):  # even q has no zero symbol
            continue
        width = len(table)
        jp = (m + 1) // 2
        pick = math.comb(n, m) * math.comb(m, jp)  # n!/(jp! jm! z!)
        while jp <= m:
            jm = m - jp
            first = (h + odd) * jp + h * (n - m)
            col = cols[jp - jm]
            window = col[first : first + width]
            col[first : first + width] = map(add, window, map(mul, table, itertools.repeat(pick)))
            pick = pick * jm // (jp + 1)
            jp += 1
    full = [col[::-1] for col in cols[:0:-1]] + cols
    return tuple(zip(*full))


class JointCensus:
    """Exact joint distribution of (charge sum, polarity sum) at length n.

    cell(s1, s2) is the number of words of length n whose symbols sum to s1
    and whose polarity sum is s2.  The table is symmetric under joint
    negation and its total mass is q**n.
    """

    __slots__ = ("n", "q", "_rows")

    def __init__(self, n: int, q: int, rows) -> None:
        self.n = n
        self.q = q
        self._rows = rows

    def cell(self, charge: int = 0, polarity: int = 0) -> int:
        span = self.n * (self.q - 1)
        if abs(charge) > span or (charge + span) % 2 or abs(polarity) > self.n:
            return 0
        return self._rows[(charge + span) // 2][polarity + self.n]

    def total(self) -> int:
        return sum(map(sum, self._rows))

    def charge_marginal(self, charge: int) -> int:
        span = self.n * (self.q - 1)
        if abs(charge) > span or (charge + span) % 2:
            return 0
        return sum(self._rows[(charge + span) // 2])

    def polarity_marginal(self, polarity: int) -> int:
        if abs(polarity) > self.n:
            return 0
        j2 = polarity + self.n
        return sum(row[j2] for row in self._rows)

    def items(self) -> Iterator[Tuple[Tuple[int, int], int]]:
        span = self.n * (self.q - 1)
        for j1, row in enumerate(self._rows):
            for j2, v in enumerate(row):
                if v:
                    yield (2 * j1 - span, j2 - self.n), v

    def __repr__(self) -> str:  # pragma: no cover
        return f"JointCensus(n={self.n}, q={self.q})"


def joint_census(n: int, q: int) -> JointCensus:
    """Build the exact joint (charge, polarity) census for length n."""
    _check_nq(n, q)
    if n > CENSUS_MAX_LENGTH:
        raise CapacityError(
            f"joint census supported up to n={CENSUS_MAX_LENGTH}, got {n}"
        )
    return JointCensus(n, q, _census_rows(n, q))


def joint_count(n: int, q: int, charge: int = 0, polarity: int = 0) -> int:
    """Exact number of length-n words with the given charge and polarity sums."""
    _check_nq(n, q)
    _check_sum("charge", charge)
    _check_sum("polarity", polarity)
    span = n * (q - 1)
    if abs(charge) > span or (charge + span) % 2 or abs(polarity) > n:
        return 0
    h, odd = q // 2, q % 2
    row = (charge + span) // 2
    # patterns from |polarity| nonzero symbols upwards, as in _census_rows;
    # each step moves two zeros to one +, one -
    jp, jm = max(polarity, 0), max(-polarity, 0)
    z = n - jp - jm
    if z > sys.maxsize:  # a walk past a machine word of terms would not end
        raise _too_large(n, (n + abs(polarity)) // 2)
    pick = _comb(n, z)  # n!/(jp! jm! z!)
    total = 0
    while z >= 0:
        if odd or z == 0:  # even q has no zero symbol
            first = (h + odd) * jp + h * z
            total += pick * _charge_coefficient(jp + jm, h, row - first)
        pick = pick * z * (z - 1) // ((jp + 1) * (jm + 1))
        jp += 1
        jm += 1
        z -= 2
    return total


def count_sb(n: int, q: int) -> int:
    """Symbol-balanced words: n! / ((n/q)!)**q, zero unless q divides n."""
    _check_nq(n, q)
    if n % q:
        return 0
    m = n // q
    try:
        return math.factorial(n) // math.factorial(m) ** q
    except OverflowError:  # n past a machine word
        raise CapacityError(f"an exact count needs {n}!, which is too large to compute") from None


def count_cb(n: int, q: int) -> int:
    """Charge-balanced words: central coefficient of the sum distribution."""
    return charge_count(n, q, 0)


def count_pb(n: int, q: int) -> int:
    """Polarity-balanced words (equal positive and negative counts)."""
    return polarity_count(n, q, 0)


def _halfsum_step(m: int, lo: int, window: List[int], d: int) -> Tuple[int, List[int]]:
    """One step of the walk along the centre of A_m = (1 + x + ... + x^d)^m.

    window holds the coefficients b_lo..b_c of A_m, c = m*d // 2; returns
    (lo', window') for A_(m+1), with lo' = max(0, c' - 2*d).  The entries
    from lo + d up to the new centre c' are window sums of d + 1 old ones,
    past c mirrored by palindromy, b_k = b_(m*d - k).  The few below lo + d
    are solved, right to left, for the lowest term of J. C. P. Miller's
    recurrence for the powers of a polynomial (Knuth, TAOCP vol. 2, 4.7),
    here for A_(m+1):

        k*b_k = sum over i = 1..d of ((m + 2)*i - k)*b_(k-i).

    The sum and the i-weighted sum of the d entries above the term slide
    one place per entry, so an entry costs O(1) big-int operations and a
    step O(d); the division is exact.
    """
    c, top = m * d // 2, (m + 1) * d // 2
    # b_(c+1)..b_top are b_(m*d-c-1)..b_(m*d-top); zero at m = 0, as A_0 = 1
    mirrored = range(m * d - c - 1, m * d - top - 1, -1)
    ext = window + [window[k - lo] if k >= 0 else 0 for k in mirrored]
    if lo == 0:  # b_k = 0 below k = 0
        ext, lo = [0] * d + ext, -d
    sums = list(itertools.accumulate(ext, initial=0))
    start = lo + d  # the first entry the window sums give
    new = list(map(sub, sums[d + 1 :], sums[: -d - 1]))
    low = max(0, top - 2 * d)
    if low >= start:
        return low, new[low - start :]
    # total and moment: sum over s = 1..d of b_(t+s) and of s*b_(t+s)
    total, moment = sum(new[:d]), sum(map(mul, range(1, d + 1), new))
    left = []
    for t in range(start - 1, low - 1, -1):
        k = t + d
        x = (k * total - (m + 2) * (d * total - moment)) // ((m + 1) * d - t)
        above = new[k - start]
        moment += x + total - (d + 1) * above
        total += x - above
        left.append(x)
    left.reverse()
    return low, left + new


def _halfsum_squares(h: int, jmax: int) -> List[int]:
    """[S_h(0), ..., S_h(jmax)], S_h(j) = sum over t of N_j(t)**2.

    N_j is the sum distribution of j symbols drawn from a size-h
    half-alphabet, so S_h(j) counts the ways to fill the j positive and the
    j mirrored negative positions of a charge-balanced pattern.  N_j is
    palindromic, so S_h(j) is also the central coefficient of A_(2j) =
    (1 + x + ... + x^(h-1))^(2j), which a walk along the centre of A_m
    reads off (_halfsum_step): two steps per j, O(h) each.
    """
    d = h - 1
    with _lock:
        m, lo, window, series = _halfsum_series.get(h, (0, 0, [1], [1]))
        while len(series) <= jmax:
            for _ in range(2):
                lo, window = _halfsum_step(m, lo, window, d)
                m += 1
            series.append(window[-1])
        _halfsum_series[h] = (m, lo, window, series)
        return series[: jmax + 1]


def count_cpb(n: int, q: int) -> int:
    """Words that are charge- and polarity-balanced at once.

    For q <= 3 charge balance already forces polarity balance.  Otherwise
    the count is assembled from the polarity pattern (j positive, j
    negative, n - 2*j zero positions) times S_h(j), the number of value
    assignments with opposite half-sums; this agrees with cell (0, 0) of the
    joint census.  Even q has no zero symbol, so only j = n/2 remains and
    S_h(n/2) is the central charge count of length n over the h-alphabet.
    """
    _check_nq(n, q)
    if q <= 3:
        return count_cb(n, q)
    h = q // 2
    if q % 2 == 0:
        return 0 if n % 2 else _comb(n, n // 2) * charge_count(n, h, 0)
    squares = _halfsum_squares(h, n // 2)
    patterns = 1  # C(n, 2j) C(2j, j) = n! / ((n - 2j)! j! j!)
    total = 0
    for j in range(n // 2 + 1):
        total += patterns * squares[j]
        patterns = patterns * (n - 2 * j) * (n - 2 * j - 1) // ((j + 1) * (j + 1))
    return total


_COUNTERS = {"sb": count_sb, "cb": count_cb, "pb": count_pb, "cpb": count_cpb}


def exact_count(kind: str, n: int, q: int) -> int:
    """Dispatch to the exact counter for kind in {'sb','cb','pb','cpb'}; a
    count with a binomial past what math.comb takes raises CapacityError."""
    return _COUNTERS[check_kind(kind)](n, q)


def exact_redundancy(kind: str, n: int, q: int) -> float:
    """Minimum redundancy n - log_q(count) of the best fixed-length code.

    Raises InfeasibleParamsError when no balanced word of length n exists.
    math.log takes exact big integers (internally splitting mantissa and
    exponent), so the result carries ordinary double precision.
    """
    m = exact_count(kind, n, q)
    if m == 0:
        raise InfeasibleParamsError(
            f"no {kind}-balanced words of length {n} over the order-{q} alphabet"
        )
    return n - math.log(m) / math.log(q)


@lru_cache(maxsize=256)
def _brute_tally(n: int, q: int) -> Tuple[int, int, int, int]:
    from .alphabet import is_cb, is_pb, is_sb, symbols

    sb = cb = pb = cpb = 0
    for w in itertools.product(symbols(q), repeat=n):
        c = is_cb(w, q)
        p = is_pb(w, q)
        cb += c
        pb += p
        cpb += c and p
        sb += is_sb(w, q)
    return sb, cb, pb, cpb


def brute_force_count(kind: str, n: int, q: int, budget: int = BRUTE_FORCE_BUDGET) -> int:
    """Oracle counter: enumerate all q**n words and apply the predicate.

    Refuses to enumerate more than budget words.  Exists to cross-check the
    closed forms and dynamic programs, not for production use.
    """
    _check_nq(n, q)
    kind = check_kind(kind)
    if q**n > budget:
        raise CapacityError(f"enumeration of {q}**{n} words exceeds budget {budget}")
    return _brute_tally(n, q)[KINDS.index(kind)]
