import math
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from balancedq import counting
from balancedq.counting import (
    KINDS,
    CENSUS_MAX_LENGTH,
    brute_force_count,
    charge_count,
    count_cb,
    count_cpb,
    count_pb,
    count_sb,
    exact_count,
    exact_redundancy,
    joint_census,
    joint_count,
    polarity_count,
)
from balancedq.errors import CapacityError, InfeasibleParamsError


# Values frozen from exhaustive enumeration of small alphabets.
FROZEN = {
    ("cb", 4, 3): 19,
    ("sb", 4, 2): 6,
    ("sb", 3, 3): 6,
    ("pb", 2, 2): 2,
    ("pb", 2, 5): 9,
    ("cpb", 2, 4): 4,
    ("cpb", 10, 4): 63504,
    ("cb", 2, 2): 2,
    ("cb", 7, 5): 8135,
    ("cpb", 7, 5): 4145,
    ("pb", 7, 5): 12489,
    ("sb", 6, 3): 90,
}


def test_frozen_values():
    for (kind, n, q), want in FROZEN.items():
        assert exact_count(kind, n, q) == want, (kind, n, q)


def test_empty_word_counts():
    for q in (2, 3, 4, 5):
        for kind in KINDS:
            assert exact_count(kind, 0, q) == 1


def test_parity_zeros():
    assert count_cb(3, 2) == 0
    assert count_pb(5, 4) == 0
    assert count_cpb(7, 6) == 0
    assert count_sb(5, 2) == 0
    assert count_sb(7, 3) == 0


def test_sb_closed_form():
    for q in (2, 3, 4):
        for m in (1, 2, 3):
            n = m * q
            want = math.factorial(n) // math.factorial(m) ** q
            assert count_sb(n, q) == want


def test_cpb_equals_squared_binomial_at_q4():
    for n in range(0, 30, 2):
        assert count_cpb(n, 4) == math.comb(n, n // 2) ** 2


def test_small_alphabets_collapse_to_cb():
    for q in (2, 3):
        for n in range(0, 11):
            assert count_cpb(n, q) == count_cb(n, q)
            assert count_pb(n, q) == count_cb(n, q)


def test_brute_force_oracle_small():
    for q in (2, 3, 4, 5):
        for n in range(0, 7):
            for kind in KINDS:
                assert exact_count(kind, n, q) == brute_force_count(kind, n, q), (
                    kind,
                    n,
                    q,
                )


def test_brute_force_budget():
    with pytest.raises(CapacityError):
        brute_force_count("cb", 40, 5)


def test_charge_count_general_sums():
    # distribution over all charges covers every word
    for q in (2, 3, 4):
        for n in (1, 3, 6):
            total = sum(
                charge_count(n, q, c) for c in range(-n * (q - 1), n * (q - 1) + 1)
            )
            assert total == q**n


def test_polarity_count_distribution():
    for q in (2, 3, 4, 5):
        for n in (1, 4, 7):
            total = sum(polarity_count(n, q, p) for p in range(-n, n + 1))
            assert total == q**n


def test_charge_count_odd_charge_even_alphabet():
    # even q alphabets hold only odd symbols, so charge parity equals n parity
    assert charge_count(4, 4, 1) == 0
    assert charge_count(3, 4, 0) == 0
    assert charge_count(3, 4, 1) > 0


def test_joint_census_cells():
    c = joint_census(4, 3)
    assert c.total() == 3**4
    assert c.cell(0, 0) == count_cpb(4, 3)
    assert c.charge_marginal(0) == count_cb(4, 3)
    assert c.polarity_marginal(0) == count_pb(4, 3)


def test_joint_census_negation_symmetry():
    c = joint_census(5, 4)
    for (charge, pol), m in c.items():
        assert c.cell(-charge, -pol) == m


def test_joint_count_matches_brute():
    q, n = 3, 5
    from itertools import product

    from balancedq.alphabet import symbols

    tally = {}
    for w in product(symbols(q), repeat=n):
        key = (sum(w), sum((x > 0) - (x < 0) for x in w))
        tally[key] = tally.get(key, 0) + 1
    for (charge, pol), m in tally.items():
        assert joint_count(n, q, charge, pol) == m
    assert joint_count(n, q, 1, 0) == tally.get((1, 0), 0)


def test_census_length_cap():
    with pytest.raises(CapacityError):
        joint_census(CENSUS_MAX_LENGTH + 1, 3)


@pytest.mark.parametrize(
    "count,args,needs",
    [
        (exact_count, ("cb", 10**26, 5), f"C({10**26}, {4 * 10**25})"),
        (exact_redundancy, ("cpb", 10**26 - 2, 4), f"C({10**26 - 2}, {5 * 10**25 - 1})"),
        (charge_count, (10**26, 5), f"C({10**26}, {4 * 10**25})"),
        (count_cb, (10**26, 5), f"C({10**26}, {4 * 10**25})"),
        (count_pb, (10**26, 4), f"C({10**26}, {5 * 10**25})"),
        (count_cpb, (10**26, 4), f"C({10**26}, {5 * 10**25})"),
        (polarity_count, (10**26, 4), f"C({10**26}, {5 * 10**25})"),
        (count_sb, (10**26, 4), f"{10**26}!"),
        # odd q walks its n/2 pattern terms, and a joint count at any q
        (count_pb, (10**26, 5), f"C({10**26}, {5 * 10**25})"),
        (polarity_count, (10**26 + 1, 7, 3), f"C({10**26 + 1}, {5 * 10**25 + 2})"),
        (joint_count, (10**26, 5), f"C({10**26}, {5 * 10**25})"),
        (joint_count, (10**26, 4, 0, -2), f"C({10**26}, {5 * 10**25 + 1})"),
    ],
)
def test_exact_count_past_comb_is_a_capacity_error(count, args, needs):
    # a binomial or factorial of the count is past what math.comb and
    # math.factorial take: no OverflowError, which the CLI would read as
    # the approximation's
    start = time.perf_counter()
    with pytest.raises(CapacityError) as raised:
        count(*args)
    assert str(raised.value) == f"an exact count needs {needs}, which is too large to compute"
    assert time.perf_counter() - start < 1.0


def test_a_parity_without_balanced_words_counts_zero_at_any_length():
    # a parity that admits no balanced word still counts 0
    assert exact_count("cpb", 10**26 - 1, 4) == exact_count("pb", 10**26 - 1, 4) == 0


def test_charge_count_beyond_retained_window():
    # q=2 charge balance is a plain central binomial, any length
    n = 200
    assert charge_count(n, 2, 0) == math.comb(n, n // 2)
    assert count_cpb(n, 4) == math.comb(n, n // 2) ** 2


def test_census_beyond_retained_window():
    n = 180
    c = joint_census(n, 2)
    assert c.cell(0, 0) == math.comb(n, n // 2)


def test_exact_redundancy():
    r = exact_redundancy("cpb", 10, 4)
    assert abs(r - 2.0227) < 5e-5
    assert exact_redundancy("cb", 0, 3) == 0.0
    with pytest.raises(InfeasibleParamsError):
        exact_redundancy("cb", 3, 2)
    with pytest.raises(InfeasibleParamsError):
        exact_redundancy("sb", 5, 3)


def test_exact_count_rejects_unknown_kind():
    with pytest.raises(InfeasibleParamsError):
        exact_count("bogus", 4, 3)


def test_lengths_must_be_ints():
    for n in (True, False, 3.0):
        for kind in KINDS:
            with pytest.raises(InfeasibleParamsError):
                exact_count(kind, n, 3)
        with pytest.raises(InfeasibleParamsError):
            joint_census(n, 3)


@pytest.mark.parametrize("bad", [0.0, 1.0, True, False, "0", None, [], [0]])
def test_charge_and_polarity_must_be_ints(bad):
    calls = [
        lambda: charge_count(2, 3, bad),
        lambda: polarity_count(3, 5, bad),
        lambda: joint_count(3, 5, bad, 0),
        lambda: joint_count(3, 5, 0, bad),
    ]
    for call in calls:
        with pytest.raises(InfeasibleParamsError):
            call()


@given(st.integers(2, 5), st.integers(0, 9))
@settings(deadline=None)
def test_nesting_of_families(q, n):
    sb = exact_count("sb", n, q)
    cpb = exact_count("cpb", n, q)
    cb = exact_count("cb", n, q)
    pb = exact_count("pb", n, q)
    assert sb <= cpb <= min(cb, pb)
    assert max(cb, pb) <= q**n


@given(st.integers(2, 4), st.integers(1, 8), st.integers(-10, 10))
@settings(deadline=None)
def test_charge_negation_symmetry(q, n, s):
    assert charge_count(n, q, s) == charge_count(n, q, -s)


@given(st.integers(2, 5), st.integers(1, 8), st.integers(-8, 8))
@settings(deadline=None)
def test_polarity_negation_symmetry(q, n, p):
    assert polarity_count(n, q, p) == polarity_count(n, q, -p)


def _stepped_tables(q, nmax):
    """The charge tables of lengths 0..nmax, stepped from length 0."""
    tabs = [(1,)]
    while len(tabs) <= nmax:
        tabs.append(counting._charge_step(tabs[-1], q))
    return tabs


def test_closed_form_matches_table_for_every_charge():
    tables = {q: _stepped_tables(q, 60) for q in range(2, 9)}
    for q, tabs in tables.items():
        for n, tab in enumerate(tabs):
            span = n * (q - 1)
            for charge in range(-span - 3, span + 4):
                inside = abs(charge) <= span and (charge + span) % 2 == 0
                want = tab[(charge + span) // 2] if inside else 0
                assert charge_count(n, q, charge) == want, (n, q, charge)


def test_charge_count_beyond_retained_window_larger_alphabets():
    # central trinomial coefficients: n T_n = (2n-1) T_{n-1} + 3(n-1) T_{n-2}
    prev, cur = 1, 1
    for n in range(2, 1001):
        prev, cur = cur, ((2 * n - 1) * cur + 3 * (n - 1) * prev) // n
        if n > 160:
            assert charge_count(n, 3, 0) == cur, n
    # every charge at n=161, against the table stepped there
    for q in range(3, 9):
        n = 161
        tab = _stepped_tables(q, n)[n]
        span = n * (q - 1)
        got = [charge_count(n, q, c) for c in range(-span, span + 1, 2)]
        assert got == list(tab), q


def _inclusion_exclusion(n, q, m):
    """[x^m] (1 + ... + x^(q-1))^n, each binomial taken directly."""
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(m - q * j + n - 1, n - 1)
        for j in range(m // q + 1)
    )


def test_charge_count_at_huge_alphabets():
    # two symbols balance only as s, -s: q words; three balance in
    # (3q^2 + 1)/4 ways at odd q and never at even q, whose symbols are odd
    for q in (99_999_999_999, 100_000, 100_001, 10**30 + 1):
        assert count_cb(2, q) == q
        assert count_cb(3, q) == (0 if q % 2 == 0 else (3 * q * q + 1) // 4)
    # past q > n - 1 the tail binomial is taken directly, not by ratios
    for n, q in ((200, 100_000), (12, 13), (12, 12), (40, 1000)):
        span = n * (q - 1)
        for m in (0, 1, q - 1, q, span // 2 - 1, span // 2):
            assert charge_count(n, q, 2 * m - span) == _inclusion_exclusion(n, q, m), (n, q, m)


def test_cpb_even_alphabet_is_binomial_times_half_alphabet_cb():
    for q in (4, 6, 8):
        for n in range(0, 401, 2):
            assert count_cpb(n, q) == math.comb(n, n // 2) * count_cb(n, q // 2), (n, q)
        assert count_cpb(401, q) == 0


def test_cpb_odd_alphabet_matches_joint_census():
    for q in (5, 7):
        for n in range(0, 61):
            assert count_cpb(n, q) == joint_census(n, q).cell(0, 0), (n, q)


class _SteppedSeries:
    """The odd-q cpb half-sum series as it was built before the walk along
    the centre: the whole h-alphabet charge table stepped twice per j, with
    S_h(j) its central coefficient.  Kept here as the reference."""

    def __init__(self):
        self.state = {}

    def __call__(self, h, jmax):
        table, series = self.state.get(h, ((1,), [1]))
        while len(series) <= jmax:
            table = counting._charge_step(counting._charge_step(table, h), h)
            series.append(table[len(table) // 2])
        self.state[h] = (table, series)
        return series[: jmax + 1]


_stepped_series = _SteppedSeries()


def _cpb_from_series(n, series):
    """sum over j of C(n, 2j) C(2j, j) S_h(j), the odd-q cpb count."""
    return sum(
        math.comb(n, 2 * j) * math.comb(2 * j, j) * series[j] for j in range(n // 2 + 1)
    )


@pytest.fixture
def cold_series(monkeypatch):
    """An empty half-sum cache for the test, the shared one restored after."""
    monkeypatch.setattr(counting, "_halfsum_series", {})


#: (odd q, the lengths checked); n <= 400 for every odd q in 5..21, with
#: 555 added; 1000 and 2001 where the stepped reference takes under a second
_WALK_CASES = [
    (q, list(range(401)) + [555] + ([1000, 2001] if q <= 7 else []))
    for q in range(5, 22, 2)
] + [(201, list(range(61))), (2001, list(range(61)))]


@pytest.mark.parametrize("q, lengths", _WALK_CASES, ids=[f"q={q}" for q, _ in _WALK_CASES])
def test_halfsum_walk_matches_stepped_tables(q, lengths, cold_series):
    h, jmax = q // 2, max(lengths) // 2
    want = _stepped_series(h, jmax)
    assert counting._halfsum_squares(h, jmax) == want
    for n in lengths:
        assert count_cpb(n, q) == _cpb_from_series(n, want), (n, q)


@pytest.mark.parametrize("q", [5, 7, 11, 21, 201])
def test_halfsum_walk_resumes_after_an_ascending_sweep(q, cold_series):
    h, top = q // 2, 160 if q < 201 else 60
    swept = [count_cpb(n, q) for n in range(top + 1)]  # grows the series one j at a time
    grown = counting._halfsum_squares(h, top)  # and resumes the walk past the sweep
    counting._halfsum_series.clear()
    cold = counting._halfsum_squares(h, top)
    assert grown == cold == _stepped_series(h, top)
    assert swept == [_cpb_from_series(n, cold) for n in range(top + 1)]


def _polarity_factorial_sum(n, q, polarity, fact):
    """The trinomial sum with three factorials per term, as a reference."""
    h, has_zero = q // 2, q % 2
    total = 0
    for jp in range(max(polarity, 0), (n + polarity) // 2 + 1):
        jm = jp - polarity
        z = n - jp - jm
        if has_zero or z == 0:
            total += fact[n] // (fact[jp] * fact[jm] * fact[z]) * h ** (jp + jm)
    return total


def test_polarity_count_matches_factorial_sum():
    fact = [math.factorial(i) for i in range(301)]
    lengths = list(range(0, 41)) + [97, 160, 161, 211, 299, 300]
    for q in range(2, 9):
        for n in lengths:
            for p in range(-n - 1, n + 2):
                want = _polarity_factorial_sum(n, q, p, fact)
                assert polarity_count(n, q, p) == want, (n, q, p)
