"""The joint census in closed form, against the dynamic program it replaced.

joint_census sums scaled, shifted copies of half-alphabet charge tables,
and joint_count reads one cell of the same sum.  The reference below is
the 2-D dynamic program they replaced: it steps the (charge, polarity)
table one symbol at a time.  Every cell must agree with it, also the cells
out of range and of the wrong parity, which must read 0.
"""

import math

from balancedq.alphabet import symbols
from balancedq.counting import count_cpb, joint_census, joint_count

ORDERS = range(2, 9)

# ---------------------------------------------------------------------------
# reference: rows[j1][j2] counts words with symbol sum 2*j1 - r*(q-1) and
# polarity sum j2 - r, stepped from length r to r + 1


def ref_joint_step(prev, q):
    r = (len(prev) - 1) // (q - 1) + 1  # new length
    new = [[0] * (2 * r + 1) for _ in range(r * (q - 1) + 1)]
    for s in symbols(q):
        t = (s + q - 1) // 2
        dj2 = ((s > 0) - (s < 0)) + 1
        for j1, row in enumerate(prev):
            tgt = new[j1 + t]
            for j2, v in enumerate(row):
                if v:
                    tgt[j2 + dj2] += v
    return tuple(tuple(row) for row in new)


def ref_tables(q, nmax):
    tabs = [((1,),)]
    while len(tabs) <= nmax:
        tabs.append(ref_joint_step(tabs[-1], q))
    return tabs


def every_cell(n, q):
    """Every (charge, polarity) of the table, with a margin of 2 around it."""
    span = n * (q - 1)
    for charge in range(-span - 2, span + 3):
        for polarity in range(-n - 2, n + 3):
            yield charge, polarity


def ref_cell(rows, n, q, charge, polarity):
    span = n * (q - 1)
    if abs(charge) > span or (charge + span) % 2 or abs(polarity) > n:
        return 0
    return rows[(charge + span) // 2][polarity + n]


# ---------------------------------------------------------------------------


def test_census_matches_dynamic_program():
    for q in ORDERS:
        for n, rows in enumerate(ref_tables(q, 40)):
            census = joint_census(n, q)
            want = {
                (2 * j1 - n * (q - 1), j2 - n): v
                for j1, row in enumerate(rows)
                for j2, v in enumerate(row)
                if v
            }
            assert dict(census.items()) == want, (n, q)
            assert census.total() == q**n


def test_census_cells_and_joint_count_match_dynamic_program():
    for q in ORDERS:
        for n, rows in enumerate(ref_tables(q, 12)):
            census = joint_census(n, q)
            for charge, polarity in every_cell(n, q):
                want = ref_cell(rows, n, q, charge, polarity)
                assert census.cell(charge, polarity) == want, (n, q, charge, polarity)
                assert joint_count(n, q, charge, polarity) == want, (n, q, charge, polarity)


def test_joint_count_past_small_lengths_is_the_cpb_count():
    for q in ORDERS:
        for n in (13, 30, 61):
            assert joint_count(n, q) == count_cpb(n, q) == joint_census(n, q).cell(0, 0), (n, q)


def test_long_census_has_full_mass():
    census = joint_census(160, 6)
    assert census.total() == 6**160
    assert census.cell(0, 0) == math.comb(160, 80) * joint_census(160, 3).charge_marginal(0)
