import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from balancedq.alphabet import is_cb, is_cpb, is_pb, is_sb, symbols
from balancedq.codebook import (
    CbSide,
    CpbSide,
    KnuthSide,
    PbSide,
    RETAINED_MAX,
    SbSide,
    balance_kind,
    decode_prefix,
    encode_prefix,
    pack,
    plan,
    rank,
    side_info_space,
    unpack,
    unrank,
)
from balancedq.counting import exact_count
from balancedq.errors import CapacityError, InfeasibleParamsError, InvalidIndexError

PREDICATES = {"sb": is_sb, "cb": is_cb, "pb": is_pb, "cpb": is_cpb}


def test_balance_kind():
    assert balance_kind("knuth") == "cb"
    assert balance_kind("cb") == "cb"
    assert balance_kind("sb") == "sb"
    with pytest.raises(InfeasibleParamsError):
        balance_kind("nope")


def test_side_info_space():
    assert side_info_space("knuth", 2, 6) == 6
    assert side_info_space("pb", 5, 7) == 35
    assert side_info_space("pb", 4, 6) == 6
    assert side_info_space("cb", 5, 7) == 35
    assert side_info_space("cb", 2, 6) == 12
    assert side_info_space("cpb", 5, 7) == 840
    assert side_info_space("cpb", 4, 6) == 144
    assert side_info_space("sb", 3, 6) == 7**2 * 36
    assert side_info_space("sb", 2, 4) == 5 * 4


def test_side_info_space_infeasible():
    with pytest.raises(InfeasibleParamsError):
        side_info_space("knuth", 3, 6)
    with pytest.raises(InfeasibleParamsError):
        side_info_space("knuth", 2, 5)
    with pytest.raises(InfeasibleParamsError):
        side_info_space("cpb", 3, 6)
    with pytest.raises(InfeasibleParamsError):
        side_info_space("sb", 3, 7)
    with pytest.raises(InfeasibleParamsError):
        side_info_space("cb", 4, 5)
    with pytest.raises(InfeasibleParamsError):
        side_info_space("cpb", 5, 1)


def test_plan_examples():
    assert plan("knuth", 2, 6).length == 4
    assert plan("pb", 5, 7).length == 4
    assert plan("cpb", 5, 7).length == 6
    assert plan("cb", 2, 6).length == 6
    assert plan("sb", 3, 6).length == 12


def test_plan_minimality_small():
    for kind, q, k in [
        ("knuth", 2, 10),
        ("pb", 5, 9),
        ("pb", 4, 8),
        ("cb", 3, 11),
        ("cb", 6, 8),
        ("cpb", 4, 10),
        ("cpb", 7, 7),
        ("sb", 2, 8),
        ("sb", 4, 8),
    ]:
        pl = plan(kind, q, k)
        bkind = balance_kind(kind)
        assert exact_count(bkind, pl.length, q) >= pl.space
        step = q if bkind == "sb" else (2 if q % 2 == 0 else 1)
        if pl.length > step:
            assert exact_count(bkind, pl.length - step, q) < pl.space
        assert pl.unbalanced_length == pytest.approx(math.log(pl.space, q))


def test_pack_unpack_golden():
    # the joint construction tuple from the worked q=5 example
    side = CpbSide(z=6, xi=1, nu="-", w=1, a=-2)
    value = pack(side, "cpb", 5, 7)
    assert 0 <= value < 840
    assert unpack(value, "cpb", 5, 7) == side

    sb = SbSide(((3, 2, -2), (3, 2, 0)))
    value = pack(sb, "sb", 3, 6)
    assert unpack(value, "sb", 3, 6) == sb


def test_pack_rejects_bad_fields():
    with pytest.raises(InvalidIndexError):
        pack(KnuthSide(6), "knuth", 2, 6)
    with pytest.raises(InvalidIndexError):
        pack(PbSide(3, None), "pb", 5, 7)
    with pytest.raises(InvalidIndexError):
        pack(PbSide(3, -3), "pb", 5, 7)
    with pytest.raises(InvalidIndexError):
        pack(CpbSide(1, 0, "x", 0, -2), "cpb", 5, 7)
    with pytest.raises(InvalidIndexError):
        pack(SbSide(((7, 2, 0),)), "sb", 3, 6)
    with pytest.raises(InvalidIndexError):
        pack(CbSide(2), "pb", 4, 6)


@pytest.mark.parametrize(
    "side,kind,q,k",
    [
        (CbSide(True), "cb", 5, 7),  # equals z=1
        (CbSide(1.0), "cb", 5, 7),
        (PbSide(2.0, 2.0), "pb", 5, 7),  # equals PbSide(2, 2), packed as 23
        (PbSide(2, 2.0), "pb", 5, 7),  # a symbol digit
        (PbSide(2.0, 2), "pb", 5, 7),  # a range digit
        (KnuthSide(False), "knuth", 2, 6),
        (CpbSide(1, True, "+", 0, -2), "cpb", 5, 7),
        (CpbSide(1, 0, "+", 0.0, -2), "cpb", 5, 7),
        (SbSide(((True, 2, 0), (3, 2, 0))), "sb", 3, 6),
        (SbSide(((1, 2, 0.0), (3, 2, 0))), "sb", 3, 6),
    ],
)
def test_pack_refuses_equal_items_of_another_type(side, kind, q, k):
    with pytest.raises(InvalidIndexError):
        pack(side, kind, q, k)


def test_pack_accepts_the_ints_they_equal():
    assert pack(CbSide(1), "cb", 5, 7) == 1
    assert pack(PbSide(2, 2), "pb", 5, 7) == 23
    pack(SbSide(((1, 2, 0), (3, 2, 0))), "sb", 3, 6)


def test_unpack_range():
    with pytest.raises(InvalidIndexError):
        unpack(840, "cpb", 5, 7)
    with pytest.raises(InvalidIndexError):
        unpack(-1, "cb", 5, 7)


@given(st.integers(0, 839))
def test_pack_unpack_bijective_cpb(value):
    assert pack(unpack(value, "cpb", 5, 7), "cpb", 5, 7) == value


@given(st.integers(0, 5 * 4 - 1))
def test_pack_unpack_bijective_sb(value):
    assert pack(unpack(value, "sb", 2, 4), "sb", 2, 4) == value


@pytest.mark.parametrize("kind", ["sb", "cb", "pb", "cpb"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_unrank_exhaustive(kind, q):
    for n in range(0, 9):
        total = exact_count(kind, n, q)
        prev = None
        for index in range(total):
            w = unrank(index, n, kind, q)
            assert PREDICATES[kind](w, q)
            assert rank(w, kind, q) == index
            if prev is not None:
                assert w > prev  # strict lexicographic order
            prev = w


@pytest.mark.parametrize("value", [1.0, True, "1", 2.5, None])
def test_unpack_refuses_a_value_that_is_not_an_int(value):
    with pytest.raises(InvalidIndexError, match="must be an int"):
        unpack(value, "cb", 3, 2)


@pytest.mark.parametrize("index", [2.5, 3.0, True, False, "1", None])
@pytest.mark.parametrize("kind", ["sb", "cb", "pb", "cpb"])
def test_unrank_refuses_an_index_that_is_not_an_int(index, kind):
    with pytest.raises(InvalidIndexError, match="must be an int"):
        unrank(index, 4, kind, 2)


def test_unrank_out_of_range():
    total = exact_count("cb", 4, 3)
    with pytest.raises(InvalidIndexError):
        unrank(total, 4, "cb", 3)
    with pytest.raises(InvalidIndexError):
        unrank(-1, 4, "cb", 3)


def test_rank_rejects_unbalanced():
    with pytest.raises(InvalidIndexError):
        rank((1, 1), "cb", 2)
    with pytest.raises(InvalidIndexError):
        rank((2, 0, 0), "sb", 3)


def test_rank_capacity_cap():
    n = RETAINED_MAX + 2
    word = (1, -1) * (n // 2)
    with pytest.raises(CapacityError):
        rank(word, "cb", 2)
    with pytest.raises(CapacityError):
        rank(word, "pb", 2)
    for kind in ("cb", "pb", "cpb"):
        with pytest.raises(CapacityError):
            unrank(0, RETAINED_MAX + 1, kind, 3)
    word = unrank(12345, RETAINED_MAX, "cb", 3)
    assert rank(word, "cb", 3) == 12345


def test_rank_accepts_construction_names():
    w = unrank(3, 4, "cb", 2)
    assert rank(w, "knuth", 2) == 3


@given(st.integers(2, 5), st.integers(0, 63))
@settings(deadline=None, max_examples=40)
def test_rank_unrank_spot(q, seed):
    import random

    rng = random.Random(seed)
    kind = rng.choice(["sb", "cb", "pb", "cpb"])
    n = rng.randrange(0, 65)
    if kind == "sb":
        n -= n % q
    elif q % 2 == 0:
        n -= n % 2
    total = exact_count(kind, n, q)
    if total == 0:
        return
    index = rng.randrange(total)
    w = unrank(index, n, kind, q)
    assert rank(w, kind, q) == index


def test_prefix_roundtrip_all_kinds():
    cases = [
        ("knuth", 2, 6, KnuthSide(4)),
        ("pb", 5, 7, PbSide(6, -2)),
        ("pb", 4, 6, PbSide(5, None)),
        ("cb", 5, 7, CbSide(32)),
        ("cpb", 5, 7, CpbSide(6, 1, "-", 1, -2)),
        ("cpb", 4, 6, CpbSide(3, 0, "+", 2, None)),
        ("sb", 3, 6, SbSide(((3, 2, -2), (3, 2, 0)))),
    ]
    for kind, q, k, side in cases:
        pl = plan(kind, q, k)
        prefix = encode_prefix(side, pl)
        assert len(prefix) == pl.length
        assert PREDICATES[balance_kind(kind)](prefix, q)
        assert decode_prefix(prefix, pl) == side


def test_decode_prefix_length_check():
    pl = plan("pb", 5, 7)
    with pytest.raises(InvalidIndexError):
        decode_prefix((0,) * (pl.length + 1), pl)
