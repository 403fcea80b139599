"""The payload stages as gathers from symbol tables, against the per-symbol formulas.

The codecs run every payload stage as a gather from a cached symbol table,
a tuple of 2q slots indexed by the symbol itself (a negative symbol s reads
slot 2q + s), applied on either side of one cut.  The reference functions
below are the per-symbol formulas those tables replaced.  Every slot of
every table must agree with them, and so must each stage on every symbol,
every window the codecs use, every shift and every cut, including segments
of length 0 and 1, q=2 and q=1001.  Whole codewords at k=2048 must equal
what the reference stages give for the same side info.  At k near 1023 and
at 2048, each default index search must pick the index that a per-symbol
scan picks.
"""

import operator
import random
from collections import Counter

import pytest

from balancedq.alphabet import _sign, is_cpb, sub_alphabet, symbols
from balancedq.codebook import CbSide, CpbSide, KnuthSide, PbSide, SbSide
from balancedq.codecs import (
    CodecParams,
    _add_sequence,
    _cpb_flags,
    _flip,
    _gather,
    _map_cut,
    _mirror,
    _pb_stage,
    _pb_unstage,
    _rotation,
    _sb_round,
    _sb_round_stats,
    _shifted,
    _side,
    _side_mask,
    _tallies,
    _tally,
    balancing_sequence,
    decode,
    encode,
    find_cb_index,
    find_cpb_index,
    find_pb_index,
    find_sb_split,
)
from balancedq.errors import BalancingInvariantError

ORDERS = range(2, 10)

# ---------------------------------------------------------------------------
# reference formulas, one Python expression per symbol


def ref_reduce_full(value, q):
    return (value + q - 1) % (2 * q) - q + 1


def ref_offset(word, q, d):
    return tuple(ref_reduce_full(x + d, q) for x in word)


def ref_flip(word, z):
    return tuple(-x for x in word[:z]) + word[z:]


def ref_mirror(word, q):
    top = 2 * ((q + 1) // 2)
    return tuple(top - x if x > 0 else x for x in word)


def ref_side(word, q, nu):
    sign = 1 if nu == "+" else -1
    lo = 1 + q % 2 if sign > 0 else -q + 1
    return [i for i, x in enumerate(word) if sign * x > 0], lo, 2 * (q // 2)


def ref_add_sequence(word, positions, lo, mod, z, sign=1):
    if not positions:
        return word
    out = list(word)
    for i, b in zip(positions, balancing_sequence(z, len(positions), mod // 2)):
        out[i] = lo + (out[i] + sign * b - lo) % mod
    return tuple(out)


def ref_sb_round(word, q, v, i_v, m_v, big_m, sign=1):
    sub = sub_alphabet(q, v)
    lo, mod = sub[0], 2 * len(sub)
    d_low = sign * (lo - m_v)
    d_high = sign * (lo - big_m)
    return tuple(
        lo + (x + (d_low if i < i_v else d_high) - lo) % mod if x >= lo else x
        for i, x in enumerate(word)
    )


def ref_payload(u, q, side):
    """The payload the reference stages give for data word u and side info."""
    if isinstance(side, SbSide):
        word = u
        for v, rnd in enumerate(side.rounds, 1):
            word = ref_sb_round(word, q, v, *rnd)
        return word
    if isinstance(side, CbSide):
        return ref_add_sequence(u, range(len(u)), -q + 1, 2 * q, side.z)
    a = getattr(side, "a", None)
    word = ref_flip(u if a is None else ref_offset(u, q, -a), side.z)
    if isinstance(side, CpbSide):
        if side.xi:
            word = ref_mirror(word, q)
        positions, lo, mod = ref_side(word, q, side.nu)
        word = ref_add_sequence(word, positions, lo, mod, side.w)
    return word


def every_symbol_word(q, copies=2, seed=0):
    """A shuffled word holding each symbol the given number of times."""
    word = list(symbols(q)) * copies
    random.Random(f"{seed}:{q}").shuffle(word)
    return tuple(word)


# ---------------------------------------------------------------------------
# every stage on every symbol, window, shift and cut


def ref_digits(digits, b):
    """The int whose base-2**b digits, lowest first, are digits; the last
    may be negative."""
    return sum(digit * 2 ** (b * i) for i, digit in enumerate(digits))


def ref_tally(word):
    """(charge, absolute sum, positive count, negative count) of word."""
    return (
        sum(word),
        sum(abs(x) for x in word),
        sum(1 for x in word if x > 0),
        sum(1 for x in word if x < 0),
    )


@pytest.mark.parametrize("q", [*ORDERS, 1001])
def test_every_table_slot_matches_the_reference(q):
    """Each symbol's slot holds its image, and no other slot holds one; at
    q=2 the one negative symbol, -1, reads the last slot.  Negation and the
    signs are the offset-0 tables of the composed builder."""
    syms = symbols(q)
    tables = {
        "negation": (_shifted(q, 0, operator.neg), lambda s: ref_flip((s,), 1)[0]),
        "mirror": (_mirror(q), lambda s: ref_mirror((s,), q)[0]),
        "signs": (_shifted(q, 0, _sign), lambda s: (s > 0) - (s < 0)),
        "+": (_side_mask(q, "+"), lambda s: s > 0),
        "-": (_side_mask(q, "-"), lambda s: s < 0),
    }
    for d in range(-2 * q, 2 * q + 1, 2 if q < 10 else 500):
        tables[d] = (_rotation(q, -q + 1, 2 * q, d), lambda s, d=d: ref_offset((s,), q, d)[0])
        tables["flip", d] = (
            _shifted(q, d, operator.neg),
            lambda s, d=d: ref_flip(ref_offset((s,), q, d), 1)[0],
        )
        tables["sign", d] = (
            _shifted(q, d, _sign),
            lambda s, d=d: (ref_offset((s,), q, d)[0] > 0) - (ref_offset((s,), q, d)[0] < 0),
        )
    for k in (1, 2, 1024, 2048):
        b = (k * (q - 1)).bit_length()
        tables["tallies", b] = (_tallies(q, b), lambda s, b=b: ref_digits((s < 0, s > 0, abs(s), s), b))
    for name, (table, ref) in tables.items():
        assert len(table) == 2 * q, name  # so a negative s reads slot 2q + s
        assert [table[s] for s in syms] == [ref(s) for s in syms], name
        assert sum(x is not None for x in table) == q, name


def tally_words(q, k):
    """Words of one repeated extreme symbol, the two extremes alternating,
    and a random word."""
    low, high = symbols(q)[0], symbols(q)[-1]
    rng = random.Random(f"tally:{q}:{k}")
    return [(low,) * k, (high,) * k, ((low, high) * k)[:k], tuple(rng.choices(symbols(q), k=k))]


def test_tally_at_the_digit_width_edges():
    """The packed sum gives the four totals exactly when k*(q-1), the bound
    on its low digits, sits one below, at or one above a power of two."""
    edges = set()
    for q in [*ORDERS, 1001]:
        for m in (3, 6, 11, 12):
            for bound in (2**m - 1, 2**m, 2**m + 1):
                if bound % (q - 1) == 0:
                    edges.add(bound - 2**m)
                    for word in tally_words(q, bound // (q - 1)):
                        assert _tally(word, q) == ref_tally(word), (q, len(word))
    assert edges == {-1, 0, 1}


def test_tally_past_63_bits():
    """At q=1001 and k=2048 the packed sum is a big int and still exact."""
    q, k = 1001, 2048
    b = (k * (q - 1)).bit_length()
    for word in tally_words(q, k):
        if sum(word):  # the charge digit starts at bit 3b = 63
            assert abs(sum(_tallies(q, b)[x] for x in word)).bit_length() > 63
        assert _tally(word, q) == ref_tally(word)


@pytest.mark.parametrize("q", [q for q in ORDERS if q % 2])
def test_offset_flip_is_one_map(q):
    """The pb stage's offset by -a and flip of the first z symbols, and its
    inverse, match ref_offset followed by ref_flip for every offset symbol."""
    y = every_symbol_word(q)  # polarity-balanced, so every a has the right parity
    k = len(y)
    for a in symbols(q):
        for z in (0, 1, k - 1):
            u = ref_offset(ref_flip(y, z), q, a)
            assert ref_flip(ref_offset(u, q, -a), z) == y
            assert _pb_stage(u, q, k, a, z) == (y, a, z), (a, z)
            assert _pb_unstage(y, q, z, a) == u, (a, z)


@pytest.mark.parametrize("q", [2, 3, 4, 1001])
def test_short_segments_and_edge_cuts(q):
    """Gathers of 0 and 1 symbols take their own path; cuts at 0 and at the
    end of the word leave one side empty."""
    table = _rotation(q, -q + 1, 2 * q, 2)
    syms = symbols(q)
    assert _gather(table, ()) == ()
    for s in (syms[0], syms[-1]):
        assert _gather(table, (s,)) == ref_offset((s,), q, 2)
        assert _gather(table, [s]) == ref_offset((s,), q, 2)
    first, rest = _shifted(q, 0, operator.neg), _mirror(q)
    for word in ((), (syms[0],), (syms[-1],), every_symbol_word(q, 1)[:5]):
        for cut in range(len(word) + 1):  # 0 and len(word) among them
            want = ref_flip(word[:cut], cut) + ref_mirror(word[cut:], q)
            assert _map_cut(word, cut, first, rest) == want, (word, cut)
            assert _flip(word, q, cut) == ref_flip(word, cut), (word, cut)
        assert _gather(table, word) == ref_offset(word, q, 2)
        for nu in "+-":
            assert _side(word, q, nu) == ref_side(word, q, nu)
    # a one-symbol sequence window cuts at 0 or 1
    for s in (syms[0], syms[-1]):
        for z in range(q):
            for sign in (1, -1):
                want = ref_add_sequence((s,), range(1), -q + 1, 2 * q, z, sign)
                assert _add_sequence((s,), q, range(1), -q + 1, 2 * q, z, sign) == want


@pytest.mark.parametrize("q", [5, 7, 9, 1001])
def test_cpb_word_with_an_empty_side(q):
    """An all-zero word at odd q has no symbol on either side: no positions,
    no sequence, xi=0 and nu='+'."""
    for k in (2, 3, 6):
        word = (0,) * k
        for nu in "+-":
            positions, lo, mod = ref_side(word, q, nu)
            assert positions == [] and _side(word, q, nu) == (positions, lo, mod)
            assert _add_sequence(word, q, positions, lo, mod, 0) == word
        assert _cpb_flags(word, q) == (0, "+", 0) and ref_cpb_flags(word, q) == (0, "+")
        # k copies of the lowest symbol take it as their offset, so the
        # encoder's polarity-balanced word is all zeros
        u = (-q + 1,) * k
        params = CodecParams("cpb", q, k)
        cw, side = encode(u, params)
        assert side == CpbSide(0, 0, "+", 0, -q + 1)
        assert cw.payload == word == ref_payload(u, q, side)
        assert decode(cw, params) == u


@pytest.mark.parametrize(
    "kind,q", [("knuth", 2), ("pb", 2), ("cb", 2), ("pb", 1001), ("cb", 1001), ("cpb", 1001)]
)
def test_codewords_at_the_smallest_and_a_wide_alphabet(kind, q):
    """Searched codewords at q=2 and q=1001 equal the reference stages'."""
    rng = random.Random(f"tables:{kind}:{q}")
    for k in (1, 2, 3, 16) if q % 2 and kind != "cpb" else (2, 16):
        params = CodecParams(kind, q, k)
        for _ in range(4):
            u = tuple(rng.choices(symbols(q), k=k))
            cw, side = encode(u, params)
            assert cw.payload == ref_payload(u, q, side), (u, side)
            assert decode(cw, params) == u


@pytest.mark.parametrize("q", ORDERS)
def test_offset_matches_reduce_full(q):
    word = symbols(q)
    for d in range(-2 * q, 2 * q + 1, 2):
        assert _gather(_rotation(q, -q + 1, 2 * q, d), word) == ref_offset(word, q, d), d


@pytest.mark.parametrize("q", ORDERS)
def test_flip_and_mirror(q):
    word = every_symbol_word(q)
    for z in range(len(word) + 1):
        assert _flip(word, q, z) == ref_flip(word, z), z
    assert tuple(map(_mirror(q).__getitem__, word)) == ref_mirror(word, q)


@pytest.mark.parametrize("q", ORDERS)
def test_sequence_matches_the_loop(q):
    word = every_symbol_word(q)
    windows = [(range(len(word)), -q + 1, 2 * q)]  # cb: the whole word
    windows += [ref_side(word, q, nu) for nu in "+-"]  # cpb: one side
    for (positions, lo, mod), nu in zip(windows, (None, "+", "-")):
        if nu is not None:
            assert _side(word, q, nu) == (positions, lo, mod)
        # every block j and every cut g of the sequence, in both directions
        for z in range(mod // 2 * len(positions)):
            for sign in (1, -1):
                got = _add_sequence(word, q, positions, lo, mod, z, sign)
                assert got == ref_add_sequence(word, positions, lo, mod, z, sign), (nu, z, sign)


@pytest.mark.parametrize("q", ORDERS)
def test_sb_round_matches_the_generator(q):
    word = every_symbol_word(q)
    for v in range(1, q):
        sub = sub_alphabet(q, v)
        for i_v in range(len(word) + 1):
            for m_v in sub:
                for big_m in sub:
                    for sign in (1, -1):
                        got = _sb_round(word, q, v, i_v, m_v, big_m, sign)
                        want = ref_sb_round(word, q, v, i_v, m_v, big_m, sign)
                        assert got == want, (v, i_v, m_v, big_m, sign)


# ---------------------------------------------------------------------------
# long words with boundary indices

K = 2048


def charge_balanced(q, seed):
    """A random word that is both charge- and polarity-balanced."""
    rng = random.Random(f"cpb:{q}:{seed}")
    half = rng.choices(symbols(q), k=K // 2)
    word = list(half) + [-x for x in half]
    rng.shuffle(word)
    return tuple(word)


def check_roundtrip(kind, q, u, inject, want_side):
    params = CodecParams(kind, q, K)
    cw, side = encode(u, params, inject)
    assert side == want_side
    assert cw.payload == ref_payload(u, q, side)
    assert decode(cw, params) == u
    return cw


@pytest.mark.parametrize("kind,q", [("knuth", 2), ("pb", 2), ("pb", 4), ("pb", 5), ("pb", 7)])
def test_long_pb_boundary_points(kind, q):
    payload = charge_balanced(q, 0)
    a = symbols(q)[-1] if q % 2 else None
    for z in (0, K - 1):
        flipped = ref_flip(payload, z)
        u = flipped if a is None else ref_offset(flipped, q, a)
        want = KnuthSide(z) if kind == "knuth" else PbSide(z, a)
        inject = {"z": z} if a is None else {"z": z, "a": a}
        assert check_roundtrip(kind, q, u, inject, want).payload == payload


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_long_cb_boundary_sequences(q):
    payload = charge_balanced(q, 1)
    for z in (0, q * K - 1):
        u = ref_add_sequence(payload, range(K), -q + 1, 2 * q, z, -1)
        assert check_roundtrip("cb", q, u, {"z": z}, CbSide(z)).payload == payload


def ref_cpb_flags(y, q):
    """(xi, nu) that the encoder derives from its polarity-balanced word y."""
    k1 = sum(1 for x in y if x > 0)
    pos_sum = sum(x for x in y if x > 0)
    neg_sum = -sum(x for x in y if x < 0)
    pivot = k1 * ((q + 1) // 2)
    xi = 1 if (pos_sum < pivot < neg_sum or neg_sum < pivot < pos_sum) else 0
    if xi:
        pos_sum = sum(x for x in ref_mirror(y, q) if x > 0)
    nu = "+" if (pos_sum >= neg_sum >= pivot or pos_sum <= neg_sum <= pivot) else "-"
    return xi, nu


@pytest.mark.parametrize("q", [4, 5, 6, 7, 9])
def test_long_cpb_last_sequence(q):
    # the last sequence w = (q//2)*k1 - 1 of the side, found by running the
    # reference stages backwards from a balanced payload
    found = set()
    for seed in range(40):
        payload = charge_balanced(q, seed)
        k1 = sum(1 for x in payload if x > 0)
        w = (q // 2) * k1 - 1
        for xi in (0, 1):
            for nu in "+-":
                if (xi, nu) in found:
                    continue
                y = ref_add_sequence(payload, *ref_side(payload, q, nu), w, -1)
                if xi:
                    y = ref_mirror(y, q)
                if ref_cpb_flags(y, q) != (xi, nu):
                    continue
                z, a = K // 2, symbols(q)[0] if q % 2 else None
                u = ref_flip(y, z) if a is None else ref_offset(ref_flip(y, z), q, a)
                inject = {"z": z, "w": w} if a is None else {"z": z, "w": w, "a": a}
                cw = check_roundtrip("cpb", q, u, inject, CpbSide(z, xi, nu, w, a))
                assert cw.payload == payload and is_cpb(payload, q)
                found.add((xi, nu))
    assert found == {(0, "+"), (0, "-"), (1, "+"), (1, "-")}


@pytest.mark.parametrize("q", [2, 4, 8])
def test_long_sb_boundary_splits(q):
    word = list(symbols(q)) * (K // q)
    random.Random(f"sb:{q}").shuffle(word)
    u = tuple(word)
    for split in (0, K):
        splits = (split,) * (q - 1)
        params = CodecParams("sb", q, K)
        cw, side = encode(u, params, {"i": splits})
        assert [i for i, _, _ in side.rounds] == list(splits)
        assert cw.payload == ref_payload(u, q, side)
        assert Counter(cw.payload) == Counter(u)
        assert decode(cw, params) == u


@pytest.mark.parametrize(
    "kind,q", [("knuth", 2), ("pb", 5), ("pb", 6), ("cb", 3), ("cb", 6), ("cpb", 5), ("cpb", 8), ("sb", 4)]
)
def test_long_searched_codewords(kind, q):
    rng = random.Random(f"search:{kind}:{q}")
    syms = symbols(q)
    for skewed in (False, True):
        weights = [1] * (q - 1) + [3 * q if skewed else 1]
        u = tuple(rng.choices(syms, weights, k=K))
        params = CodecParams(kind, q, K)
        cw, side = encode(u, params)
        assert cw.payload == ref_payload(u, q, side)
        assert decode(cw, params) == u


# ---------------------------------------------------------------------------
# the default searches against per-symbol scans at long k


def ref_pb_index(u, q):
    """Smallest z in [0, k) whose flip of the first z polarities balances u,
    or None: a scan that updates the polarity sum one symbol at a time."""
    signs = u if q == 2 else [(x > 0) - (x < 0) for x in u]
    balance = sum(signs)
    for z, s in enumerate(signs):
        if balance == 0:
            return z
        balance -= 2 * s
    return None


def ref_sequence_index(cur, lo, mod, target):
    """Smallest z whose balancing sequence brings the window symbols cur to
    target, or None: sequence j*n + g adds 2j+2 on its first g symbols and
    2j on the rest, scanned one symbol at a time."""
    n = len(cur)
    for j in range(mod // 2):
        total = sum(lo + (x + 2 * j - lo) % mod for x in cur)
        for g, x in enumerate(cur):
            if total == target:
                return j * n + g
            total += lo + (x + 2 * j + 2 - lo) % mod - (lo + (x + 2 * j - lo) % mod)
    return None


def ref_sb_split(word, m, m_v, big_m):
    """Smallest split i in [0, k] after which m copies of the round's lowest
    symbol remain, or None: copies of m_v before i and of big_m from i on."""
    count = sum(1 for x in word if x == big_m)
    for i, x in enumerate(word):
        if count == m:
            return i
        count += (x == m_v) - (x == big_m)
    return len(word) if count == m else None


def ref_round_stats(word, sub):
    """Least frequent (smallest on ties) and most frequent (largest on ties)
    symbols of sub in word."""
    least = most = None
    for s in sub:
        c = sum(1 for x in word if x == s)
        if least is None or c < least[0]:
            least = (c, s)
        if most is None or c >= most[0]:
            most = (c, s)
    return least[1], most[1]


def search_words(q, k):
    """A uniform word and a skewed one, whose every symbol is the largest
    with probability 0.6."""
    rng = random.Random(f"reference-search:{q}:{k}")
    syms = symbols(q)
    skewed = [0.4 / (q - 1)] * (q - 1) + [0.6]
    return [tuple(rng.choices(syms, k=k)), tuple(rng.choices(syms, skewed, k=k))]


def search_lengths(q, step):
    """1023 rounded to the nearest multiple of step, and 2048."""
    return (step * round(1023 / step), 2048)


def expect_search(search, want, *args):
    if want is None:
        with pytest.raises(BalancingInvariantError):
            search(*args)
    else:
        assert search(*args) == want


@pytest.mark.parametrize("q", ORDERS)
def test_pb_search_matches_the_scan(q):
    for k in search_lengths(q, 2 - q % 2):
        for u in search_words(q, k):
            a = next(s for s in symbols(q) if u.count(s) % 2 == k % 2) if q % 2 else None
            for word in {u, u if a is None else ref_offset(u, q, -a)}:
                want = ref_pb_index(word, q)
                assert want is not None or word == u
                expect_search(find_pb_index, want, word, q)


@pytest.mark.parametrize("q", ORDERS)
def test_cb_search_matches_the_scan(q):
    for k in search_lengths(q, 2 - q % 2):
        for u in search_words(q, k):
            want = ref_sequence_index(u, -q + 1, 2 * q, 0)
            assert want is not None
            assert find_cb_index(u, q) == want


@pytest.mark.parametrize("q", range(4, 10))
def test_cpb_search_matches_the_scan(q):
    for k in search_lengths(q, 2 - q % 2):
        for u in search_words(q, k):
            a = next(s for s in symbols(q) if u.count(s) % 2 == k % 2) if q % 2 else None
            shifted = u if a is None else ref_offset(u, q, -a)
            y = ref_flip(shifted, ref_pb_index(shifted, q))
            xi, nu = ref_cpb_flags(y, q)
            if xi:
                y = ref_mirror(y, q)
            positions, lo, mod = ref_side(y, q, nu)
            pos_sum = sum(x for x in y if x > 0)
            neg_sum = -sum(x for x in y if x < 0)
            target = neg_sum if nu == "+" else -pos_sum
            want = ref_sequence_index([y[i] for i in positions], lo, mod, target)
            assert want is not None
            assert find_cpb_index(y, q, (positions, lo, mod), target) == want


@pytest.mark.parametrize("q", [1001, 1002])
def test_searches_at_large_q_match_the_scan_and_build_no_maps(q):
    """With the window far wider than the word, the cb and cpb searches
    still pick the scan's index and build no cached symbol map."""
    rng = random.Random(f"large-q-search:{q}")
    before = _rotation.cache_info()
    for k in (2, 4, 8, 16):
        u = tuple(rng.choices(symbols(q), k=k))
        want = ref_sequence_index(u, -q + 1, 2 * q, 0)
        assert want is not None
        assert find_cb_index(u, q) == want
        for nu in "+-":
            positions, lo, mod = window = ref_side(u, q, nu)
            cur = [u[i] for i in positions]
            if not cur:  # the scan finds no index in an empty window
                continue
            reached = ref_add_sequence(u, positions, lo, mod, rng.randrange((mod // 2) * len(cur)))
            target = sum(reached[i] for i in positions)
            want = ref_sequence_index(cur, lo, mod, target)
            assert want is not None
            assert find_cpb_index(u, q, window, target) == want
    assert _rotation.cache_info() == before


@pytest.mark.parametrize("q", ORDERS)
def test_sb_search_matches_the_scan(q):
    for k in search_lengths(q, q):
        for word in search_words(q, k):
            for v in range(1, q):
                m_v, big_m = ref_round_stats(word, sub_alphabet(q, v))
                want = ref_sb_split(word, k // q, m_v, big_m)
                assert want is not None
                assert find_sb_split(word, q, v, k // q, m_v, big_m) == want
                word = ref_sb_round(word, q, v, want, m_v, big_m)


@pytest.mark.parametrize("q", ORDERS)
def test_sb_round_stats_match_the_reference(q):
    # short words and small sub-alphabets count by one pass per symbol, the
    # rest through one Counter; balanced words tie every count
    for k in (q, 8 * q, 64, 65, *search_lengths(q, q)):
        balanced = tuple(random.Random(f"tie:{q}:{k}").sample(symbols(q) * (k // q), k // q * q))
        for word in (*search_words(q, k), balanced):
            for v in range(1, q):
                assert _sb_round_stats(word, q, v) == ref_round_stats(word, sub_alphabet(q, v))
