import copy
import pickle
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from balancedq import alphabet, codebook, codecs
from balancedq.alphabet import _symbol_set, is_cb, is_cpb, is_pb, is_sb, sub_alphabet, symbols
from balancedq.asymptotics import approx_redundancy
from balancedq.codebook import CpbSide, balance_kind, encode_prefix, plan, side_info_space
from balancedq.codecs import (
    CodecParams,
    Codeword,
    _codes,
    _indices,
    _mirror,
    _rotation,
    _shifted,
    _side_mask,
    _struct,
    _tallies,
    _translation,
    balancing_sequence,
    cb_encode,
    cpb_encode,
    decode,
    encode,
    find_cb_index,
    find_cpb_index,
    find_knuth_index,
    find_pb_index,
    find_pb_offset,
    find_sb_split,
    knuth_encode,
    pb_encode,
    sb_encode,
)
from balancedq.counting import exact_count
from balancedq.errors import (
    AlphabetError,
    BalancingInvariantError,
    DecodeError,
    InfeasibleParamsError,
    InvalidIndexError,
)

PREDICATES = {"sb": is_sb, "cb": is_cb, "pb": is_pb, "cpb": is_cpb}


def check_codeword(cw, kind, q):
    pred = PREDICATES[balance_kind(kind)]
    assert pred(cw.prefix, q)
    assert pred(cw.payload, q)
    assert pred(cw.word, q)


# ---------------------------------------------------------------------------
# worked examples


def test_bipolar_example():
    params = CodecParams("knuth", 2, 6)
    u = (+1, -1, +1, +1, +1, +1)
    cw, side = knuth_encode(u, params)
    assert side.z == 4
    assert cw.payload == (-1, +1, -1, -1, +1, +1)
    assert decode(cw, params) == u
    check_codeword(cw, "knuth", 2)


def test_pb_example():
    params = CodecParams("pb", 5, 7)
    u = (+4, +4, -2, 0, 0, 0, 0)
    cw, side = pb_encode(u, params)
    assert (side.a, side.z) == (-2, 6)
    assert cw.payload == (+4, +4, 0, -2, -2, -2, +2)
    assert decode(cw, params) == u
    check_codeword(cw, "pb", 5)
    # replay with the same indices injected
    cw2, side2 = encode(u, params, {"a": -2, "z": 6})
    assert cw2 == cw and side2 == side


def test_cb_example_both_indices():
    params = CodecParams("cb", 5, 7)
    u = (+4, +4, -2, 0, 0, 0, 0)
    cw32, _ = encode(u, params, {"z": 32})
    assert cw32.payload == (+4, +4, -2, 0, -2, -2, -2)
    assert decode(cw32, params) == u
    cw7, side7 = cb_encode(u, params)
    assert side7.z == 7
    assert cw7.payload == (-4, -4, 0, +2, +2, +2, +2)
    assert decode(cw7, params) == u
    check_codeword(cw32, "cb", 5)
    check_codeword(cw7, "cb", 5)
    # the z=32 payload is charge balanced but not polarity balanced
    assert not is_pb(cw32.payload, 5)


def test_cpb_example():
    params = CodecParams("cpb", 5, 7)
    u = (+4, +4, -2, 0, 0, 0, 0)
    cw, side = cpb_encode(u, params)
    assert (side.a, side.z, side.xi, side.nu, side.w) == (-2, 6, 1, "-", 1)
    assert cw.payload == (+2, +2, 0, -4, -2, -2, +4)
    assert decode(cw, params) == u
    check_codeword(cw, "cpb", 5)
    cw2, _ = encode(u, params, {"a": -2, "z": 6, "xi": 1, "nu": "-", "w": 1})
    assert cw2 == cw


def test_sb_example():
    params = CodecParams("sb", 3, 6)
    u = (0, -2, -2, -2, 0, -2)
    cw, side = sb_encode(u, params)
    assert side.rounds == ((3, +2, -2), (3, +2, 0))
    assert cw.payload == (0, +2, +2, -2, 0, -2)
    assert decode(cw, params) == u
    check_codeword(cw, "sb", 3)
    cw2, _ = encode(u, params, {"i": (3, 3)})
    assert cw2 == cw


# ---------------------------------------------------------------------------
# balancing sequences and index finders


def test_balancing_sequences():
    assert balancing_sequence(32, 7, 5) == (10, 10, 10, 10, 8, 8, 8)
    assert balancing_sequence(7, 7, 5) == (2, 2, 2, 2, 2, 2, 2)
    assert balancing_sequence(0, 4, 3) == (0, 0, 0, 0)
    assert balancing_sequence(1, 3, 2) == (2, 0, 0)
    with pytest.raises(InvalidIndexError):
        balancing_sequence(35, 7, 5)
    with pytest.raises(InvalidIndexError):
        balancing_sequence(-1, 7, 5)


@pytest.mark.parametrize(
    "args,name",
    [((1.0, 3, 2), "index"), ((True, 3, 2), "index"), ((1, 3.0, 2), "length"),
     ((1, True, 2), "length"), ((1, 3, 2.0), "radix"), ((1, 3, True), "radix")],
)
def test_balancing_sequence_arguments_must_be_ints(args, name):
    # a bool or a float equal to an int is refused, as unrank and unpack refuse it
    with pytest.raises(InvalidIndexError, match=f"balancing sequence {name} must be an int"):
        balancing_sequence(*args)


def test_find_knuth_index_is_smallest():
    rng = random.Random(1)
    for _ in range(300):
        k = rng.choice([2, 4, 6, 10])
        u = tuple(rng.choice((-1, 1)) for _ in range(k))
        z = find_knuth_index(u)
        smaller = [
            j
            for j in range(z)
            if sum(tuple(-x for x in u[:j]) + u[j:]) == 0
        ]
        assert not smaller
        assert sum(tuple(-x for x in u[:z]) + u[z:]) == 0


def test_find_cb_index_is_smallest():
    rng = random.Random(2)
    for _ in range(200):
        q = rng.choice([2, 3, 4, 5])
        k = rng.randrange(1, 9)
        if q % 2 == 0 and k % 2:
            k += 1
        alpha = symbols(q)
        u = tuple(rng.choice(alpha) for _ in range(k))
        z = find_cb_index(u, q)
        for j in range(z + 1):
            seq = balancing_sequence(j, k, q)
            shifted = tuple(
                ((x + b + q - 1) % (2 * q)) - q + 1 for x, b in zip(u, seq)
            )
            if j < z:
                assert sum(shifted) != 0
            else:
                assert sum(shifted) == 0


def test_find_pb_offset_parity():
    u = (+4, +4, -2, 0, 0, 0, 0)
    assert find_pb_offset(u, 5) == -2
    # all counts even, length even: the smallest qualifying symbol is -4
    assert find_pb_offset((0, 0, 2, 2), 5) == -4


def test_find_pb_index_balances():
    assert find_pb_index((-4, -4, 0, 2, 2, 2, 2)) == 6


# ---------------------------------------------------------------------------
# polarity sums outside the alphabet: signing by comparison keeps every answer


def two_pass_is_pb(word):
    return sum(x > 0 for x in word) == sum(x < 0 for x in word)


def two_pass_pb_index(u, q):
    """find_pb_index by its definition, with signs from two comparisons."""
    signs = u if q == 2 else [(x > 0) - (x < 0) for x in u]
    prefixes = [0]  # the polarity sum of the first z symbols, z = 0..k
    for s in signs:
        prefixes.append(prefixes[-1] + s)
    half = sum(signs) / 2
    return prefixes.index(half) if half in prefixes else None


FOREIGN = (True, False, 1.0, -1.0, 2.0, 0.5, -1.5, 3, -7, 10**6, 2**70)
BAD_ORDERS = (None, 0, 1, -3, 2.5, 5.0, "5", True, 10**12)


def outside_words(q):
    """Words at least q long that hold each foreign value among the order-q
    symbols, balanced and not, plus the empty word and a word shorter than q."""
    rng = random.Random(f"outside:{q}")
    words = [(), symbols(q)[-1:]]
    for bad in FOREIGN:
        for base in (symbols(q) * 3, tuple(rng.choices(symbols(q), k=3 * q))):
            for i in (0, rng.randrange(len(base))):
                words.append(base[:i] + (bad,) + base[i + 1 :])
                words.append(base[:i] + (bad, -bad) + base[i + 2 :])
    return words


@pytest.mark.parametrize("q", range(2, 10))
def test_polarity_sums_keep_their_answers_outside_the_alphabet(q):
    for word in outside_words(q):
        want = two_pass_is_pb(word)
        assert is_pb(word, q) is want, word
        assert is_cpb(word, q) is (sum(word) == 0 and want), word
        for bad_q in BAD_ORDERS:
            assert is_pb(word, bad_q) is want, (word, bad_q)
            assert is_cpb(word, bad_q) is (sum(word) == 0 and want), (word, bad_q)
        for order in (q, None):
            want_z = two_pass_pb_index(word, order)
            if want_z is None:
                with pytest.raises(BalancingInvariantError):
                    find_pb_index(word, order)
            else:
                assert find_pb_index(word, order) == want_z, (word, order)


@pytest.mark.parametrize("bad_q", [q for q in BAD_ORDERS if q != 10**12])
def test_is_sb_refuses_a_bad_order(bad_q):
    for word in ((), (1, -1)):
        with pytest.raises(AlphabetError):
            is_sb(word, bad_q)


def test_polarity_sums_of_uncomparable_symbols_still_raise():
    word = (1, -1, "a", 3)
    for q in (2, 4, None, 1):
        with pytest.raises(TypeError):
            is_pb(word, q)
    with pytest.raises(TypeError):
        find_pb_index(word, 4)
    with pytest.raises(TypeError):
        find_pb_index(word)


# ---------------------------------------------------------------------------
# injection validation


def test_injection_validation():
    params = CodecParams("cb", 5, 7)
    u = (+4, +4, -2, 0, 0, 0, 0)
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"z": 3})
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"z": 35})
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"a": -2})  # cb takes no offset

    params = CodecParams("pb", 5, 7)
    with pytest.raises(InvalidIndexError, match="offset a=0 has the wrong count parity"):
        encode(u, params, {"a": 0})
    with pytest.raises(InvalidIndexError, match="offset a=1 is not a symbol of the order-5 alphabet"):
        encode(u, params, {"a": 1})
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"a": -2, "z": 5})

    params = CodecParams("cpb", 5, 7)
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"w": 0})  # leaves the negative side at -6, not -8
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"w": 6})  # outside the index space
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"xi": 0})
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"nu": "+"})
    # w=5 also balances this word, so both 1 and 5 are accepted
    cw5, side5 = encode(u, params, {"w": 5})
    assert side5.w == 5 and is_cpb(cw5.payload, 5)

    params = CodecParams("sb", 3, 6)
    with pytest.raises(InvalidIndexError):
        encode((0, -2, -2, -2, 0, -2), params, {"i": (3,)})
    with pytest.raises(InvalidIndexError):
        encode((0, -2, -2, -2, 0, -2), params, {"i": (2, 3)})


@pytest.mark.parametrize(
    "kind,q,k,inject",
    [
        ("pb", 5, 7, {"a": -2.0, "z": 6}),
        ("pb", 5, 7, {"a": -2, "z": 6.0}),
        ("knuth", 2, 8, {"z": False}),
        ("knuth", 2, 8, {"z": 0.0}),
        ("cb", 4, 8, {"z": 7.0}),
        ("cb", 4, 8, {"z": "7"}),
        ("cpb", 5, 7, {"w": 1.0}),
        ("cpb", 5, 7, {"xi": True}),
        ("cpb", 5, 7, {"nu": 1}),
        ("cpb", 5, 7, {"nu": "plus"}),
        ("sb", 3, 6, {"i": (3, 3.0)}),
        ("sb", 3, 6, {"i": (True, 3)}),
        ("sb", 2, 4, {"i": 2}),
        ("sb", 2, 4, {"i": "2"}),
    ],
)
def test_injected_values_must_have_the_field_type(kind, q, k, inject):
    u = {"knuth": (1, -1) * 4, "cb": (3,) * 8, "sb": symbols(q) * (k // q)}.get(
        kind, (+4, +4, -2, 0, 0, 0, 0)
    )
    with pytest.raises(InvalidIndexError):
        encode(u, CodecParams(kind, q, k), inject)


def test_injected_ints_still_replay():
    # the same values as plain ints (any sequence type for sb splits) pass
    u = (+4, +4, -2, 0, 0, 0, 0)
    assert encode(u, CodecParams("pb", 5, 7), {"a": -2, "z": 6})[1].a == -2
    params = CodecParams("sb", 3, 6)
    word = (0, -2, -2, -2, 0, -2)
    splits = tuple(i for i, _, _ in encode(word, params)[1].rounds)
    for seq in (splits, list(splits), iter(splits)):
        assert encode(word, params, {"i": seq}) == encode(word, params)


ONE_PER_KIND = [("knuth", 2, 8), ("pb", 5, 7), ("cb", 4, 8), ("cpb", 5, 6), ("sb", 3, 6)]


@pytest.mark.parametrize("kind,q,k", ONE_PER_KIND)
def test_unknown_inject_keys_are_named(kind, q, k):
    with pytest.raises(InvalidIndexError, match="bogus"):
        encode((symbols(q)[-1],) * k, CodecParams(kind, q, k), {"bogus": 1})


def test_failed_searches_raise_without_a_chained_error():
    """A search that finds no index raises BalancingInvariantError alone:
    no cause, and no ValueError shown as its context."""
    y = (3, 1, -1, -3)
    cases = [
        (find_pb_index, ((3, 1), 2), "no polarity balancing point found"),
        (find_cpb_index, (y, 4, ([0, 1], 1, 4), 100), "no balancing sequence reaches the target sum"),
        (find_sb_split, ((0, 0, 0), 3, 1, 5, -2, 0), "no feasible split in round 1"),
    ]
    for search, args, message in cases:
        with pytest.raises(BalancingInvariantError) as info:
            search(*args)
        exc = info.value
        assert str(exc) == message
        assert exc.__cause__ is None
        assert exc.__context__ is None or exc.__suppress_context__


@pytest.mark.parametrize("kind", [None, 3, b"pb"])
def test_kind_must_be_a_known_name(kind):
    for call in (
        lambda: CodecParams(kind, 4, 2),
        lambda: balance_kind(kind),
        lambda: exact_count(kind, 4, 2),
        lambda: approx_redundancy(kind, 4, 2),
    ):
        with pytest.raises(InfeasibleParamsError):
            call()


@pytest.mark.parametrize("kind,q,k", [(["pb"], 4, 2), ({"a": 1}, 4, 2), ("pb", [4], 2), ("cb", 4, {2})])
def test_unhashable_params_are_infeasible(kind, q, k):
    for call in (
        lambda: CodecParams(kind, q, k),
        lambda: plan(kind, q, k),
        lambda: side_info_space(kind, q, k),
    ):
        with pytest.raises(InfeasibleParamsError):
            call()


@pytest.mark.parametrize("bad", [1.0, True])
def test_symbols_must_be_ints(bad):
    params = CodecParams("knuth", 2, 4)
    with pytest.raises(AlphabetError):
        encode((bad, 1, 1, -1), params)
    cw, _ = encode((1, 1, 1, -1), params)
    payload = tuple(bad if x == 1 else x for x in cw.payload)
    with pytest.raises(DecodeError):
        decode(Codeword(cw.prefix, payload), params)


def test_pb_offset_rejected_for_even_q():
    params = CodecParams("pb", 4, 6)
    u = (1, 1, 1, 1, 1, 1)
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"a": 1})
    cw, side = encode(u, params)
    assert side.a is None
    assert decode(cw, params) == u


def test_params_validation():
    with pytest.raises(InfeasibleParamsError):
        CodecParams("knuth", 3, 6)
    with pytest.raises(InfeasibleParamsError):
        CodecParams("knuth", 2, 5)
    with pytest.raises(InfeasibleParamsError):
        CodecParams("cpb", 3, 6)
    with pytest.raises(InfeasibleParamsError):
        CodecParams("sb", 3, 8)
    with pytest.raises(InfeasibleParamsError):
        CodecParams("pb", 4, 7)
    p = CodecParams("cb", 5, 7)
    with pytest.raises(InfeasibleParamsError):
        encode((0, 0), p)  # wrong length


# ---------------------------------------------------------------------------
# degenerate and adversarial paths


def test_cpb_all_zero_word():
    params = CodecParams("cpb", 5, 4)
    u = (0, 0, 0, 0)
    cw, side = cpb_encode(u, params)
    assert (side.xi, side.nu, side.w) == (0, "+", 0)
    assert decode(cw, params) == u
    check_codeword(cw, "cpb", 5)


def test_cpb_rejects_w_on_zero_word():
    params = CodecParams("cpb", 5, 4)
    with pytest.raises(InvalidIndexError):
        cpb_encode((0, 0, 0, 0), params, w=1)


def test_decode_wrong_prefix_length():
    params = CodecParams("pb", 5, 7)
    u = (+4, +4, -2, 0, 0, 0, 0)
    cw, _ = encode(u, params)
    bad = Codeword(cw.prefix + (0,), cw.payload)
    with pytest.raises(DecodeError):
        decode(bad, params)


def test_decode_unbalanced_prefix():
    params = CodecParams("pb", 5, 7)
    u = (+4, +4, -2, 0, 0, 0, 0)
    cw, _ = encode(u, params)
    bad_prefix = (2, 2, 2, 2)[: len(cw.prefix)]
    bad = Codeword(bad_prefix, cw.payload)
    with pytest.raises(DecodeError):
        decode(bad, params)


def test_decode_out_of_alphabet():
    params = CodecParams("pb", 5, 7)
    u = (+4, +4, -2, 0, 0, 0, 0)
    cw, _ = encode(u, params)
    bad = Codeword(cw.prefix, cw.payload[:-1] + (5,))
    with pytest.raises(DecodeError):
        decode(bad, params)


def test_decode_tampered_balanced_payload():
    # a payload swap keeps every balance predicate, so decoding succeeds
    # and simply returns a different data word: these codes add no
    # integrity protection
    params = CodecParams("cb", 5, 7)
    u = (+4, +4, -2, 0, 0, 0, 0)
    cw, _ = encode(u, params)
    tampered = Codeword(cw.prefix, cw.payload[::-1])
    assert is_cb(tampered.payload, 5)
    out = decode(tampered, params)
    assert len(out) == 7


def test_encode_checks_kind_match():
    pb = CodecParams("pb", 5, 7)
    with pytest.raises(InfeasibleParamsError):
        cb_encode((+4, +4, -2, 0, 0, 0, 0), pb)


# ---------------------------------------------------------------------------
# roundtrip properties


@st.composite
def codec_case(draw):
    kind = draw(st.sampled_from(["knuth", "pb", "cb", "cpb", "sb"]))
    if kind == "knuth":
        q = 2
    elif kind == "cpb":
        q = draw(st.integers(4, 7))
    else:
        q = draw(st.integers(2, 7))
    k = draw(st.integers(2, 24))
    if kind == "sb":
        k = max(1, k // q) * q
    elif q % 2 == 0 and k % 2:
        k += 1
    word = draw(st.lists(st.sampled_from(symbols(q)), min_size=k, max_size=k))
    return kind, q, k, tuple(word)


@given(codec_case())
@settings(deadline=None, max_examples=400)
def test_roundtrip_property(case):
    kind, q, k, u = case
    params = CodecParams(kind, q, k)
    cw, side = encode(u, params)
    check_codeword(cw, kind, q)
    assert decode(cw, params) == u
    # encoding is deterministic
    cw2, side2 = encode(u, params)
    assert cw2 == cw and side2 == side


@given(codec_case())
@settings(deadline=None, max_examples=150)
def test_emitted_side_info_reinjects(case):
    kind, q, k, u = case
    params = CodecParams(kind, q, k)
    cw, side = encode(u, params)
    if kind in ("knuth", "cb"):
        inject = {"z": side.z}
    elif kind == "pb":
        inject = {"z": side.z}
        if side.a is not None:
            inject["a"] = side.a
    elif kind == "cpb":
        inject = {"z": side.z, "xi": side.xi, "nu": side.nu, "w": side.w}
        if side.a is not None:
            inject["a"] = side.a
    else:
        inject = {"i": tuple(i for i, _, _ in side.rounds)}
    cw2, side2 = encode(u, params, inject)
    assert cw2 == cw and side2 == side
    # no inject, however it is written, encodes as the free fields replayed
    assert encode(u, params, None) == encode(u, params, {}) == (cw, side)


# ---------------------------------------------------------------------------
# strict decoding and parameter types


def with_payload(kind, q, k, payload, side=None):
    """A codeword of params (kind, q, k) carrying payload under a valid
    prefix: the prefix of side, or of some encoded word."""
    params = CodecParams(kind, q, k)
    if side is None:
        side = encode((symbols(q)[0],) * k, params)[1]
    return Codeword(encode_prefix(side, params.plan), tuple(payload)), params


def test_decode_rejects_unbalanced_payload():
    cw, params = with_payload("cb", 4, 8, (3,) * 8)
    with pytest.raises(DecodeError):
        decode(cw, params)
    cw, params = with_payload("sb", 3, 6, (2,) * 6)
    with pytest.raises(DecodeError):
        decode(cw, params)


def test_decode_rejects_cpb_side_the_encoder_never_emits():
    # all-zero payload: the encoder only emits xi=0, nu='+', w=0
    for side in (CpbSide(0, 0, "+", 3, 0), CpbSide(0, 1, "+", 0, 0), CpbSide(0, 0, "-", 0, 0)):
        cw, params = with_payload("cpb", 5, 7, (0,) * 7, side)
        with pytest.raises(DecodeError):
            decode(cw, params)
    cw, _ = with_payload("cpb", 5, 7, (0,) * 7, CpbSide(0, 0, "+", 0, 0))
    assert decode(cw, params) == (0,) * 7
    # one positive symbol: w must stay below (q//2)*k1 = 2
    payload = (2, -2, 0, 0, 0, 0, 0)
    cw, _ = with_payload("cpb", 5, 7, payload, CpbSide(0, 0, "+", 2, 0))
    with pytest.raises(DecodeError):
        decode(cw, params)
    # a codeword that encode makes, with one positive symbol
    u = (0, 0, 0, 0, 0, 2, 2)
    cw, side = encode(u, params)
    assert (cw.payload, side) == ((0, 0, 0, 0, 0, -2, 2), CpbSide(6, 0, "+", 0, 0))
    assert decode(cw, params) == u


@pytest.mark.parametrize("q,k", [(4, 2.0), (4.0, 2), (True, 2), (4, True), (5, "7")])
def test_params_must_be_integers(q, k):
    CodecParams("pb", 4, 2)  # a cached int plan must not answer for 2.0
    with pytest.raises(InfeasibleParamsError):
        CodecParams("pb", q, k)
    with pytest.raises(InfeasibleParamsError):
        side_info_space("cb", q, k)


# ---------------------------------------------------------------------------
# one checked, cached record per (construction, q, k)

def test_params_are_shared_per_triple():
    params = CodecParams("cb", 5, 7)
    assert params is CodecParams("cb", 5, 7)
    assert repr(params) == "CodecParams(kind='cb', q=5, k=7)"
    assert params == CodecParams("CB", 5, 7) and hash(params) == hash(CodecParams("CB", 5, 7))
    assert params != CodecParams("cb", 5, 8)
    assert params.plan is plan("cb", 5, 7)
    assert copy.copy(params) is params and pickle.loads(pickle.dumps(params)) is params


def roundtrip(kind, q, k):
    u = (symbols(q)[-1],) * k
    params = CodecParams(kind, q, k)
    assert decode(encode(u, params)[0], params) == u


def record_calls(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def recorded(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(owner, name, recorded)


@pytest.mark.parametrize("kind,q,k", ONE_PER_KIND)
def test_warm_roundtrip_checks_once_per_word(monkeypatch, kind, q, k):
    roundtrip(kind, q, k)
    calls = []
    record_calls(monkeypatch, codebook, "_check_construction_params", calls)
    for owner in (codecs, codebook):
        record_calls(monkeypatch, owner, "validate_word", calls)
    # the byte form checks a word in the pass that packs it
    record_calls(monkeypatch, codecs, "_byte_pack", calls)
    for name in ("is_pb", "is_cpb"):
        for owner in (alphabet, codecs):
            if hasattr(owner, name):
                record_calls(monkeypatch, owner, name, calls)
    roundtrip(kind, q, k)
    # the data word and the payload, each in its form's pack, and the prefix
    # (in rank); no triple check, and the payload predicate gathers the
    # codec's own sign table
    check = "_byte_pack" if CodecParams(kind, q, k).form is codecs._BYTES else "validate_word"
    assert calls == [check, check, "validate_word"]


def test_cached_triples_do_not_answer_for_bools_and_floats():
    plan("cb", 5, 1)
    CodecParams("cb", 5, 7)
    with pytest.raises(InfeasibleParamsError):
        plan("cb", 5, True)
    with pytest.raises(InfeasibleParamsError):
        CodecParams("cb", 5, 7.0)


@pytest.mark.parametrize("kind,q,k", ONE_PER_KIND)
def test_malformed_codewords_raise_decode_error(kind, q, k):
    params = CodecParams(kind, q, k)
    cw, _ = encode((symbols(q)[-1],) * k, params)
    prefix, payload = cw.prefix, cw.payload
    bad = [Codeword(5, payload), Codeword(prefix, 5), Codeword(None, payload)]
    for symbol in (True, 1.0, "1"):
        bad += [
            Codeword((symbol,) + prefix[1:], payload),
            Codeword(prefix, (symbol,) + payload[1:]),
        ]
    bad += [
        Codeword(prefix + prefix[:1], payload),
        Codeword(prefix[:-1], payload),
        Codeword(prefix, payload + payload[:1]),
        Codeword(prefix, payload[:-1]),
    ]
    for cw in bad:
        with pytest.raises(DecodeError):
            decode(cw, params)
    with pytest.raises(DecodeError, match="'int' object is not iterable"):
        decode(Codeword(prefix, 5), params)


def test_symbol_caches_are_bounded():
    tables = (_rotation, _shifted, _tallies, _mirror, _side_mask, _translation, _codes)
    tables += (_indices, _struct)
    for cached in (symbols, sub_alphabet, _symbol_set, *tables):
        assert isinstance(cached.cache_info().maxsize, int)
