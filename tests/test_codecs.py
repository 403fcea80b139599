import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from balancedq.alphabet import is_cb, is_cpb, is_pb, is_sb, symbols
from balancedq.codebook import CpbSide, balance_kind, encode_prefix, side_info_space
from balancedq.codecs import (
    CodecParams,
    Codeword,
    balancing_sequence,
    cb_encode,
    cpb_encode,
    decode,
    encode,
    find_cb_index,
    find_knuth_index,
    find_pb_index,
    find_pb_offset,
    knuth_encode,
    pb_encode,
    sb_encode,
)
from balancedq.errors import DecodeError, InfeasibleParamsError, InvalidIndexError

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
    with pytest.raises(InvalidIndexError):
        encode(u, params, {"a": 0})  # wrong count parity
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
    cw, _ = with_payload("cpb", 5, 7, payload, CpbSide(0, 0, "+", 1, 0))
    assert len(decode(cw, params)) == 7


@pytest.mark.parametrize("q,k", [(4, 2.0), (4.0, 2), (True, 2), (4, True), (5, "7")])
def test_params_must_be_integers(q, k):
    CodecParams("pb", 4, 2)  # a cached int plan must not answer for 2.0
    with pytest.raises(InfeasibleParamsError):
        CodecParams("pb", q, k)
    with pytest.raises(InfeasibleParamsError):
        side_info_space("cb", q, k)
