"""Every input word of small (construction, q, k) round-trips, and decode
accepts exactly the codewords.

Complements the random roundtrips of AC7: here no word is left out, so the
rare words (all one symbol, all zero, ...) are covered by construction.
"""

from contextlib import suppress
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from balancedq.alphabet import is_cb, is_cpb, is_pb, is_sb, symbols
from balancedq.codebook import balance_kind, decode_prefix, encode_prefix, unpack
from balancedq.codecs import CodecParams, Codeword, decode, encode
from balancedq.errors import DecodeError, InvalidIndexError

PREDICATES = {"sb": is_sb, "cb": is_cb, "pb": is_pb, "cpb": is_cpb}

# (construction, q, k): every feasible length up to these bounds
CASES = [("knuth", 2, k) for k in (2, 4, 6, 8, 10)]
CASES += [("pb", 3, k) for k in range(1, 7)] + [("pb", 4, 4), ("pb", 5, 3), ("pb", 5, 4)]
CASES += [("cb", 3, k) for k in range(1, 6)] + [("cb", 4, 4), ("cb", 5, 3), ("cb", 5, 4)]
CASES += [("cpb", 4, 2), ("cpb", 4, 4), ("cpb", 5, 3), ("cpb", 5, 4), ("cpb", 6, 4)]
CASES += [("sb", 2, k) for k in (2, 4, 6, 8)] + [("sb", 3, 3), ("sb", 3, 6)]


@pytest.mark.parametrize("kind,q,k", CASES)
def test_every_word_roundtrips(kind, q, k):
    params = CodecParams(kind, q, k)
    balanced = PREDICATES[balance_kind(kind)]
    for u in product(symbols(q), repeat=k):
        cw, _ = encode(u, params)
        assert len(cw.prefix) == params.plan.length, u
        assert balanced(cw.prefix, q), u
        assert balanced(cw.payload, q), u
        assert decode(cw, params) == u


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_knuth_is_pb_at_q2(k):
    knuth, pb = CodecParams("knuth", 2, k), CodecParams("pb", 2, k)
    assert knuth.plan.space == pb.plan.space and knuth.plan.length == pb.plan.length
    for u in product((-1, 1), repeat=k):
        (cw_knuth, side_knuth), (cw_pb, side_pb) = encode(u, knuth), encode(u, pb)
        assert cw_knuth == cw_pb, u
        assert side_knuth.z == side_pb.z and side_pb.a is None, u


# ---------------------------------------------------------------------------
# decoding is strict: a balanced (prefix, payload) pair decodes exactly when
# encode makes it for some word and some valid choice of the free fields

STRICT_CASES = [("knuth", 2, 4), ("knuth", 2, 6), ("pb", 3, 3), ("pb", 5, 3)]
STRICT_CASES += [("cb", 3, 2), ("cb", 3, 3), ("cb", 4, 2), ("cpb", 4, 2), ("cpb", 5, 2)]
STRICT_CASES += [("sb", 2, 2), ("sb", 3, 3)]


def pinned(params, side):
    """The side info's pinnable fields, as encode's inject."""
    spec = params.plan.spec
    if spec.rounds:
        return {"i": tuple(group[0] for group in side.rounds)}
    return {f.name: getattr(side, f.name) for f in spec.fields if f.arg is not None}


def every_inject(params):
    """Every inject whose fields hold values of their digit ranges."""
    spec, q, k = params.plan.spec, params.q, params.k
    fields = [f for f in spec.fields if f.arg is not None]
    if spec.rounds:
        choices = [list(product(*(f.values(q, k, v) for v in spec.rounds(q)))) for f in fields]
    else:
        choices = [f.values if isinstance(f.values, tuple) else f.values(q, k, None) for f in fields]
    for values in product(*choices):
        yield dict(zip((f.name for f in fields), values))


def balanced_words(kind, q, n):
    balanced = PREDICATES[balance_kind(kind)]
    return [w for w in product(symbols(q), repeat=n) if balanced(w, q)]


@pytest.mark.parametrize("kind,q,k", STRICT_CASES)
def test_decode_accepts_exactly_the_codewords(kind, q, k):
    params = CodecParams(kind, q, k)
    codewords = set()
    for u in product(symbols(q), repeat=k):
        for inject in every_inject(params):
            with suppress(InvalidIndexError):
                codewords.add(encode(u, params, inject)[0])
    accepted = set()
    for prefix, payload in product(
        balanced_words(kind, q, params.plan.length), balanced_words(kind, q, k)
    ):
        cw = Codeword(prefix, payload)
        try:
            u = decode(cw, params)
        except DecodeError:
            continue
        accepted.add(cw)
        side = decode_prefix(prefix, params.plan)
        assert encode(u, params, pinned(params, side)) == (cw, side), cw
    assert accepted == codewords


LARGER = [("knuth", 2, 16), ("pb", 5, 9), ("pb", 4, 10), ("cb", 4, 10), ("cb", 7, 5)]
LARGER += [("cpb", 4, 10), ("cpb", 5, 9), ("cpb", 6, 8), ("cpb", 7, 7), ("sb", 3, 9), ("sb", 4, 8)]


@given(st.sampled_from(LARGER), st.data())
@settings(deadline=None, max_examples=300)
def test_accepted_pairs_re_encode(case, data):
    # a codeword's payload under the prefix of its own or an arbitrary side
    # info: if decode accepts the pair, encode with that side's free fields
    # gives it back
    params = CodecParams(*case)
    q, k = params.q, params.k
    word = st.lists(st.sampled_from(symbols(q)), min_size=k, max_size=k).map(tuple)
    cw, side = encode(data.draw(word), params)
    if data.draw(st.booleans()):
        side = unpack(data.draw(st.integers(0, params.plan.space - 1)), *case)
    cw = Codeword(encode_prefix(side, params.plan), cw.payload)
    try:
        u = decode(cw, params)
    except DecodeError:
        return
    assert encode(u, params, pinned(params, side)) == (cw, side)
