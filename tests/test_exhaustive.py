"""Every input word of small (construction, q, k) round-trips.

Complements the random roundtrips of AC7: here no word is left out, so the
rare words (all one symbol, all zero, ...) are covered by construction.
"""

from itertools import product

import pytest

from balancedq.alphabet import is_cb, is_cpb, is_pb, is_sb, symbols
from balancedq.codebook import balance_kind
from balancedq.codecs import CodecParams, decode, encode

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
