"""The packed-byte word form against the tuple form.

Every construction runs its payload stages on signed bytes where the one
selection rule, codecs._form, finds that faster, and on tuples elsewhere.
These tests force each form through that rule for every word of q <= 128,
and hold the packed form to the tuple one: both must give the same
codeword, side info and decoded word, or raise the same exception with the
same message.  The packed form checks a word against the alphabet in the
pass that packs it, so foreign symbols are held to the tuple form's
validate_word too.
"""

import random
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from balancedq import codecs
from balancedq.alphabet import sub_alphabet, symbols
from balancedq.codebook import CpbSide, PbSide, SbSide, encode_prefix
from balancedq.codecs import CodecParams, Codeword, decode, encode
from balancedq.errors import AlphabetError, BalancedqError, DecodeError, InfeasibleParamsError
from test_codecs import FOREIGN

KS = (64, 65, 66, 130, 512)
SHORT_KS = (8, 16, 32)
KINDS = ("knuth", "pb", "cb", "cpb", "sb")


@contextmanager
def forced(form):
    """Inside, every word of q <= 128 takes the given form, and every other
    word the tuple.  Params hold the form the rule gave them, so the shared
    ones are made anew on each side."""

    def rule(kind, q, k):
        return form if q <= 128 else codecs._TUPLES

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codecs, "_form", rule)
        codecs._shared_params.cache_clear()
        try:
            yield
        finally:
            codecs._shared_params.cache_clear()


def outcome(call, *args):
    """What call(*args) returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except BalancedqError as exc:
        return type(exc), str(exc)


def roundtrip(u, case, inject=None):
    params = CodecParams(*case)
    cw, side = encode(u, params, inject)
    return cw, side, decode(cw, params)


def decoded(cw, case):
    return decode(cw, CodecParams(*case))


def same_in_both_forms(call, *args):
    """call's outcome, the same in both forms; call makes its params from
    a (kind, q, k) case."""
    with forced(codecs._BYTES):
        packed = outcome(call, *args)
    with forced(codecs._TUPLES):
        assert outcome(call, *args) == packed, args
    return packed


def feasible(kind, q, k):
    try:
        return CodecParams(kind, q, k)
    except InfeasibleParamsError:
        return None


def cases():
    """(kind, q, k) for every construction at q in 2..9 and each k of KS;
    pb also at k = 2 and each k of SHORT_KS, and sb instead at k = q, 2q and
    the multiples of q next to each k of SHORT_KS and KS.  Then the widest
    alphabets, and an sb word of a wide alphabet that the rule keeps on
    tuples."""
    out = []
    for kind in KINDS:
        for q in range(2, 10):
            ks = set(KS)
            if kind == "pb":
                ks |= {2, *SHORT_KS}
            if kind == "sb":
                ks = {q, 2 * q} | {q * (k // q + up) for k in SHORT_KS + KS for up in (0, 1)} - {0}
            out += [(kind, q, k) for k in sorted(ks) if feasible(kind, q, k)]
    out += [(kind, q, 1024) for kind in ("pb", "cb", "cpb") for q in (127, 128, 129)]
    out += [("sb", 96, 96)]
    return out


@pytest.mark.parametrize(
    "kind,q,k,packed",
    [
        ("knuth", 2, 254, False),
        ("knuth", 2, 256, True),
        ("cb", 7, 191, False),
        ("cb", 7, 192, True),
        ("cb", 128, 192, True),
        ("cb", 129, 2048, False),
        ("pb", 3, 47, False),
        ("pb", 3, 48, True),
        ("pb", 4, 46, False),
        ("pb", 4, 48, True),
        ("pb", 127, 1024, True),
        ("pb", 128, 48, True),
        ("pb", 129, 1024, False),
        ("cpb", 4, 126, False),
        ("cpb", 4, 128, True),
        ("cpb", 7, 512, True),
        ("cpb", 64, 2048, True),
        ("cpb", 65, 2080, False),
        ("sb", 2, 2, True),
        ("sb", 4, 16, True),
        ("sb", 40, 40, True),
        ("sb", 41, 41, False),
        ("sb", 96, 96, False),
        ("sb", 96, 864, False),
        ("sb", 96, 960, True),
        ("sb", 128, 1280, True),
        ("sb", 129, 1290, False),
    ],
)
def test_the_rule_packs_only_where_bytes_measured_faster(kind, q, k, packed):
    assert (CodecParams(kind, q, k).form is codecs._BYTES) == packed


def words(q, k):
    """A uniform word, a skewed one, one of a single symbol each for the
    lowest and the highest symbol, and an all-zero word at odd q."""
    rng = random.Random(f"forms:{q}:{k}")
    syms = symbols(q)
    yield tuple(rng.choices(syms, k=k))
    yield tuple(rng.choices(syms, [1] * (q - 1) + [3 * q], k=k))
    yield (syms[0],) * k
    yield (syms[-1],) * k
    if q % 2:
        yield (0,) * k


def pinned(side):
    """The side info's pinnable fields, as encode's inject."""
    if isinstance(side, SbSide):
        return {"i": tuple(i for i, _, _ in side.rounds)}
    return {name: value for name in side.__slots__ if (value := getattr(side, name)) is not None}


def injects(side, q, k):
    """The side's own pinnable fields, then each one moved."""
    if isinstance(side, SbSide):
        splits = list(pinned(side)["i"])
        yield {"i": splits}
        for v in range(len(splits)):
            yield {"i": splits[:v] + [(splits[v] + 1) % (k + 1)] + splits[v + 1 :]}
        return
    fields = pinned(side)
    yield fields
    yield {**fields, "z": (fields["z"] + 1) % k}
    if "a" in fields:
        yield {**fields, "a": symbols(q)[(symbols(q).index(fields["a"]) + 1) % q]}
    if "w" in fields:
        yield {**fields, "w": fields["w"] + 1}
        yield {**fields, "xi": 1 - fields["xi"]}
        yield {**fields, "nu": "+-"[fields["nu"] == "+"]}


@pytest.mark.parametrize("kind,q,k", cases())
def test_both_forms_give_the_same_codewords(kind, q, k):
    with forced(codecs._BYTES):
        assert (CodecParams(kind, q, k).form is codecs._BYTES) == (q <= 128)
    with forced(codecs._TUPLES):
        assert CodecParams(kind, q, k).form is codecs._TUPLES
    for j, u in enumerate(words(q, k)):
        got = same_in_both_forms(roundtrip, u, (kind, q, k))
        assert got[2] == u, (j, got)
        for inject in injects(got[1], q, k):
            same_in_both_forms(roundtrip, u, (kind, q, k), inject)


@pytest.mark.parametrize("q", [5, 7, 9, 127])
def test_cpb_with_an_empty_side_in_both_forms(q):
    # k copies of the lowest symbol take it as their offset, so the
    # polarity-balanced word is all zeros and neither side has a symbol
    case = ("cpb", q, 130)
    cw, side, _ = same_in_both_forms(roundtrip, (-q + 1,) * 130, case)
    assert side == CpbSide(0, 0, "+", 0, -q + 1) and cw.payload == (0,) * 130
    for w in (1, 2):
        prefix = encode_prefix(CpbSide(0, 0, "+", w, -q + 1), CodecParams(*case).plan)
        assert same_in_both_forms(decoded, Codeword(prefix, cw.payload), case)[0] is DecodeError


# ---------------------------------------------------------------------------
# foreign symbols: the packed form's check in its pack against validate_word


class Int(int):
    """A plain int subclass, which the alphabet refuses like True."""


class Index:
    """An object with __index__, which a Struct would pack as its int."""

    def __index__(self):
        return 1

    def __repr__(self):
        return "Index()"


def foreign(q):
    """Each value that is no symbol of the order-q alphabet and that a
    packed check could let through: the codec tests' foreign values, an int
    subclass, an __index__ object, the ints just past a signed byte and
    past a machine word, every int in [-2q, -q) and every int of the wrong
    parity up to q."""
    values = [*FOREIGN, Int(q - 1), Index(), 128, -128, 2**70]
    values += [*range(-2 * q, -q), *range(-q, q + 1, 2)]
    return [x for x in values if type(x) is not int or x not in symbols(q)]


FOREIGN_CASES = [(kind, 2, 256) for kind in ("knuth", "pb", "cb")]
FOREIGN_CASES += [(kind, q, 130) for kind in ("pb", "cb", "cpb") for q in (4, 5)]
FOREIGN_CASES += [("sb", 3, 129), ("sb", 5, 130), ("pb", 127, 130), ("cb", 128, 192)]
FOREIGN_CASES += [("sb", 2, 2), ("sb", 4, 16), ("pb", 5, 48)]


@pytest.mark.parametrize("kind,q,k", FOREIGN_CASES)
def test_foreign_symbols_raise_as_the_tuple_form_does(kind, q, k):
    u = tuple(random.Random(f"foreign:{kind}:{q}").choices(symbols(q), k=k))
    with forced(codecs._BYTES):
        params = CodecParams(kind, q, k)
        assert params.form is codecs._BYTES
        cw, _ = encode(u, params)
    for bad in foreign(q):
        for i in (0, k // 2, k - 1):
            word = u[:i] + (bad,) + u[i + 1 :]
            raised = same_in_both_forms(roundtrip, word, (kind, q, k))
            assert raised[0] is AlphabetError, (bad, i, raised)
            payload = cw.payload[:i] + (bad,) + cw.payload[i + 1 :]
            raised = same_in_both_forms(decoded, Codeword(cw.prefix, payload), (kind, q, k))
            assert raised[0] is DecodeError and repr(bad) in raised[1], (bad, i, raised)


# ---------------------------------------------------------------------------
# strict decoding: a tampered side info decodes only where encode makes the pair

LONG = [("pb", 5, 130), ("pb", 4, 130), ("cpb", 5, 130), ("cpb", 6, 130), ("cpb", 7, 512)]
LONG += [("sb", 3, 129), ("sb", 4, 128)]


def tampered(side, q, k, draw):
    """side with one field moved: the pb z, the cpb xi, nu or w, or one sb
    round's (m, M)."""
    if isinstance(side, PbSide):
        return PbSide(draw(st.integers(0, k - 1)), side.a)
    if isinstance(side, CpbSide):
        field = draw(st.sampled_from(["xi", "nu", "w"]))
        xi = 1 - side.xi if field == "xi" else side.xi
        nu = "+-"[side.nu == "+"] if field == "nu" else side.nu
        w = draw(st.integers(0, (q // 2) * (k // 2) - 1)) if field == "w" else side.w
        return CpbSide(side.z, xi, nu, w, side.a)
    rounds = list(side.rounds)
    v = draw(st.integers(1, q - 1))
    sub = sub_alphabet(q, v)
    i_v, _, _ = rounds[v - 1]
    rounds[v - 1] = (i_v, draw(st.sampled_from(sub)), draw(st.sampled_from(sub)))
    return SbSide(tuple(rounds))


@given(st.sampled_from(LONG), st.data())
@settings(deadline=None, max_examples=150)
def test_tampered_long_side_info_decodes_only_to_codewords(case, data):
    params = CodecParams(*case)
    q, k = params.q, params.k
    skew = [1] * (q - 1) + [data.draw(st.sampled_from([1, 3 * q]))]
    u = tuple(random.Random(data.draw(st.integers(0, 2**32))).choices(symbols(q), skew, k=k))
    cw, side = encode(u, params)
    side = tampered(side, q, k, data.draw)
    cw = Codeword(encode_prefix(side, params.plan), cw.payload)
    got = same_in_both_forms(decoded, cw, case)
    if got[0] is not DecodeError:
        assert encode(got, params, pinned(side)) == (cw, side)


def other_first_symbol(cw, side, params):
    """cw with its first payload symbol moved to the next symbol round the
    alphabet, which unbalances the payload."""
    syms = symbols(params.q)
    first = syms[(syms.index(cw.payload[0]) + 1) % params.q]
    return Codeword(cw.prefix, (first,) + cw.payload[1:])


def other_nu(cw, side, params):
    """cw under cpb side info naming the other side."""
    side = CpbSide(side.z, side.xi, "+-"[side.nu == "+"], side.w, side.a)
    return Codeword(encode_prefix(side, params.plan), cw.payload)


def swapped_first_round(cw, side, params):
    """cw under sb side info whose first round has its m and M swapped."""
    (i, m_v, big_m), *rest = side.rounds
    return Codeword(encode_prefix(SbSide(((i, big_m, m_v), *rest)), params.plan), cw.payload)


@pytest.mark.parametrize(
    "kind,q,tamper,message",
    [
        ("knuth", 2, other_first_symbol, "payload is not cb-balanced"),
        ("pb", 5, other_first_symbol, "payload is not pb-balanced"),
        ("cb", 7, other_first_symbol, "payload is not cb-balanced"),
        ("cpb", 6, other_nu, "was not produced for this payload"),
        ("sb", 4, swapped_first_round, "was not produced for this payload"),
    ],
)
def test_long_pairs_that_encode_never_makes_are_refused(kind, q, tamper, message):
    params = CodecParams(kind, q, 512)
    u = tuple(random.Random(f"strict:{kind}").choices(symbols(q), k=512))
    cw, side = encode(u, params)
    got = same_in_both_forms(decoded, tamper(cw, side, params), (kind, q, 512))
    assert got[0] is DecodeError and message in got[1]
