"""Fixed-length balancing encoders and decoders.

Four balancing constructions, one per balance notion, plus the classic
bipolar case:

- pb:    shift by an offset symbol (odd q only) so the nonzero count is
         even, then invert the polarity of the first z symbols.
- knuth: Knuth's bipolar code, which is pb at q=2 (no offset; inverting
         the first z symbols makes the word sum to zero).  It keeps its
         own name and side-info class, KnuthSide.
- cb:    add one of q*k candidate balancing sequences symbol-wise mod 2q.
- cpb:   polarity-balance first, optionally mirror the positive values,
         then add a balancing sequence to one side (mod within that side).
- sb:    q-1 rounds; round v fixes the count of the round's lowest symbol
         at k/q by rotating a split of the sub-alphabet positions.

cb and cpb share one balancing-sequence transform and one sliding index
search; they differ in the positions the sequence covers and in the
sub-alphabet it wraps around.

Every encoder returns the payload plus a side-info record; the prefix is
the side info spelled as a balanced word (see codebook, whose SPECS give
each record's layout).  Encoders pick the smallest valid index by default;
any valid index may be injected instead and is verified, so decoders never
depend on canonical choice.  Decoding is strict: a payload that fails the
construction's balance predicate, or cpb side info that the encoder could
not have produced for the payload, raises DecodeError.
"""

from __future__ import annotations

import operator
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Optional, Sequence, Tuple

from .alphabet import Word, is_cb, is_pb, sub_alphabet, symbols, validate_word
from .codebook import (
    PREDICATES,
    SPECS,
    CbSide,
    CpbSide,
    KnuthSide,
    PbSide,
    PrefixPlan,
    SbSide,
    SideInfo,
    decode_prefix,
    encode_prefix,
    plan,
)
from .errors import (
    BalancingInvariantError,
    DecodeError,
    InfeasibleParamsError,
    InvalidIndexError,
)


@dataclass(frozen=True)
class CodecParams:
    """Validated (construction, q, k) triple with its prefix plan."""

    kind: str
    q: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", self.kind.lower())
        object.__setattr__(self, "_plan", plan(self.kind, self.q, self.k))

    @property
    def plan(self) -> PrefixPlan:
        return self._plan  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Codeword:
    """A balanced prefix followed by the balanced payload."""

    prefix: Word
    payload: Word

    @property
    def word(self) -> Word:
        return self.prefix + self.payload


def _reduce_full(value: int, q: int) -> int:
    # land on the unique alphabet element congruent to value (step-2 grids
    # stay aligned because value + q - 1 is always even here)
    return (value + q - 1) % (2 * q) - q + 1


def balancing_sequence(i: int, length: int, radix: int) -> Word:
    """The i-th balancing sequence of the given length.

    Block j = i // length contributes the value 2j; the first i % length
    positions carry 2j+2 instead.  Valid for 0 <= i < radix * length.
    """
    if length < 1:
        raise InvalidIndexError(f"balancing sequences need length >= 1, got {length}")
    if not 0 <= i < radix * length:
        raise InvalidIndexError(f"sequence index {i} outside 0..{radix * length - 1}")
    j = 2 * (i // length)
    g = i % length
    return (j + 2,) * g + (j,) * (length - g)


# ---------------------------------------------------------------------------
# polarity balancing, and the bipolar case q = 2


def _flip(u: Word, z: int) -> Word:
    return tuple(-x for x in u[:z]) + u[z:]


def find_pb_offset(u: Sequence[int], q: int) -> int:
    """Smallest symbol a whose count in u has the parity of k (odd q only).

    Subtracting such an a leaves an even number of nonzero symbols, which
    the polarity inversion stage needs.
    """
    u = tuple(u)
    k = len(u)
    for a in symbols(q):
        if sum(1 for x in u if x == a) % 2 == k % 2:
            return a
    raise BalancingInvariantError("no feasible offset symbol found")


def find_pb_index(u: Sequence[int], q: Optional[int] = None) -> int:
    """Smallest z in [0, k) such that inverting the first z polarities
    balances the word.  At q=2 the symbols are their own polarities."""
    signs = u if q == 2 else [(x > 0) - (x < 0) for x in u]
    total = sum(signs)
    # inverting the first z polarities subtracts twice their sum; a match
    # at z = k would mean total = 0, which z = 0 already matches
    if total % 2 == 0:
        with suppress(ValueError):
            return operator.indexOf(accumulate(signs, initial=0), total // 2)
    raise BalancingInvariantError("no polarity balancing point found")


def find_knuth_index(u: Sequence[int]) -> int:
    """Smallest z in [0, k) such that inverting u[:z] gives charge zero."""
    return find_pb_index(tuple(u), 2)


def _pb_stage(
    u: Word, q: int, k: int, a: Optional[int], z: Optional[int], goal: str = "polarity-balance"
) -> Tuple[Word, Optional[int], int]:
    """Shared offset-and-flip stage; returns (balanced word, a, z)."""
    if q % 2 == 0:
        if a is not None:
            raise InvalidIndexError("offset symbols only apply to odd q")
        shifted = u
    else:
        if a is None:
            a = find_pb_offset(u, q)
        elif a not in symbols(q) or sum(1 for x in u if x == a) % 2 != k % 2:
            raise InvalidIndexError(f"offset a={a} has the wrong count parity")
        shifted = tuple(_reduce_full(x - a, q) for x in u)
    if z is None:
        z = find_pb_index(shifted, q)
    elif not (0 <= z < k and is_pb(_flip(shifted, z), q)):
        raise InvalidIndexError(f"z={z} does not {goal} this word")
    return _flip(shifted, z), a, z


def _pb_unstage(word: Word, q: int, z: int, a: Optional[int]) -> Word:
    """Inverse of _pb_stage."""
    word = _flip(word, z)
    if a is None:
        return word
    return tuple(_reduce_full(x + a, q) for x in word)


def pb_encode(
    u: Sequence[int],
    params: CodecParams,
    a: Optional[int] = None,
    z: Optional[int] = None,
) -> Tuple[Codeword, PbSide]:
    u = _checked_payload(u, params, "pb")
    balanced, a, z = _pb_stage(u, params.q, params.k, a, z)
    side = PbSide(z, a)
    return Codeword(encode_prefix(side, params.plan), balanced), side


def pb_decode(cw: Codeword, params: CodecParams) -> Word:
    side = _checked_prefix(cw, params, "pb")
    return _pb_unstage(cw.payload, params.q, side.z, side.a)


def knuth_encode(
    u: Sequence[int], params: CodecParams, z: Optional[int] = None
) -> Tuple[Codeword, KnuthSide]:
    """pb_encode at q=2, with its side info as KnuthSide."""
    u = _checked_payload(u, params, "knuth")
    balanced, _, z = _pb_stage(u, 2, params.k, None, z, "balance")
    side = KnuthSide(z)
    return Codeword(encode_prefix(side, params.plan), balanced), side


def knuth_decode(cw: Codeword, params: CodecParams) -> Word:
    """pb_decode at q=2."""
    side = _checked_prefix(cw, params, "knuth")
    return _pb_unstage(cw.payload, 2, side.z, None)


# ---------------------------------------------------------------------------
# balancing sequences: charge balancing, and the side stage of cpb


def _add_sequence(
    word: Word, positions: Sequence[int], lo: int, mod: int, z: int, sign: int = 1
) -> Word:
    """Add sign times balancing sequence z, spread over positions, to word.

    Each touched symbol wraps into the sub-alphabet lo, lo+2, ...,
    lo+mod-2, which has mod/2 symbols and so mod/2 sequence blocks.
    """
    if not positions:
        return word
    out = list(word)
    for i, b in zip(positions, balancing_sequence(z, len(positions), mod // 2)):
        out[i] = lo + (out[i] + sign * b - lo) % mod
    return tuple(out)


def _find_sequence(
    word: Sequence[int], positions: Sequence[int], lo: int, mod: int, target: int
) -> int:
    """Smallest z whose balancing sequence, added as in _add_sequence,
    brings the sum over positions to target."""
    cur = [lo + (word[i] - lo) % mod for i in positions]
    n = len(cur)
    for block in range(mod // 2):
        # sequence block*n + g adds 2 more on the first g positions than
        # sequence block*n does
        nxt = [lo + (x + 2 - lo) % mod for x in cur]
        running = accumulate(map(operator.sub, nxt[: n - 1], cur), initial=sum(cur))
        with suppress(ValueError):
            return block * n + operator.indexOf(running, target)
        cur = nxt
    raise BalancingInvariantError("no balancing sequence reaches the target sum")


def find_cb_index(u: Sequence[int], q: int) -> int:
    """Smallest z in [0, q*k) whose balancing sequence zeroes the charge."""
    return _find_sequence(u, range(len(u)), -q + 1, 2 * q, 0)


def cb_encode(
    u: Sequence[int], params: CodecParams, z: Optional[int] = None
) -> Tuple[Codeword, CbSide]:
    u = _checked_payload(u, params, "cb")
    q, k = params.q, params.k
    if z is None:
        z = find_cb_index(u, q)
    payload = _add_sequence(u, range(k), -q + 1, 2 * q, z) if 0 <= z < q * k else None
    if payload is None or not is_cb(payload, q):
        raise InvalidIndexError(f"z={z} does not charge-balance this word")
    side = CbSide(z)
    return Codeword(encode_prefix(side, params.plan), payload), side


def cb_decode(cw: Codeword, params: CodecParams) -> Word:
    side = _checked_prefix(cw, params, "cb")
    q = params.q
    return _add_sequence(cw.payload, range(params.k), -q + 1, 2 * q, side.z, -1)


# ---------------------------------------------------------------------------
# joint charge and polarity balancing


def _side(word: Word, q: int, nu: str) -> Tuple[list, int, int]:
    """Positions of the nu side's symbols in word, and the lowest symbol and
    the modulus of that half-alphabet."""
    sign = 1 if nu == "+" else -1
    lo = 1 + q % 2 if sign > 0 else -q + 1
    return [i for i, x in enumerate(word) if sign * x > 0], lo, 2 * (q // 2)


def _mirror_positive(word: Word, q: int) -> Word:
    top = 2 * ((q + 1) // 2)
    return tuple(top - x if x > 0 else x for x in word)


def find_cpb_index(word: Sequence[int], nu: str, q: int, target: int) -> int:
    """Smallest w whose balancing sequence drives the nu-side sum to target."""
    word = tuple(word)
    return _find_sequence(word, *_side(word, q, nu), target)


def cpb_encode(
    u: Sequence[int],
    params: CodecParams,
    a: Optional[int] = None,
    z: Optional[int] = None,
    w: Optional[int] = None,
    xi: Optional[int] = None,
    nu: Optional[str] = None,
) -> Tuple[Codeword, CpbSide]:
    u = _checked_payload(u, params, "cpb")
    q = params.q
    want_xi, want_nu = xi, nu
    y, a, z = _pb_stage(u, q, params.k, a, z)
    k1 = sum(1 for x in y if x > 0)
    pos_sum = sum(x for x in y if x > 0)
    neg_sum = -sum(x for x in y if x < 0)
    pivot = k1 * ((q + 1) // 2)
    xi = 1 if (pos_sum < pivot < neg_sum or neg_sum < pivot < pos_sum) else 0
    if xi:
        y = _mirror_positive(y, q)
        pos_sum = sum(x for x in y if x > 0)
    # after the mirror both side sums sit on the same side of the pivot; a
    # word without nonzero symbols gets xi=0, nu='+' and w=0
    nu = "+" if (pos_sum >= neg_sum >= pivot or pos_sum <= neg_sum <= pivot) else "-"
    # xi and nu are derived, not free; injected values must agree
    if want_xi is not None and want_xi != xi:
        raise InvalidIndexError(f"xi={want_xi} does not match the derived flag {xi}")
    if want_nu is not None and want_nu != nu:
        raise InvalidIndexError(f"nu={want_nu!r} does not match the derived side {nu!r}")
    target = neg_sum if nu == "+" else -pos_sum
    positions, lo, mod = _side(y, q, nu)
    w_space = max((q // 2) * k1, 1)
    if w is None:
        w = find_cpb_index(y, nu, q, target)
    elif not 0 <= w < w_space:
        raise InvalidIndexError(f"w={w} outside 0..{w_space - 1}")
    payload = _add_sequence(y, positions, lo, mod, w)
    if sum(payload[i] for i in positions) != target:
        raise InvalidIndexError(f"w={w} does not balance the {nu} side")
    side = CpbSide(z, xi, nu, w, a)
    return Codeword(encode_prefix(side, params.plan), payload), side


def cpb_decode(cw: Codeword, params: CodecParams) -> Word:
    side = _checked_prefix(cw, params, "cpb")
    q = params.q
    positions, lo, mod = _side(cw.payload, q, side.nu)
    # the encoder's side stage covers the k1 positive (as many as negative)
    # symbols, with w < (q//2)*k1; with k1 = 0 it emits only xi=0, nu='+', w=0
    k1 = len(positions)
    if not (side.w < (q // 2) * k1 if k1 else (side.xi, side.nu, side.w) == (0, "+", 0)):
        raise DecodeError(f"side info {side} was not produced for this payload")
    word = _add_sequence(cw.payload, positions, lo, mod, side.w, -1)
    if side.xi:
        word = _mirror_positive(word, q)
    return _pb_unstage(word, q, side.z, side.a)


# ---------------------------------------------------------------------------
# symbol balancing


def _sb_round_stats(word: Word, q: int, v: int) -> Tuple[int, int]:
    """(least, most) frequent symbols of round v's sub-alphabet; ties take
    the smallest symbol for the minimum and the largest for the maximum."""
    counts = Counter(word)
    sub = sub_alphabet(q, v)
    return min(sub, key=lambda s: (counts[s], s)), max(sub, key=lambda s: (counts[s], s))


def _sb_round(
    word: Word, q: int, v: int, i_v: int, m_v: int, big_m: int, sign: int = 1
) -> Word:
    """Round v of the symbol construction (sign=1), or its inverse (sign=-1).

    Sub-alphabet symbols before the split i_v rotate by lowest - m_v, the
    rest by lowest - big_m; symbols below the sub-alphabet stay.
    """
    sub = sub_alphabet(q, v)
    lo, mod = sub[0], 2 * len(sub)
    d_low = sign * (lo - m_v)
    d_high = sign * (lo - big_m)
    return tuple(
        lo + (x + (d_low if i < i_v else d_high) - lo) % mod if x >= lo else x
        for i, x in enumerate(word)
    )


def find_sb_split(word: Sequence[int], q: int, v: int, m: int) -> int:
    """Smallest split i_v in [0, k] that leaves exactly m copies of the
    round's lowest symbol after the rotation."""
    word = tuple(word)
    m_v, big_m = _sb_round_stats(word, q, v)
    # split i moves the copies of m_v before i and of big_m from i on to
    # the lowest symbol
    counts = accumulate(((x == m_v) - (x == big_m) for x in word), initial=word.count(big_m))
    with suppress(ValueError):
        return operator.indexOf(counts, m)
    raise BalancingInvariantError(f"no feasible split in round {v}")


def sb_encode(
    u: Sequence[int], params: CodecParams, splits: Optional[Sequence[int]] = None
) -> Tuple[Codeword, SbSide]:
    u = _checked_payload(u, params, "sb")
    q, k = params.q, params.k
    m = k // q
    if splits is not None:
        splits = tuple(splits)
        if len(splits) != q - 1:
            raise InvalidIndexError(f"expected {q - 1} splits, got {len(splits)}")
    word = u
    rounds = []
    for v in range(1, q):
        m_v, big_m = _sb_round_stats(word, q, v)
        if splits is None:
            i_v = find_sb_split(word, q, v, m)
        else:
            i_v = splits[v - 1]
            if not 0 <= i_v <= k:
                raise InvalidIndexError(f"round {v}: split {i_v} outside 0..{k}")
        word = _sb_round(word, q, v, i_v, m_v, big_m)
        lowest = sub_alphabet(q, v)[0]
        if sum(1 for x in word if x == lowest) != m:
            raise InvalidIndexError(f"round {v}: split {i_v} does not settle symbol {lowest}")
        rounds.append((i_v, m_v, big_m))
    side = SbSide(tuple(rounds))
    return Codeword(encode_prefix(side, params.plan), word), side


def sb_decode(cw: Codeword, params: CodecParams) -> Word:
    side = _checked_prefix(cw, params, "sb")
    word = cw.payload
    for v in range(params.q - 1, 0, -1):
        word = _sb_round(word, params.q, v, *side.rounds[v - 1], -1)
    return word


# ---------------------------------------------------------------------------
# dispatch


def _checked_payload(u: Sequence[int], params: CodecParams, kind: str) -> Word:
    if params.kind != kind:
        raise InfeasibleParamsError(f"params are for {params.kind!r}, not {kind!r}")
    u = validate_word(u, params.q)
    if len(u) != params.k:
        raise InfeasibleParamsError(f"expected a length-{params.k} word, got {len(u)}")
    return u


def _checked_prefix(cw: Codeword, params: CodecParams, kind: str) -> SideInfo:
    """The side info of a codeword whose prefix and payload are both
    balanced as the construction requires; raises DecodeError otherwise."""
    if params.kind != kind:
        raise InfeasibleParamsError(f"params are for {params.kind!r}, not {kind!r}")
    try:
        prefix = validate_word(cw.prefix, params.q)
        payload = validate_word(cw.payload, params.q)
    except Exception as exc:
        raise DecodeError(str(exc)) from exc
    if len(payload) != params.k:
        raise DecodeError(f"expected a length-{params.k} payload, got {len(payload)}")
    try:
        side = decode_prefix(prefix, params.plan)
    except InvalidIndexError as exc:
        raise DecodeError(str(exc)) from exc
    balance = SPECS[kind].balance
    if not PREDICATES[balance](payload, params.q):
        raise DecodeError(f"payload is not {balance}-balanced")
    return side


_CODECS = {
    "knuth": (knuth_encode, knuth_decode),
    "pb": (pb_encode, pb_decode),
    "cb": (cb_encode, cb_decode),
    "cpb": (cpb_encode, cpb_decode),
    "sb": (sb_encode, sb_decode),
}


def encode(
    u: Sequence[int], params: CodecParams, inject: Optional[Dict] = None
) -> Tuple[Codeword, SideInfo]:
    """Encode a data word; inject optionally pins balancing choices.

    inject takes the construction's pinnable side-info fields by name (see
    codebook.SPECS): 'z' (knuth/pb/cb/cpb), 'a' (pb/cpb, odd q), 'w',
    'xi', 'nu' (cpb; xi and nu are derived and only checked), and 'i'
    (sb: sequence of q-1 splits).  Injected values are validated and
    rejected with InvalidIndexError when not balancing.
    """
    inject = dict(inject or {})
    kwargs = {
        f.arg or f.name: inject.pop(f.name, None)
        for f in SPECS[params.kind].fields
        if f.arg is not None
    }
    if inject:
        raise InvalidIndexError(f"unsupported inject keys for {params.kind}: {sorted(inject)}")
    return _CODECS[params.kind][0](u, params, **kwargs)


def decode(cw: Codeword, params: CodecParams) -> Word:
    """Decode a codeword back to its data word."""
    return _CODECS[params.kind][1](cw, params)
