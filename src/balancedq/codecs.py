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

Every payload stage maps the word through cached symbol tables, with at
most one cut: the flip at z, the pb offset, the cpb mirror, an sb round at
its split, a balancing sequence at its g-th position.  A table is read only
after the codec has validated its input, since a map is exact only on a
word of the alphabet.  At odd q the pb offset and flip are one map, the
flip composed with the offset before the cut.  cb and cpb share one
sequence transform and one sliding index search, which makes one pass per
block of sequences, every symbol stepping by 2 save the one that wraps
round the window; they differ in the positions the sequence covers and in
the sub-alphabet window it rotates.

The stages run on one of two word forms.  One rule, _form, picks it from
the construction and (q, k) alone, and CodecParams keeps it.  A word enters
the stages only through its form's pack, which validates it as it converts
it, and leaves through unpack:

- packed bytes, where they measured faster than tuples; _form holds the
  bounds, and the form_grid of BENCH_32.json the measurements they come
  from.  A cached Struct packs the word, each symbol s as its code s & 0xFF,
  which needs q <= 128.  The pack is the alphabet check: a type pass refuses
  every item that is not an int (True, int subclasses, __index__ objects),
  the Struct any int outside -128..127, and deleting the alphabet's codes
  with bytes.translate must leave nothing; a word that fails goes to
  validate_word, so the error is the tuple form's.  A table is a
  bytes.translate table of 256 slots indexed by the code, cached under the
  tuple table's key, and each map costs a few microseconds where a gather
  costs tens.  Every statistic reads bytes.count of the codes: the charge,
  the pb offset, the pb, cb, cpb and sb predicates, cpb's flags (the count
  of each symbol times its packed tally, below), sb's round counts and its
  settle check.  Each index search unpacks translated bytes once: the signs
  or split weights, or for cb and cpb, per block of sequences, each window
  symbol's step (kept in halves, so that the wrap's step fits a signed
  byte); the pb search at q=2, whose symbols are their own signs, unpacks
  the word.  The cpb side's symbols are the word translated with the other
  codes deleted, and the g-th side position, a cut, bisects the side mask's
  running count.  The payload is unpacked once at the end.  Packing and
  unpacking cost about as much as two gathers, a fixed cost per word that a
  short word repays only where its stages make many passes: sb, whose q-1
  rounds each count, search and map the word, packs from the shortest word,
  and pb only once its search and maps outweigh the pack.  A wide alphabet
  costs the byte form per round or per symbol: sb's rounds need about q*q
  rotation tables, more than the table caches hold, so a run of different
  words builds each round's tables again, and the byte form a translate
  table on top of each tuple one, which only a long word repays; cpb's
  tallies and side count one pass per symbol, so its crossover grows with q;
  cb's search, which often stops inside its first block, translates whole
  blocks; and knuth's stages at q=2 have no offset map for packing to save.
- tuples, for every other word: the pack is validate_word.  A table is a
  tuple of 2q slots indexed by the symbol itself, a negative symbol s
  reading slot 2q + s, and one itemgetter call gathers a whole segment in
  C.  Each statistic is one gather and one sum: the pb search and
  predicate sum signs, at odd q read through the offset, and cpb's flags
  and predicate sum a packed table whose slot holds a symbol's charge,
  absolute value and positive and negative flags as the base-2**b digits
  of one int; with 2**b > k*(q-1) no digit of the sum carries into the
  next.  A search steps lazily, symbol by symbol.

Both forms give the same codewords and raise the same errors; the tests run
every construction in both and hold the packed one to the tuple.

Every encoder returns the payload plus a side-info record; the prefix is
the side info spelled as a balanced word (see codebook, whose SPECS give
each record's layout).  Encoders pick the smallest valid index by default;
any valid index may be injected instead and is verified, so decoders never
depend on canonical choice.  A call without an inject goes straight to the
construction's encoder and does no per-call set-up.  Decoding is strict: it
accepts exactly what encode makes for some word and some valid injection.  A
payload that fails the construction's balance predicate raises DecodeError,
and so does side info that encode would not derive from the decoded word:
the decoders re-derive cpb's flags and each sb round's (m, M) by the
encoder's functions.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, repeat
from operator import countOf, itemgetter
from struct import Struct, error as StructError
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from .alphabet import Word, _sign, _symbol_set, is_cb, is_sb, sub_alphabet, symbols, validate_word
from .codebook import (
    CbSide,
    CpbSide,
    Field,
    KnuthSide,
    PbSide,
    SbSide,
    SideInfo,
    decode_prefix,
    encode_prefix,
    plan,
)
from .errors import (
    AlphabetError,
    BalancingInvariantError,
    DecodeError,
    InfeasibleParamsError,
    InvalidIndexError,
    _Record,
)

class CodecParams:
    """Validated (construction, q, k) triple with its prefix plan and the
    form its payload stages run on; equal triples give one shared instance,
    so treat it as read-only."""

    __slots__ = ("kind", "q", "k", "plan", "form")

    def __new__(cls, kind: str, q: int, k: int) -> CodecParams:
        return _shared_params(plan(kind, q, k).kind, q, k)  # plan checks the triple

    def __repr__(self) -> str:
        return f"CodecParams(kind={self.kind!r}, q={self.q!r}, k={self.k!r})"

    def __eq__(self, other: object) -> bool:
        return type(other) is CodecParams and other.plan == self.plan

    def __hash__(self) -> int:
        return hash(self.plan)

    def __reduce__(self) -> tuple:  # copies and unpickles to the shared instance
        return CodecParams, (self.kind, self.q, self.k)


@lru_cache(maxsize=4096)
def _shared_params(kind: str, q: int, k: int) -> CodecParams:
    params = object.__new__(CodecParams)
    params.kind, params.q, params.k, params.plan = kind, q, k, plan(kind, q, k)
    params.form = _form(kind, q, k)
    return params


class Codeword(_Record):
    """A balanced prefix followed by the balanced payload."""

    __slots__ = ("prefix", "payload")

    @property
    def word(self) -> Word:
        return self.prefix + self.payload


# ---------------------------------------------------------------------------
# symbol tables: a map of the order-q alphabet is a tuple of 2q slots indexed
# by the symbol itself, so that a negative symbol s reads slot 2q + s


def _tabulate(q: int, image: Callable[[int], object]) -> tuple:
    """The table of image over the order-q alphabet; a slot of no symbol holds None."""
    return tuple(image(s) if (s + q) % 2 else None for s in chain(range(q), range(-q, 0)))


def _gather(table: Sequence, items: Sequence[int]) -> tuple:
    """(table[x] for x in items) as a tuple, in one C call.

    On a symbol table this is exact only for a word of its alphabet: a
    foreign int in [-2q, -q) wraps round to a slot.
    """
    if len(items) > 1:
        return itemgetter(*items)(table)
    # itemgetter(x) returns a scalar and itemgetter() raises
    return tuple(map(table.__getitem__, items))


@lru_cache(maxsize=1024)
def _rotation(q: int, lo: int, mod: int, d: int) -> tuple:
    """Table of the order-q alphabet: the window lo, lo+2, ..., lo+mod-2
    rotates by d, modulo mod, and every other symbol maps to itself."""
    return _tabulate(q, lambda s: lo + (s + d - lo) % mod if lo <= s < lo + mod else s)


@lru_cache(maxsize=1024)
def _shifted(q: int, d: int, image: Callable[[int], int]) -> tuple:
    """Table of image(r), r being s + d reduced into the full alphabet.

    d = 0 gives the flip (operator.neg) and the polarities (_sign).  Negation
    commutes with the offset, so (q, d, operator.neg) is also the flip
    followed by the offset by -d.
    """
    offset = _rotation(q, -q + 1, 2 * q, d)
    return _tabulate(q, lambda s: image(offset[s]))


@lru_cache(maxsize=1024)
def _tallies(q: int, b: int) -> tuple:
    """Table of each symbol s's charge s, absolute value |s|, positive flag
    [s > 0] and negative flag [s < 0] as the base-2**b digits of one int,
    the charge most significant.

    Summed over k symbols, the three low digits are at most k*(q-1), so when
    2**b > k*(q-1) no digit carries into the next and the sum holds all four
    totals exactly; the signed charge sits on top, where a shift reads it.
    """
    return _tabulate(q, lambda s: (s << 3 * b) + (abs(s) << 2 * b) + ((s > 0) << b) + (s < 0))


@lru_cache(maxsize=1024)
def _mirror(q: int) -> tuple:
    """Table that reverses the order of the positive symbols."""
    top = 2 * ((q + 1) // 2)
    return _tabulate(q, lambda s: top - s if s > 0 else s)


@lru_cache(maxsize=1024)
def _side_mask(q: int, nu: str) -> tuple:
    """Table that is true on the symbols of the nu side: positive for '+',
    negative for '-'."""
    return _tabulate(q, lambda s: s > 0 if nu == "+" else s < 0)


def _tally(word: Word, q: int) -> Tuple[int, int, int, int]:
    """(charge, absolute sum, positive count, negative count) of a validated
    word, from one gather and one sum."""
    b = (len(word) * (q - 1)).bit_length()  # the least b with 2**b > k*(q-1)
    total = sum(_gather(_tallies(q, b), word))
    mask = (1 << b) - 1
    return total >> 3 * b, total >> 2 * b & mask, total >> b & mask, total & mask


def _is_pb(word: Word, q: int) -> bool:
    """is_pb of a validated word, its signs gathered from their table."""
    return not sum(_gather(_shifted(q, 0, _sign), word))


def _is_cpb(word: Word | bytes, q: int, tally: Callable = _tally) -> bool:
    """is_cpb of a validated word, from its tallies."""
    charge, _, plus, minus = tally(word, q)
    return not charge and plus == minus


@lru_cache(maxsize=64)
def _indices(k: int) -> tuple:
    """tuple(range(k)): compress over it passes on ints that exist already,
    where over range(k) it makes one for every index above 256."""
    return tuple(range(k))


# ---------------------------------------------------------------------------
# word forms: the stages run on a tuple, or on the word's signed bytes

def _counts(word: Word, syms: Sequence[int]) -> list:
    """The copies of each of syms in word."""
    # one C pass per symbol beats hashing every symbol once while the
    # symbols are few
    if len(syms) <= 3:
        return list(map(word.count, syms))
    return list(map(Counter(word).get, syms, repeat(0)))


def _positions(word: Word, q: int, nu: str) -> list:
    """The positions of the nu side's symbols in word."""
    return list(compress(_indices(len(word)), _gather(_side_mask(q, nu), word)))


def _block(cur: Sequence[int], q: int, top: int, mod: int) -> Iterator[int]:
    """Half the step in the sum of the window symbols cur from each balancing
    sequence of a block to the next: 1, save at each copy of top, which wraps
    round the window of mod/2 symbols and steps by 1 - mod/2."""
    return map({top: 1 - mod // 2}.get, cur, repeat(1))


def _steps(word: Word, m_v: int, big_m: int) -> Iterator[int]:
    """1 at each copy of m_v, -1 at each copy of big_m and 0 elsewhere; all
    0 when the two are one symbol."""
    weight = {m_v: 1, big_m: -1} if m_v != big_m else {}
    return map(weight.get, word, repeat(0))


class _Form(_Record):
    """What the payload stages take from one word form: pack, which checks a
    word against the alphabet as it converts it, and unpack, the maps and
    their table builders, the charge of a validated word, the count of one
    symbol and of several, the cpb tallies, the positions of a cpb side and
    the symbols at them, the steps of a block of balancing sequences and of
    an sb split, and the payload predicates.  The tuple form's unpack is
    tuple, which hands a tuple back as it is."""

    __slots__ = ("pack", "unpack", "gather", "rotation", "shifted", "mirror", "charge", "count")
    __slots__ += ("counts", "tally", "positions", "at", "block", "steps", "balanced")


#: The tuple form: a word is a tuple of ints and a table a tuple of 2q
#: slots, applied by _gather.  The reference of the packed form.  Its pack
#: reads validate_word at each call, so that a rebound name is used.
_TUPLES = _Form(
    pack=lambda word, q: validate_word(word, q),
    unpack=tuple,
    gather=_gather,
    rotation=_rotation,
    shifted=_shifted,
    mirror=_mirror,
    charge=lambda word, q: sum(word),
    count=lambda word, s: word.count(s),
    counts=_counts,
    tally=_tally,
    positions=_positions,
    at=_gather,
    block=_block,
    steps=_steps,
    balanced={"sb": is_sb, "cb": is_cb, "pb": _is_pb, "cpb": _is_cpb},
)


@lru_cache(maxsize=64)
def _struct(k: int) -> Struct:
    """The Struct of k signed bytes."""
    return Struct(f"{k}b")


@lru_cache(maxsize=1024)
def _translation(tabled: Callable[..., tuple], q: int, *key) -> bytes:
    """The tuple table tabled(q, *key) as a bytes.translate table: the slot
    of a symbol's code s & 0xFF holds its image's code, every other slot 0."""
    table = tabled(q, *key)
    codes = chain(range(128), range(-128, 0))
    return bytes(table[s] & 0xFF if -q < s < q and (s + q) % 2 else 0 for s in codes)


@lru_cache(maxsize=1024)
def _codes(q: int, nu: Optional[str] = None) -> bytes:
    """The codes of the order-q symbols, or of those off the nu side, which
    bytes.translate deletes."""
    return bytes(s & 0xFF for s in symbols(q) if not (nu == "+" and s > 0 or nu == "-" and s < 0))


def _byte_pack(word: Sequence[int], q: int) -> bytes:
    """validate_word of a word whose symbols fit a signed byte, packed.

    The type pass refuses True, int subclasses and __index__ objects, the
    Struct an int outside -128..127, and deleting the codes of the alphabet
    leaves nothing only if every other int is a symbol.  A word that fails
    goes to validate_word, which raises its error.
    """
    w = tuple(word)
    if countOf(map(type, w), int) == len(w):
        try:
            packed = _struct(len(w)).pack(*w)
        except StructError:
            pass
        else:
            if not packed.translate(None, _codes(q)):
                return packed
    # raises the error of the first foreign symbol
    return _struct(len(w)).pack(*validate_word(w, q))


def _byte_counts(word: bytes, syms: Sequence[int]) -> list:
    """The copies of each of syms in a packed word."""
    return [word.count(s & 0xFF) for s in syms]


def _byte_charge(word: bytes, q: int) -> int:
    """The symbol sum of a packed word, from the count of each symbol's code."""
    syms = symbols(q)
    return sum(map(operator.mul, syms, _byte_counts(word, syms)))


def _byte_tally(word: bytes, q: int) -> Tuple[int, int, int, int]:
    """_tally of a packed word, each symbol's digits weighted by its count."""
    b = (len(word) * (q - 1)).bit_length()
    syms = symbols(q)
    total = sum(map(operator.mul, _gather(_tallies(q, b), syms), _byte_counts(word, syms)))
    mask = (1 << b) - 1
    return total >> 3 * b, total >> 2 * b & mask, total >> b & mask, total & mask


class _PackedSide:
    """The positions of the nu side's symbols in a packed word, read off its
    0/1 mask: len counts them and [g] bisects for the g-th, without a list.
    off holds the codes of the other symbols."""

    __slots__ = ("mask", "off", "size")

    def __init__(self, word: bytes, q: int, nu: str) -> None:
        self.mask = word.translate(_translation(_side_mask, q, nu))
        self.off, self.size = _codes(q, nu), self.mask.count(1)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, g: int) -> int:
        # one before the shortest prefix that holds g + 1 of them
        held = partial(self.mask.count, 1, 0)
        return bisect_left(range(len(self.mask) + 1), g + 1, key=held) - 1


def _half_steps(q: int, top: int, mod: int) -> tuple:
    """The table of _block's steps: top to 1 - mod/2, every other symbol to 1."""
    return _tabulate(q, lambda s: 1 - mod // 2 if s == top else 1)


def _byte_block(cur: bytes, q: int, top: int, mod: int) -> tuple:
    """_block of packed window symbols, from one translate and one unpack."""
    return _struct(len(cur)).unpack(cur.translate(_translation(_half_steps, q, top, mod)))


def _byte_steps(word: bytes, m_v: int, big_m: int) -> tuple:
    """_steps of a packed word, from one translate and one unpack."""
    weights = bytearray(256)
    if m_v != big_m:
        weights[m_v & 0xFF], weights[big_m & 0xFF] = 1, 0xFF
    return _struct(len(word)).unpack(word.translate(weights))


def _byte_is_pb(word: bytes, q: int) -> bool:
    """is_pb of a packed word, from the counts of its signs' codes."""
    signs = word.translate(_translation(_shifted, q, 0, _sign))
    return signs.count(1) == signs.count(0xFF)


def _byte_is_sb(word: bytes, q: int) -> bool:
    """is_sb of a packed word, from the count of each symbol's code."""
    return all(c * q == len(word) for c in _byte_counts(word, symbols(q)))


#: The packed form: a word is the bytes of its symbols' codes s & 0xFF,
#: packed once by a cached Struct, and a table a bytes.translate table of
#: 256 slots, built from the tuple table of the same key.  Its pack reads
#: _byte_pack at each call, as the tuple form's reads validate_word.
_BYTES = _Form(
    pack=lambda word, q: _byte_pack(word, q),
    unpack=lambda word: _struct(len(word)).unpack(word),
    gather=lambda table, word: word.translate(table),
    rotation=partial(_translation, _rotation),
    shifted=partial(_translation, _shifted),
    mirror=partial(_translation, _mirror),
    charge=_byte_charge,
    count=lambda word, s: word.count(s & 0xFF),
    counts=_byte_counts,
    tally=_byte_tally,
    positions=_PackedSide,
    at=lambda word, positions: word.translate(None, positions.off),
    block=_byte_block,
    steps=_byte_steps,
    balanced={
        "sb": _byte_is_sb,
        "cb": lambda word, q: not _byte_charge(word, q),
        "pb": _byte_is_pb,
        "cpb": partial(_is_cpb, tally=_byte_tally),
    },
)


def _form(kind: str, q: int, k: int) -> _Form:
    """The one rule that picks the form of a construction's length-k words
    over the order-q alphabet: packed bytes where they measured faster than
    tuples, else the tuple.  That is sb at every k for q <= 40 and at
    q <= 128 from k = 10q on, pb at q <= 128 from k = 48 on, cb at q <= 128
    from k = 192 on, knuth from k = 256 on, and cpb at q <= 64 from k = 32q
    on.  The module docstring says why; the form_grid of BENCH_32.json, and
    of BENCH_29.json and BENCH_30.json before it, holds the measurements."""
    if kind == "sb":
        return _BYTES if q <= 40 or q <= 128 and k >= 10 * q else _TUPLES
    if kind == "cpb":
        return _BYTES if q <= 64 and k >= 32 * q else _TUPLES
    least = {"knuth": 256, "cb": 192, "pb": 48}[kind]
    return _BYTES if q <= 128 and k >= least else _TUPLES


def _map_cut(
    word: Word | bytes, cut: int, first: tuple | bytes, rest: tuple | bytes, form: _Form = _TUPLES
) -> Word | bytes:
    """word with the table first applied to word[:cut] and rest to the rest."""
    return form.gather(first, word[:cut]) + form.gather(rest, word[cut:])


def balancing_sequence(i: int, length: int, radix: int) -> Word:
    """The i-th balancing sequence of the given length.

    Block j = i // length contributes the value 2j; the first i % length
    positions carry 2j+2 instead.  Valid for 0 <= i < radix * length; all
    three must be ints.
    """
    for name, value in (("index", i), ("length", length), ("radix", radix)):
        if type(value) is not int:  # bools and floats are refused too
            raise InvalidIndexError(f"balancing sequence {name} must be an int, got {value!r}")
    if length < 1:
        raise InvalidIndexError(f"balancing sequences need length >= 1, got {length}")
    if not 0 <= i < radix * length:
        raise InvalidIndexError(f"sequence index {i} outside 0..{radix * length - 1}")
    j = 2 * (i // length)
    g = i % length
    return (j + 2,) * g + (j,) * (length - g)


# ---------------------------------------------------------------------------
# polarity balancing, and the bipolar case q = 2


def _flip(u: Word | bytes, q: int, z: int, form: _Form = _TUPLES) -> Word | bytes:
    """u with the polarity of its first z symbols inverted."""
    return form.gather(form.shifted(q, 0, operator.neg), u[:z]) + u[z:]


def find_pb_offset(u: Sequence[int] | bytes, q: int, form: _Form = _TUPLES) -> int:
    """Smallest symbol a whose count in u has the parity of k (odd q only).

    Subtracting such an a leaves an even number of nonzero symbols, which
    the polarity inversion stage needs.  u is a word of the given form.
    """
    k = len(u)
    for a in symbols(q):
        if form.count(u, a) % 2 == k % 2:
            return a
    raise BalancingInvariantError("no feasible offset symbol found")


def find_pb_index(u: Sequence[int], q: Optional[int] = None) -> int:
    """Smallest z in [0, k) such that inverting the first z polarities
    balances the word.  At q=2 the symbols are their own polarities, so the
    codecs pass the word's signs, gathered from their table, with q=2."""
    signs = u if q == 2 else list(map(_sign, u))
    total = sum(signs)
    # inverting the first z polarities subtracts twice their sum; a match
    # at z = k would mean total = 0, which z = 0 already matches
    if total % 2 == 0:
        try:
            return operator.indexOf(accumulate(signs, initial=0), total // 2)
        except ValueError:
            pass
    raise BalancingInvariantError("no polarity balancing point found")


def find_knuth_index(u: Sequence[int]) -> int:
    """Smallest z in [0, k) such that inverting u[:z] gives charge zero."""
    return find_pb_index(tuple(u), 2)


def _pb_stage(
    word: Word | bytes,
    q: int,
    k: int,
    a: Optional[int],
    z: Optional[int],
    form: _Form = _TUPLES,
    goal: str = "polarity-balance",
) -> Tuple[Word | bytes, Optional[int], int]:
    """Shared offset-and-flip stage of a validated word of the given form;
    returns (balanced word, a, z)."""
    if q % 2 == 0:
        if a is not None:
            raise InvalidIndexError("offset symbols only apply to odd q")
    elif a is None:
        a = find_pb_offset(word, q, form)
    elif a not in _symbol_set(q):
        raise InvalidIndexError(f"offset a={a} is not a symbol of the order-{q} alphabet")
    elif form.count(word, a) % 2 != k % 2:
        raise InvalidIndexError(f"offset a={a} has the wrong count parity")
    d = 0 if a is None else -a
    searched = z is None
    if searched:  # at q=2 the symbols are their own signs
        signs = word if q == 2 else form.gather(form.shifted(q, d, _sign), word)
        z = find_pb_index(form.unpack(signs), 2)
    if 0 <= z < k:
        if a is None:
            y = _flip(word, q, z, form)
        else:
            offset = form.rotation(q, -q + 1, 2 * q, d)
            y = _map_cut(word, z, form.shifted(q, d, operator.neg), offset, form)
        # an injected z is checked on the word it builds
        if searched or form.balanced["pb"](y, q):
            return y, a, z
    raise InvalidIndexError(f"z={z} does not {goal} this word")


def _pb_unstage(
    word: Word | bytes, q: int, z: int, a: Optional[int], form: _Form = _TUPLES
) -> Word | bytes:
    """Inverse of _pb_stage, whose table before the cut is its own inverse."""
    if a is None:
        return _flip(word, q, z, form)
    offset = form.rotation(q, -q + 1, 2 * q, a)
    return _map_cut(word, z, form.shifted(q, -a, operator.neg), offset, form)


def pb_encode(
    u: Sequence[int],
    params: CodecParams,
    a: Optional[int] = None,
    z: Optional[int] = None,
) -> Tuple[Codeword, PbSide]:
    form = params.form
    word = _checked_payload(u, params, "pb")
    balanced, a, z = _pb_stage(word, params.q, params.k, a, z, form)
    side = PbSide(z, a)
    return Codeword(encode_prefix(side, params.plan, checked=False), form.unpack(balanced)), side


def pb_decode(cw: Codeword, params: CodecParams) -> Word:
    form = params.form
    side, payload = _checked_prefix(cw, params, "pb")
    return form.unpack(_pb_unstage(payload, params.q, side.z, side.a, form))


def knuth_encode(
    u: Sequence[int], params: CodecParams, z: Optional[int] = None
) -> Tuple[Codeword, KnuthSide]:
    """pb_encode at q=2, with its side info as KnuthSide."""
    form = params.form
    word = _checked_payload(u, params, "knuth")
    balanced, _, z = _pb_stage(word, 2, params.k, None, z, form, "balance")
    side = KnuthSide(z)
    return Codeword(encode_prefix(side, params.plan, checked=False), form.unpack(balanced)), side


def knuth_decode(cw: Codeword, params: CodecParams) -> Word:
    """pb_decode at q=2."""
    form = params.form
    side, payload = _checked_prefix(cw, params, "knuth")
    return form.unpack(_pb_unstage(payload, 2, side.z, None, form))


# ---------------------------------------------------------------------------
# balancing sequences: charge balancing, and the side stage of cpb


def _add_sequence(
    word: Word | bytes,
    q: int,
    positions: Sequence[int],
    lo: int,
    mod: int,
    z: int,
    sign: int = 1,
    form: _Form = _TUPLES,
) -> Word | bytes:
    """Add sign times balancing sequence z, spread over positions, to word.

    The positions hold exactly the word's symbols in the window lo, lo+2,
    ..., lo+mod-2, which has mod/2 symbols and so mod/2 sequence blocks.
    """
    if not positions:
        return word
    # sequence z adds 2j+2 on its first g positions and 2j on the rest
    j, g = divmod(z, len(positions))
    first = form.rotation(q, lo, mod, sign * (2 * j + 2))
    rest = form.rotation(q, lo, mod, sign * 2 * j)
    return _map_cut(word, positions[g], first, rest, form)


def _find_sequence(
    cur: Sequence[int] | bytes, q: int, lo: int, mod: int, target: int, form: _Form = _TUPLES
) -> int:
    """Smallest z whose balancing sequence, added as in _add_sequence to the
    window symbols cur, a word of the given form, brings their sum to target."""
    # sequence z = j*n + g of block j adds 2 more on its first g positions
    # than sequence j*n, save where the symbol lo + mod - 2 - 2j wraps round
    # the window and moves by 2 - mod; j*n + n is the next block's g = 0, so
    # the sums of the sequences in order are one running sum, one pass per
    # block, kept in halves so that every step fits a signed byte
    gap = target - form.charge(cur, q)
    if gap % 2 == 0:
        blocks = (form.block(cur, q, top, mod) for top in range(lo + mod - 2, lo - 2, -2))
        try:
            return operator.indexOf(accumulate(chain.from_iterable(blocks), initial=0), gap // 2)
        except ValueError:
            pass
    raise BalancingInvariantError("no balancing sequence reaches the target sum")


def find_cb_index(u: Sequence[int] | bytes, q: int, form: _Form = _TUPLES) -> int:
    """Smallest z in [0, q*k) whose balancing sequence zeroes the charge of
    u, a word of the given form."""
    return _find_sequence(u, q, -q + 1, 2 * q, 0, form)


def cb_encode(
    u: Sequence[int], params: CodecParams, z: Optional[int] = None
) -> Tuple[Codeword, CbSide]:
    q, k = params.q, params.k
    form = params.form
    word = _checked_payload(u, params, "cb")
    if z is None:
        z = find_cb_index(word, q, form)
    payload = (
        _add_sequence(word, q, range(k), -q + 1, 2 * q, z, 1, form) if 0 <= z < q * k else None
    )
    if payload is None or not form.balanced["cb"](payload, q):
        raise InvalidIndexError(f"z={z} does not charge-balance this word")
    side = CbSide(z)
    return Codeword(encode_prefix(side, params.plan, checked=False), form.unpack(payload)), side


def cb_decode(cw: Codeword, params: CodecParams) -> Word:
    q = params.q
    form = params.form
    side, payload = _checked_prefix(cw, params, "cb")
    word = _add_sequence(payload, q, range(params.k), -q + 1, 2 * q, side.z, -1, form)
    return form.unpack(word)


# ---------------------------------------------------------------------------
# joint charge and polarity balancing


def _side(
    word: Word | bytes, q: int, nu: str, form: _Form = _TUPLES
) -> Tuple[Sequence[int], int, int]:
    """Positions of the nu side's symbols in word, and the lowest symbol and
    the modulus of that half-alphabet."""
    lo = 1 + q % 2 if nu == "+" else -q + 1
    return form.positions(word, q, nu), lo, 2 * (q // 2)


def _cpb_flags(y: Word | bytes, q: int, form: _Form = _TUPLES) -> Tuple[int, str, int]:
    """The mirror flag xi and the side nu that the joint construction derives
    from its polarity-balanced word y, and the sum that balances that side."""
    charge, abs_sum, k1, _ = form.tally(y, q)
    pos_sum = (abs_sum + charge) // 2
    neg_sum = abs_sum - pos_sum
    pivot = k1 * ((q + 1) // 2)
    xi = 1 if (pos_sum < pivot < neg_sum or neg_sum < pivot < pos_sum) else 0
    if xi:  # the mirror keeps the positive positions and maps s to 2*((q+1)//2) - s
        pos_sum = 2 * pivot - pos_sum
    # after the mirror both side sums sit on the same side of the pivot; a
    # word without nonzero symbols gets xi=0 and nu='+'
    nu = "+" if (pos_sum >= neg_sum >= pivot or pos_sum <= neg_sum <= pivot) else "-"
    return xi, nu, (neg_sum if nu == "+" else -pos_sum)


def _cpb_w_space(q: int, k1: int) -> int:
    """Number of sequences w for a side of k1 symbols; with k1 = 0 only w=0."""
    return max((q // 2) * k1, 1)


def find_cpb_index(
    word: Word | bytes, q: int, window: tuple, target: int, form: _Form = _TUPLES
) -> int:
    """Smallest w whose balancing sequence drives the sum of one side's
    symbols to target; window is that side's (positions, lo, mod), as _side
    gives it for word, a word of the given form."""
    positions, lo, mod = window
    return _find_sequence(form.at(word, positions), q, lo, mod, target, form)


def cpb_encode(
    u: Sequence[int],
    params: CodecParams,
    a: Optional[int] = None,
    z: Optional[int] = None,
    w: Optional[int] = None,
    xi: Optional[int] = None,
    nu: Optional[str] = None,
) -> Tuple[Codeword, CpbSide]:
    q, k = params.q, params.k
    form = params.form
    y, a, z = _pb_stage(_checked_payload(u, params, "cpb"), q, k, a, z, form)
    flags = _cpb_flags(y, q, form)
    # xi and nu are derived, not free; injected values must agree
    if xi is not None and xi != flags[0]:
        raise InvalidIndexError(f"xi={xi} does not match the derived flag {flags[0]}")
    if nu is not None and nu != flags[1]:
        raise InvalidIndexError(f"nu={nu!r} does not match the derived side {flags[1]!r}")
    xi, nu, target = flags
    if xi:
        y = form.gather(form.mirror(q), y)
    positions, lo, mod = window = _side(y, q, nu, form)
    w_space = _cpb_w_space(q, len(positions))
    if w is None:
        w = find_cpb_index(y, q, window, target, form)
    elif not 0 <= w < w_space:
        raise InvalidIndexError(f"w={w} outside 0..{w_space - 1}")
    payload = _add_sequence(y, q, positions, lo, mod, w, 1, form)
    if form.charge(form.at(payload, positions), q) != target:
        raise InvalidIndexError(f"w={w} does not balance the {nu} side")
    side = CpbSide(z, xi, nu, w, a)
    return Codeword(encode_prefix(side, params.plan, checked=False), form.unpack(payload)), side


def cpb_decode(cw: Codeword, params: CodecParams) -> Word:
    q = params.q
    form = params.form
    side, payload = _checked_prefix(cw, params, "cpb")
    positions, lo, mod = _side(payload, q, side.nu, form)
    word = _add_sequence(payload, q, positions, lo, mod, side.w, -1, form)
    if side.xi:
        word = form.gather(form.mirror(q), word)
    # encode derives xi and nu from the word before the mirror
    if side.w >= _cpb_w_space(q, len(positions)) or _cpb_flags(word, q, form)[:2] != (side.xi, side.nu):
        raise DecodeError(f"side info {side} was not produced for this payload")
    return form.unpack(_pb_unstage(word, q, side.z, side.a, form))


# ---------------------------------------------------------------------------
# symbol balancing


def _sb_round_stats(word: Word | bytes, q: int, v: int, form: _Form = _TUPLES) -> Tuple[int, int]:
    """(least, most) frequent symbols of round v's sub-alphabet; ties take
    the smallest symbol for the minimum and the largest for the maximum."""
    sub = sub_alphabet(q, v)
    counts = form.counts(word, sub)
    return sub[counts.index(min(counts))], sub[len(sub) - 1 - counts[::-1].index(max(counts))]


def _sb_round(
    word: Word | bytes,
    q: int,
    v: int,
    i_v: int,
    m_v: int,
    big_m: int,
    sign: int = 1,
    form: _Form = _TUPLES,
) -> Word | bytes:
    """Round v of the symbol construction (sign=1), or its inverse (sign=-1).

    Sub-alphabet symbols before the split i_v rotate by lowest - m_v, the
    rest by lowest - big_m; symbols below the sub-alphabet stay.
    """
    sub = sub_alphabet(q, v)
    lo, mod = sub[0], 2 * len(sub)
    first = form.rotation(q, lo, mod, sign * (lo - m_v))
    rest = form.rotation(q, lo, mod, sign * (lo - big_m))
    return _map_cut(word, i_v, first, rest, form)


def find_sb_split(
    word: Word | bytes, q: int, v: int, m: int, m_v: int, big_m: int, form: _Form = _TUPLES
) -> int:
    """Smallest split i_v in [0, k] that leaves exactly m copies of the
    round's lowest symbol after the rotation; m_v and big_m are the round's
    least and most frequent symbols, as _sb_round_stats gives them for
    word, a word of the given form."""
    # split i moves the copies of m_v before i and of big_m from i on to
    # the lowest symbol; when the two are one symbol, no split moves a count
    counts = accumulate(form.steps(word, m_v, big_m), initial=form.count(word, big_m))
    try:
        return operator.indexOf(counts, m)
    except ValueError:
        pass
    raise BalancingInvariantError(f"no feasible split in round {v}")


def sb_encode(
    u: Sequence[int], params: CodecParams, splits: Optional[Sequence[int]] = None
) -> Tuple[Codeword, SbSide]:
    q, k = params.q, params.k
    form = params.form
    word = _checked_payload(u, params, "sb")
    m = k // q
    if splits is not None:
        splits = tuple(splits)
        if len(splits) != q - 1:
            raise InvalidIndexError(f"expected {q - 1} splits, got {len(splits)}")
    rounds = []
    for v in range(1, q):
        m_v, big_m = _sb_round_stats(word, q, v, form)
        if splits is None:
            i_v = find_sb_split(word, q, v, m, m_v, big_m, form)
        else:
            i_v = splits[v - 1]
            if not 0 <= i_v <= k:
                raise InvalidIndexError(f"round {v}: split {i_v} outside 0..{k}")
        word = _sb_round(word, q, v, i_v, m_v, big_m, 1, form)
        lowest = sub_alphabet(q, v)[0]
        if form.count(word, lowest) != m:
            raise InvalidIndexError(f"round {v}: split {i_v} does not settle symbol {lowest}")
        rounds.append((i_v, m_v, big_m))
    side = SbSide(tuple(rounds))
    return Codeword(encode_prefix(side, params.plan, checked=False), form.unpack(word)), side


def sb_decode(cw: Codeword, params: CodecParams) -> Word:
    q = params.q
    form = params.form
    side, word = _checked_prefix(cw, params, "sb")
    for v in range(q - 1, 0, -1):
        i_v, m_v, big_m = side.rounds[v - 1]
        word = _sb_round(word, q, v, i_v, m_v, big_m, -1, form)
        # the encoder derives each round's (m, M) from the word it rotates
        if _sb_round_stats(word, q, v, form) != (m_v, big_m):
            raise DecodeError(f"round {v} of side info {side} was not produced for this payload")
    return form.unpack(word)


# ---------------------------------------------------------------------------
# dispatch


def _checked_payload(u: Sequence[int], params: CodecParams, kind: str) -> Word | bytes:
    """The data word u, checked against the alphabet and the length, in the
    params' form."""
    if params.kind != kind:
        raise InfeasibleParamsError(f"params are for {params.kind!r}, not {kind!r}")
    word = params.form.pack(u, params.q)
    if len(word) != params.k:
        raise InfeasibleParamsError(f"expected a length-{params.k} word, got {len(word)}")
    return word


def _checked_prefix(
    cw: Codeword, params: CodecParams, kind: str
) -> Tuple[SideInfo, Word | bytes]:
    """The side info of a codeword whose prefix and payload are both
    balanced as the construction requires, and the payload in the params'
    form; raises DecodeError otherwise."""
    if params.kind != kind:
        raise InfeasibleParamsError(f"params are for {params.kind!r}, not {kind!r}")
    form = params.form
    try:
        payload = form.pack(cw.payload, params.q)
        if len(payload) != params.k:
            raise DecodeError(f"expected a length-{params.k} payload, got {len(payload)}")
        side = decode_prefix(cw.prefix, params.plan)  # rank validates the prefix
    except (AlphabetError, InvalidIndexError, TypeError) as exc:
        raise DecodeError(str(exc)) from exc
    balance = params.plan.spec.balance
    if not form.balanced[balance](payload, params.q):
        raise DecodeError(f"payload is not {balance}-balanced")
    return side, payload


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
    if not inject:
        return _CODECS[params.kind][0](u, params)
    spec = params.plan.spec
    inject = dict(inject)
    kwargs = {
        f.arg or f.name: _injected(f, spec.rounds is not None, inject.pop(f.name, None))
        for f in spec.fields
        if f.arg is not None
    }
    if inject:
        raise InvalidIndexError(f"unsupported inject keys for {params.kind}: {sorted(inject)}")
    return _CODECS[params.kind][0](u, params, **kwargs)


def _injected(field: Field, per_round: bool, value):
    """An injected field value of the type the field takes: one of its
    flags, or an int (a sequence of ints, one per round, for a per-round
    field); None passes.  Raises InvalidIndexError otherwise."""
    if value is None:
        return None
    if isinstance(field.values, tuple):
        if value not in field.values:
            allowed = " or ".join(map(repr, field.values))
            raise InvalidIndexError(f"injected {field.name} must be {allowed}, got {value!r}")
        return value
    items = (value,)
    if per_round:
        try:
            items = tuple(value)
        except TypeError:
            items = (None,)
    if any(type(x) is not int for x in items):  # bools and floats are refused too
        what = "a sequence of integers" if per_round else "an integer"
        raise InvalidIndexError(f"injected {field.name} must be {what}, got {value!r}")
    return items if per_round else value


def decode(cw: Codeword, params: CodecParams) -> Word:
    """Decode a codeword back to its data word."""
    return _CODECS[params.kind][1](cw, params)
