"""Construction specs, side-info packing and balanced prefix codebooks.

Each encoder construction produces a small record of side information (a
balancing index plus, depending on the construction, an offset symbol,
mirror and side flags, or per-round split data).  SPECS holds one Spec per
construction, the single home of that record's layout: the side-info class,
the balance kind its prefix and payload obey, and the ordered fields with
the values a field's digit indexes for given (q, k).  plan checks a
(construction, q, k) once and resolves it into a cached PrefixPlan, the
single per-triple record that side_info_space, pack, unpack, the prefix
coders and every codec call read; the CLI's side-info text reads the spec.

The record is packed into a single integer with the spec's mixed-radix
layout, and that integer is spelled as a balanced word of fixed length p
via lexicographic enumerative coding, so the prefix obeys the same balance
predicate as the payload.

Rank/unrank order words lexicographically under the natural symbol order
-q+1 < -q+3 < ... < q-1 (enumerative coding: Cover, 1973; Knuth, 1986).
For cb, pb and cpb a cached row holds, per prefix sums and symbols left,
the running sums over the next symbol of the counting module's counts of
its balanced completions; rank adds one entry per position, unrank bisects
the row, and a symbol with no completions refuses an unbalanced word.  A pb
row takes three counts, one per sign class, each repeated over that class's
run of symbols.  sb walks ratios of multinomials.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, chain, repeat
from typing import Optional, Sequence, Union

from .alphabet import Word, sub_alphabet, symbols, validate_word
from .counting import _check_nq, charge_count, exact_count, joint_count, polarity_count
from .errors import CapacityError, InfeasibleParamsError, InvalidIndexError, _Record, check_kind

#: Longest word cb, pb and cpb rank/unrank take; it bounds the counts behind a row.
RETAINED_MAX = 160


class KnuthSide(_Record):
    """Bipolar construction (pb at q=2) side info: the inversion point z."""

    __slots__ = ("z",)


class PbSide(_Record):
    """Polarity construction side info: inversion point z and, for odd q,
    the offset symbol a subtracted before balancing (None at even q)."""

    __slots__ = ("z", "a")
    _defaults = (None,)


class CbSide(_Record):
    """Charge construction side info: index z of the balancing sequence."""

    __slots__ = ("z",)


class CpbSide(_Record):
    """Joint construction side info.

    z and a come from the polarity stage (a is None at even q); xi flags
    the mirror of the positive values; nu names the side ('+' or '-') whose
    values absorbed the balancing sequence number w.
    """

    __slots__ = ("z", "xi", "nu", "w", "a")
    _defaults = (None,)


class SbSide(_Record):
    """Symbol construction side info: one (i, m, M) triple per round.

    i is the split position in 0..k, m and M are the least and most
    frequent symbols of the round's sub-alphabet.
    """

    __slots__ = ("rounds",)


SideInfo = Union[KnuthSide, PbSide, CbSide, CpbSide, SbSide]


class Field(_Record):
    """One side-info field: values is what a packed digit indexes, a tuple of
    flags or a function of (q, k, round); a field that q lacks has the one
    value None.  arg is the encoder keyword that pins the field ('' for its
    own name, the default, or None for a field that is only reported)."""

    __slots__ = ("name", "values", "arg")
    _defaults = ("",)


class Spec(_Record):
    """Side-info layout of one construction: side class, balance kind and
    fields, most significant first.  rounds (None by default), when set,
    gives the round numbers for q: the fields form a group repeated per
    round, kept as one tuple per round in the side's rounds."""

    __slots__ = ("side", "balance", "fields", "rounds")
    _defaults = (None,)

    def items(self, side: SideInfo) -> list:
        """The side info's field values in digit order, round by round."""
        if self.rounds:
            return [x for group in side.rounds for x in group]
        return [getattr(side, f.name) for f in self.fields]

    def build(self, items: Sequence) -> SideInfo:
        """Inverse of items."""
        if self.rounds:
            return self.side(tuple(zip(*[iter(items)] * len(self.fields))))
        return self.side(**{f.name: x for f, x in zip(self.fields, items)})


_OFFSET = Field("a", lambda q, k, v: symbols(q) if q % 2 else (None,))
_POINT = Field("z", lambda q, k, v: range(k))


def _round_symbols(q: int, k: int, v: Optional[int]) -> Sequence:
    return sub_alphabet(q, v)


SPECS = {
    "knuth": Spec(KnuthSide, "cb", (_POINT,)),
    "pb": Spec(PbSide, "pb", (_OFFSET, _POINT)),
    "cb": Spec(CbSide, "cb", (Field("z", lambda q, k, v: range(q * k)),)),
    "cpb": Spec(
        CpbSide,
        "cpb",
        (
            _OFFSET,
            _POINT,
            Field("xi", lambda q, k, v: range(2)),
            Field("nu", ("+", "-")),
            Field("w", lambda q, k, v: range((q // 2) * (k // 2))),
        ),
    ),
    "sb": Spec(
        SbSide,
        "sb",
        (
            Field("i", lambda q, k, v: range(k + 1), "splits"),
            Field("m", _round_symbols, None),
            Field("M", _round_symbols, None),
        ),
        rounds=lambda q: range(1, q),
    ),
}

CONSTRUCTIONS = tuple(SPECS)

SPEC_OF_SIDE = {spec.side: spec for spec in SPECS.values()}


def balance_kind(construction: str) -> str:
    """Balance predicate guaranteed by a construction's prefix and payload."""
    return SPECS[check_kind(construction, SPECS, "construction")].balance


def _check_construction_params(kind: str, q: int, k: int) -> str:
    kind = check_kind(kind, SPECS, "construction")
    if type(q) is not int or type(k) is not int:  # bools and floats are refused too
        raise InfeasibleParamsError(
            f"alphabet order and data length must be integers, got q={q!r}, k={k!r}"
        )
    if q < 2:
        raise InfeasibleParamsError(f"alphabet order must be >= 2, got {q}")
    if kind == "knuth":
        if q != 2:
            raise InfeasibleParamsError("the bipolar construction requires q = 2")
        if k < 2 or k % 2:
            raise InfeasibleParamsError(f"bipolar construction needs even k >= 2, got {k}")
        return kind
    if kind == "cpb" and q <= 3:
        raise InfeasibleParamsError(
            f"joint construction needs q >= 4; for q={q} use the pb or cb construction"
        )
    if kind == "sb":
        if k < q or k % q:
            raise InfeasibleParamsError(
                f"symbol construction needs k a positive multiple of q, got k={k}, q={q}"
            )
        return kind
    if k < 1:
        raise InfeasibleParamsError(f"data length must be >= 1, got {k}")
    if q % 2 == 0 and k % 2:
        raise InfeasibleParamsError(
            f"even alphabets admit no balanced words of odd length, got k={k}"
        )
    if kind == "cpb" and k < 2:
        raise InfeasibleParamsError(f"joint construction needs k >= 2, got {k}")
    return kind


class PrefixPlan(_Record):
    """Fixed prefix layout for one (construction, q, k) triple.

    space is the side-info count P; unbalanced_length is log_q(P), the
    length an unconstrained prefix would need; length is the smallest
    feasible balanced-prefix length p with exact_count(kind, p, q) >= P.
    spec is the construction's Spec; digits holds the (field, values) of
    each packed digit, most significant first.
    """

    __slots__ = ("kind", "q", "k", "space", "unbalanced_length", "length", "spec", "digits")

    def _fields(self) -> tuple:
        # spec and digits follow from these, and the digits of a large q are long
        return self.kind, self.q, self.k, self.space, self.unbalanced_length, self.length


# typed, so that True or 7.0 misses the entry of 1 or 7 and meets the check
@lru_cache(maxsize=4096, typed=True)
def _plan(kind: str, q: int, k: int) -> PrefixPlan:
    kind = _check_construction_params(kind, q, k)
    spec = SPECS[kind]
    digits = tuple(
        (f, f.values if isinstance(f.values, tuple) else f.values(q, k, v))
        for v in (spec.rounds(q) if spec.rounds else (None,))
        for f in spec.fields
    )
    space = math.prod(len(values) for _, values in digits)
    p = 1  # lengths with no balanced words count 0 and are passed over
    while exact_count(spec.balance, p, q) < space:
        p += 1
    unbalanced_length = math.log(space) / math.log(q)
    return PrefixPlan(kind, q, k, space, unbalanced_length, p, spec, digits)


def plan(kind: str, q: int, k: int) -> PrefixPlan:
    """The prefix plan of a construction, checked and built once per triple."""
    try:
        return _plan(kind, q, k)
    except TypeError:  # an unhashable argument, which the check refuses
        _check_construction_params(kind, q, k)
        raise


plan.cache_info = _plan.cache_info  # type: ignore[attr-defined]


def side_info_space(kind: str, q: int, k: int) -> int:
    """Number of distinct packed side-info values P for a construction."""
    return plan(kind, q, k).space


def pack(side: SideInfo, kind: str, q: int, k: int) -> int:
    """Pack side info into its mixed-radix integer in [0, P)."""
    return _pack(side, plan(kind, q, k))


def _pack(side: SideInfo, prefix_plan: PrefixPlan) -> int:
    spec, digits = prefix_plan.spec, prefix_plan.digits
    if not isinstance(side, spec.side):
        raise InvalidIndexError(f"expected {spec.side.__name__}, got {type(side).__name__}")
    items = spec.items(side)
    width = len(spec.fields)
    if len(items) != len(digits) or (spec.rounds and {len(g) for g in side.rounds} != {width}):
        raise InvalidIndexError(f"expected {len(digits) // width} group(s) of {width} values")
    for (f, values), item in zip(digits, items):
        try:
            if type(values[values.index(item)]) is not type(item):  # True, 1.0: equal, but refused
                raise ValueError
        except ValueError:
            raise InvalidIndexError(f"{f.name}={item!r} is not one of {values!r}") from None
    return _value(items, digits)


def _value(items: Sequence, digits: tuple) -> int:
    """The mixed-radix value of side-info items, each one of its digit's values."""
    value = 0
    for (_, values), item in zip(digits, items):
        value = value * len(values) + values.index(item)
    return value


def unpack(value: int, kind: str, q: int, k: int) -> SideInfo:
    """Inverse of pack; value must be an int in [0, P)."""
    prefix_plan = plan(kind, q, k)
    if type(value) is not int:  # bools and floats are refused too
        raise InvalidIndexError(f"packed side info must be an int, got {value!r}")
    return _unpack(value, prefix_plan)


def _unpack(value: int, prefix_plan: PrefixPlan) -> SideInfo:
    if not 0 <= value < prefix_plan.space:
        raise InvalidIndexError(f"packed side info {value} outside 0..{prefix_plan.space - 1}")
    items = []
    for _, values in reversed(prefix_plan.digits):
        value, digit = divmod(value, len(values))
        items.append(values[digit])
    return prefix_plan.spec.build(items[::-1])


#: the sums each kind's completions read; the other stays 0 and rows are shared
_TRACKED = {"cb": (1, 0), "pb": (0, 1), "cpb": (1, 1)}


def _completions(kind: str, q: int, r: int, c: int, p: int) -> int:
    """cb or cpb-balanced completions by r symbols of a prefix with symbol
    sum c and polarity sum p, counted by the counting module."""
    return charge_count(r, q, -c) if kind == "cb" else joint_count(r, q, -c, -p)


@lru_cache(maxsize=4096)
def _row(kind: str, q: int, r: int, c: int, p: int) -> tuple:
    """row[t]: the completions of (c, p) by r + 1 symbols whose first is
    below symbols(q)[t]; row[-1] counts them all."""
    if r >= RETAINED_MAX:
        raise CapacityError(f"enumerative coding of balanced words supports n <= {RETAINED_MAX}")
    if kind == "pb":
        # one count per sign class, over its run of q//2, q%2 and q//2 symbols
        runs = zip((-1, 0, 1), (q // 2, q % 2, q // 2))
        cells = chain.from_iterable(repeat(polarity_count(r, q, -p - d), m) for d, m in runs)
    else:
        cells = (_completions(kind, q, r, c + s, p + (s > 0) - (s < 0)) for s in symbols(q))
    return tuple(accumulate(cells, initial=0))


def rank(word: Sequence[int], kind: str, q: int) -> int:
    """Lexicographic index of word among all kind-balanced words of its length."""
    kind = balance_kind(kind)
    return _rank(validate_word(word, q), kind, q)


def _rank(w: Word, kind: str, q: int) -> int:
    """rank of a validated word under a balance kind (not a construction)."""
    n = len(w)
    index = 0
    if kind == "sb":
        # r!/prod(b!) words complete budgets b with r symbols left, and
        # total * b[t] // r of them go on with symbol t
        total = exact_count("sb", n, q)
        budget = [n // q] * q
        for r, x in zip(range(n, 0, -1), w):
            t = (x + q - 1) // 2
            if not budget[t]:
                raise InvalidIndexError("word is not sb-balanced, cannot rank")
            index += total * sum(budget[:t]) // r
            total = total * budget[t] // r
            budget[t] -= 1
        return index
    dc, dp = _TRACKED[kind]
    c = p = 0
    for r, x in zip(range(n - 1, -1, -1), w):
        row = _row(kind, q, r, c, p)
        t = (x + q - 1) // 2
        if row[t + 1] == row[t]:
            raise InvalidIndexError(f"word is not {kind}-balanced, cannot rank")
        index += row[t]
        c, p = c + dc * x, p + dp * ((x > 0) - (x < 0))
    return index


def unrank(index: int, n: int, kind: str, q: int) -> Word:
    """Inverse of rank: the index-th kind-balanced word of length n."""
    kind = balance_kind(kind)
    _check_nq(n, q)
    if type(index) is not int:  # bools and floats are refused too
        raise InvalidIndexError(f"index must be an int, got {index!r}")
    return _unrank(index, n, kind, q)


def _unrank(index: int, n: int, kind: str, q: int) -> Word:
    """unrank under a balance kind (not a construction), for a checked n and q."""
    if kind == "sb":
        total = exact_count("sb", n, q)
    else:
        total = _row(kind, q, n - 1, 0, 0)[-1] if n else 1
    if not 0 <= index < total:
        raise InvalidIndexError(
            f"index {index} outside 0..{total - 1} for {kind}-balanced words of length {n}"
        )
    syms = symbols(q)
    out = []
    if kind == "sb":
        budget = [n // q] * q
        for r in range(n, 0, -1):
            for t, b in enumerate(budget):
                c = total * b // r
                if index < c:
                    out.append(syms[t])
                    budget[t] -= 1
                    total = c
                    break
                index -= c
        return tuple(out)
    dc, dp = _TRACKED[kind]
    c = p = 0
    for r in range(n - 1, -1, -1):
        row = _row(kind, q, r, c, p)
        t = bisect_right(row, index) - 1
        index -= row[t]
        x = syms[t]
        out.append(x)
        c, p = c + dc * x, p + dp * ((x > 0) - (x < 0))
    return tuple(out)


def encode_prefix(side: SideInfo, prefix_plan: PrefixPlan, checked: bool = True) -> Word:
    """Spell side info as a balanced word of the planned prefix length.

    checked=False skips pack's checks of the side info, which the encoders
    build from values they have checked themselves.
    """
    if checked:
        value = _pack(side, prefix_plan)
    else:
        value = _value(prefix_plan.spec.items(side), prefix_plan.digits)
    return _unrank(value, prefix_plan.length, prefix_plan.spec.balance, prefix_plan.q)


def decode_prefix(word: Sequence[int], prefix_plan: PrefixPlan) -> SideInfo:
    """Recover side info from a received prefix word."""
    w = tuple(word)
    if len(w) != prefix_plan.length:
        raise InvalidIndexError(
            f"prefix length {len(w)} does not match plan length {prefix_plan.length}"
        )
    value = _rank(validate_word(w, prefix_plan.q), prefix_plan.spec.balance, prefix_plan.q)
    return _unpack(value, prefix_plan)
