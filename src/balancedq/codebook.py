"""Construction specs, side-info packing and balanced prefix codebooks.

Each encoder construction produces a small record of side information (a
balancing index plus, depending on the construction, an offset symbol,
mirror and side flags, or per-round split data).  SPECS holds one Spec per
construction, the single home of that record's layout: the side-info class,
the balance kind its prefix and payload obey, and the ordered fields with
the values a field's digit indexes for given (q, k).  side_info_space,
pack and unpack here, the inject routing of codecs.encode and the CLI's
side-info text all read the spec.

The record is packed into a single integer with the spec's mixed-radix
layout, and that integer is spelled as a balanced word of fixed length p
via lexicographic enumerative coding, so the prefix obeys the same balance
predicate as the payload.

Rank/unrank order words lexicographically under the natural symbol order
-q+1 < -q+3 < ... < q-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

from .alphabet import (
    Word,
    is_cb,
    is_cpb,
    is_pb,
    is_sb,
    sub_alphabet,
    symbols,
    validate_word,
)
from .counting import (
    RETAINED_MAX,
    charge_count,
    exact_count,
    joint_count,
    polarity_count,
)
from .errors import CapacityError, InfeasibleParamsError, InvalidIndexError

PREDICATES = {"sb": is_sb, "cb": is_cb, "pb": is_pb, "cpb": is_cpb}


@dataclass(frozen=True)
class KnuthSide:
    """Bipolar construction (pb at q=2) side info: the inversion point z."""

    z: int


@dataclass(frozen=True)
class PbSide:
    """Polarity construction side info: inversion point z and, for odd q,
    the offset symbol a subtracted before balancing."""

    z: int
    a: Union[int, None] = None


@dataclass(frozen=True)
class CbSide:
    """Charge construction side info: index z of the balancing sequence."""

    z: int


@dataclass(frozen=True)
class CpbSide:
    """Joint construction side info.

    z and a come from the polarity stage; xi flags the mirror of the
    positive values; nu names the side ('+' or '-') whose values absorbed
    the balancing sequence number w.
    """

    z: int
    xi: int
    nu: str
    w: int
    a: Union[int, None] = None


@dataclass(frozen=True)
class SbSide:
    """Symbol construction side info: one (i, m, M) triple per round.

    i is the split position in 0..k, m and M are the least and most
    frequent symbols of the round's sub-alphabet.
    """

    rounds: Tuple[Tuple[int, int, int], ...]


SideInfo = Union[KnuthSide, PbSide, CbSide, CpbSide, SbSide]


@dataclass(frozen=True)
class Field:
    """One side-info field: values is what a packed digit indexes, a tuple of
    flags or a function of (q, k, round); a field that q lacks has the one
    value None.  arg is the encoder keyword that pins the field ('' for its
    own name, None for a field that is only reported)."""

    name: str
    values: Union[Tuple[str, ...], Callable[[int, int, Optional[int]], Sequence]]
    arg: Optional[str] = ""


@dataclass(frozen=True)
class Spec:
    """Side-info layout of one construction, fields most significant first.
    rounds, when set, gives the round numbers for q: the fields form a group
    repeated per round, kept as one tuple per round in the side's rounds."""

    side: type
    balance: str
    fields: Tuple[Field, ...]
    rounds: Optional[Callable[[int], Sequence[int]]] = None

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
    c = construction.lower()
    if c not in SPECS:
        raise InfeasibleParamsError(f"unknown construction {construction!r}")
    return SPECS[c].balance


def _check_construction_params(kind: str, q: int, k: int) -> str:
    kind = kind.lower()
    if kind not in SPECS:
        raise InfeasibleParamsError(f"unknown construction {kind!r}")
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


@lru_cache(maxsize=4096, typed=True)
def _layout(kind: str, q: int, k: int) -> tuple:
    """(spec, (field, values) of every packed digit, most significant first,
    side-info space) of a valid (kind, q, k)."""
    spec = SPECS[_check_construction_params(kind, q, k)]
    layout = tuple(
        (f, f.values if isinstance(f.values, tuple) else f.values(q, k, v))
        for v in (spec.rounds(q) if spec.rounds else (None,))
        for f in spec.fields
    )
    return spec, layout, math.prod(len(values) for _, values in layout)


def side_info_space(kind: str, q: int, k: int) -> int:
    """Number of distinct packed side-info values P for a construction."""
    return _layout(kind, q, k)[2]


@dataclass(frozen=True)
class PrefixPlan:
    """Fixed prefix layout for one (construction, q, k) triple.

    space is the side-info count P; unbalanced_length is log_q(P), the
    length an unconstrained prefix would need; length is the smallest
    feasible balanced-prefix length p with exact_count(kind, p, q) >= P.
    """

    kind: str
    q: int
    k: int
    space: int
    unbalanced_length: float
    length: int


# typed, like _layout, so that a float or bool k never hits the cached plan
# of an int
@lru_cache(maxsize=4096, typed=True)
def plan(kind: str, q: int, k: int) -> PrefixPlan:
    """Compute the prefix plan for a construction."""
    kind = _check_construction_params(kind, q, k)
    space = side_info_space(kind, q, k)
    bkind = balance_kind(kind)
    p = 1  # lengths with no balanced words count 0 and are passed over
    while exact_count(bkind, p, q) < space:
        p += 1
    return PrefixPlan(kind, q, k, space, math.log(space) / math.log(q), p)


def pack(side: SideInfo, kind: str, q: int, k: int) -> int:
    """Pack side info into its mixed-radix integer in [0, P)."""
    spec, layout, _ = _layout(kind, q, k)
    if not isinstance(side, spec.side):
        raise InvalidIndexError(f"expected {spec.side.__name__}, got {type(side).__name__}")
    items = spec.items(side)
    width = len(spec.fields)
    if len(items) != len(layout) or (spec.rounds and {len(g) for g in side.rounds} != {width}):
        raise InvalidIndexError(f"expected {len(layout) // width} group(s) of {width} values")
    value = 0
    for (field, values), item in zip(layout, items):
        try:
            value = value * len(values) + values.index(item)
        except ValueError:
            raise InvalidIndexError(f"{field.name}={item!r} is not one of {values!r}") from None
    return value


def unpack(value: int, kind: str, q: int, k: int) -> SideInfo:
    """Inverse of pack; value must lie in [0, P)."""
    spec, layout, space = _layout(kind, q, k)
    if not 0 <= value < space:
        raise InvalidIndexError(f"packed side info {value} outside 0..{space - 1}")
    items = []
    for _, values in reversed(layout):
        value, digit = divmod(value, len(values))
        items.append(values[digit])
    return spec.build(items[::-1])


def _multinomial(r: int, budgets: Tuple[int, ...]) -> int:
    if any(b < 0 for b in budgets) or sum(budgets) != r:
        return 0
    out = math.factorial(r)
    for b in budgets:
        out //= math.factorial(b)
    return out


def _sb_step(budgets: Tuple[int, ...], s: int) -> Tuple[int, ...]:
    i = (s + len(budgets) - 1) // 2
    return budgets[:i] + (budgets[i] - 1,) + budgets[i + 1 :]


# How rank/unrank walk the words of each balance kind: start(q, n) is the
# state of the empty prefix, step(state, s) the state after one more symbol
# s, and capped marks the kinds that read the charge tables, resident only
# up to RETAINED_MAX.
_WALKS = {
    "cb": (lambda q, n: 0, lambda c, s: c - s, True),
    "pb": (lambda q, n: 0, lambda p, s: p - (s > 0) + (s < 0), False),
    "cpb": (lambda q, n: (0, 0), lambda cp, s: (cp[0] - s, cp[1] - (s > 0) + (s < 0)), True),
    "sb": (lambda q, n: (n // q,) * q, _sb_step, False),
}


def _ranking(kind: str, n: int) -> tuple:
    """(start, step, count) of kind's walk over words of length n, where
    count(r, q, state) is the number of balanced completions of r symbols."""
    start, step, capped = _WALKS[kind]
    if capped and n > RETAINED_MAX:
        raise CapacityError(
            f"enumerative coding of charge-constrained words supports n <= {RETAINED_MAX}"
        )
    # read at call time, so that a caller may rebind the counting functions
    # (the benchmark's tracer does)
    counts = {
        "cb": charge_count,
        "pb": polarity_count,
        "cpb": lambda r, q, cp: joint_count(r, q, cp[0], cp[1]),
        "sb": lambda r, q, budgets: _multinomial(r, budgets),
    }
    return start, step, counts[kind]


def rank(word: Sequence[int], kind: str, q: int) -> int:
    """Lexicographic index of word among all kind-balanced words of its length."""
    kind = balance_kind(kind)
    w = validate_word(word, q)
    if not PREDICATES[kind](w, q):
        raise InvalidIndexError(f"word is not {kind}-balanced, cannot rank")
    n = len(w)
    start, step, count = _ranking(kind, n)
    syms = symbols(q)
    state = start(q, n)
    index = 0
    for i, x in enumerate(w):
        r = n - i - 1
        for s in syms:
            if s >= x:
                break
            index += count(r, q, step(state, s))
        state = step(state, x)
    return index


def unrank(index: int, n: int, kind: str, q: int) -> Word:
    """Inverse of rank: the index-th kind-balanced word of length n."""
    kind = balance_kind(kind)
    total = exact_count(kind, n, q)
    if not 0 <= index < total:
        raise InvalidIndexError(
            f"index {index} outside 0..{total - 1} for {kind}-balanced words of length {n}"
        )
    start, step, count = _ranking(kind, n)
    syms = symbols(q)
    state = start(q, n)
    out = []
    for i in range(n):
        r = n - i - 1
        for s in syms:
            nxt = step(state, s)
            c = count(r, q, nxt)
            if index < c:
                out.append(s)
                state = nxt
                break
            index -= c
        else:  # pragma: no cover - unreachable once index < total
            raise InvalidIndexError("exhausted symbols while unranking")
    return tuple(out)


def encode_prefix(side: SideInfo, prefix_plan: PrefixPlan) -> Word:
    """Spell side info as a balanced word of the planned prefix length."""
    value = pack(side, prefix_plan.kind, prefix_plan.q, prefix_plan.k)
    return unrank(value, prefix_plan.length, balance_kind(prefix_plan.kind), prefix_plan.q)


def decode_prefix(word: Sequence[int], prefix_plan: PrefixPlan) -> SideInfo:
    """Recover side info from a received prefix word."""
    w = tuple(word)
    if len(w) != prefix_plan.length:
        raise InvalidIndexError(
            f"prefix length {len(w)} does not match plan length {prefix_plan.length}"
        )
    value = rank(w, balance_kind(prefix_plan.kind), prefix_plan.q)
    return unpack(value, prefix_plan.kind, prefix_plan.q, prefix_plan.k)
