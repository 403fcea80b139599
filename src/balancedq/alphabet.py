"""Symmetric q-ary alphabets, balance predicates, and word text format.

The alphabet of order q is the set of q signed odd-spaced levels

    {-q+1, -q+3, ..., q-3, q-1}

so consecutive symbols differ by 2 and the set is closed under negation.
Zero belongs to the alphabet exactly when q is odd.  Words are plain
tuples of ints; every function here accepts any integer sequence.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import countOf
from typing import Sequence, Tuple

from .errors import AlphabetError, WordParseError, _check_q, _Record

Word = Tuple[int, ...]

PHI_MODES = ("half", "unit")


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@lru_cache(maxsize=1024)
def symbols(q: int) -> Word:
    """All q symbols in ascending order: -q+1, -q+3, ..., q-1."""
    _check_q(q)
    return tuple(range(-q + 1, q, 2))


@lru_cache(maxsize=1024)
def sub_alphabet(q: int, v: int) -> Word:
    """The q+1-v largest symbols, i.e. {-q-1+2v, ..., q-1}, ascending.

    v=1 gives the full alphabet; v=q leaves only q-1.  These nested views
    drive the round structure of the symbol-balancing encoder.
    """
    _check_q(q)
    if not 1 <= v <= q:
        raise AlphabetError(f"sub-alphabet round must satisfy 1 <= v <= q, got {v}")
    return tuple(range(-q - 1 + 2 * v, q, 2))


@lru_cache(maxsize=1024)
def _symbol_set(q: int) -> frozenset:
    return frozenset(symbols(q))


def validate_word(word: Sequence[int], q: int) -> Word:
    """Return word as a tuple, raising AlphabetError on any foreign symbol.

    Symbols are ints: an equal value of another type (True, 1.0) is foreign.
    """
    _check_q(q)
    w = tuple(word)
    # types first, so that an unhashable item never reaches the set
    if not (countOf(map(type, w), int) == len(w) and _symbol_set(q).issuperset(w)):
        bad = next(x for x in w if type(x) is not int or x not in symbols(q))
        raise AlphabetError(f"symbol {bad!r} is not in the order-{q} alphabet")
    return w


def to_zq(word: Sequence[int], q: int) -> Word:
    """Map each symbol x to the residue (q-1-x)/2, an element of Z_q.

    This is the affine bijection with a=-1/2, b=(q-1)/2; it sends q-1 to 0
    and -q+1 to q-1.
    """
    w = validate_word(word, q)
    return tuple((q - 1 - x) // 2 for x in w)


def from_zq(word: Sequence[int], q: int) -> Word:
    """Inverse of to_zq: residue i, an int, maps back to the symbol q-1-2i."""
    _check_q(q)
    w = tuple(word)
    for i in w:
        if type(i) is not int:
            raise AlphabetError(f"residue {i!r} is not an integer")
        if not 0 <= i < q:
            raise AlphabetError(f"residue {i} is outside Z_{q}")
    return tuple(q - 1 - 2 * i for i in w)


def charge_sum(word: Sequence[int]) -> int:
    """Sum of the symbol values."""
    return sum(word)


def polarity_sum(word: Sequence[int]) -> int:
    """Number of positive symbols minus number of negative symbols."""
    return sum((x > 0) - (x < 0) for x in word)


def symbol_count(word: Sequence[int], j: int, q: int) -> int:
    """Occurrences of symbol j in word; j must be an int of the alphabet."""
    if j not in symbols(q) or type(j) is not int:  # bools and floats are refused too
        raise AlphabetError(f"symbol {j!r} is not in the order-{q} alphabet")
    return sum(1 for x in word if x == j)


def phi(x: int, q: int | None = None, mode: str = "unit") -> Fraction:
    """Polarity of a symbol as an exact rational.

    mode="unit" returns sign(x) in {-1, 0, +1}; mode="half" returns
    sign(x)/2.  The half mode is the natural choice for even q, where no
    symbol is zero.  q is accepted for interface symmetry and not used.
    """
    from fractions import Fraction  # not at module load: count commands never need it
    if mode not in PHI_MODES:
        raise AlphabetError(f"phi mode must be one of {PHI_MODES}, got {mode!r}")
    s = _sign(x)
    return Fraction(s, 2) if mode == "half" else Fraction(s)


def is_sb(word: Sequence[int], q: int) -> bool:
    """Symbol-balanced: every one of the q symbols appears exactly n/q times.

    False whenever q does not divide the length.  The empty word is
    symbol-balanced (all counts equal zero).
    """
    _check_q(q)
    n = len(word)
    if n % q:
        return False
    m = n // q
    counts = Counter(word)
    return all(counts.get(s, 0) == m for s in symbols(q))


def is_cb(word: Sequence[int], q: int) -> bool:
    """Charge-balanced: the symbol values sum to zero."""
    return sum(word) == 0


def is_pb(word: Sequence[int], q: int) -> bool:
    """Polarity-balanced: as many positive as negative symbols (zeros free)."""
    return polarity_sum(word) == 0


def is_cpb(word: Sequence[int], q: int) -> bool:
    """Charge- and polarity-balanced simultaneously."""
    return is_cb(word, q) and is_pb(word, q)


def parse_word(text: str) -> Word:
    """Parse a comma-separated word like '+4,+4,-2,0,0,0,0'.

    Whitespace around entries is ignored.  An empty string parses to the
    empty word.
    """
    text = text.strip()
    if not text:
        return ()
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(int(tok))
        except ValueError:
            raise WordParseError(f"cannot parse symbol {tok!r}") from None
    return tuple(out)


def format_word(word: Sequence[int]) -> str:
    """Render a word with explicit '+' on positive symbols: '+4,0,-2'."""
    return ",".join(f"+{x}" if x > 0 else str(x) for x in word)


class Alphabet(_Record):
    """Convenience view of the order-q alphabet."""

    __slots__ = ("q",)

    def __init__(self, q: int) -> None:
        _check_q(q)
        object.__setattr__(self, "q", q)

    @property
    def symbols(self) -> Word:
        return symbols(self.q)

    @property
    def positive(self) -> Word:
        """The floor(q/2) positive symbols, ascending."""
        return symbols(self.q)[(self.q + 1) // 2 :]

    @property
    def negative(self) -> Word:
        """The floor(q/2) negative symbols, ascending."""
        return symbols(self.q)[: self.q // 2]

    def sub(self, v: int) -> Word:
        return sub_alphabet(self.q, v)

    def __contains__(self, x: int) -> bool:
        return type(x) is int and x in symbols(self.q)

    def __len__(self) -> int:
        return self.q
