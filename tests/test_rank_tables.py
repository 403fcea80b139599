"""Prefix rank/unrank over cached rows of counts, against a plain walk.

For cb, pb and cpb, rank and unrank read each position off a cached row of
running sums of the counting module's completion counts, one per next
symbol; for sb they walk budget ratios.  The reference below asks the
counting module, or a multinomial, for the completions of every candidate
symbol afresh, and checks balance with the alphabet's predicates.  Both
must give the same index to every word, and rank must refuse an
unbalanced word.
"""

import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from balancedq import codebook
from balancedq.alphabet import is_cb, is_cpb, is_pb, is_sb, symbols
from balancedq.codebook import balance_kind, plan, rank, unrank
from balancedq.counting import charge_count, exact_count, joint_count, polarity_count
from balancedq.errors import InvalidIndexError

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import codec_configs  # noqa: E402

PREDICATES = {"sb": is_sb, "cb": is_cb, "pb": is_pb, "cpb": is_cpb}
ORDERS = range(2, 8)
EXHAUSTIVE_MAX = 20_000

# ---------------------------------------------------------------------------
# reference walk: the completions of each candidate come from counting


def _multinomial(r, budgets):
    if any(b < 0 for b in budgets) or sum(budgets) != r:
        return 0
    out = math.factorial(r)
    for b in budgets:
        out //= math.factorial(b)
    return out


def _sb_step(budgets, s):
    i = (s + len(budgets) - 1) // 2
    return budgets[:i] + (budgets[i] - 1,) + budgets[i + 1 :]


# start(q, n), step(state, s), count(r, q, state)
_WALKS = {
    "cb": (lambda q, n: 0, lambda c, s: c - s, charge_count),
    "pb": (lambda q, n: 0, lambda p, s: p - (s > 0) + (s < 0), polarity_count),
    "cpb": (
        lambda q, n: (0, 0),
        lambda cp, s: (cp[0] - s, cp[1] - (s > 0) + (s < 0)),
        lambda r, q, cp: joint_count(r, q, cp[0], cp[1]),
    ),
    "sb": (
        lambda q, n: (n // q,) * q,
        _sb_step,
        lambda r, q, budgets: _multinomial(r, budgets),
    ),
}


def ref_rank(word, kind, q):
    if not PREDICATES[kind](word, q):
        raise InvalidIndexError(f"word is not {kind}-balanced, cannot rank")
    start, step, count = _WALKS[kind]
    n = len(word)
    state = start(q, n)
    index = 0
    for i, x in enumerate(word):
        for s in symbols(q):
            if s >= x:
                break
            index += count(n - i - 1, q, step(state, s))
        state = step(state, x)
    return index


def ref_unrank(index, n, kind, q):
    start, step, count = _WALKS[kind]
    state = start(q, n)
    out = []
    for i in range(n):
        for s in symbols(q):
            c = count(n - i - 1, q, step(state, s))
            if index < c:
                out.append(s)
                state = step(state, s)
                break
            index -= c
    return tuple(out)


def ref_words(kind, n, q):
    """Every kind-balanced word of length n in index order: the reference
    walk taken depth first, entering each symbol that has completions."""
    start, step, count = _WALKS[kind]
    words = []

    def grow(prefix, state, r):
        if r == 0:
            words.append(prefix)
            return
        for s in symbols(q):
            nxt = step(state, s)
            if count(r - 1, q, nxt):
                grow(prefix + (s,), nxt, r - 1)

    grow((), start(q, n), n)
    return words


# ---------------------------------------------------------------------------
# the rows against the reference


def small_lengths(kind, q):
    """Every n with at most EXHAUSTIVE_MAX kind-balanced words."""
    n = 0
    while exact_count(kind, n, q) <= EXHAUSTIVE_MAX:
        yield n
        n += 1


@pytest.mark.parametrize("kind", ["sb", "cb", "pb", "cpb"])
@pytest.mark.parametrize("q", ORDERS)
def test_every_index_of_small_lengths(kind, q):
    for n in small_lengths(kind, q):
        words = ref_words(kind, n, q)
        assert len(words) == exact_count(kind, n, q)
        assert [unrank(i, n, kind, q) for i in range(len(words))] == words, n
        assert [rank(w, kind, q) for w in words] == list(range(len(words))), n


#: the distinct (balance kind, q, prefix length) of the benchmark's codec decks
DECK_PREFIXES = sorted(
    {
        (balance_kind(kind), q, plan(kind, q, k).length)
        for workload in ("codec-short", "codec-long")
        for kind, q, k in codec_configs(workload)
    }
)


@pytest.mark.parametrize("kind,q,p", DECK_PREFIXES)
def test_random_indices_of_deck_prefixes(kind, q, p):
    total = exact_count(kind, p, q)
    rng = random.Random(f"{kind}:{q}:{p}")
    for index in [0, total - 1] + [rng.randrange(total) for _ in range(200)]:
        word = ref_unrank(index, p, kind, q)
        assert unrank(index, p, kind, q) == word
        assert rank(word, kind, q) == ref_rank(word, kind, q) == index


@pytest.mark.parametrize("kind", ["cb", "pb", "cpb"])
@pytest.mark.parametrize("q", [1001, 2001])
def test_random_indices_at_large_q(kind, q):
    rng = random.Random(f"{kind}:{q}")
    for n in range(1, 5):
        total = exact_count(kind, n, q)
        for index in [0, total - 1] + [rng.randrange(total) for _ in range(20)]:
            word = ref_unrank(index, n, kind, q)
            assert unrank(index, n, kind, q) == word
            assert rank(word, kind, q) == ref_rank(word, kind, q) == index


def test_rows_of_a_long_cpb_prefix_take_little_memory():
    # rows hold q + 1 counts per prefix state; a table of every reachable
    # state at every length peaks at 6.7 MB here
    codebook._row.cache_clear()
    tracemalloc.start()
    try:
        word = unrank(12345, 60, "cpb", 7)
        assert rank(word, "cpb", 7) == 12345
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert word == ref_unrank(12345, 60, "cpb", 7)


@pytest.mark.parametrize("kind", ["cb", "pb", "cpb"])
@pytest.mark.parametrize("q", [4, 5, 7])
def test_rank_refuses_a_word_unbalanced_at_its_last_symbol(kind, q):
    rng = random.Random(f"{kind}:{q}")
    n = 8
    total = exact_count(kind, n, q)
    refused = 0
    for index in [rng.randrange(total) for _ in range(50)]:
        word = unrank(index, n, kind, q)
        for s in symbols(q):
            other = word[:-1] + (s,)
            if PREDICATES[kind](other, q):
                assert rank(other, kind, q) == ref_rank(other, kind, q)
                continue
            refused += 1
            with pytest.raises(InvalidIndexError, match=f"not {kind}-balanced"):
                rank(other, kind, q)
    assert refused >= 50 * (q - 1) // 2


@pytest.mark.parametrize("q", [2, 3, 4, 6])
def test_rank_refuses_sb_words_that_overrun_a_budget(q):
    rng = random.Random(q)
    n = 2 * q
    syms = symbols(q)
    for index in [rng.randrange(exact_count("sb", n, q)) for _ in range(50)]:
        word = unrank(index, n, "sb", q)
        # one more copy of some symbol and one fewer of another
        i, j = rng.sample(range(n), 2)
        if word[i] == word[j]:
            continue
        bad = word[:j] + (word[i],) + word[j + 1 :]
        assert not is_sb(bad, q)
        with pytest.raises(InvalidIndexError, match="not sb-balanced"):
            rank(bad, "sb", q)
    # too few symbols, and a length q does not divide
    for bad in [(syms[0],) * n, syms + syms[:1]]:
        with pytest.raises(InvalidIndexError, match="not sb-balanced"):
            rank(bad, "sb", q)
