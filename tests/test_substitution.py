"""Every single-symbol substitution in a codeword is detected.

A substitution changes one symbol of the prefix or the payload to another
symbol of the alphabet.  For knuth, cb and cpb it moves the charge sum of
that part off zero, and for sb it moves two symbol counts off k/q, so the
strict decoder must raise DecodeError.  pb is left out on purpose: a
substitution that keeps the polarity of the symbol (say +1 -> +3) keeps a
polarity-balanced word polarity-balanced, so it is undetectable by design.
"""

import random

import pytest

from balancedq.alphabet import symbols
from balancedq.cli import main
from balancedq.codecs import CodecParams, Codeword, decode, encode
from balancedq.errors import DecodeError

CASES = [
    ("knuth", 2, 8),
    ("knuth", 2, 12),
    ("cb", 3, 5),
    ("cb", 4, 8),
    ("cb", 5, 7),
    ("cpb", 4, 8),
    ("cpb", 5, 7),
    ("cpb", 6, 6),
    ("sb", 2, 8),
    ("sb", 3, 6),
    ("sb", 4, 8),
]

WORDS_PER_CASE = 16


def substitutions(cw: Codeword, q: int):
    """Every codeword that differs from cw in exactly one symbol."""
    for part in ("prefix", "payload"):
        word = getattr(cw, part)
        for i, x in enumerate(word):
            for s in symbols(q):
                if s != x:
                    changed = word[:i] + (s,) + word[i + 1 :]
                    yield Codeword(**{"prefix": cw.prefix, "payload": cw.payload, part: changed})


@pytest.mark.parametrize("kind,q,k", CASES)
def test_every_single_substitution_is_detected(kind, q, k):
    params = CodecParams(kind, q, k)
    rng = random.Random(f"{kind}-{q}-{k}")
    checked = 0
    for _ in range(WORDS_PER_CASE):
        u = tuple(rng.choice(symbols(q)) for _ in range(k))
        cw, _ = encode(u, params)
        for bad in substitutions(cw, q):
            with pytest.raises(DecodeError):
                decode(bad, params)
            checked += 1
    assert checked == WORDS_PER_CASE * (params.plan.length + k) * (q - 1)


def test_cli_single_substitution_exits_4(capsys):
    argv = ["--kind", "cb", "--q", "5"]
    assert main(["encode", *argv, "--word", "+4,+4,-2,0,0,0,0"]) == 0
    prefix, payload = capsys.readouterr().out.strip().split("|")
    cells = payload.split(",")
    cells[3] = "+2" if cells[3] != "+2" else "0"
    code = main(["decode", *argv, "--word", f"{prefix}|{','.join(cells)}"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and "not cb-balanced" in captured.err
