"""Inputs, operations and checks of the four workloads.

Every input is made from the run's seed before timing starts.  Each
operation is checked as it finishes; its outcome is one of

- ``ok``: the output is right;
- ``known``: the documented ``count --approx`` overflow defect (exit 1 with
  an ``OverflowError``), counted as failed but not as a wrong answer;
- ``refused``: the CLI's infeasible exit code 2, counted as failed;
- ``wrong``: any other failure or a wrong output.

``failed`` counts every outcome but ``ok``; a run is correct when nothing
was ``wrong``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("codec-short", "codec-long", "count-sweep", "count-point")
KINDS = ("sb", "cb", "pb", "cpb")
OUTCOMES = ("ok", "known", "refused", "wrong")

# --------------------------------------------------------------------------
# program access


def import_program():
    """Import balancedq from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "balancedq" / "__init__.py").is_file():
        raise SystemExit(f"bench: no balancedq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import balancedq

    if Path(balancedq.__file__).resolve().parent != SRC / "balancedq":
        raise SystemExit(f"bench: imported balancedq from {balancedq.__file__}")
    return balancedq


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def word_text(word) -> str:
    return ",".join(map(str, word))


# --------------------------------------------------------------------------
# codec-short and codec-long

# Constructions and orders; k values follow per workload.
CODEC_ORDERS = (
    ("knuth", (2,)),
    ("pb", (2, 5)),
    ("cb", (3, 4, 5, 7)),
    ("cpb", (4, 5, 6, 7)),
    ("sb", (3, 4, 5, 6)),
)
SHORT_K = (8, 16, 32, 64)
SB_SHORT_K = {3: (9, 18, 33, 63), 4: (8, 16, 32, 64), 5: (10, 20, 35, 60), 6: (12, 24, 36, 60)}
LONG_K = (512, 1024, 2048)
WORDS_PER_CONFIG = {"codec-short": 32, "codec-long": 24}
#: The first words of every configuration come from a fixed seed, and their
#: codewords are checked against values recorded in reference.json.
GOLDEN_PER_CONFIG = 2
#: Words j with j % SKEW_EVERY == 1 are skewed: each symbol is the largest
#: one with probability SKEW_WEIGHT, else uniform.  A quarter of all words.
SKEW_EVERY = 4
SKEW_WEIGHT = 0.6


@dataclass(frozen=True)
class CodecInput:
    key: str
    kind: str
    q: int
    k: int
    word: Tuple[int, ...]
    golden: bool


def codec_configs(workload: str) -> List[Tuple[str, int, int]]:
    out = []
    for kind, orders in CODEC_ORDERS:
        for q in orders:
            if workload == "codec-short":
                ks = SB_SHORT_K[q] if kind == "sb" else SHORT_K
            else:
                ks = tuple(k for k in LONG_K if kind != "sb" or k % q == 0)
            out.extend((kind, q, k) for k in ks)
    return out


def make_word(rng: random.Random, q: int, k: int, skewed: bool) -> Tuple[int, ...]:
    syms = tuple(range(-q + 1, q, 2))
    if not skewed:
        return tuple(rng.choices(syms, k=k))
    heavy = syms[-1]
    return tuple(heavy if rng.random() < SKEW_WEIGHT else rng.choice(syms) for _ in range(k))


def codec_deck(workload: str, seed: int) -> List[CodecInput]:
    deck = []
    for kind, q, k in codec_configs(workload):
        for j in range(WORDS_PER_CONFIG[workload]):
            golden = j < GOLDEN_PER_CONFIG
            rng = random.Random(f"{'golden' if golden else seed}:{kind}:{q}:{k}:{j}")
            word = make_word(rng, q, k, j % SKEW_EVERY == 1)
            deck.append(CodecInput(f"{kind}:{q}:{k}:{j}", kind, q, k, word, golden))
    random.Random(f"{seed}:order").shuffle(deck)
    return deck


def codeword_text(cw) -> str:
    return f"{word_text(cw.prefix)}|{word_text(cw.payload)}"


def golden_entry(item: CodecInput, reference: dict) -> List[str]:
    """[input digest, codeword digest] recorded for a golden word."""
    config, j = item.key.rsplit(":", 1)
    return reference["codec"][config][int(j)]


def check_golden_inputs(deck: List[CodecInput], reference: dict) -> None:
    """The fixed-seed words must be the ones the reference was recorded on."""
    for item in deck:
        if item.golden and digest(word_text(item.word)) != golden_entry(item, reference)[0]:
            raise SystemExit(f"bench: golden input {item.key} differs from reference.json")


def check_roundtrip(bq, item: CodecInput, params, cw, out, reference: dict) -> Optional[str]:
    """None when the roundtrip is right, else why it is wrong."""
    if tuple(out) != item.word:
        return "decode(encode(u)) != u"
    if len(cw.prefix) != params.plan.length:
        return f"prefix length {len(cw.prefix)} != plan length {params.plan.length}"
    if len(cw.payload) != item.k:
        return f"payload length {len(cw.payload)} != k={item.k}"
    kind = bq.balance_kind(item.kind)
    predicate = {"sb": bq.is_sb, "cb": bq.is_cb, "pb": bq.is_pb, "cpb": bq.is_cpb}[kind]
    if not predicate(cw.prefix, item.q):
        return f"prefix is not {kind}-balanced"
    if not predicate(cw.payload, item.q):
        return f"payload is not {kind}-balanced"
    if item.golden and digest(codeword_text(cw)) != golden_entry(item, reference)[1]:
        return "codeword differs from the recorded reference"
    return None


def codec_op(bq, item: CodecInput, reference: dict):
    """Run one roundtrip; returns (outcome, reason, (op, encode, decode) ns)."""
    t0 = perf_counter_ns()
    try:
        params = bq.CodecParams(item.kind, item.q, item.k)
        t1 = perf_counter_ns()
        cw, _ = bq.encode(item.word, params)
        t2 = perf_counter_ns()
        out = bq.decode(cw, params)
        t3 = perf_counter_ns()
    except Exception as exc:  # a failed operation is counted, not fatal
        return "wrong", f"{type(exc).__name__}: {exc}", (perf_counter_ns() - t0, None, None)
    reason = check_roundtrip(bq, item, params, cw, out, reference)
    return ("wrong" if reason else "ok"), reason, (t3 - t0, t2 - t1, t3 - t2)


# --------------------------------------------------------------------------
# count-sweep

SWEEP_ORDERS = tuple(range(2, 8))
SWEEP_MAX_N = 320
CENSUS_ORDERS = (4, 5, 6)
CENSUS_MAX_N = 40
#: Exact counts of lengths with at most this many words are also
#: checked against the brute-force oracle.
BRUTE_MAX_WORDS = 4096
TOLERANCE = 1e-9


def feasible(kind: str, n: int, q: int) -> bool:
    if kind == "sb":
        return n % q == 0
    return q % 2 == 1 or n % 2 == 0


@dataclass(frozen=True)
class SweepOp:
    what: str  # "count" or "census"
    kind: str
    q: int
    n: int

    @property
    def key(self) -> str:
        return f"{self.what}:{self.kind}:{self.q}:{self.n}"


def sweep_ops(seed: int) -> List[SweepOp]:
    """Every (kind, q) block ascends in n; the seed orders the blocks."""
    blocks = [("count", kind, q) for kind in KINDS for q in SWEEP_ORDERS]
    blocks += [("census", "cpb", q) for q in CENSUS_ORDERS]
    random.Random(f"{seed}:sweep").shuffle(blocks)
    ops = []
    for what, kind, q in blocks:
        if what == "census":
            ops.extend(SweepOp(what, kind, q, n) for n in range(1, CENSUS_MAX_N + 1))
        else:
            ops.extend(
                SweepOp(what, kind, q, n)
                for n in range(1, SWEEP_MAX_N + 1)
                if feasible(kind, n, q)
            )
    return ops


def sweep_reference(reference: dict) -> Dict[Tuple[str, int, int], float]:
    out = {}
    for block, text in reference["sweep"].items():
        kind, q = block.split(":")
        ns = [n for n in range(1, SWEEP_MAX_N + 1) if feasible(kind, n, int(q))]
        out.update(((kind, int(q), n), float(v)) for n, v in zip(ns, text.split(",")))
    return out


def check_sweep(bq, op: SweepOp, result, expected: Dict) -> Optional[str]:
    if op.what == "census":
        if result.total() != op.q**op.n:
            return "census total != q**n"
        if result.cell(0, 0) != bq.exact_count("cpb", op.n, op.q):
            return "census cell(0, 0) != exact cpb count"
        return None
    exact, approx = result
    if abs(exact - expected[(op.kind, op.q, op.n)]) > TOLERANCE:
        return f"exact redundancy {exact!r} differs from the recorded reference"
    if abs(approx - (op.n - bq.approx_ln_count(op.kind, op.n, op.q) / math.log(op.q))) > TOLERANCE:
        return "approx redundancy disagrees with approx_ln_count"
    if op.q**op.n <= BRUTE_MAX_WORDS and bq.exact_count(op.kind, op.n, op.q) != bq.brute_force_count(
        op.kind, op.n, op.q
    ):
        return "exact count disagrees with the brute-force oracle"
    return None


def sweep_op(bq, op: SweepOp, expected: Dict):
    """Run one query; returns (outcome, reason, op ns)."""
    t0 = perf_counter_ns()
    try:
        if op.what == "census":
            result = bq.joint_census(op.n, op.q)
        else:
            result = (
                bq.exact_redundancy(op.kind, op.n, op.q),
                bq.approx_redundancy(op.kind, op.n, op.q),
            )
        dt = perf_counter_ns() - t0
        reason = check_sweep(bq, op, result, expected)
    except Exception as exc:  # a failed operation is counted, not fatal
        return "wrong", f"{type(exc).__name__}: {exc}", perf_counter_ns() - t0
    return ("wrong" if reason else "ok"), reason, dt


# --------------------------------------------------------------------------
# count-point

POINT_ORDERS = (3, 4, 5, 6, 7)
POINT_CENTERS = (300, 475, 650, 825, 1000)
#: Each slot draws its n from this many feasible lengths next to its centre.
POINT_CHOICES = 4
#: Whole decks a count-point run makes at least, so that every query's
#: median has three samples to reject one noisy start.
POINT_MIN_DECKS = 3


@dataclass(frozen=True)
class PointQuery:
    cmd: str  # "count" or "redundancy"
    mode: str  # "exact" or "approx"
    kind: str
    q: int
    n: int

    @property
    def key(self) -> str:
        return f"{self.cmd}:{self.mode}:{self.kind}:{self.q}:{self.n}"

    def argv(self) -> List[str]:
        out = [self.cmd, "--kind", self.kind, "--q", str(self.q), "--n", str(self.n)]
        return out + (["--approx"] if self.mode == "approx" else [])


def point_candidates(kind: str, q: int, mode: str) -> List[int]:
    """Feasible lengths of one slot.

    Slots are stratified: across q every kind and mode meets every centre
    once, so each deck has the same spread of cost.
    """
    # charge counts cost about q * n**2, so exact cb meets the largest n at
    # the smallest q
    shift = KINDS.index(kind) + 3 - (q - POINT_ORDERS[0]) + (2 if mode == "approx" else 0)
    band = shift % len(POINT_CENTERS)
    step = q if kind == "sb" else (1 if q % 2 else 2)
    n = POINT_CENTERS[band]
    n += (-n) % step
    return [n + i * step for i in range(POINT_CHOICES)]


def point_deck(seed: int) -> List[PointQuery]:
    """One query per (kind, q, mode) slot; the seed draws n and the command."""
    rng = random.Random(f"{seed}:point")
    deck = []
    for kind in KINDS:
        for q in POINT_ORDERS:
            for mode in ("exact", "approx"):
                n = rng.choice(point_candidates(kind, q, mode))
                deck.append(PointQuery(rng.choice(("count", "redundancy")), mode, kind, q, n))
    rng.shuffle(deck)
    return deck


def check_point(query: PointQuery, rc: int, out: str, err: str, reference: dict):
    """(outcome, reason) of one CLI query."""
    ref = reference["point"][query.key]
    if ref == "overflow":
        if rc == 1 and "OverflowError" in err:
            return "known", "count --approx overflows a double (exit 1)"
        if rc == 2:
            return "refused", "exit 2"
        if rc == 0 and out.strip() == "inf":
            return "ok", None
        return "wrong", f"exit {rc} on an overflowing query"
    if rc != 0:
        last = err.strip().splitlines()[-1:] or [""]
        return "wrong", f"exit {rc}: {last[0]}"
    text = out.strip()
    if query.cmd == "count" and query.mode == "exact":
        return ("ok", None) if digest(text) == ref else ("wrong", "count differs from reference")
    try:
        value = float(text)
    except ValueError:
        return "wrong", f"unparsable output {text[:40]!r}"
    want = float(ref)
    if abs(value - want) > TOLERANCE * max(1.0, abs(want)):
        return "wrong", f"{value!r} differs from reference {want!r}"
    return "ok", None


# --------------------------------------------------------------------------
# layer spans

FIND_FUNCTIONS = (
    "find_knuth_index",
    "find_pb_offset",
    "find_pb_index",
    "find_cb_index",
    "find_cpb_index",
    "find_sb_split",
)


def kind_span(kind, *args, **kwargs) -> str:
    return f"counting.{str(kind).lower()}"


def trace_codecs(tracer, bq) -> None:
    """Spans for codec traffic: the harness's calls and the calls between layers."""
    from balancedq import codebook, codecs

    tracer.wrap(bq, "encode", "codecs.encode")
    tracer.wrap(bq, "decode", "codecs.decode")
    tracer.wrap(codecs, "plan", "codebook.plan")
    for owner in (codecs, codebook):
        tracer.wrap(owner, "validate_word", "alphabet.validate")
    for name in FIND_FUNCTIONS:
        tracer.wrap(codecs, name, "codecs.find")
    tracer.wrap(codecs, "encode_prefix", "codebook.encode_prefix")
    tracer.wrap(codecs, "decode_prefix", "codebook.decode_prefix")
    for name in ("pack", "unpack", "rank", "unrank"):
        tracer.wrap(codebook, name, f"codebook.{name}")
    for name in ("charge_count", "polarity_count", "joint_count"):
        tracer.wrap(codebook, name, "counting.lookup")
    tracer.wrap(codebook, "exact_count", kind_span)


def trace_sweep(tracer, bq) -> None:
    """Spans around the count-sweep's own calls, grouped by balance kind."""
    tracer.wrap(bq, "exact_redundancy", kind_span)
    tracer.wrap(bq, "approx_redundancy", "asymptotics.approx")
    tracer.wrap(bq, "joint_census", "counting.census")


def trace_cli(tracer, cli) -> None:
    """Spans inside one CLI process: main and the counting it calls."""
    tracer.wrap(cli, "main", "cli.main")
    for name in ("exact_count", "exact_redundancy"):
        tracer.wrap(cli, name, kind_span)
    for name in ("approx_count", "approx_redundancy"):
        tracer.wrap(cli, name, "asymptotics.approx")


#: lru caches whose hit ratio the traced run reports, by package attribute.
WATCHED_CACHES = {"plan": "plan", "polarity": "polarity_count"}


def cache_counts(bq) -> Dict[str, Tuple[int, int]]:
    """(hits, misses) of each watched cache that has ``cache_info``."""
    out = {}
    for name, attr in WATCHED_CACHES.items():
        info = getattr(getattr(bq, attr, None), "cache_info", None)
        if info is not None:
            out[name] = (info().hits, info().misses)
    return out


def cache_deltas(before: Dict, after: Dict) -> Dict[str, List[int]]:
    return {
        name: [after[name][0] - hits, after[name][1] - misses]
        for name, (hits, misses) in before.items()
        if name in after
    }
