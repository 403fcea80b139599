"""Tests of the benchmark's own rules: checks feed fail_ratio, and the tail rule."""

from __future__ import annotations

import json
import math
import types

import pytest

from bench import run, stats
from bench import workloads as w
from bench.tracer import Tracer
from bench.worker import Tally

bq = w.import_program()
REFERENCE = w.load_reference()


def patched(**functions):
    """A stand-in for the balancedq package with some functions replaced."""
    return types.SimpleNamespace(**{**vars(bq), **functions})


def roundtrip_ratio(program, items) -> float:
    tally = Tally()
    for item in items:
        outcome, reason, times = w.codec_op(program, item, REFERENCE)
        tally.add(item.key, outcome, reason, *times)
    return run.fail_ratio(tally.outcomes)


def short_items(count=8):
    return [item for item in w.codec_deck("codec-short", 3) if item.kind == "cb"][:count]


def test_clean_roundtrips_do_not_fail():
    assert roundtrip_ratio(bq, short_items()) == 0


@pytest.mark.parametrize("part", ["prefix", "payload"])
def test_corrupted_codeword_raises_fail_ratio(part):
    def corrupt_encode(u, params):
        cw, side = bq.encode(u, params)
        word = list(getattr(cw, part))
        syms = bq.symbols(params.q)
        word[0] = syms[(syms.index(word[0]) + 1) % len(syms)]
        if part == "prefix":
            return bq.Codeword(tuple(word), cw.payload), side
        return bq.Codeword(cw.prefix, tuple(word)), side

    assert roundtrip_ratio(patched(encode=corrupt_encode), short_items()) == 1


def test_golden_codeword_is_compared_with_the_reference():
    golden = [item for item in w.codec_deck("codec-short", 3) if item.golden][:4]
    assert roundtrip_ratio(bq, golden) == 0
    entry = w.golden_entry(golden[0], REFERENCE)
    entry[1] = "0" * 16
    try:
        assert roundtrip_ratio(bq, golden) == 0.25
    finally:
        REFERENCE.clear()
        REFERENCE.update(w.load_reference())


def test_raising_operation_counts_as_failed():
    def broken_decode(cw, params):
        raise RuntimeError("boom")

    assert roundtrip_ratio(patched(decode=broken_decode), short_items(4)) == 1


def sweep_ratio(program, ops) -> float:
    expected = w.sweep_reference(REFERENCE)
    tally = Tally()
    for op in ops:
        outcome, reason, op_ns = w.sweep_op(program, op, expected)
        tally.add(op.key, outcome, reason, op_ns)
    return run.fail_ratio(tally.outcomes)


def test_wrong_count_raises_fail_ratio():
    ops = [w.SweepOp("count", "cb", 4, n) for n in (2, 4, 6, 8)]
    assert sweep_ratio(bq, ops) == 0

    def off_by_one(kind, n, q):
        return n - math.log(bq.exact_count(kind, n, q) + 1) / math.log(q)

    assert sweep_ratio(patched(exact_redundancy=off_by_one), ops) == 1


def test_brute_force_and_census_identities_are_checked():
    ops = [w.SweepOp("count", "pb", 3, 4), w.SweepOp("census", "cpb", 5, 6)]
    assert sweep_ratio(bq, ops) == 0
    wrong_oracle = patched(brute_force_count=lambda kind, n, q: 0)
    assert sweep_ratio(wrong_oracle, ops[:1]) == 1
    wrong_cpb = patched(exact_count=lambda kind, n, q: bq.exact_count(kind, n, q) + 1)
    assert sweep_ratio(wrong_cpb, ops[1:]) == 1


def test_point_outcomes():
    over = next(key for key, v in REFERENCE["point"].items() if v == "overflow")
    cmd, mode, kind, q, n = over.split(":")
    query = w.PointQuery(cmd, mode, kind, int(q), int(n))
    assert w.check_point(query, 1, "", "OverflowError: math range error\n", REFERENCE)[0] == "known"
    assert w.check_point(query, 2, "", "", REFERENCE)[0] == "refused"
    assert w.check_point(query, 0, "inf\n", "", REFERENCE)[0] == "ok"
    assert w.check_point(query, 0, "12\n", "", REFERENCE)[0] == "wrong"
    key = next(key for key in REFERENCE["point"] if key.startswith("count:exact:sb:"))
    exact = w.PointQuery("count", "exact", "sb", *map(int, key.split(":")[3:]))
    right = str(bq.exact_count("sb", exact.n, exact.q))
    assert w.check_point(exact, 0, right + "\n", "", REFERENCE)[0] == "ok"
    wrong = right[:-1] + ("1" if right[-1] != "1" else "2")
    assert w.check_point(exact, 0, wrong + "\n", "", REFERENCE)[0] == "wrong"
    tally = Tally()
    tally.add(query.key, "known", None, 1)
    tally.add(exact.key, "ok", None, 1)
    assert run.fail_ratio(tally.outcomes) == 0.5


@pytest.mark.parametrize(
    "n, bp",
    [(20, 5000), (39, 5000), (40, 7500), (99, 7500), (100, 9000), (199, 9000),
     (200, 9500), (999, 9500), (1000, 9900), (9999, 9900), (10000, 9990),
     (100000, 9999)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, bp):
    assert stats.tail_percentile(n) == bp
    beyond = n * (10000 - bp) / 10000
    assert beyond >= stats.TAIL_MIN_BEYOND


def test_tail_needs_enough_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_tail_value_has_ten_samples_above_it():
    samples = list(range(1, 1001))
    pct, value = stats.tail(samples)
    assert pct == 99
    assert sum(s > value for s in samples) == 10


def test_same_seed_same_inputs():
    assert w.codec_deck("codec-short", 5) == w.codec_deck("codec-short", 5)
    assert w.codec_deck("codec-short", 5) != w.codec_deck("codec-short", 6)
    assert w.point_deck(5) == w.point_deck(5)
    assert w.sweep_ops(5) == w.sweep_ops(5)


def test_skewed_share_is_fixed():
    deck = w.codec_deck("codec-long", 1)
    skewed = [item for item in deck if int(item.key.rsplit(":", 1)[1]) % w.SKEW_EVERY == 1]
    assert len(skewed) * w.SKEW_EVERY == len(deck)


def test_self_time_excludes_enclosed_spans():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "absent", "absent")
    mod.outer()
    tracer.restore()
    calls, total, self_ns = tracer.spans["outer"]
    assert calls == 1 and tracer.spans["inner"][0] == 2
    assert self_ns == total - tracer.spans["inner"][1]
    assert len(tracer.missing) == 1 and tracer.missing[0].endswith(".absent")


def synthetic_result(ops=40):
    tally = Tally()
    for i in range(ops):
        tally.add(f"input{i}", "ok", None, 1000 + i, 400, 500)
    return run.merge([{**tally.result(1.0), "spans": {}, "caches": {}, "missing": []}])


def test_metric_names_match_benchmark_json():
    spec = json.loads((w.ROOT / "BENCHMARK.json").read_text())
    result = synthetic_result()
    e2e = {row[0]: row[2] for row in run.end_to_end("codec-short", result, [0.1])}
    layers = {row[0]: row[2] for row in run.per_layer("codec-short", result, result, result)}
    for section, produced in (("end_to_end", e2e), ("per_layer", layers)):
        for metric in spec[section]:
            assert produced[metric["name"]] == metric["unit"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
