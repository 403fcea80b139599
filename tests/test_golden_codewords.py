"""Golden codewords of the benchmark, and --emit-sideinfo fed back to --inject.

The codec workloads of bench/ encode fixed-seed golden words whose codeword
digests are recorded in bench/reference.json.  This test rebuilds those
inputs with the benchmark's own deck builder and checks every recorded
digest, so a codeword change shows up in the test suite, not only in a
benchmark run.  It only reads bench/.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import workloads  # noqa: E402

bq = workloads.import_program()
REFERENCE = workloads.load_reference()

from balancedq import cli  # noqa: E402


def golden(workload):
    return [item for item in workloads.codec_deck(workload, 0) if item.golden]


@pytest.mark.parametrize("workload", ["codec-short", "codec-long"])
def test_golden_codewords_match_reference(workload):
    items = golden(workload)
    workloads.check_golden_inputs(items, REFERENCE)
    for item in items:
        params = bq.CodecParams(item.kind, item.q, item.k)
        cw, _ = bq.encode(item.word, params)
        out = bq.decode(cw, params)
        assert workloads.check_roundtrip(bq, item, params, cw, out, REFERENCE) is None, item.key


def test_every_reference_codeword_is_checked():
    checked = {
        tuple(item.key.rsplit(":", 1))
        for workload in ("codec-short", "codec-long")
        for item in golden(workload)
    }
    recorded = {
        (config, str(j)) for config, entries in REFERENCE["codec"].items()
        for j in range(len(entries))
    }
    assert checked == recorded


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out.splitlines()


@pytest.mark.parametrize("kind", sorted({item.kind for item in golden("codec-short")}))
def test_emitted_side_info_reinjects_through_the_cli(capsys, kind):
    for item in golden("codec-short"):
        if item.kind != kind:
            continue
        word = bq.format_word(item.word)
        argv = ["encode", "--kind", kind, "--q", str(item.q), f"--word={word}"]
        codeword, side = run(capsys, *argv, "--emit-sideinfo")
        assert run(capsys, *argv, "--inject", side) == [codeword], (item.key, side)
