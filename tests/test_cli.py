import json
import sys
from contextlib import contextmanager

import pytest

from balancedq import approx_count, exact_count
from balancedq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_pb_example(capsys):
    code, out, err = run(
        capsys,
        "encode", "--kind", "pb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--inject", "a=-2,z=6",
    )
    assert code == 0
    prefix, payload = out.strip().split("|")
    assert payload == "+4,+4,0,-2,-2,-2,+2"
    assert err == ""


def test_encode_cb_example(capsys):
    code, out, _ = run(
        capsys,
        "encode", "--kind", "cb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--inject", "z=32",
    )
    assert code == 0
    assert out.strip().split("|")[1] == "+4,+4,-2,0,-2,-2,-2"


def test_encode_emit_sideinfo(capsys):
    code, out, _ = run(
        capsys,
        "encode", "--kind", "cpb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--emit-sideinfo",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1] == "a=-2,z=6,xi=1,nu=-,w=1"
    # the emitted side info replays byte-identically
    code2, out2, _ = run(
        capsys,
        "encode", "--kind", "cpb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--inject", lines[1],
    )
    assert code2 == 0
    assert out2.strip() == lines[0]


def test_encode_decode_roundtrip(capsys):
    for kind, q, word in [
        ("knuth", "2", "+1,-1"),
        ("pb", "5", "+4,+4,-2,0,0,0,0"),
        ("cb", "3", "+2,+2,0,-2"),
        ("cpb", "4", "+3,+3,-1,-1"),
        ("sb", "3", "0,-2,-2,-2,0,-2"),
    ]:
        code, out, _ = run(capsys, "encode", "--kind", kind, "--q", q, "--word", word)
        assert code == 0, (kind, out)
        code, out, _ = run(
            capsys, "decode", "--kind", kind, "--q", q, "--word", out.strip()
        )
        assert code == 0
        assert out.strip() == word


def test_decode_leading_minus_word(capsys):
    code, out, _ = run(capsys, "encode", "--kind", "knuth", "--q", "2", "--word", "-1,-1")
    assert code == 0
    code, out, _ = run(capsys, "decode", "--kind", "knuth", "--q", "2", "--word", out.strip())
    assert code == 0
    assert out.strip() == "-1,-1"


def test_text_values_may_start_with_a_negative_symbol(capsys):
    code, out, _ = run(capsys, "encode", "--kind", "knuth", "--q", "2", "--word=-1,-1")
    assert code == 0
    assert run(capsys, "encode", "--kind", "knuth", "--q", "2", "--wo", "-1,-1") == (0, out, "")
    code, _, err = run(capsys, "decode", "--kind", "cb", "--q", "3", "--file", "-2.txt")
    assert code == 3 and "cannot read -2.txt" in err
    code, _, err = run(capsys, "encode", "--kind", "cb", "--q", "3", "--word=0,0", "--inject", "-2")
    assert code == 3 and "bad injection field '-2'" in err
    # only encode and decode take a word; '--' ends the options
    code, _, err = run(capsys, "count", "--kind", "cb", "--q", "3", "--n", "2", "--word", "-1,1")
    assert code == 2 and "unrecognized arguments: --word -1,1" in err
    code, _, err = run(capsys, "encode", "--kind", "knuth", "--q", "2", "--", "-1,-1")
    assert code == 2 and "--word=" not in err


def test_encode_json_format(capsys):
    code, out, _ = run(
        capsys,
        "encode", "--kind", "pb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--inject", "a=-2,z=6",
        "--emit-sideinfo", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["payload"] == "+4,+4,0,-2,-2,-2,+2"
    assert data["codeword"] == data["prefix"] + "|" + data["payload"]
    assert data["sideinfo"] == {"a": -2, "z": 6}


def test_encode_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "encode", "--kind", "cb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "codeword,prefix,payload"


def test_file_input(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("+1,-1,+1,+1,+1,+1\n")
    code, out, _ = run(capsys, "encode", "--kind", "knuth", "--q", "2", "--file", str(path))
    assert code == 0
    assert out.strip().split("|")[1] == "-1,+1,-1,-1,+1,+1"


def test_missing_file(capsys):
    code, _, err = run(capsys, "encode", "--kind", "knuth", "--q", "2", "--file", "/nonexistent")
    assert code == 3
    assert err


def test_exit_parse_error(capsys):
    code, _, err = run(capsys, "encode", "--kind", "pb", "--q", "5", "--word", "abc")
    assert code == 3
    code, _, err = run(capsys, "encode", "--kind", "pb", "--q", "5", "--word", "+5,0,0")
    assert code == 3
    code, _, err = run(capsys, "decode", "--kind", "pb", "--q", "5", "--word", "0,0,0")
    assert code == 3  # no prefix separator


def test_foreign_symbols_are_listed_in_word_order(capsys):
    word = "+5001,0,-5000,-5002,+5001,+2"
    code, out, err = run(capsys, "encode", "--kind", "pb", "--q", "5001", "--word=" + word)
    assert (code, out) == (3, "")
    assert err == "balancedq: symbols [5001, -5002, 5001] are not in the order-5001 alphabet\n"
    code, out, err = run(capsys, "decode", "--kind", "pb", "--q", "4", "--word=+3,0|-3,+1")
    assert (code, out) == (3, "")
    assert err == "balancedq: symbols [0] are not in the order-4 alphabet\n"


def test_exit_infeasible(capsys):
    code, _, err = run(capsys, "encode", "--kind", "knuth", "--q", "2", "--word", "+1,-1,+1")
    assert code == 2  # odd length
    code, _, err = run(capsys, "encode", "--kind", "cpb", "--q", "3", "--word", "+2,0,0")
    assert code == 2
    code, _, err = run(
        capsys,
        "encode", "--kind", "cb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--inject", "z=3",
    )
    assert code == 2  # injected index does not balance


def test_exit_bad_injected_offset(capsys):
    # 1 is not a symbol at q=5; 0 is, but its count in the word is even
    for a, message in (
        (1, "offset a=1 is not a symbol of the order-5 alphabet"),
        (0, "offset a=0 has the wrong count parity"),
    ):
        code, out, err = run(capsys, "encode", "--kind", "pb", "--q", "5", "--word=+4", f"--inject=a={a}")
        assert code == 2 and out == "" and message in err


def test_exit_bad_inject_syntax(capsys):
    code, _, err = run(
        capsys,
        "encode", "--kind", "cb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--inject", "zz",
    )
    assert code == 3
    code, _, err = run(
        capsys,
        "encode", "--kind", "cb", "--q", "5",
        "--word", "+4,+4,-2,0,0,0,0", "--inject", "q=1",
    )
    assert code == 3


def test_exit_decode_failure(capsys):
    # corrupt the prefix into an unbalanced word of the right length
    code, out, _ = run(
        capsys, "encode", "--kind", "pb", "--q", "5", "--word", "+4,+4,-2,0,0,0,0"
    )
    assert code == 0
    prefix, payload = out.strip().split("|")
    n = len(prefix.split(","))
    bad = ",".join(["+2"] * n)
    code, _, err = run(
        capsys, "decode", "--kind", "pb", "--q", "5", "--word", f"{bad}|{payload}"
    )
    assert code == 4
    assert err


def test_count_exact(capsys):
    code, out, _ = run(capsys, "count", "--kind", "cpb", "--q", "4", "--n", "10", "--exact")
    assert code == 0 and out.strip() == "63504"
    code, out, _ = run(capsys, "count", "--kind", "cb", "--q", "3", "--n", "4")
    assert code == 0 and out.strip() == "19"
    code, out, _ = run(capsys, "count", "--kind", "sb", "--q", "2", "--n", "5")
    assert code == 0 and out.strip() == "0"


def test_count_approx(capsys):
    code, out, _ = run(capsys, "count", "--kind", "cb", "--q", "3", "--n", "4", "--approx")
    assert code == 0
    assert abs(float(out) - 19.7884) < 5e-4
    code, _, err = run(capsys, "count", "--kind", "cb", "--q", "4", "--n", "5", "--approx")
    assert code == 2  # infeasible parity has no approximation


def test_count_approx_overflow_prints_inf(capsys):
    # feasible parameters whose estimate overflows a double: inf, exit 0,
    # and a note on stderr; the library's approx_count still raises
    code, out, err = run(capsys, "count", "--kind", "cb", "--q", "4", "--n", "2000", "--approx")
    assert code == 0
    assert out == "inf\n"
    assert err == (
        "balancedq: the approximate cb count at n=2000, q=4 overflows a double; "
        "use 'redundancy --approx' for its logarithm\n"
    )
    with pytest.raises(OverflowError):
        approx_count("cb", 2000, 4)
    code, out, _ = run(
        capsys, "count", "--kind", "cb", "--q", "4", "--n", "2000", "--approx", "--format", "json"
    )
    assert code == 0 and json.loads(out)["value"] == float("inf")


#: a length whose exact counts take a binomial past what math.comb takes
HUGE = "100000000000000000000000000"


@pytest.mark.parametrize(
    "argv,needs",
    [
        (["count", "--kind", "cb", "--q", "5", "--n", HUGE], f"C({HUGE}, {4 * 10**25})"),
        (["redundancy", "--kind", "cb", "--q", "5", "--n", HUGE], f"C({HUGE}, {4 * 10**25})"),
        (["sweep", "--kind", "cb", "--q", "5", "--start", HUGE, "--stop", HUGE], f"C({HUGE}, {4 * 10**25})"),
        (["count", "--kind", "cpb", "--q", "4", "--n", str(10**26 - 2)], f"C({10**26 - 2}, {5 * 10**25 - 1})"),
    ],
    ids=["count", "redundancy", "sweep", "count-cpb"],
)
def test_exact_count_past_comb_exits_2(capsys, argv, needs):
    # a capacity error about the exact count, not the approximation's inf
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"balancedq: an exact count needs {needs}, which is too large to compute\n"


#: Python's digit limit on int-to-text conversion (None before 3.10.7)
digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)


@contextmanager
def any_digits():
    saved = digit_limit()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def test_big_counts_print(capsys):
    limit = digit_limit()
    code, out, err = run(capsys, "count", "--kind", "cb", "--q", "3", "--n", "10000")
    assert code == 0 and err == "" and digit_limit() == limit
    with any_digits():
        assert out == str(exact_count("cb", 10000, 3)) + "\n" and len(out) > 4301
    code, out, err = run(
        capsys, "count", "--kind", "pb", "--q", "4", "--n", "8000", "--format", "json"
    )
    assert code == 0 and err == "" and digit_limit() == limit
    with any_digits():
        value = exact_count("pb", 8000, 4)
        assert json.loads(out) == {"kind": "pb", "mode": "exact", "n": 8000, "q": 4, "value": value}
        assert len(str(value)) > 4300


def test_count_at_huge_alphabet(capsys):
    # three symbols balance in (3q^2 + 1)/4 ways at odd q
    q = 99999999999
    code, out, err = run(capsys, "count", "--kind", "cb", "--q", str(q), "--n", "3")
    assert (code, out, err) == (0, "7499999999850000000001\n", "")
    assert (3 * q * q + 1) // 4 == 7499999999850000000001
    code, out, err = run(capsys, "count", "--kind", "cb", "--q", "100000", "--n", "200")
    assert code == 0 and err == "" and out == f"{exact_count('cb', 200, 100000)}\n"


def test_count_json(capsys):
    code, out, _ = run(
        capsys, "count", "--kind", "cpb", "--q", "4", "--n", "10", "--format", "json"
    )
    data = json.loads(out)
    assert data == {"kind": "cpb", "mode": "exact", "n": 10, "q": 4, "value": 63504}


def test_redundancy(capsys):
    code, out, _ = run(capsys, "redundancy", "--kind", "cpb", "--q", "4", "--n", "10")
    assert code == 0
    assert abs(float(out) - 2.0227) < 5e-5
    code, _, _ = run(capsys, "redundancy", "--kind", "cb", "--q", "4", "--n", "5")
    assert code == 2  # zero count, undefined redundancy


def test_table1(capsys):
    code, out, _ = run(capsys, "table1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,exact,approx"
    assert len(lines) == 12
    row100 = dict(zip(("n", "exact", "approx"), lines[6].split(",")))
    assert row100 == {"n": "100", "exact": "3.6513", "approx": "3.6477"}


def test_table1_text_has_4_decimals(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "2.0227" in out and "1.9867" in out


def test_table2(capsys):
    code, out, _ = run(capsys, "table2", "--max-q", "5", "--format", "json")
    assert code == 0
    rows = {row["q"]: row for row in json.loads(out)}
    assert rows[2]["sb"] == 0.5
    assert rows[5]["sb"] == 2.0
    assert rows[5]["cpb"] == 1.0
    assert rows[3]["cpb"] == 0.5
    assert all(rows[q]["cb"] == 0.5 for q in rows)


def test_sweep(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--kind", "sb", "--q", "3", "--start", "3", "--stop", "12",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [3, 6, 9, 12]  # only multiples of q
    code, _, _ = run(capsys, "sweep", "--kind", "cb", "--q", "3", "--start", "5", "--stop", "4")
    assert code == 2


def test_byte_stable_json(capsys):
    args = ("count", "--kind", "pb", "--q", "5", "--n", "6", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["encode", "--kind", "pb"]) == 2
    capsys.readouterr()
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_exit_decode_unbalanced_payload(capsys):
    code, out, _ = run(capsys, "encode", "--kind", "cb", "--q", "4", "--word", "+3,-3,+1,-1")
    assert code == 0
    prefix = out.strip().split("|")[0]
    code, out, err = run(
        capsys, "decode", "--kind", "cb", "--q", "4", "--word", f"{prefix}|+3,+3,+3,+3"
    )
    assert code == 4
    assert out == "" and "not cb-balanced" in err
