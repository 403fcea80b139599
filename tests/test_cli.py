import json

import pytest

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


def test_count_approx_overflow_is_infeasible(capsys):
    code, out, err = run(capsys, "count", "--kind", "cb", "--q", "4", "--n", "2000", "--approx")
    assert code == 2
    assert out == ""
    assert "overflows a double" in err and "redundancy --approx" in err
    assert "Traceback" not in err


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
