"""Replays recorded CLI transcripts through cli.main.

cli_transcripts.json holds, for each invocation, the argv, exit code, stdout
and stderr the CLI gave when the file was recorded.  It covers every
subcommand in every format, --emit-sideinfo, --inject and each exit-code
path (0, 2, 3, 4).  Output must match byte for byte, except the
full-precision floats of `redundancy` and `count --approx`, which match to
1e-12 relative because their last digits come from the platform's libm.
`--help` and argparse usage errors are not recorded: their wrapping follows
the terminal width.
"""

import json
import math
import re
from pathlib import Path

import pytest

from balancedq.cli import main

DECK = json.loads((Path(__file__).parent / "cli_transcripts.json").read_text(encoding="utf-8"))

FLOAT = re.compile(r"-?\d+(?:\.\d+)?e[+-]?\d+|-?\d+\.\d+")


def full_precision(argv):
    return argv[0] == "redundancy" or (argv[0] == "count" and "--approx" in argv)


def same_output(got, want, tolerant):
    if not tolerant:
        return got == want
    got_floats, want_floats = FLOAT.findall(got), FLOAT.findall(want)
    return (
        FLOAT.split(got) == FLOAT.split(want)
        and len(got_floats) == len(want_floats)
        and all(math.isclose(float(a), float(b), rel_tol=1e-12) for a, b in zip(got_floats, want_floats))
    )


@pytest.mark.parametrize("case", DECK, ids=[" ".join(case["argv"]) for case in DECK])
def test_transcript(case, capsys):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["code"]
    assert same_output(out, case["stdout"], full_precision(case["argv"])), out
    assert err == case["stderr"]


def test_float_comparison_is_tolerant_only_in_the_last_digits():
    assert same_output("2.0227066\n", "2.0227066000000001\n", True)
    assert not same_output("2.0227066\n", "2.0227067\n", True)
    assert not same_output("1e+300\n", "1.0\n", True)
    assert not same_output("2.0227066\n", "2.0227066000000001\n", False)
