"""The package namespace loads its names on first use.

Importing the package loads none of its modules, each CLI command loads
only the modules it calls, and every public name must still resolve,
star-import and show in dir().
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import balancedq
from balancedq import cli, codebook

#: the public names of the package (a change to this set is an API change)
PUBLIC = {
    "Alphabet", "AlphabetError", "BalancedqError", "BalancingInvariantError",
    "BivariateSpec", "CapacityError", "CbSide", "CodecParams", "Codeword",
    "CONSTRUCTIONS", "CpbSide", "DecodeError", "GaussianSpec",
    "InfeasibleParamsError", "InvalidIndexError", "JointCensus", "KINDS",
    "KnuthSide", "PbSide", "PrefixPlan", "SbSide", "WordParseError", "anr",
    "approx_count", "approx_ln_count", "approx_redundancy", "balance_kind",
    "balancing_sequence", "bivariate_spec", "brute_force_count", "cb_decode",
    "cb_encode", "charge_count", "charge_sum", "count_cb", "count_cpb",
    "count_pb", "count_sb", "cpb_decode", "cpb_encode", "decode",
    "decode_prefix", "encode", "encode_prefix", "exact_count",
    "exact_redundancy", "format_word", "from_zq", "gaussian_count",
    "gaussian_ln_count", "gaussian_spec", "is_cb", "is_cpb", "is_pb", "is_sb",
    "joint_census", "joint_count", "joint_gaussian_count",
    "joint_gaussian_ln_count", "knuth_decode", "knuth_encode", "pack",
    "parse_word", "pb_decode", "pb_encode", "phi", "plan", "polarity_count",
    "polarity_sum", "rank", "sb_decode", "sb_encode", "side_info_space",
    "stirling_ln_factorial", "sub_alphabet", "symbol_count", "symbols",
    "to_zq", "unpack", "unrank", "validate_word",
}  # fmt: skip

SUBMODULES = ("alphabet", "asymptotics", "codebook", "codecs", "counting", "errors")

#: runs CLI commands in one fresh interpreter and prints, after each, the
#: balancedq modules loaded so far
PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from balancedq import cli
loaded = {}
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[" ".join(argv)] = [code, sorted(m for m in sys.modules if m.startswith("balancedq"))]
print(json.dumps(loaded))
"""

EXACT = {"errors", "counting"}
APPROX = {"errors", "asymptotics"}

#: each counting command and the modules it loads besides the package and cli
COMMAND_MODULES = [
    (["count", "--kind", "cpb", "--q", "5", "--n", "40"], EXACT),
    (["count", "--kind", "sb", "--q", "3", "--n", "30", "--approx", "--format", "json"], APPROX),
    (["redundancy", "--kind", "cb", "--q", "4", "--n", "50", "--format", "csv"], EXACT),
    (["redundancy", "--kind", "pb", "--q", "7", "--n", "20", "--approx"], APPROX),
    (["table1", "--format", "json"], EXACT | APPROX),
    (["table2", "--format", "csv"], APPROX),
    (["sweep", "--kind", "cpb", "--q", "4", "--start", "1", "--stop", "12"], EXACT | APPROX),
]
COUNTING_COMMANDS = [argv for argv, _ in COMMAND_MODULES]

CODEC_MODULES = {"balancedq.codebook", "balancedq.codecs"}


def run_fresh(code, *args):
    """stdout of code run in a new interpreter that imports this balancedq."""
    src = Path(balancedq.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout


def probe(commands):
    return json.loads(run_fresh(PROBE, json.dumps(commands)))


def test_counting_commands_do_not_load_the_codecs():
    # one fresh interpreter per command, so that each shows its own modules
    for argv, names in COMMAND_MODULES:
        code, modules = probe([argv])[" ".join(argv)]
        assert code == 0, argv
        assert set(modules) == {"balancedq", "balancedq.cli"} | {f"balancedq.{n}" for n in names}, argv
    encode = ["encode", "--kind", "cb", "--q", "4", "--word", "+3,-3,+1,-1"]
    code, modules = probe([encode])[" ".join(encode)]
    assert code == 0 and CODEC_MODULES <= set(modules)


def test_decode_loads_the_codecs():
    decode = ["decode", "--kind", "cb", "--q", "4", "--word", "-3,+1,+3,-1|-3,+3,+3,-3"]
    code, modules = probe([decode])[" ".join(decode)]
    assert code == 0 and CODEC_MODULES <= set(modules)


def test_import_loads_no_module_and_a_lookup_loads_its_home():
    code = (
        "import sys, balancedq\n"
        "print(sorted(m for m in sys.modules if m.startswith('balancedq.')))\n"
        "print(balancedq.exact_count('cpb', 40, 5))\n"
        "print(repr(balancedq.approx_redundancy('cb', 40, 3)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('balancedq.')))\n"
    )
    before, count, redundancy, after = run_fresh(code).splitlines()
    assert before == "[]"
    assert int(count) == 89626820369817280577686633
    assert math.isclose(float(redundancy), 2.3308001672836998, rel_tol=1e-12)
    assert after == "['balancedq.asymptotics', 'balancedq.counting', 'balancedq.errors']"


def test_cli_figures_resolve_and_count_calls_their_rebinding(monkeypatch, capsys):
    from balancedq import asymptotics, counting

    for name in ("exact_count", "exact_redundancy"):
        assert getattr(cli, name) is getattr(counting, name)
    for name in ("approx_count", "approx_redundancy"):
        assert getattr(cli, name) is getattr(asymptotics, name)
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        cli.bogus
    calls = []
    for name in ("exact_count", "approx_count", "exact_redundancy", "approx_redundancy"):
        monkeypatch.setattr(cli, name, lambda kind, n, q, name=name: calls.append(name) or 7)
    for argv in (["count"], ["count", "--approx"], ["redundancy"], ["redundancy", "--approx"]):
        assert cli.main(argv + ["--kind", "cb", "--q", "3", "--n", "5"]) == 0
        assert capsys.readouterr().out == "7\n"
    assert calls == ["exact_count", "approx_count", "exact_redundancy", "approx_redundancy"]


def test_submodules_resolve_as_attributes():
    out = run_fresh("import balancedq; print(balancedq.codebook.__name__, balancedq.codecs.__name__)")
    assert out.split() == ["balancedq.codebook", "balancedq.codecs"]
    assert {"codebook", "codecs", "counting"} <= set(dir(balancedq))


def test_public_names_resolve_to_their_home():
    assert set(balancedq.__all__) == PUBLIC
    homes = [importlib.import_module(f"balancedq.{name}") for name in SUBMODULES]
    for name in balancedq.__all__:
        value = getattr(balancedq, name)
        assert any(getattr(home, name, None) is value for home in homes), name


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from balancedq import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_dir_lists_the_public_names():
    assert PUBLIC <= set(dir(balancedq))
    assert "__version__" in dir(balancedq)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        balancedq.bogus
    assert not hasattr(balancedq, "RETAINED_MAX")  # a module global, not exported
    assert getattr(balancedq, "bogus", None) is None


def test_cli_constructions_match_the_specs():
    assert cli.CONSTRUCTIONS == tuple(codebook.SPECS) == codebook.CONSTRUCTIONS


#: runs CLI commands in one fresh interpreter and prints their exit codes
#: and which of the named modules they loaded
LOADED = """
import io, json, sys
from contextlib import redirect_stdout
from balancedq import cli
commands, names = json.loads(sys.argv[1])
with redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in commands]
print(json.dumps([codes, sorted(set(names) & set(sys.modules))]))
"""


def loaded_by(commands, names):
    """(exit codes, the names loaded) after commands ran in one process."""
    return json.loads(run_fresh(LOADED, json.dumps([commands, sorted(names)])))


def test_count_commands_do_not_load_fractions():
    commands = [argv for argv in COUNTING_COMMANDS if argv[0] in ("count", "redundancy")]
    assert loaded_by(commands, {"fractions", "decimal"}) == [[0] * len(commands), []]


def test_counting_commands_do_not_load_dataclasses():
    # count, redundancy, sweep, table1 and table2 build their records without
    # it, and so do encode and decode, with their side info and codewords
    commands = COUNTING_COMMANDS + [
        ["encode", "--kind", "cpb", "--q", "5", "--word=+4,+2,0,-2,-4,+4", "--emit-sideinfo"],
        ["decode", "--kind", "cpb", "--q", "5", "--word=0,+4,-4,0,-2,+2|0,-2,-4,+4,+2,0"],
    ]
    codes, loaded = loaded_by(commands, {"dataclasses", "inspect"})
    assert codes == [0] * len(commands) and loaded == []
