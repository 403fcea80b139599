"""Balanced q-ary block codes over the symmetric alphabet {-q+1, -q+3, ..., q-1}.

Counting and redundancy of symbol-, charge-, polarity-, and jointly
balanced words, Gaussian approximations, and five fixed-length
encoder/decoder constructions with balanced side-info prefixes.

Importing the package loads none of its modules.  Each module loads on the
first lookup of one of its names (PEP 562), so a program loads only what it
calls: an exact count loads errors and counting, an approximation errors and
asymptotics.  Each public name is bound in the package namespace on its
first lookup.
"""

import sys

__version__ = "0.1.0"

#: home module -> the public names it defines
_EXPORTS = {
    "alphabet": (
        "Alphabet",
        "charge_sum",
        "format_word",
        "from_zq",
        "is_cb",
        "is_cpb",
        "is_pb",
        "is_sb",
        "parse_word",
        "phi",
        "polarity_sum",
        "sub_alphabet",
        "symbol_count",
        "symbols",
        "to_zq",
        "validate_word",
    ),
    "asymptotics": (
        "BivariateSpec",
        "GaussianSpec",
        "anr",
        "approx_count",
        "approx_ln_count",
        "approx_redundancy",
        "bivariate_spec",
        "gaussian_count",
        "gaussian_ln_count",
        "gaussian_spec",
        "joint_gaussian_count",
        "joint_gaussian_ln_count",
        "stirling_ln_factorial",
    ),
    "codebook": (
        "CONSTRUCTIONS",
        "CbSide",
        "CpbSide",
        "KnuthSide",
        "PbSide",
        "PrefixPlan",
        "SbSide",
        "balance_kind",
        "decode_prefix",
        "encode_prefix",
        "pack",
        "plan",
        "rank",
        "side_info_space",
        "unpack",
        "unrank",
    ),
    "codecs": (
        "CodecParams",
        "Codeword",
        "balancing_sequence",
        "cb_decode",
        "cb_encode",
        "cpb_decode",
        "cpb_encode",
        "decode",
        "encode",
        "knuth_decode",
        "knuth_encode",
        "pb_decode",
        "pb_encode",
        "sb_decode",
        "sb_encode",
    ),
    "counting": (
        "JointCensus",
        "brute_force_count",
        "charge_count",
        "count_cb",
        "count_cpb",
        "count_pb",
        "count_sb",
        "exact_count",
        "exact_redundancy",
        "joint_census",
        "joint_count",
        "polarity_count",
    ),
    "errors": (
        "AlphabetError",
        "BalancedqError",
        "BalancingInvariantError",
        "CapacityError",
        "DecodeError",
        "InfeasibleParamsError",
        "InvalidIndexError",
        "KINDS",
        "WordParseError",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _load(module):
    # __import__, unlike importlib.import_module, shows in -X importtime
    name = f"{__name__}.{module}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return _load(name)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(home), name)
    # later lookups find the name in the module dict and skip this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
