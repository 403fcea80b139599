import copy
import pickle
import re

import pytest
from fractions import Fraction
from hypothesis import given
import hypothesis.strategies as st

from balancedq.alphabet import (
    Alphabet,
    _Record,
    charge_sum,
    format_word,
    from_zq,
    is_cb,
    is_cpb,
    is_pb,
    is_sb,
    parse_word,
    phi,
    polarity_sum,
    sub_alphabet,
    symbol_count,
    symbols,
    to_zq,
    validate_word,
)
from balancedq.asymptotics import bivariate_spec, gaussian_spec
from balancedq.codebook import (
    SPECS,
    CbSide,
    CpbSide,
    Field,
    KnuthSide,
    PbSide,
    PrefixPlan,
    SbSide,
    Spec,
    plan,
)
from balancedq.codecs import Codeword
from balancedq.errors import AlphabetError, WordParseError


def test_symbols_small():
    assert symbols(2) == (-1, 1)
    assert symbols(3) == (-2, 0, 2)
    assert symbols(4) == (-3, -1, 1, 3)
    assert symbols(5) == (-4, -2, 0, 2, 4)


def test_symbols_structure():
    for q in range(2, 12):
        a = symbols(q)
        assert len(a) == q
        assert a[0] == -q + 1 and a[-1] == q - 1
        assert all(b - a == 2 for a, b in zip(a, a[1:]))
        assert sum(a) == 0


def test_symbols_bad_order():
    with pytest.raises(AlphabetError):
        symbols(1)
    with pytest.raises(AlphabetError):
        symbols(0)


@given(st.integers(2, 40))
def test_zq_bijection(q):
    a = symbols(q)
    residues = to_zq(a, q)
    assert residues == tuple(q - 1 - i for i in range(q))
    assert from_zq(residues, q) == a
    assert to_zq(from_zq(tuple(range(q)), q), q) == tuple(range(q))


def test_zq_rejects_outsiders():
    with pytest.raises(AlphabetError):
        to_zq([2], 2)
    with pytest.raises(AlphabetError):
        to_zq([1], 3)
    with pytest.raises(AlphabetError):
        from_zq([5], 5)
    with pytest.raises(AlphabetError):
        from_zq([-1], 5)
    # residues are ints, as symbols are
    for bad in ((1.5,), (True, 0), ("1",)):
        with pytest.raises(AlphabetError, match="not an integer"):
            from_zq(bad, 3)


def test_sub_alphabet():
    assert sub_alphabet(5, 1) == (-4, -2, 0, 2, 4)
    assert sub_alphabet(5, 2) == (-2, 0, 2, 4)
    assert sub_alphabet(5, 5) == (4,)
    assert sub_alphabet(3, 2) == (0, 2)
    with pytest.raises(AlphabetError):
        sub_alphabet(5, 0)
    with pytest.raises(AlphabetError):
        sub_alphabet(5, 6)


def test_validate_word():
    assert validate_word([4, -4, 0], 5) == (4, -4, 0)
    with pytest.raises(AlphabetError):
        validate_word([3], 5)
    with pytest.raises(AlphabetError):
        validate_word([0], 2)


@pytest.mark.parametrize("bad", [1.0, True, 1 + 0j, "1", [1]])
def test_symbols_must_be_ints(bad):
    # values equal to a symbol but of another type are foreign symbols
    with pytest.raises(AlphabetError, match="is not in the order-2 alphabet"):
        validate_word((bad, -1), 2)
    assert bad not in Alphabet(2) and 1 in Alphabet(2)


def test_sums_and_counts():
    w = (4, 4, -2, 0, 0, 0, 0)
    assert charge_sum(w) == 6
    assert polarity_sum(w) == 1
    assert symbol_count(w, 0, 5) == 4
    assert symbol_count(w, 4, 5) == 2
    assert symbol_count(w, -4, 5) == 0
    with pytest.raises(AlphabetError):
        symbol_count(w, 3, 5)


@pytest.mark.parametrize("j", [True, 1.0, "1"])
def test_symbol_count_refuses_a_symbol_that_is_not_an_int(j):
    # True and 1.0 equal the symbol 1 of the order-2 alphabet but are foreign
    with pytest.raises(AlphabetError, match="is not in the order-2 alphabet"):
        symbol_count((1, 1), j, 2)
    assert symbol_count((1, 1), 1, 2) == 2


def test_phi():
    assert phi(4) == 1
    assert phi(-2) == -1
    assert phi(0) == 0
    assert phi(4, mode="half") == Fraction(1, 2)
    assert phi(-4, mode="half") == Fraction(-1, 2)
    assert phi(0, mode="half") == 0
    with pytest.raises(AlphabetError):
        phi(1, mode="bogus")


def test_predicates_empty_word():
    for q in (2, 3, 4, 5):
        assert is_sb((), q)
        assert is_cb((), q)
        assert is_pb((), q)
        assert is_cpb((), q)


def test_predicates_examples():
    assert is_cb((-1, 1, -1, -1, 1, 1), 2)
    assert is_pb((4, 4, 0, -2, -2, -2, 2), 5)
    assert not is_cb((4, 4, 0, -2, -2, -2, 2), 5)
    assert is_cb((4, 4, -2, 0, -2, -2, -2), 5)
    assert not is_pb((4, 4, -2, 0, -2, -2, -2), 5)
    assert is_cpb((2, 2, 0, -4, -2, -2, 4), 5)
    assert is_sb((0, 2, 2, -2, 0, -2), 3)
    assert not is_sb((0, 0, 2, -2, 0, -2), 3)


def test_sb_needs_divisible_length():
    assert not is_sb((1, -1), 4)
    assert is_sb((1, -1), 2)


@st.composite
def word_and_q(draw):
    q = draw(st.integers(2, 8))
    n = draw(st.integers(0, 24))
    w = draw(st.lists(st.sampled_from(symbols(q)), min_size=n, max_size=n))
    return tuple(w), q


@given(word_and_q())
def test_sb_implies_all(wq):
    w, q = wq
    if is_sb(w, q):
        assert is_cpb(w, q)
    if is_cpb(w, q):
        assert is_cb(w, q) and is_pb(w, q)


@given(word_and_q())
def test_small_alphabets_cb_equals_pb(wq):
    w, q = wq
    if q <= 3:
        assert is_cb(w, q) == is_pb(w, q)


@given(word_and_q())
def test_negation_preserves_balance(wq):
    w, q = wq
    neg = tuple(-x for x in w)
    for pred in (is_sb, is_cb, is_pb, is_cpb):
        assert pred(w, q) == pred(neg, q)


def test_parse_word():
    assert parse_word("+4,+4,-2,0,0,0,0") == (4, 4, -2, 0, 0, 0, 0)
    assert parse_word(" -1 , +1 ") == (-1, 1)
    assert parse_word("") == ()
    with pytest.raises(WordParseError):
        parse_word("1,,2")
    with pytest.raises(WordParseError):
        parse_word("one")


def test_format_word():
    assert format_word((4, 4, -2, 0, 0, 0, 0)) == "+4,+4,-2,0,0,0,0"
    assert format_word(()) == ""


@given(word_and_q())
def test_wire_roundtrip(wq):
    w, q = wq
    if w:
        assert parse_word(format_word(w)) == w


def test_alphabet_class():
    a = Alphabet(5)
    assert a.symbols == (-4, -2, 0, 2, 4)
    assert a.positive == (2, 4)
    assert a.negative == (-4, -2)
    for q in range(2, 10):
        b = Alphabet(q)
        assert b.positive == tuple(s for s in symbols(q) if s > 0)
        assert b.negative == tuple(s for s in symbols(q) if s < 0)
        assert len(b.positive) == len(b.negative) == q // 2
    assert a.sub(2) == (-2, 0, 2, 4)
    assert 4 in a and 3 not in a
    assert len(a) == 5


# The three frozen records of the counting stack: Alphabet here, and the two
# specs of asymptotics.  Each entry: an instance, its repr, and an instance
# that differs in one field.
RECORDS = [
    (Alphabet(5), "Alphabet(q=5)", Alphabet(7)),
    (
        gaussian_spec(10, 5),
        "GaussianSpec(n=10, q=5, mode='charge', mu=0.0, sigma2=20.0)",
        gaussian_spec(10, 5, "unit"),
    ),
    (
        bivariate_spec(10, 5),
        "BivariateSpec(n=10, q=5, mu1=0.0, sigma1=4.47213595499958, mu2=0.0, "
        "sigma2=2.8284271247461903, rho=0.9486832980505138)",
        bivariate_spec(12, 5),
    ),
    (KnuthSide(3), "KnuthSide(z=3)", KnuthSide(4)),
    (PbSide(3, -2), "PbSide(z=3, a=-2)", PbSide(3)),
    (CbSide(7), "CbSide(z=7)", CbSide(8)),
    (CpbSide(1, 0, "-", 3), "CpbSide(z=1, xi=0, nu='-', w=3, a=None)", CpbSide(1, 0, "-", 3, 2)),
    (
        SbSide(((1, 2, 3), (4, -1, 1))),
        "SbSide(rounds=((1, 2, 3), (4, -1, 1)))",
        SbSide(((1, 2, 3),)),
    ),
    (Field("nu", ("+", "-")), "Field(name='nu', values=('+', '-'), arg='')", Field("nu", ("+",))),
    (
        SPECS["pb"].fields[1],
        "Field(name='z', values=<function <lambda>>, arg='')",
        SPECS["cb"].fields[0],
    ),
    (
        SPECS["cb"],
        "Spec(side=<class 'balancedq.codebook.CbSide'>, balance='cb', "
        "fields=(Field(name='z', values=<function <lambda>>, arg=''),), rounds=None)",
        SPECS["knuth"],
    ),
    (
        plan("cpb", 5, 16),
        "PrefixPlan(kind='cpb', q=5, k=16, space=5120, "
        "unbalanced_length=5.306765580733931, length=8)",
        plan("cpb", 5, 18),
    ),
    (
        Codeword((1, -1), (3, -3)),
        "Codeword(prefix=(1, -1), payload=(3, -3))",
        Codeword((1, -1), (3, 3)),
    ),
]


def shown(record):
    """The repr without the addresses of the functions it holds."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(record))


def holds_functions(record):
    """Spec, PrefixPlan and a Field of callable values hold functions, which
    pickle refuses."""
    return isinstance(record, (Spec, PrefixPlan)) or callable(getattr(record, "values", None))


@pytest.mark.parametrize("record, text, other", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_frozen_records(record, text, other):
    cls = type(record)
    fields = cls.__slots__
    values = tuple(getattr(record, name) for name in fields)
    assert shown(record) == text
    # field-order and keyword construction, equality and hash by type and fields
    same = cls(*values)
    assert same == record and hash(same) == hash(record) and same is not record
    assert cls(**dict(zip(fields, values))) == record
    assert record != other and not record == other
    assert record != values and values != record
    twin = type("Twin", (_Record,), {"__slots__": fields})(*values)  # same fields, other type
    assert record != twin and twin != record
    assert len({record, same, other}) == 2
    with pytest.raises(TypeError):
        cls(*values, 1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    # frozen
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    # pickle and copies round-trip
    clones = [copy.copy(record), copy.deepcopy(record)]
    if not holds_functions(record):
        clones.append(pickle.loads(pickle.dumps(record)))
    for clone in clones:
        assert clone == record and type(clone) is cls and shown(clone) == text
        assert tuple(getattr(clone, name) for name in fields) == values


@pytest.mark.parametrize(
    "cls, given, defaults",
    [
        (PbSide, {"z": 3}, {"a": None}),
        (CpbSide, {"z": 3, "xi": 1, "nu": "-", "w": 2}, {"a": None}),
        (Field, {"name": "nu", "values": ("+", "-")}, {"arg": ""}),
        (Spec, {"side": CbSide, "balance": "cb", "fields": ()}, {"rounds": None}),
    ],
    ids=["PbSide", "CpbSide", "Field", "Spec"],
)
def test_record_defaults(cls, given, defaults):
    # keyword construction leaves the trailing fields at their defaults
    record = cls(**given)
    assert record == cls(*given.values()) == cls(**given, **defaults)
    assert {name: getattr(record, name) for name in defaults} == defaults
    with pytest.raises(TypeError):  # a leading field has no default
        cls(**dict(list(given.items())[1:]))


def test_prefix_plan_compares_its_public_fields():
    # repr, equality and hash read (kind, q, k, space, unbalanced_length,
    # length), not spec and digits; an unhashable digits still hashes
    cpb = plan("cpb", 5, 16)
    public = tuple(getattr(cpb, name) for name in PrefixPlan.__slots__[:6])
    for twin in (PrefixPlan(*public, SPECS["cb"], ()), PrefixPlan(*public, None, [[]])):
        assert twin == cpb and hash(twin) == hash(cpb) and repr(twin) == repr(cpb)
    assert PrefixPlan(*public[:5], 9, cpb.spec, cpb.digits) != cpb


def test_alphabet_record_checks_its_order():
    for bad in (1, 0, -3, 2.0, "5", None):
        with pytest.raises(AlphabetError):
            Alphabet(bad)
    with pytest.raises(AlphabetError):
        Alphabet(q=1)
