"""Exception hierarchy and argument checks shared by all balancedq modules.

The checks and the record base live here, beside the errors they raise, so
that counting and asymptotics load without the alphabet module.
"""

#: the balance kinds; table2's columns and the brute-force tallies keep this order
KINDS = ("sb", "cb", "pb", "cpb")


class BalancedqError(Exception):
    """Base class for every error raised by this package."""


class AlphabetError(BalancedqError, ValueError):
    """A symbol or parameter is not valid for the requested alphabet."""


class InfeasibleParamsError(BalancedqError, ValueError):
    """No object with the requested (kind, n or k, q) combination exists."""


class WordParseError(BalancedqError, ValueError):
    """A word given in text form could not be parsed."""


class CapacityError(BalancedqError, RuntimeError):
    """The request exceeds a documented resource bound of this implementation."""


class InvalidIndexError(BalancedqError, ValueError):
    """An enumeration index or injected balancing index is out of range or invalid."""


class DecodeError(BalancedqError, ValueError):
    """A received codeword could not be decoded under the declared parameters."""


class BalancingInvariantError(BalancedqError, RuntimeError):
    """Internal invariant violation: a balancing index that must exist was not found.

    This is a panic-class error.  It indicates a bug, not bad input.
    """


def check_kind(kind: str, names=KINDS, what: str = "balance kind") -> str:
    """kind in lower case, when it names one of names (the balance kinds by
    default, or the constructions); raises InfeasibleParamsError otherwise,
    also for a kind that is not a string."""
    name = kind.lower() if isinstance(kind, str) else None
    if name not in names:
        raise InfeasibleParamsError(f"unknown {what} {kind!r}")
    return name


def _check_q(q: int) -> None:
    if not isinstance(q, int) or q < 2:
        raise AlphabetError(f"alphabet order must be an integer >= 2, got {q!r}")


class _Record:
    """A frozen record whose __slots__ name its fields, in order.

    It gives what a frozen dataclass would, without loading dataclasses.
    The one constructor path is an __init__ generated per subclass, as
    dataclasses does: it takes the fields in slot order, positionally or by
    keyword, and _defaults gives the values of the trailing ones.  A
    subclass that defines __init__ keeps it and sets its slots itself.  The
    repr, equality and hash go by type and _fields, assignment and deletion
    raise AttributeError, and pickling and copying go through __reduce__.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        if "__init__" in vars(cls):
            return
        names = cls.__slots__
        # the generated code sets each field x through its slot's setter _x
        namespace = {f"_{name}": getattr(cls, name).__set__ for name in names}
        body = "".join(f"\n _{name}(self, {name})" for name in names)
        exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _fields(self) -> tuple:
        """The values the repr, equality and hash read; a subclass may keep fewer."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
