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

    It gives what a frozen dataclass would, without loading dataclasses:
    the field-order constructor, the repr, equality and hash by type and
    fields, AttributeError on assignment and deletion, and pickling and
    copying through __reduce__.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
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
        return type(self), self._fields()
