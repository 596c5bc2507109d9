"""Exception types, and the checks of the value types, shared across the package.

The CLI maps these onto exit codes: ParseError/ConfigError -> 2,
DomainError -> 3. Anything else is a bug.
"""

import math


class BfokitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BfokitError, ValueError):
    """Numerically invalid input: out-of-span time, coincident points,
    empty sample sets, ill-ordered bounds and so on."""


class ConfigError(BfokitError, ValueError):
    """Analysis configuration is missing, malformed or inconsistent."""


class ParseError(BfokitError, ValueError):
    """A data file could not be parsed.

    ``problems`` is a list of (line_number, message) pairs; line numbers
    are 1-based and refer to the physical file, or None for a problem
    with no one line (the shape of a JSON document).
    """

    def __init__(self, path, problems):
        self.path = str(path)
        self.problems = list(problems)
        lines = "; ".join(msg if n is None else f"line {n}: {msg}" for n, msg in self.problems)
        super().__init__(f"{self.path}: {lines}")


class CheckedTuple:
    """Base of a checked value type, ``class T(CheckedTuple, NamedTuple(...))``, whose
    ``__new__`` checks its arguments, then calls ``tuple.__new__``. ``_replace`` and
    unpickling build through it too, and no attribute can be assigned."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def require_finite(**values) -> None:
    """Raise :class:`DomainError` naming the first of the ``name=value``
    pairs whose value is not a finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} {value} is not finite")
