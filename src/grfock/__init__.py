"""Exact Fock-space Clifford calculus, Pluecker/KP ideals, shuffle
straightening, and finite-field Grassmannian experiments."""

__version__ = "0.1.0"

DEFAULT_POINT_BUDGET = 500_000


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""


class Record:
    """A frozen record whose compared fields ``_fields`` names.  ``__init__``
    sets its fields through ``vars(self)``; assigning or deleting one later
    raises AttributeError.  A record equals only a record of its own class with
    equal fields, and hashes as the tuple of them."""

    _fields: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
