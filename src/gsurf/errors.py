"""Exception types and the immutable record base shared across the package.

Every gsurf module imports this leaf module, and it imports nothing from
gsurf, so the record base ``_Frozen`` lives here too: ``hexagon``, whose
records are all it needs of the lattice layer, then starts without
compiling ``lattice``.
"""

from operator import attrgetter


class LatticeError(ValueError):
    """Bad input or a violated precondition.  CLI exit code 1."""


class LimitExceeded(LatticeError):
    """A configured search or closure limit was hit before completion."""


class InvariantViolation(RuntimeError):
    """An internal invariant that holds for every valid input failed.

    Raising this is a bug-report trigger: either the input is adversarial
    lattice data with no geometric realization, or the library is wrong.
    CLI exit code 2.
    """


class _Frozen:
    """Immutable record over the fields named in ``_fields``, in order.

    Instances of one class are equal when their fields are, the hash is
    that of the tuple of the fields, and the repr is ``Name(field=value,
    ...)``.  A subclass sets its attributes with ``object.__setattr__``;
    any other assignment or deletion raises AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # An attrgetter is no descriptor, so self._get is the getter itself.
        cls._get = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        values = self._get(self)
        return hash((values,) if len(self._fields) == 1 else values)

    def __repr__(self):
        return type(self).__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """For pickle and copy: the state is (None, slots) for a slotted
        record, else its ``__dict__``."""
        for name, value in (state[1] if type(state) is tuple else state).items():
            object.__setattr__(self, name, value)
