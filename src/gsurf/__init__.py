"""Exact lattice arithmetic for finite group actions on blown-up planes.

Submodules:

* ``lattice``     - classes, pairing, canonical and fiber class (H - E1),
                    reflections in (-2)-classes, reducedness
* ``exceptional`` - lattice-class and exceptional enumeration, Cremona
                    descent of exceptional and symplectic classes
* ``weyl``        - root systems, isometry groups, stabilizer chains,
                    invariant lattices, the rank dichotomy
* ``listing``     - element order, element arrays and traces read off a
                    stabilizer chain (numpy)
* ``gconic``      - conic-bundle combinatorics and the group classifier
* ``cone``        - cone membership, fiber pairs, blowdown obstructions,
                    gap-coordinate slices
* ``hexagon``     - the three-blowup rotation calculus, torus kernels and
                    monomial groups
* ``cli``         - command-line front end with JSON reports
* ``selftest``    - the acceptance criteria as callable checks

The package namespace imports only ``errors``; the six ``lattice`` names in
``__all__`` are served on first access, so each CLI command compiles only
the modules it runs.
"""

from .errors import InvariantViolation, LatticeError, LimitExceeded

__version__ = "0.1.0"

_LATTICE_NAMES = frozenset({"CohClass", "Isometry", "SymplecticClass",
                            "canonical_class", "is_reduced_class", "pairing"})


def __getattr__(name):
    # The lattice names load on first use (PEP 562), so `python -m gsurf`
    # does not compile ``lattice`` before the command that may not need it.
    if name in _LATTICE_NAMES:
        from . import lattice
        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CohClass",
    "Isometry",
    "InvariantViolation",
    "LatticeError",
    "LimitExceeded",
    "SymplecticClass",
    "canonical_class",
    "is_reduced_class",
    "pairing",
    "__version__",
]
