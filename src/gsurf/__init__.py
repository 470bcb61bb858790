"""Exact lattice arithmetic for finite group actions on blown-up planes.

Submodules:

* ``lattice``     - classes, pairing, canonical and fiber class (H - E1),
                    reflections in (-2)-classes, reducedness
* ``exceptional`` - exceptional classes, Cremona reflections, reduction
* ``weyl``        - root systems, isometry groups, invariant lattices
* ``gconic``      - conic-bundle combinatorics and the group classifier
* ``cone``        - equivariant cone membership and the gap coordinate
* ``hexagon``     - the three-blowup rotation calculus and monomial groups
* ``cli``         - command-line front end with JSON reports
"""

from .errors import InvariantViolation, LatticeError, LimitExceeded
from .lattice import (
    CohClass,
    Isometry,
    PicardLattice,
    SymplecticClass,
    canonical_class,
    is_characteristic,
    is_monotone,
    is_reduced_class,
    pairing,
)

__version__ = "0.1.0"

__all__ = [
    "CohClass",
    "Isometry",
    "InvariantViolation",
    "LatticeError",
    "LimitExceeded",
    "PicardLattice",
    "SymplecticClass",
    "canonical_class",
    "is_characteristic",
    "is_monotone",
    "is_reduced_class",
    "pairing",
    "__version__",
]
