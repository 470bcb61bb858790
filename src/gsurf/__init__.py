"""Exact lattice arithmetic for finite group actions on blown-up planes.

Submodules:

* ``lattice``     - classes, pairing, canonical and fiber class (H - E1),
                    reflections in (-2)-classes, reducedness
* ``exceptional`` - lattice-class and exceptional enumeration, Cremona
                    reflections, reduction
* ``weyl``        - root systems, isometry groups, stabilizer chains,
                    invariant lattices, the rank dichotomy
* ``gconic``      - conic-bundle combinatorics and the group classifier
* ``cone``        - cone membership, fiber pairs, blowdown obstructions,
                    gap-coordinate slices
* ``hexagon``     - the three-blowup rotation calculus, torus kernels and
                    monomial groups
* ``cli``         - command-line front end with JSON reports
* ``selftest``    - the acceptance criteria as callable checks
"""

from .errors import InvariantViolation, LatticeError, LimitExceeded
from .lattice import (
    CohClass,
    Isometry,
    SymplecticClass,
    canonical_class,
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
    "SymplecticClass",
    "canonical_class",
    "is_reduced_class",
    "pairing",
    "__version__",
]
