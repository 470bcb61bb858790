"""Exact arithmetic in the degree-2 lattice of a multiply blown-up plane.

The lattice has basis (H, E1, ..., EN) with Gram matrix diag(1, -1, ..., -1).
Two storage conventions coexist, both of length N+1:

* integer classes (``CohClass``) are stored raw as (c0, c1, ..., cN),
  meaning c0*H + sum_i ci*Ei; the classical form a*H - sum_s bs*Es is
  recovered through accessors (a = c0, bs = -cs);
* symplectic classes (``SymplecticClass``) are stored as (nu; lam1..lamN),
  meaning nu*H - sum_i lami*Ei, so that the area of Ei is lami.

The classes and maps that several modules share live here too:
``canonical_class``, ``fiber_class`` (H - E1, the standard conic-bundle
fiber) and ``reflection`` in a (-2)-class.  ``weyl.reflection`` and
``gconic.fiber_class`` are the same functions, imported from here, so
that ``exceptional`` and ``cone`` need neither of those modules.

Everything is exact: integers and ``fractions.Fraction``, never floats.
All values are immutable and all operations are pure.  The value types,
here and in the other modules, are plain ``__slots__`` classes on one
private base, ``errors._Frozen``: each names its compared fields in
``_fields``, and the base gives an initializer that stores its arguments
in that order, equality, a hash equal to that of the tuple of those
fields, a ``repr`` listing them, and AttributeError on any assignment.
A type that validates or computes its fields sets them in its own
``__init__``, and may add an unchecked ``_trusted`` constructor.  The
base sits in the leaf module ``errors``, so that ``hexagon``, which
needs records but no classes, starts without compiling this module.
Result records that nothing iterates, indexes or compares as a tuple
are ``typing.NamedTuple`` classes instead.  Both are written out rather than generated, as
generating them would import ``inspect`` and add milliseconds to the
start-up of every CLI call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul, neg, sub
from typing import Sequence, Union

from .errors import LatticeError, _Frozen

Rational = Union[int, Fraction]


def _norm_rat(x: Rational) -> Rational:
    """Collapse integer-valued Fractions to int; reject floats."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise LatticeError(f"exact coordinate expected, got {type(x).__name__}")
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def raw_pairing(x: Sequence[Rational], y: Sequence[Rational]) -> Rational:
    """Pairing of raw coordinate vectors: x0*y0 - sum_i xi*yi (i >= 1)."""
    if len(x) != len(y):
        raise LatticeError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return _norm_rat(2 * x[0] * y[0] - sum(map(mul, x, y)))


class CohClass(_Frozen):
    """Integer degree-2 class, raw coordinates (c0, c1, ..., cN)."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: tuple):
        coords = tuple(coords)
        if len(coords) < 2:
            raise LatticeError("need at least the H and one E coordinate")
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in coords):
            raise LatticeError("CohClass coordinates must be integers")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _trusted(cls, coords: tuple) -> "CohClass":
        """Unchecked: for >= 2 int coordinates; each caller states why."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "coords", coords)
        return obj

    # -- accessors -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of blowups N (vector length minus one)."""
        return len(self.coords) - 1

    @property
    def degree(self) -> int:
        """Coefficient a of H in the form a*H - sum bs*Es."""
        return self.coords[0]

    def b(self, s: int) -> int:
        """Coefficient bs in the form a*H - sum bs*Es (1 <= s <= N)."""
        if not 1 <= s <= self.n:
            raise LatticeError(f"index {s} out of range 1..{self.n}")
        return -self.coords[s]

    def raw(self) -> tuple:
        return self.coords

    # -- arithmetic: trusted, as integer classes are closed under it ----

    def __add__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        if self.n != other.n:
            raise LatticeError("dimension mismatch")
        return CohClass._trusted(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        if self.n != other.n:
            raise LatticeError("dimension mismatch")
        return CohClass._trusted(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "CohClass":
        return CohClass._trusted(tuple(map(neg, self.coords)))

    def __rmul__(self, k: int) -> "CohClass":
        if not isinstance(k, int):
            raise LatticeError("integer scalar expected")
        return CohClass._trusted(tuple(k * a for a in self.coords))

    def square(self) -> int:
        return raw_pairing(self.coords, self.coords)

    def is_primitive(self) -> bool:
        return gcd(*self.coords) == 1

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coords) + "]"


class SymplecticClass(_Frozen):
    """Rational class stored as (nu; lam1..lamN) meaning nu*H - sum lami*Ei."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: tuple):
        coords = tuple(_norm_rat(c) for c in coords)
        if len(coords) < 2:
            raise LatticeError("need at least the H and one E coordinate")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_raw(cls, raw: Sequence[Rational]) -> "SymplecticClass":
        return cls((raw[0],) + tuple(-c for c in raw[1:]))

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    @property
    def nu(self) -> Rational:
        return self.coords[0]

    @property
    def lambdas(self) -> tuple:
        return self.coords[1:]

    def raw(self) -> tuple:
        """Raw coordinates (nu, -lam1, ..., -lamN)."""
        return (self.coords[0],) + tuple(-c for c in self.coords[1:])

    def square(self) -> Rational:
        r = self.raw()
        return raw_pairing(r, r)

    def area(self, e) -> Rational:
        """Symplectic area pairing(self, e)."""
        return pairing(self, e)

    def __neg__(self) -> "SymplecticClass":
        return SymplecticClass(tuple(-c for c in self.coords))

    def scale(self, t: Rational) -> "SymplecticClass":
        return SymplecticClass(tuple(_norm_rat(Fraction(t) * c) for c in self.coords))

    def __str__(self):
        return "(" + str(self.coords[0]) + "; " + \
            ",".join(str(c) for c in self.coords[1:]) + ")"


LatticeVector = Union[CohClass, SymplecticClass, Sequence[Rational]]


def _raw(x: LatticeVector) -> Sequence[Rational]:
    if isinstance(x, (CohClass, SymplecticClass)):
        return x.raw()
    return tuple(x)


def pairing(x: LatticeVector, y: LatticeVector) -> Rational:
    """Intersection pairing; symmetric and bilinear over the rationals."""
    return raw_pairing(_raw(x), _raw(y))


def unit(n: int, i: int) -> CohClass:
    """The basis class with raw coordinate i equal to 1: H for i = 0, else Ei;
    trusted once N >= 1, as its coordinates are N + 1 ints 0 and 1."""
    if n < 1:
        raise LatticeError("need at least the H and one E coordinate")
    if not 0 <= i <= n:
        raise LatticeError(f"coordinate {i} out of range 0..{n}")
    return CohClass._trusted(tuple(1 if t == i else 0 for t in range(n + 1)))


def canonical_class(n: int) -> CohClass:
    """The class -3H + E1 + ... + EN; its square is 9 - N."""
    if n < 1:
        raise LatticeError("need at least one blowup")
    return CohClass((-3,) + (1,) * n)


def fiber_class(n: int) -> CohClass:
    """H - E1."""
    if n < 1:
        raise LatticeError("need at least one blowup")
    return CohClass((1, -1) + (0,) * (n - 1))


def is_reduced_class(w: SymplecticClass) -> bool:
    """Sorted positive areas with nu >= lam1 + lam2 + lam3 (non-strict)."""
    if w.n < 3:
        raise LatticeError("reduced form needs at least three blowups")
    lams = w.lambdas
    if any(lams[i] < lams[i + 1] for i in range(len(lams) - 1)):
        return False
    if lams[-1] <= 0:
        return False
    return w.nu >= lams[0] + lams[1] + lams[2]


# ---------------------------------------------------------------------------
# Isometries
# ---------------------------------------------------------------------------

def _gram_diag(dim: int) -> tuple:
    return (1,) + (-1,) * (dim - 1)


class Isometry(_Frozen):
    """Integer matrix acting on raw coordinates and preserving the pairing."""

    __slots__ = _fields = ("mat",)

    def __init__(self, mat: tuple):
        mat = tuple(tuple(row) for row in mat)
        dim = len(mat)
        if dim < 2 or any(len(row) != dim for row in mat):
            raise LatticeError("square matrix of size >= 2 expected")
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for row in mat for v in row):
            raise LatticeError("integer matrix expected")
        object.__setattr__(self, "mat", mat)
        w = self._pairing_witness()
        if w is not None:
            i, j, got, want = w
            raise LatticeError(
                f"matrix does not preserve the pairing:"
                f" (M e{i}).(M e{j}) = {got}, expected {want}")

    @classmethod
    def _trusted(cls, mat: tuple) -> "Isometry":
        """Unchecked: for int-tuple rows proved an isometry by the caller."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "mat", mat)
        return obj

    def _pairing_witness(self):
        """First basis pair whose pairing the matrix breaks, or None."""
        q = _gram_diag(self.dim)
        cols = tuple(zip(*self.mat))
        for i, j in itertools.combinations_with_replacement(range(self.dim), 2):
            want = q[i] if i == j else 0
            got = raw_pairing(cols[i], cols[j])
            if got != want:
                return (i, j, got, want)
        return None

    # -- structure -------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.mat)

    @property
    def n(self) -> int:
        return self.dim - 1

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, n: int) -> "Isometry":
        """Cached, as isometries are frozen; trusted: its rows are unit classes."""
        return cls._trusted(tuple(unit(n, i).coords for i in range(n + 1)))

    def is_identity(self) -> bool:
        return self.mat == Isometry.identity(self.n).mat

    # -- action ----------------------------------------------------------

    def apply_raw(self, vec: Sequence[Rational]) -> tuple:
        if len(vec) != self.dim:
            raise LatticeError("dimension mismatch")
        return tuple(_norm_rat(sum(map(mul, row, vec))) for row in self.mat)

    def apply(self, x: LatticeVector):
        """Image of x; that of a CohClass is trusted, M being integral."""
        if isinstance(x, CohClass):
            return CohClass._trusted(self.apply_raw(x.coords))
        if isinstance(x, SymplecticClass):
            return SymplecticClass.from_raw(self.apply_raw(x.raw()))
        return self.apply_raw(tuple(x))

    def fixes(self, x: LatticeVector) -> bool:
        return self.apply_raw(_raw(x)) == tuple(_raw(x))

    # -- group operations --------------------------------------------------

    def __matmul__(self, other: "Isometry") -> "Isometry":
        """Composition: (self @ other) acts by self after other; trusted, as
        M^T Q M = Q and N^T Q N = Q give (MN)^T Q (MN) = Q."""
        if other.dim != self.dim:
            raise LatticeError("dimension mismatch")
        cols = tuple(zip(*other.mat))
        return Isometry._trusted(tuple(
            tuple([sum(map(mul, row, col)) for col in cols]) for row in self.mat))

    def inverse(self) -> "Isometry":
        """Trusted: M^T Q M = Q with Q = Q^-1 gives M^-1 = Q M^T Q."""
        q = _gram_diag(self.dim)
        return Isometry._trusted(tuple(
            tuple(q[i] * self.mat[j][i] * q[j] for j in range(self.dim))
            for i in range(self.dim)))

    def key(self) -> tuple:
        return tuple(itertools.chain.from_iterable(self.mat))

    def __str__(self):
        return "\n".join(" ".join(f"{v:3d}" for v in row) for row in self.mat)


def reflection(alpha: CohClass) -> Isometry:
    """x -> x + (x.alpha)*alpha for a (-2)-class alpha.

    Involutive, negates alpha, and fixes every class orthogonal to alpha;
    in particular it fixes K exactly when K.alpha = 0 (true for roots).
    Trusted once alpha^2 = -2 is checked: the matrix is integral, and
    (x + (x.a)a).(y + (y.a)a) = x.y + (x.a)(y.a)(2 + a.a) = x.y.
    """
    if alpha.square() != -2:
        raise LatticeError(f"reflection needs alpha^2 = -2, got {alpha.square()}")
    # Column j is e_j + (e_j.alpha)*alpha, and e_j.alpha = q_j*alpha_j with
    # q = diag(1, -1, ..., -1).
    a = alpha.coords
    qa = (a[0],) + tuple(-x for x in a[1:])
    return Isometry._trusted(tuple(
        tuple((1 if i == j else 0) + qa[j] * ai for j in range(len(a)))
        for i, ai in enumerate(a)))


# ---------------------------------------------------------------------------
# JSON serialization: integer/rational arrays, rationals as "p/q" strings
# ---------------------------------------------------------------------------

def rational_to_json(x: Rational):
    x = _norm_rat(x)
    if isinstance(x, int):
        return x
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(v) -> Rational:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            return _norm_rat(Fraction(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise LatticeError(f"bad rational {v!r}") from exc
    raise LatticeError(f"bad rational {v!r}")


def coords_to_json(x: LatticeVector) -> list:
    return [rational_to_json(c) for c in _raw(x)]


def coh_from_json(v) -> CohClass:
    if not isinstance(v, (list, tuple)):
        raise LatticeError("coordinate array expected")
    vals = [rational_from_json(c) for c in v]
    if not all(isinstance(c, int) for c in vals):
        raise LatticeError("integer class expected")
    return CohClass(tuple(vals))
