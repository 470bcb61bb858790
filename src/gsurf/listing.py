"""The elements of a finite isometry group, read off its stabilizer chain.

``weyl.generate_group`` keeps a group as a stabilizer chain on the orbits
of the seeds E1..EN (and H when K moves).  This module turns the chain
into numpy arrays: the sorted listing behind
``FiniteIsometryGroup.element_array()`` and iteration, and the traces
behind ``trace_vector()``.  Only those import it, so a command that lists
no group compiles neither it nor numpy.  The transversals are read as
tuples of point images through ``weyl._images``, so only ``weyl`` knows
how the chain holds a permutation.

*Rows are point images.*  Every element is uniquely h = u1 u2 ... uk with
ui in the i-th transversal (Seress, *Permutation Group Algorithms*, 2003,
ch. 4).  h preserves the form Q = diag(1, -1, ..., -1), so
h^-1 = Q h^T Q, and g = h^-1 runs over the group once as h does.  Row 0
of g is Q h(H) and row i >= 1 is -Q h(E_i), the image of a seed, which
the chain products hold as a point index.  When K moves, H is a seed
too; otherwise K is fixed and 3 h(H) = h(E1) + ... + h(EN) - K.

*Order.*  Row-major order of g is the lexicographic order of its rows,
so it is the order of a digit string: row 0's entries, each less a lower
bound, then the rank of each row i >= 1 among the rows -Q p over the
points p.  The seeds' images are distinct points, so each entry of
3 h(H) lies between the sums of the smallest and of the largest values
the points take there; these give the bounds and the radices.  The digit
string is read as one mixed-radix number, cut into words below 2^64 / 3
(one word up to W(E7): 41 bits for W(E6), 58 for W(E7)).  Three times a
word is linear in the seeds' images, so it is a sum of one table lookup
per seed, mod 2^64.  The words sort lexicographically as the elements do,
and two elements get the same words exactly when they are equal, so a
repeated element shows as two equal adjacent keys.  Row 0 itself is
summed from the images only when the matrices are built, or when its
bounds pass 32767 and its range must be checked.

*Traces.*  tr g = tr(Q h^T Q) = tr h = h(H)_0 + h(E1)_1 + ... + h(EN)_N,
so 3 tr g is one more sum of one lookup per seed.  No matrix is built.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate
from operator import mul
from typing import List, NamedTuple

import numpy as np

from .errors import InvariantViolation, LimitExceeded
from .weyl import _MAX_ENTRY, _RANGE_MESSAGE, _images

# Each word is a digit string below this, so three times it fits 64 bits.
_WORD = (1 << 64) // 3
# Elements per block of table lookups, which bounds the temporary arrays.
_BLOCK = 1 << 14


class Rows(NamedTuple):
    """A group's elements in row-major order, as the rows they are read from.

    Column r of ``images`` holds element r's seed images, as indices into
    ``points``, and ``trace[r]`` is its trace.  ``largest`` is the largest
    entry of a point in absolute value.
    """
    images: np.ndarray
    points: np.ndarray
    largest: int
    trace: np.ndarray


def sorted_rows(dim: int, transversals: List[dict], points: bytes,
                moves_k: bool, largest: int) -> Rows:
    """The elements of ``generate_group``'s chain, in row-major order.

    The seeds are E1..EN, then H when K moves.  Column r of the image
    array is the seeds sent through one u1 u2 ... uk; uk acts first, so
    the levels are applied last to first, each as a small unsigned index
    array.  Every point is in 16-bit range already (``largest`` is their
    largest entry in absolute value), so only row 0 is checked: an entry
    above 32767 in absolute value raises LimitExceeded.  Row 0 is read,
    and checked, here only when its bounds pass 32767, and otherwise by
    ``elements``.  ``points`` are the points' keys from ``weyl._orbits``,
    joined.
    """
    pts = np.frombuffer(points, "<i8").reshape(-1, dim)
    seeds = dim if moves_k else dim - 1
    index = np.min_scalar_type(len(pts) - 1)
    images = np.arange(seeds, dtype=index)
    for trans in reversed(transversals):
        table = np.array(_images(trans, len(pts)), index)
        images = table.T.take(images, axis=0)
    images = images.reshape(seeds, -1)
    qpts = -pts
    qpts[:, 0] = pts[:, 0]
    # When K moves, H is the last seed and 3 Q h(H) is 3 times its image.
    # Otherwise 3 H = E1 + ... + EN - K, and 3 Q h(H) is the sum of the
    # seeds' Q h(E_j) plus qb = -Q K.  The seeds' images are distinct.
    col = np.sort(qpts, axis=0)
    if moves_k:
        qb, low, high = [0] * dim, 3 * col[0], 3 * col[-1]
    else:
        qb = [3] + [1] * (dim - 1)
        low, high = col[:seeds].sum(0), col[-seeds:].sum(0)
    # bounds of the entries of row 0
    lo = [-(-(v + b) // 3) for v, b in zip(low.tolist(), qb)]
    hi = [(v + b) // 3 for v, b in zip(high.tolist(), qb)]
    words = _words([h - v + 1 for h, v in zip(hi, lo)] +
                   [len(pts)] * (dim - 1))
    sums = _lookup_sum(_tables(qpts, words, qb, lo, seeds, moves_k), images)
    order = sums[0].argsort() if len(words) == 1 else \
        np.lexsort(sums[len(words) - 1::-1])
    sums = sums.take(order, axis=1)
    fresh = sums[0, 1:] != sums[0, :-1]
    for key in sums[1:-1]:
        fresh |= key[1:] != key[:-1]
    if not fresh.all():  # pragma: no cover
        raise InvariantViolation("closure bookkeeping mismatch")
    trace = sums[-1].view(np.int64)
    trace //= 3
    rows = Rows(images.take(order, axis=1), pts, largest, trace)
    if max(hi + [-v for v in lo]) > _MAX_ENTRY:
        _first(rows)
    return rows


def _tables(qpts: np.ndarray, words: list, qb: list, lo: list, seeds: int,
            moves_k: bool) -> np.ndarray:
    """tab[w, j, p] is seed j's term at point p of 3 times word w, and
    tab[-1, j, p] its term of 3 tr g, all mod 2^64, the constant terms
    going with seed 0.

    A row-0 digit is (3 (Q h(H))_k - 3 lo_k) / 3, and 3 tr g = 3 h(H)_0 +
    3 (h(E1)_1 + ... + h(EN)_N).  Rows i >= 1 enter through the ranks of
    the rows -Q p, which are in the reverse of the order of the Q p.
    """
    dim = qpts.shape[1]
    uq = qpts.astype(np.uint64)
    tab = np.empty((len(words) + 1, seeds, len(qpts)), np.uint64)
    if moves_k:
        np.subtract(0, 3 * uq[:, 1:].T, out=tab[-1, :-1])
        np.multiply(uq[:, 0], 3, out=tab[-1, -1])
    else:
        np.subtract(uq[:, 0], 3 * uq[:, 1:].T, out=tab[-1])
        tab[-1, 0] += 3
    rank = np.empty(len(qpts), np.uint64)
    rank[np.lexsort(qpts.T[::-1])[::-1]] = np.arange(0, 3 * len(qpts), 3,
                                                     dtype=np.uint64)
    offset = [b - 3 * v for b, v in zip(qb, lo)]
    for w, weights in enumerate(words):
        heads = weights[:dim]
        np.multiply(np.array(weights[dim:] + [0] * (seeds - dim + 1),
                             np.uint64)[:, None], rank, out=tab[w])
        terms = uq.dot(np.array(heads, np.uint64))
        if moves_k:  # only H's image enters h(H)
            tab[w, -1] += 3 * terms
        else:
            tab[w] += terms
        tab[w, 0] += sum(map(mul, offset, heads)) % (1 << 64)
    return tab


def _words(radices: list) -> list:
    """Cut a digit string with these radices, most significant first, into
    words below ``_WORD``; give each word as every digit's weight in it,
    0 for the digits of other words.  The cuts are made from the least
    significant digit up, as long a run as fits each time."""
    words, stop = [], len(radices)
    while stop:
        # sizes[i] is the product of the last i + 1 radices up to ``stop``
        sizes = list(accumulate(radices[stop - 1::-1], mul))
        start = stop - bisect(sizes, _WORD)
        weights = [0] * len(radices)
        weights[start:stop] = [*sizes[:stop - start - 1][::-1], 1]
        words.append(weights)
        stop = start
    return words[::-1]


def _lookup_sum(tab: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Entry (c, r) of the result is the sum over j of
    tab[c, j, images[j, r]]."""
    flat = tab.reshape(len(tab), -1)
    offsets = np.arange(0, flat.shape[1], tab.shape[2])[:, None]
    sums = [flat.take(images[:, at:at + _BLOCK] + offsets, axis=1).sum(1)
            for at in range(0, images.shape[1], _BLOCK)]
    return sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1)


def _first(rows: Rows) -> np.ndarray:
    """Row 0 of every element, in the element dtype: int8 when every entry
    fits, int16 otherwise.

    Raises LimitExceeded when an entry is above 32767 in absolute value.
    When K is fixed, each block of elements sums one ``take`` of the
    points per seed: one 3-D ``take`` of all seeds at once took twice as
    long on W(E7).
    """
    images, pts, largest, _ = rows
    dim = pts.shape[1]
    # Q p; exact: N entries below 2^15 in absolute value sum below 2^31
    qpts = pts.astype(np.int32)
    qpts[:, 1:] *= -1
    if len(images) == dim:  # K moves: H is the last seed
        first = qpts.take(images[-1], axis=0)
    else:  # K = -3 H + E1 + ... + EN is fixed
        first = np.empty((images.shape[1], dim), np.int32)
        qk = np.array((-3,) + (-1,) * (dim - 1), np.int32)  # Q K
        for at in range(0, len(first), _BLOCK):
            block = qpts.take(images[0, at:at + _BLOCK], axis=0)
            for seed in images[1:, at:at + _BLOCK]:
                block += qpts.take(seed, axis=0)
            block -= qk
            if (block % 3).any():  # pragma: no cover - K is fixed
                raise InvariantViolation("image of H is not integral")
            np.floor_divide(block, 3, out=first[at:at + _BLOCK])
    largest = max(-int(first.min()), int(first.max()), largest)
    if largest > _MAX_ENTRY:
        raise LimitExceeded(_RANGE_MESSAGE)
    return first.astype(np.int8 if largest <= 127 else np.int16)


def elements(rows: Rows) -> np.ndarray:
    """The (order, dim, dim) element array, in row-major order."""
    first = _first(rows)
    images, pts = rows[:2]
    dim = pts.shape[1]
    out = np.empty((len(first), dim, dim), first.dtype)
    out[:, 0] = first
    table = pts.astype(first.dtype)
    table[:, 0] *= -1
    for at in range(0, len(out), _BLOCK):
        out[at:at + _BLOCK, 1:] = table[images[:dim - 1, at:at + _BLOCK].T]
    return out
