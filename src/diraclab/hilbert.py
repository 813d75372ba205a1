"""Truncated basis enumeration for the two Hilbert spaces of the lab.

``L2`` is the Peter-Weyl space: orthonormal vectors e^{(n)}_{ij} with spin
n = 0, 1/2, 1, ... and weights i, j in {-n, ..., n} (integer steps).

``Double`` is the doubled spinor space: two bands per level,

    up:   j in {-n-1/2, ..., n+1/2}   -> (2n+1)(2n+2) vectors,
    down: j in {-n+1/2, ..., n-1/2}   -> (2n+1)(2n)   vectors (empty at n=0),

so level n holds 2(2n+1)^2 vectors and the doubled space is two copies of L2
(the unitary ``decomp.build_U`` maps L2 (+) L2 onto it as a map of ordinals).
L2 is the one-band case of the same layout, its one band the up band with
j in {-n, ..., n}: the kinds differ only in :data:`BANDS`, the one table of
kinds, which gives the bands per level.

Truncation keeps levels n <= n_max, and n_max is held as twice its value,
an int, like every label.  Operators silently drop components that
would leave the truncated space; quantitative assertions are made only on
``interior`` vectors, where no such loss can occur.

A space holds its labels as integer arrays, one entry per ordinal: twice
the level ``tn``, twice the weights ``ti`` and ``tj``, and ``band`` (0 up,
1 down; 0 throughout on L2).  Operators are assembled by evaluating their
coefficients over these arrays, and :meth:`TruncatedSpace.ordinals` finds
target ordinals by arithmetic.  With b bands per level, band ``band`` of
twice-level tn runs j over -h..h with h = tn + (b - 1)(1 - 2 band);
twice-level tn starts at :meth:`TruncatedSpace.start`, b tn(tn+1)(2tn+1)/6;
within a level the up band precedes the down band, which starts
(tn+1)(tn+2) labels in, then i, then j.  Level ranges and interiors are
ranges of ordinals from the same form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qnum import label_text

#: Bands per level of each space kind.
BANDS = {"L2": 1, "Double": 2}


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TruncatedSpace:
    """The truncated basis of kind ``kind``, a key of :data:`BANDS`, as
    frozen int label arrays, one entry per ordinal; ``band`` is 0
    throughout on L2 and 0 (up) or 1 (down) on Double."""

    kind: str
    n_max: int  # twice the top level
    tn: np.ndarray = field(repr=False)
    ti: np.ndarray = field(repr=False)
    tj: np.ndarray = field(repr=False)
    band: np.ndarray = field(repr=False)  # 0 up, 1 down

    @property
    def dim(self) -> int:
        return len(self.tn)

    @property
    def signature(self):
        return (self.kind, self.n_max, self.dim)

    def start(self, tn):
        """Ordinal of the first label at twice-level tn (array or int):
        b tn(tn+1)(2tn+1)/6 with b bands per level, the count of labels on
        the levels below."""
        return BANDS[self.kind] * tn * (tn + 1) * (2 * tn + 1) // 6

    @cached_property
    def sector(self) -> np.ndarray:
        """Weight sector of each ordinal: the rank of its (ti, tj)."""
        t = self.n_max + 1  # bounds |ti| and |tj|
        key = (self.ti + t) * (2 * t + 1) + self.tj + t
        return _frozen((np.cumsum(np.bincount(key) > 0) - 1)[key])

    def ordinals(self, tn, ti, tj, band=0) -> np.ndarray:
        """Ordinals of the labels (tn, ti, tj, band), -1 where a label is
        absent, a band outside 0..b-1 included.

        Arguments are twice-valued integers or integer arrays, broadcast
        together.
        """
        tn, ti, tj, band = (np.asarray(x, dtype=np.int64)
                            for x in (tn, ti, tj, band))
        b = BANDS[self.kind]
        h = tn + (b - 1) * (1 - 2 * band)  # j runs over -h..h
        ok = ((tn >= 0) & (tn <= self.n_max) & (band >= 0) & (band < b)
              & (np.abs(ti) <= tn) & ((ti - tn) % 2 == 0)
              & (np.abs(tj) <= h) & ((tj - h) % 2 == 0))
        k = (self.start(tn) + band * (tn + 1) * (tn + 2)
             + (ti + tn) // 2 * (h + 1) + (tj + h) // 2)
        return np.where(ok, k, -1)

    def level_ordinals(self, tn) -> np.ndarray:
        """Ascending ordinals of twice-level tn: one range, from ``start``."""
        if check_count(tn, "level") > self.n_max:
            raise ValueError(f"level {label_text(tn)} absent from {self.kind} "
                             "space truncated at "
                             f"n_max={label_text(self.n_max)}")
        return np.arange(self.start(tn), self.start(tn + 1))


def check_count(value, name: str) -> int:
    """value as an int >= 0: the rule of every count (n_max, a level, a
    margin, a depth, the k of the Dirac family).  A float is no count, nor
    is a bool, though Python counts ``True`` as the int 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 0:
        raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    return int(value)


def check_kind(space: TruncatedSpace, kind: str) -> TruncatedSpace:
    """space, if its kind is ``kind`` (a key of :data:`BANDS`)."""
    if space.kind != kind:
        raise ValueError(f"expected a space of kind {kind!r}, got "
                         f"{space.kind!r}")
    return space


def enumerate_space(kind: str, n_max: int) -> TruncatedSpace:
    """Enumerate the truncated basis of kind "L2" or "Double" (a key of
    :data:`BANDS`) up to twice-level n_max, an int
    (``enumerate_space("L2", 3)`` stops at n = 3/2).

    The total order is canonical (sorted by n, then band, then i, then j)
    so that assembled matrices are reproducible bit-for-bit across runs.
    """
    n_max = check_count(n_max, "n_max")
    if kind not in BANDS:
        raise ValueError(f"unknown space kind {kind!r} (expected "
                         f"{' or '.join(map(repr, BANDS))})")
    b = BANDS[kind]
    levels = np.arange(n_max + 1)
    size = b * (levels + 1) ** 2
    tn = np.repeat(levels, size)
    r = np.arange(len(tn)) - (np.cumsum(size) - size)[tn]  # place in level
    up = (tn + 1) * (tn + 2)  # past an L2 level's (tn+1)^2 labels
    band = (r >= up).astype(np.int64)
    r -= band * up
    h = tn + (b - 1) * (1 - 2 * band)  # j runs over -h..h
    ti = 2 * (r // (h + 1)) - tn
    tj = 2 * (r % (h + 1)) - h
    return TruncatedSpace(kind, n_max, *map(_frozen, (tn, ti, tj, band)))


def interior(space: TruncatedSpace, margin) -> np.ndarray:
    """Ordinals of basis vectors with twice-level tn <= n_max - margin: the
    levels are in order, so these are the ordinals below ``start`` of the
    next level.

    The margin is twice-valued, like every count (2 is one whole level, 1
    a half).  A generator word of length L moves the level by at most L/2,
    so on interior(L) vectors no truncation loss can occur; the subset is
    closed under (i, j) -> (-i, -j) since membership depends on n only.
    """
    margin = check_count(margin, "margin")
    return np.arange(space.start(max(space.n_max - margin + 1, 0)))
