"""Truncated basis enumeration for the two Hilbert spaces of the lab.

``L2`` is the Peter-Weyl space: orthonormal vectors e^{(n)}_{ij} with spin
n = 0, 1/2, 1, ... and weights i, j in {-n, ..., n} (integer steps).

``Double`` is the doubled spinor space: two bands per level,

    up:   j in {-n-1/2, ..., n+1/2}   -> (2n+1)(2n+2) vectors,
    down: j in {-n+1/2, ..., n-1/2}   -> (2n+1)(2n)   vectors (empty at n=0),

so level n holds 2(2n+1)^2 vectors and the doubled space is two copies of L2
(the unitary ``decomp.build_U`` maps L2 (+) L2 onto it as a map of ordinals).

Truncation keeps levels n <= n_max, and n_max is held as twice its value,
an int, like every label.  Operators silently drop components that
would leave the truncated space; quantitative assertions are made only on
``interior`` vectors, where no such loss can occur.

A space holds its labels as integer arrays, one entry per ordinal: twice
the level ``tn``, twice the weights ``ti`` and ``tj``, and ``band`` (0 up,
1 down) on Double.  Operators are assembled by evaluating their
coefficients over these arrays, and :meth:`TruncatedSpace.ordinals` finds
target ordinals by arithmetic: twice-level tn starts at
:meth:`TruncatedSpace.start`, tn(tn+1)(2tn+1)/6 in L2 and tn(tn+1)(2tn+1)/3
in Double; within a level the up band precedes the down band, then i, then
j.  Level ranges and interiors are ranges of ordinals from the same form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qnum import label_text, twice


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TruncatedSpace:
    kind: str
    n_max: int  # twice the top level
    tn: np.ndarray = field(repr=False)
    ti: np.ndarray = field(repr=False)
    tj: np.ndarray = field(repr=False)
    band: np.ndarray | None = field(default=None, repr=False)  # Double

    @property
    def dim(self) -> int:
        return len(self.tn)

    @property
    def signature(self):
        return (self.kind, self.n_max, self.dim)

    def start(self, tn):
        """Ordinal of the first label at twice-level tn (array or int):
        tn(tn+1)(2tn+1)/6 on L2 and /3 on Double, the count of labels on
        the levels below."""
        return tn * (tn + 1) * (2 * tn + 1) // (3 if self.kind == "Double"
                                                else 6)

    @cached_property
    def sector(self) -> np.ndarray:
        """Weight sector of each ordinal: the rank of its (ti, tj)."""
        t = self.n_max + 1  # bounds |ti| and |tj|
        key = (self.ti + t) * (2 * t + 1) + self.tj + t
        return _frozen((np.cumsum(np.bincount(key) > 0) - 1)[key])

    def ordinals(self, tn, ti, tj, band=None) -> np.ndarray:
        """Ordinals of the labels (tn, ti, tj), -1 where a label is absent.

        Arguments are twice-valued integers or integer arrays, broadcast
        together; Double spaces also need ``band``.
        """
        tn, ti, tj = (np.asarray(x, dtype=np.int64) for x in (tn, ti, tj))
        if self.kind == "Double":
            band = np.asarray(band, dtype=np.int64)
            h = tn + 1 - 2 * band  # j runs over -h..h: n+1/2 up, n-1/2 down
            start = self.start(tn) + band * (tn + 1) * (tn + 2)
        else:
            h = tn
            start = self.start(tn)
        ok = ((tn >= 0) & (tn <= self.n_max)
              & (np.abs(ti) <= tn) & ((ti - tn) % 2 == 0)
              & (np.abs(tj) <= h) & ((tj - h) % 2 == 0))
        k = start + (ti + tn) // 2 * (h + 1) + (tj + h) // 2
        return np.where(ok, k, -1)

    def level_ordinals(self, tn) -> np.ndarray:
        """Ascending ordinals of twice-level tn: one range, from ``start``."""
        if not 0 <= tn <= self.n_max:
            raise ValueError(f"level {label_text(tn)} absent from {self.kind} "
                             "space truncated at "
                             f"n_max={label_text(self.n_max)}")
        return np.arange(self.start(tn), self.start(tn + 1))


def check_n_max(n_max) -> int:
    """n_max as an int: twice the top level, >= 0.  A float is no n_max,
    nor is a bool, though Python counts ``True`` as the int 1."""
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ValueError("n_max is twice the top level and must be an "
                         f"int, got {n_max!r}")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {label_text(n_max)}")
    return n_max


def enumerate_space(kind: str, n_max: int) -> TruncatedSpace:
    """Enumerate the truncated basis of kind "L2" or "Double" up to
    twice-level n_max, an int (``enumerate_space("L2", 3)`` stops at n = 3/2).

    The total order is canonical (sorted by n, then band, then i, then j)
    so that assembled matrices are reproducible bit-for-bit across runs.
    """
    n_max = check_n_max(n_max)
    if kind not in ("L2", "Double"):
        raise ValueError(f"unknown space kind {kind!r} "
                         "(expected 'L2' or 'Double')")
    levels = np.arange(n_max + 1)
    size = (levels + 1) ** 2 * (2 if kind == "Double" else 1)
    tn = np.repeat(levels, size)
    r = np.arange(len(tn)) - (np.cumsum(size) - size)[tn]  # place in level
    band = None
    h = tn  # j runs over -h..h
    if kind == "Double":
        up = (tn + 1) * (tn + 2)
        band = (r >= up).astype(np.int64)
        r = r - band * up
        h = tn + 1 - 2 * band
    ti = 2 * (r // (h + 1)) - tn
    tj = 2 * (r % (h + 1)) - h
    return TruncatedSpace(kind, n_max, _frozen(tn), _frozen(ti), _frozen(tj),
                          band=None if band is None else _frozen(band))


def interior(space: TruncatedSpace, margin) -> np.ndarray:
    """Ordinals of basis vectors with n <= n_max - margin: the levels are
    in order, so these are the ordinals below ``start`` of the next level.

    The margin is a distance in units of n, not a label (1 is one whole
    level, 0.5 a half).  A generator word of length L moves the level by
    at most L/2, so on interior(margin=L/2) vectors no truncation loss can
    occur; the subset is closed under (i, j) -> (-i, -j) since membership
    depends on n only.
    """
    tm = int(twice(margin))
    if tm < 0:
        raise ValueError("margin must be >= 0")
    return np.arange(space.start(max(space.n_max - tm + 1, 0)))
