"""Truncated basis enumeration for the two Hilbert spaces of the lab.

``L2`` is the Peter-Weyl space: orthonormal vectors e^{(n)}_{ij} with spin
n = 0, 1/2, 1, ... and weights i, j in {-n, ..., n} (integer steps).

``Double`` is the doubled spinor space: two bands per level,

    up:   j in {-n-1/2, ..., n+1/2}   -> (2n+1)(2n+2) vectors,
    down: j in {-n+1/2, ..., n-1/2}   -> (2n+1)(2n)   vectors (empty at n=0),

so level n holds 2(2n+1)^2 vectors and the doubled space is two copies of L2.

Truncation keeps levels n <= n_max.  Operators silently drop components that
would leave the truncated space; quantitative assertions are made only on
``interior`` vectors, where no such loss can occur.

A space holds its labels as integer arrays, one entry per ordinal: twice
the level ``tn``, twice the weights ``ti`` and ``tj``, and ``band`` (0 up,
1 down) on Double or ``copy`` (0 or 1) on L2+L2.  Operators are assembled
by evaluating their coefficients over these arrays, and
:meth:`TruncatedSpace.ordinals` finds target ordinals by arithmetic: level
tn starts at tn(tn+1)(2tn+1)/6 in L2 and at tn(tn+1)(2tn+1)/3 in Double;
within a level the up band precedes the down band, then i, then j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qnum import HalfInt, half


class L2Index(NamedTuple):
    n: HalfInt
    i: HalfInt
    j: HalfInt


class DoubleIndex(NamedTuple):
    band: str  # "up" or "down"
    n: HalfInt
    i: HalfInt
    j: HalfInt


class SumIndex(NamedTuple):
    """Label in a direct sum of two copies of L2 (copy is 0 or 1)."""

    copy: int
    label: L2Index


_BANDS = ("up", "down")


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TruncatedSpace:
    kind: str
    n_max: HalfInt
    tn: np.ndarray = field(repr=False)
    ti: np.ndarray = field(repr=False)
    tj: np.ndarray = field(repr=False)
    band: np.ndarray | None = field(default=None, repr=False)  # Double
    copy: np.ndarray | None = field(default=None, repr=False)  # L2+L2

    @property
    def dim(self) -> int:
        return len(self.tn)

    @property
    def signature(self):
        return (self.kind, self.n_max.twice, self.dim)

    @cached_property
    def levels(self) -> dict:
        """twice-n -> ascending ordinals of that level."""
        order = _frozen(np.argsort(self.tn, kind="stable"))
        sizes = np.bincount(self.tn).tolist()
        ends = np.cumsum(sizes).tolist()
        return {tn: order[end - size:end]
                for tn, (end, size) in enumerate(zip(ends, sizes))}

    @cached_property
    def basis(self) -> tuple:
        """The labels as named tuples, in ordinal order.

        A readable view for inspection and tests; assembly reads the arrays.
        """
        labels = [L2Index(HalfInt(n), HalfInt(i), HalfInt(j)) for n, i, j in
                  zip(self.tn.tolist(), self.ti.tolist(), self.tj.tolist())]
        if self.band is not None:
            return tuple(DoubleIndex(_BANDS[b], *lab)
                         for b, lab in zip(self.band.tolist(), labels))
        if self.copy is not None:
            return tuple(SumIndex(c, lab)
                         for c, lab in zip(self.copy.tolist(), labels))
        return tuple(labels)

    @cached_property
    def sector(self) -> np.ndarray:
        """Weight sector of each ordinal: the rank of its (ti, tj)."""
        t = self.n_max.twice + 1  # bounds |ti| and |tj|
        key = (self.ti + t) * (2 * t + 1) + self.tj + t
        return _frozen((np.cumsum(np.bincount(key) > 0) - 1)[key])

    def ordinals(self, tn, ti, tj, band=None, copy=None) -> np.ndarray:
        """Ordinals of the labels (tn, ti, tj), -1 where a label is absent.

        Arguments are twice-valued integers or integer arrays, broadcast
        together; Double spaces also need ``band`` and L2+L2 spaces ``copy``.
        """
        tn, ti, tj = (np.asarray(x, dtype=np.int64) for x in (tn, ti, tj))
        if self.kind == "Double":
            band = np.asarray(band, dtype=np.int64)
            h = tn + 1 - 2 * band  # j runs over -h..h: n+1/2 up, n-1/2 down
            start = (tn * (tn + 1) * (2 * tn + 1) // 3
                     + band * (tn + 1) * (tn + 2))
        else:
            h = tn
            start = tn * (tn + 1) * (2 * tn + 1) // 6
        ok = ((tn >= 0) & (tn <= self.n_max.twice)
              & (np.abs(ti) <= tn) & ((ti - tn) % 2 == 0)
              & (np.abs(tj) <= h) & ((tj - h) % 2 == 0))
        k = start + (ti + tn) // 2 * (h + 1) + (tj + h) // 2
        if self.kind == "L2+L2":
            k = k + np.asarray(copy, dtype=np.int64) * (self.dim // 2)
        return np.where(ok, k, -1)

    def ordinal(self, label) -> int:
        """Ordinal of one label: an L2Index, DoubleIndex or SumIndex."""
        copy = band = None
        if isinstance(label, SumIndex):
            copy, label = label.copy, label.label
        if isinstance(label, DoubleIndex):
            band = _BANDS.index(label.band)
        if (self.kind == "Double") != (band is not None) \
                or (self.kind == "L2+L2") != (copy is not None):
            raise KeyError(label)
        k = int(self.ordinals(label.n.twice, label.i.twice, label.j.twice,
                              band=band, copy=copy))
        if k < 0:
            raise KeyError(label)
        return k

    def level_ordinals(self, n) -> np.ndarray:
        tn = half(n).twice
        if tn not in self.levels:
            raise ValueError(f"level {half(n)} absent from {self.kind} space "
                             f"truncated at n_max={self.n_max}")
        return self.levels[tn]


def enumerate_space(kind: str, n_max) -> TruncatedSpace:
    """Enumerate the truncated basis of kind "L2" or "Double".

    The total order is canonical (sorted by n, then band, then i, then j)
    so that assembled matrices are reproducible bit-for-bit across runs.
    """
    n_max = half(n_max)
    if n_max.twice < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if kind not in ("L2", "Double"):
        raise ValueError(f"unknown space kind {kind!r} "
                         "(expected 'L2' or 'Double')")
    levels = np.arange(n_max.twice + 1)
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


def direct_sum(a: TruncatedSpace, b: TruncatedSpace) -> TruncatedSpace:
    """Direct sum of two L2 truncations (the domain of the unitary U)."""
    if a.kind != "L2" or b.kind != "L2" or a.n_max != b.n_max:
        raise ValueError("direct_sum expects two L2 spaces with equal n_max")
    return TruncatedSpace(
        "L2+L2", a.n_max, *(_frozen(np.concatenate([x, y])) for x, y in
                            ((a.tn, b.tn), (a.ti, b.ti), (a.tj, b.tj))),
        copy=_frozen(np.repeat([0, 1], [a.dim, b.dim])))


def interior(space: TruncatedSpace, margin) -> np.ndarray:
    """Ordinals of basis vectors with n <= n_max - margin.

    A generator word of length L moves the level by at most L/2, so on
    interior(margin=L/2) vectors no truncation loss can occur; the subset is
    closed under (i, j) -> (-i, -j) since membership depends on n only.
    """
    tm = half(margin).twice
    if tm < 0:
        raise ValueError("margin must be >= 0")
    return np.flatnonzero(space.tn <= space.n_max.twice - tm)
