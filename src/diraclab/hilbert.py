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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class TruncatedSpace:
    kind: str
    n_max: HalfInt
    basis: tuple
    lookup: dict = field(repr=False)
    levels: dict = field(repr=False)  # twice-n -> ndarray of ordinals

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def signature(self):
        return (self.kind, self.n_max.twice, self.dim)

    def ordinal(self, label) -> int:
        return self.lookup[label]

    def level_ordinals(self, n) -> np.ndarray:
        tn = half(n).twice
        if tn not in self.levels:
            raise ValueError(f"level {half(n)} absent from {self.kind} space "
                             f"truncated at n_max={self.n_max}")
        return self.levels[tn]


def _l2_labels(tnmax):
    for tn in range(tnmax + 1):
        for ti in range(-tn, tn + 1, 2):
            for tj in range(-tn, tn + 1, 2):
                yield L2Index(HalfInt(tn), HalfInt(ti), HalfInt(tj))


def _double_labels(tnmax):
    # canonical order: level, then band (up before down), then i, then j
    for tn in range(tnmax + 1):
        for ti in range(-tn, tn + 1, 2):
            for tj in range(-tn - 1, tn + 2, 2):
                yield DoubleIndex("up", HalfInt(tn), HalfInt(ti), HalfInt(tj))
        for ti in range(-tn, tn + 1, 2):
            for tj in range(-tn + 1, tn, 2):
                yield DoubleIndex("down", HalfInt(tn), HalfInt(ti), HalfInt(tj))


def _build(kind, n_max, labels):
    basis = tuple(labels)
    lookup = {b: k for k, b in enumerate(basis)}
    levels: dict[int, list] = {}
    for k, b in enumerate(basis):
        tn = (b.n if not isinstance(b, SumIndex) else b.label.n).twice
        levels.setdefault(tn, []).append(k)
    levels = {tn: np.asarray(v, dtype=np.int64) for tn, v in levels.items()}
    return TruncatedSpace(kind, n_max, basis, lookup, levels)


def enumerate_space(kind: str, n_max) -> TruncatedSpace:
    """Enumerate the truncated basis of kind "L2" or "Double".

    The total order is canonical (sorted by n, then band, then i, then j)
    so that assembled matrices are reproducible bit-for-bit across runs.
    """
    n_max = half(n_max)
    if n_max.twice < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if kind == "L2":
        return _build(kind, n_max, _l2_labels(n_max.twice))
    if kind == "Double":
        return _build(kind, n_max, _double_labels(n_max.twice))
    raise ValueError(f"unknown space kind {kind!r} (expected 'L2' or 'Double')")


def direct_sum(a: TruncatedSpace, b: TruncatedSpace) -> TruncatedSpace:
    """Direct sum of two L2 truncations (the domain of the unitary U)."""
    if a.kind != "L2" or b.kind != "L2" or a.n_max != b.n_max:
        raise ValueError("direct_sum expects two L2 spaces with equal n_max")
    labels = [SumIndex(0, lab) for lab in a.basis] + [SumIndex(1, lab) for lab in b.basis]
    return _build("L2+L2", a.n_max, labels)


def interior(space: TruncatedSpace, margin) -> np.ndarray:
    """Ordinals of basis vectors with n <= n_max - margin.

    A generator word of length L moves the level by at most L/2, so on
    interior(margin=L/2) vectors no truncation loss can occur; the subset is
    closed under (i, j) -> (-i, -j) since membership depends on n only.
    """
    tm = half(margin).twice
    if tm < 0:
        raise ValueError("margin must be >= 0")
    cut = space.n_max.twice - tm
    keep = [tn for tn in sorted(space.levels) if tn <= cut]
    if not keep:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([space.levels[tn] for tn in keep])
