"""Minimality via cyclicity of the ground vector.

The doubled representation is minimal iff the invariant-mean projection has
rank one, which on the truncations reduces to a checkable statement: the
span of words of length <= L in the generators, applied to the seed vector,
exhausts the n <= L/2 subspace.  ``cyclic_dimension`` measures that span by
breadth-first Gram-Schmidt: only the directions new at depth d need their
generator images examined at depth d+1, since images of older directions
already lie in the current span.

The frame splits by torus weight.  Each hatted generator shifts (i, j) by a
fixed amount (alpha by (-1/2, -1/2), beta by (+1/2, -1/2), the adjoints the
other way, a diagonal Dirac operator by (0, 0)), so it maps each weight
sector into one sector (:func:`_kernels.sector_map`, as for the norms), and
the seed e^{(0)}_{00} lies in sector (0, 0).  Sectors are orthogonal, so a
frame is kept per sector in sector-local coordinates (at most
floor(n_max) + 1 vectors, one per level holding that weight), and each
generator is restricted once to dense (target x source sector) blocks: a
candidate image is one small matrix-vector product.  When some generator is
not graded, or the seed spans several sectors, all ordinals form one sector.

Saturation is an empirical observation, not a theorem asserted by the code:
when a run falls short, the report carries the per-level shortfall instead
of raising.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._kernels import _positions, sector_map
from .linop import SpaceMismatchError

GRAM_TOL = 1e-8


class CyclicityReport(NamedTuple):
    depth: int
    reached: int        # orthonormal directions found
    target: int         # dim of the n <= depth/2 subspace
    saturated: bool     # reached == target
    gram_tol: float
    discarded: int      # candidate images that added no new direction
    history: tuple      # reached dimension after each depth 0..depth
    deficiency: tuple   # (twice-level, missing dims) pairs; () when saturated


class _Frame:
    """Growing orthonormal frame with twice-reorthogonalized insertion."""

    def __init__(self, dim: int, tol: float):
        self.buf = np.zeros((dim, 16))
        self.k = 0
        self.tol = tol

    def try_add(self, w: np.ndarray) -> bool:
        Q = self.buf[:, :self.k]
        for _ in range(2):
            w = w - Q @ (Q.T @ w)
        nw = np.linalg.norm(w)
        if nw <= self.tol:
            return False
        if self.k == self.buf.shape[1]:
            self.buf = np.concatenate(
                [self.buf, np.zeros_like(self.buf)], axis=1)
        self.buf[:, self.k] = w / nw
        self.k += 1
        return True

    def matrix(self) -> np.ndarray:
        return self.buf[:, :self.k]


def cyclic_dimension(generators, seed, depth: int,
                     gram_tol: float = GRAM_TOL) -> CyclicityReport:
    """Dimension of span{(words of length <= depth in generators) seed}.

    generators: square SparseOps on a common space.  seed: either an ordinal
    into that space's basis or an explicit vector.  Requires
    depth/2 <= n_max, so that the target subspace exists in the truncation;
    a candidate image whose component orthogonal to the current span falls
    below gram_tol is discarded and counted.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("cyclic_dimension: need at least one generator")
    space = gens[0].dom
    for g in gens:
        if g.dom.signature != space.signature \
                or g.cod.signature != space.signature:
            raise SpaceMismatchError(
                "cyclic_dimension: generators must be square operators on "
                f"one space; got {g.dom.signature} -> {g.cod.signature} "
                f"alongside {space.signature}")
    depth = int(depth)
    if depth < 0:
        raise ValueError("cyclic_dimension: depth must be >= 0")
    if depth > space.n_max.twice:
        raise ValueError(
            f"cyclic_dimension: depth {depth} reaches level {depth / 2}, "
            f"beyond the truncation n_max = {space.n_max}")

    if isinstance(seed, (int, np.integer)):
        v0 = np.zeros(space.dim)
        v0[int(seed)] = 1.0
    else:
        v0 = np.asarray(seed, dtype=float).copy()
        if v0.shape != (space.dim,):
            raise ValueError(f"cyclic_dimension: seed has shape {v0.shape}, "
                             f"expected ({space.dim},)")
        nv = np.linalg.norm(v0)
        if nv == 0.0:
            raise ValueError("cyclic_dimension: zero seed vector")
        v0 /= nv

    for sector in (space.sector, np.zeros(space.dim, dtype=np.int64)):
        maps = [sector_map(sector[g.cols], sector[g.rows], sector.max() + 1)
                for g in gens]
        if all(to is not None for to in maps) \
                and len(np.unique(sector[v0 != 0])) == 1:
            break
    pos, size = _positions(sector, sector.max() + 1)
    rows = np.split(np.argsort(sector, kind="stable"), np.cumsum(size)[:-1])
    frames = [_Frame(n, gram_tol) for n in size.tolist()]
    blocks = [_sector_blocks(g, to, sector, pos, size)
              for g, to in zip(gens, maps)]

    s0 = sector[np.flatnonzero(v0)[0]]
    frames[s0].try_add(v0[rows[s0]])
    frontier = [(s0, v0[rows[s0]])]
    reached = 1
    discarded = 0
    history = [reached]
    for _ in range(depth):
        fresh = []
        for s, vs in frontier:
            for gen in blocks:
                t, B = gen.get(s, (-1, None))
                if t >= 0 and frames[t].try_add(B @ vs):
                    fresh.append((t, frames[t].matrix()[:, -1].copy()))
                    reached += 1
                else:
                    discarded += 1
        frontier = fresh
        history.append(reached)

    target = sum(len(space.levels[tn]) for tn in space.levels if tn <= depth)
    saturated = reached == target
    deficiency = ()
    if not saturated:
        # sector frames have disjoint supports, so the rank of the frame's
        # level-n rows is the sum of the per-sector ranks
        rank = dict.fromkeys(space.levels, 0)
        for r, frame in zip(rows, frames):
            if not frame.k:
                continue
            level = space.tn[r]
            for tn in np.unique(level[level <= depth]):
                rank[tn] += np.linalg.matrix_rank(
                    frame.matrix()[level == tn], tol=gram_tol)
        deficiency = tuple((tn, int(len(space.levels[tn]) - rank[tn]))
                           for tn in sorted(space.levels)
                           if tn <= depth and len(space.levels[tn]) > rank[tn])
    return CyclicityReport(depth, reached, target, saturated, gram_tol,
                           discarded, tuple(history), deficiency)


def _sector_blocks(g, to, sector, pos, size) -> dict:
    """Source sector s -> (to[s], dense block from s to to[s]) for each s the
    generator does not annihilate; pos: index of each ordinal in its sector."""
    area = np.where(to >= 0, size[to] * size, 0)
    end = np.cumsum(area)
    s = sector[g.cols]
    flat = np.bincount(end[s] - area[s] + pos[g.rows] * size[s]
                       + pos[g.cols], weights=g.vals, minlength=end[-1])
    return {s: (t, b.reshape(size[t], size[s])) for s, (t, b) in
            enumerate(zip(to.tolist(), np.split(flat, end[:-1]))) if t >= 0}
