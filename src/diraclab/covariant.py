"""Minimality via cyclicity of the ground vector.

The doubled representation is minimal iff the invariant-mean projection has
rank one, which on the truncations reduces to a checkable statement: the
span of words of length <= L in the generators, applied to the seed vector,
exhausts the n <= L/2 subspace.  ``cyclic_dimension`` decides it by an
exact certificate first and by breadth-first Gram-Schmidt when the
certificate does not apply.

The certificate.  Each hatted generator shifts (i, j) by a fixed amount
(alpha by (-1/2, -1/2), beta by (+1/2, -1/2), the adjoints the other way)
and moves the level by +-1/2, so it maps a basis vector e_y to at most one
vector one level up, g[x, y] e_x, plus one vector one level down.  Write
V_d for the span at depth d.  If V_{d-1} is every level <= (d-1)/2, then
g e_y for y at twice-level d - 1 puts e_x in V_d, its down part already
lying in V_{d-1}; and V_d lies in the levels <= d/2.  So, by induction
from the seed e^{(0)}_{00}, V_d is exactly the levels <= d/2 when every
label at twice-level 1..d receives a nonzero up entry from some
generator, and the report is a count of labels: no tolerance is read.
For the hatted pair it holds at every q >= 1e-15; below that,
``linop.PRUNE_TOL`` deletes real coefficients and the certificate fails.

The fallback serves a space other than L2, a vector seed, a seed off
level 0, a generator with several weight shifts or with an entry at
another level offset, and a label that no nonzero up entry reaches.  It is
Gram-Schmidt with the absolute tolerance ``gram_tol``, the only reader of
that tolerance.  Only the directions new at depth d
need their generator images examined at depth d+1, since images of older
directions already lie in the current span.  The frame splits by torus
weight: a generator with one weight shift maps each weight sector into one
sector (:func:`_kernels.sector_map`, as for the norms; a diagonal Dirac
operator shifts by (0, 0)), so a frame is kept per sector in sector-local
coordinates (at most floor(n_max) + 1 vectors, one per level holding that
weight).  Candidates are batched per depth: one ``np.bincount`` over the
generators' entries forms every image, and round r orthogonalises the r-th
candidate of every target sector against its frame at once, so that each
candidate sees exactly the directions accepted before it in the sequential
order (frontier vector, then generator).  When some generator is not
graded, or the seed spans several sectors, all ordinals form one sector.

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


def cyclic_dimension(generators, seed, depth: int,
                     gram_tol: float = GRAM_TOL) -> CyclicityReport:
    """Dimension of span{(words of length <= depth in generators) seed}.

    generators: square SparseOps on a common space.  seed: either an ordinal
    into that space's basis or an explicit vector.  Requires
    depth/2 <= n_max, so that the target subspace exists in the truncation.
    The report comes from the certificate (:func:`_certificate`) when it
    holds; otherwise from the Gram-Schmidt, where a candidate image whose
    component orthogonal to the current span falls below gram_tol is
    discarded and counted.
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
        if not 0 <= seed < space.dim:
            raise ValueError(f"cyclic_dimension: seed ordinal {seed} lies "
                             f"outside [0, {space.dim})")
        report = _certificate(gens, int(seed), depth, gram_tol)
        if report is not None:
            return report
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
    n_sec = sector.max() + 1
    pos, size = _positions(sector, n_sec)
    width = size.max()
    # the generators' entries in sector-local coordinates, ordered by key
    # (generator i, source sector s); to[i * n_sec + s]: the target of s
    key, lrow, lcol, val = [np.concatenate(x) for x in zip(*[
        (i * n_sec + sector[g.cols], pos[g.rows], pos[g.cols], g.vals)
        for i, g in enumerate(gens)])]
    order = np.argsort(key, kind="stable")
    lrow, lcol, val = lrow[order], lcol[order], val[order]
    count = np.bincount(key, minlength=len(gens) * n_sec)
    start, to = np.cumsum(count) - count, np.concatenate(maps)
    # the frame of sector s: rows :k[s] of frames[size[s]][slot[s]]
    slot, n_of_size = _positions(size, width + 1)
    frames = {m: np.zeros((n, m, m)) for m, n in enumerate(n_of_size) if n}
    k = np.zeros(n_sec, dtype=np.int64)

    def admit(img, t):
        # sequential Gram-Schmidt of img's rows into the frames of targets t;
        # round r takes every target's r-th row, batched by sector size
        turn = _positions(t, n_sec)[0] * (width + 1) + size[t]
        order = np.argsort(turn, kind="stable")
        ok = np.zeros(len(t), dtype=bool)
        groups = np.split(order, np.flatnonzero(np.diff(turn[order])) + 1)
        for c in groups if len(t) else ():
            m, tc = size[t[c[0]]], t[c]
            Q, w = frames[m][slot[tc], :k[tc].max()], img[c, :m]
            for _ in range(2):
                w = w - (w[:, None] @ Q.transpose(0, 2, 1) @ Q)[:, 0]
            nw = np.linalg.norm(w, axis=1)
            new = (nw > gram_tol) & (k[tc] < m)  # a full frame takes no more
            c, tc, w = c[new], tc[new], w[new] / nw[new, None]
            frames[m][slot[tc], k[tc]] = w
            k[tc] += 1
            img[c, :m] = w  # accepted rows, normalised: the next frontier
            ok[c] = True
        return ok

    front, fsec = np.bincount(pos, v0, width)[None], sector[v0 != 0][:1]
    discarded, history = 0, [int(admit(front, fsec).sum())]
    for _ in range(depth):
        # candidates in sequential order: frontier vector, then generator;
        # a generator that annihilates the source sector is discarded unseen
        f, i = np.divmod(np.arange(len(fsec) * len(gens)), len(gens))
        cand = i * n_sec + fsec[f]
        live = to[cand] >= 0
        f, cand = f[live], cand[live]
        n = count[cand]
        owner = np.repeat(np.arange(len(cand)), n)  # each entry's candidate
        e = np.arange(n.sum()) + np.repeat(start[cand] - np.cumsum(n) + n, n)
        img = np.bincount(owner * width + lrow[e],
                          val[e] * front[f[owner], lcol[e]],
                          minlength=len(cand) * width).reshape(-1, width)
        ok = admit(img, to[cand])
        front, fsec = img[ok], to[cand[ok]]
        discarded += len(live) - len(fsec)
        history.append(history[-1] + len(fsec))

    target = sum(len(space.levels[tn]) for tn in space.levels if tn <= depth)
    saturated = history[-1] == target
    deficiency = ()
    if not saturated:
        # sector frames have disjoint supports, so the rank of the frame's
        # level-n rows is the sum of the per-sector ranks; the (sector,
        # level) blocks are ranked in one batch per block shape (a frame's
        # rows past k[s] are zero and add no rank)
        rows = np.split(np.argsort(sector, kind="stable"),
                        np.cumsum(size)[:-1])
        blocks = {}  # block shape -> [(twice-level, block)]
        for s in np.flatnonzero(k):
            frame = frames[size[s]][slot[s]].T
            level = space.tn[rows[s]]
            for tn in np.unique(level[level <= depth]):
                block = frame[level == tn]
                blocks.setdefault(block.shape, []).append((tn, block))
        rank = np.zeros(depth + 1, dtype=np.int64)
        for tns, stack in (zip(*batch) for batch in blocks.values()):
            np.add.at(rank, list(tns),
                      np.linalg.matrix_rank(np.stack(stack), tol=gram_tol))
        deficiency = tuple((tn, int(len(space.levels[tn]) - rank[tn]))
                           for tn in sorted(space.levels)
                           if tn <= depth and len(space.levels[tn]) > rank[tn])
    return CyclicityReport(depth, history[-1], target, saturated, gram_tol,
                           discarded, tuple(history), deficiency)


def _certificate(gens, seed, depth, gram_tol):
    """The report of a span the structure decides exactly, or None.

    It holds on L2 with the seed at level 0 when every generator has one
    weight shift, every entry moves the level by +-1/2, and every label at
    twice-level t in 1..depth receives a nonzero entry from twice-level
    t - 1.  Then depth d adds the labels(d) labels at twice-level d, and
    its frontier, one vector per label at twice-level d - 1, has
    labels(d - 1) x (number of generators) candidates; every candidate
    that adds no direction is discarded, as in the Gram-Schmidt.
    """
    space = gens[0].dom
    tn, ti, tj = space.tn, space.ti, space.tj
    # on L2, (n, i, j) fixes a label: one up target per entry's source, and
    # level 0 is the seed alone
    if space.kind != "L2" or tn[seed] != 0:
        return None
    reached = np.zeros(space.dim, dtype=bool)
    for g in gens:
        dn, di, dj = (t[g.rows] - t[g.cols] for t in (tn, ti, tj))
        if np.any(np.abs(dn) != 1) or np.any(di != di[:1]) \
                or np.any(dj != dj[:1]):
            return None
        reached[g.rows[(dn == 1) & (g.vals != 0)]] = True
    if not reached[(tn > 0) & (tn <= depth)].all():
        return None
    labels = np.bincount(tn, minlength=depth + 1)[:depth + 1]
    history = tuple(np.cumsum(labels).tolist())
    discarded = int((labels[:-1] * len(gens) - labels[1:]).sum())
    return CyclicityReport(depth, history[-1], history[-1], True, gram_tol,
                           discarded, history, ())
