"""Weight-sector grading and the exact operator norms built on it.

Every operator the suites measure shifts the weights (i, j) by a fixed
amount, so it maps each weight sector (``TruncatedSpace.sector``) into one
other sector (:func:`sector_map`).  A graded operator splits into (target x
source sector) blocks at most floor(n_max) + 1 square, so a dense SVD of
each is exact and cheap; an ungraded one is one block.  :func:`spectral_norms`
fills the blocks of every row group (the levels, or all rows as one) in one
pass and decomposes only those whose Schur bound reaches the norm of their
group's block of largest bound.
"""

import numpy as np

BOUND_SLACK = 1e-9  #: relative room for rounding between bound and norm
#: Nothing in the package is compiled.  The benchmark binds this name
#: (``perfbench/run.py`` records it), so it stays.
USE_JIT = False


def power_iteration(*args, **kwargs):
    """Not a norm routine.  The benchmark binds this name
    (``perfbench/tracer.py`` wraps it), so it stays.
    """
    raise NotImplementedError("use spectral_norms")


def sector_map(src, dst, n_src):
    """Target sector of each source sector, or None unless one-to-one.

    ``src[k]``, ``dst[k]``: source and target sector of an operator's k-th
    entry.  ``to[s]`` is the one sector the entries leaving sector s land
    in (-1 if none leave s); None if a source sector reaches two targets
    or a target is reached from two sources.
    """
    to = np.full(n_src, -1)
    to[src] = dst
    held = to[to >= 0]
    if not np.array_equal(to[src], dst) or len(np.unique(held)) < len(held):
        return None
    return to


def _positions(lab, n_labels):
    """(index of each node among the nodes of its label, count per label)."""
    size = np.bincount(lab, minlength=n_labels)
    order = np.argsort(lab, kind="stable")
    start = np.cumsum(size) - size
    pos = np.empty_like(order)
    pos[order] = np.arange(len(lab)) - start[lab[order]]
    return pos, size


def schur_bounds(a):
    """sqrt(max row sum x max column sum) of |A| per A of a batch: >= |A|_2."""
    a = np.abs(a)
    return np.sqrt(a.sum(2).max(1)) * np.sqrt(a.sum(1).max(1))


def _places(blk, idx, n_idx, n_blocks):
    """(place of each entry's index among its block's, count per block)."""
    lab = np.full(n_idx, n_blocks)
    lab[idx] = blk
    if not np.array_equal(lab[idx], blk):  # a column in several groups
        pair, idx = np.unique(blk * n_idx + idx, return_inverse=True)
        lab = pair // n_idx
    pos, size = _positions(lab, n_blocks + 1)
    return pos[idx], size[:n_blocks]


def spectral_norms(row, col, data, row_sector, col_sector, row_group,
                   n_groups) -> np.ndarray:
    """Largest singular value of each row group (``row_group[r]`` in
    0..n_groups-1) of the matrix with entries ``data[k]`` at ``(row[k],
    col[k])``, exact up to rounding; 0.0 for a group without entries.

    The largest dense 2-norm over the group's (target x source sector)
    blocks, or of one block if its entries are not graded, each cut to its
    rows and columns.  One ``np.bincount`` fills every block (duplicates are
    summed), one batch per shape.  Blocks whose Schur bound is below the
    norm of their group's block of largest bound are skipped; LAPACK takes
    each matrix of a batch alone, so the result is that of decomposing all.
    """
    out = np.zeros(n_groups)
    if len(data) == 0:
        return out
    grp, src = row_group[row], col_sector[col]
    n_src = int(src.max()) + 1
    # a block per group and source sector, or one for a group in which a
    # source sector reaches two targets or two reach one
    comp = grp * n_src + src
    dst = grp * (int(row_sector.max()) + 1) + row_sector[row]
    to = np.full(n_groups * n_src, -1)
    to[comp] = dst
    clash = (to[comp] != dst) | (np.bincount(to[to >= 0]) > 1)[to[comp]]
    comp = np.where(np.isin(grp, grp[clash]), grp * n_src, comp)
    present = np.bincount(comp, minlength=n_groups * n_src) > 0
    blk = (np.cumsum(present) - 1)[comp]
    group = np.flatnonzero(present) // n_src  # of each block
    nb = len(group)
    rpos, nrows = _places(blk, row, len(row_sector), nb)
    cpos, ncols = _places(blk, col, len(col_sector), nb)
    order = np.lexsort((ncols, nrows))  # blocks grouped by shape
    area = nrows[order] * ncols[order]
    start = (np.cumsum(area) - area)[np.argsort(order)]
    flat = np.bincount(start[blk] + rpos * ncols[blk] + cpos, weights=data,
                       minlength=int(area.sum()))
    # one batch per shape: its blocks and their matrices
    cut = np.flatnonzero(np.diff(nrows[order]) | np.diff(ncols[order])) + 1
    batches = [(k, b.reshape(len(k), nrows[k[0]], ncols[k[0]])) for k, b in
               zip(np.split(order, cut), np.split(flat, start[order[cut]]))]
    norm, bound = np.zeros(nb), np.empty(nb)

    def decompose(take):
        for k, b in batches:
            if take[k].any():
                norm[k[take[k]]] = np.linalg.norm(b[take[k]], 2, axis=(1, 2))

    with np.errstate(all="ignore"):  # an overflowing bound keeps its block
        bound[order] = np.concatenate([schur_bounds(b) for _, b in batches])
        # each group's top block, a NaN bound first (its SVD raises), then
        # the largest bound; its norm is the group's lower bound
        by = np.lexsort((np.where(np.isnan(bound), -np.inf, -bound), group))
        top = np.isin(np.arange(nb), by[np.diff(group[by], prepend=-1) > 0])
        decompose(top)
        out[group[top]] = norm[top]
        # a NaN lower bound keeps every block of its group
        decompose(~top & ~(bound * (1 + BOUND_SLACK) < out[group]))
        np.maximum.at(out, group, norm)
    return out
