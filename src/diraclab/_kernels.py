"""Weight-sector grading and the exact operator norms built on it.

Every operator the suites measure shifts the weights (i, j) by a fixed
amount, so it maps each weight sector (``TruncatedSpace.sector``) into one
other sector.  A graded operator splits into (target x source sector)
blocks at most floor(n_max) + 1 square, so a dense SVD of each is exact and
cheap; an ungraded one is one block.  :func:`spectral_norms` checks the
grading per row group (the levels, or all rows as one), bounds every block
of every row group from its entries (:func:`schur_bounds`), and fills and
decomposes only the blocks whose bound reaches the norm of their group's
block of largest bound.
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


def _places(blk, idx, n_idx, n_blocks):
    """(place of each entry's index among its block's, count per block)."""
    lab = np.full(n_idx, n_blocks)  # the block of each index, or n_blocks
    lab[idx] = blk
    if not np.array_equal(lab[idx], blk):  # a column in several groups
        pair, idx = np.unique(blk * n_idx + idx, return_inverse=True)
        lab = pair // n_idx
    size = np.bincount(lab, minlength=n_blocks + 1)
    order = np.argsort(lab, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(len(lab)) - (np.cumsum(size) - size)[lab[order]]
    return pos[idx], size[:n_blocks]


def schur_bounds(blk, rpos, cpos, data, nrows, ncols):
    """sqrt(max row sum x max column sum) of |data| per block: at least the
    2-norm of each block, whose entry k is ``data[k]`` at place ``(rpos[k],
    cpos[k])`` of block ``blk[k]`` (duplicates summed, as the sums of their
    absolute values bound |sum x| <= sum |x|).  Every block holds an entry.
    A NaN entry makes its block's bound NaN, an inf one inf.
    """
    rstart, cstart = np.cumsum(nrows) - nrows, np.cumsum(ncols) - ncols
    a = np.abs(data)
    rsum = np.bincount(rstart[blk] + rpos, a, minlength=int(nrows.sum()))
    csum = np.bincount(cstart[blk] + cpos, a, minlength=int(ncols.sum()))
    return (np.sqrt(np.maximum.reduceat(rsum, rstart))
            * np.sqrt(np.maximum.reduceat(csum, cstart)))


def spectral_norms(row, col, data, row_sector, col_sector, row_group,
                   n_groups) -> np.ndarray:
    """Largest singular value of each row group (``row_group[r]`` in
    0..n_groups-1) of the matrix with entries ``data[k]`` at ``(row[k],
    col[k])``, exact up to rounding; 0.0 for a group without entries.

    The largest dense 2-norm over the group's (target x source sector)
    blocks, or of one block if its entries are not graded, each cut to its
    rows and columns.  Each block's Schur bound comes from its entries
    (:func:`schur_bounds`).  Each group's block of largest bound is filled
    and decomposed first; its norm is a lower bound of the group's, and of
    the other blocks only those whose bound reaches it are filled and
    decomposed.  A fill is one ``np.bincount`` (duplicates summed in input
    order) with the blocks of one shape side by side, one batch per shape;
    LAPACK takes each matrix of a batch alone, so the result is that of
    decomposing all.
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
    norm = np.zeros(nb)

    def decompose(take):
        """Fill the blocks ``take`` and set their norms."""
        k = np.flatnonzero(take)
        if len(k) == 0:
            return
        k = k[np.lexsort((ncols[k], nrows[k]))]  # grouped by shape
        area = nrows[k] * ncols[k]
        start = np.cumsum(area) - area
        offset = np.zeros(nb, np.int64)
        offset[k] = start
        e = np.flatnonzero(take[blk])  # the entries of those blocks
        b = blk[e]
        flat = np.bincount(offset[b] + rpos[e] * ncols[b] + cpos[e],
                           weights=data[e], minlength=int(area.sum()))
        cut = np.flatnonzero(np.diff(nrows[k]) | np.diff(ncols[k])) + 1
        for kk, f in zip(np.split(k, cut), np.split(flat, start[cut])):
            norm[kk] = np.linalg.norm(
                f.reshape(len(kk), nrows[kk[0]], ncols[kk[0]]), 2, axis=(1, 2))

    with np.errstate(all="ignore"):  # an overflowing bound keeps its block
        bound = schur_bounds(blk, rpos, cpos, data, nrows, ncols)
        # each group's top block, a NaN bound first (its SVD raises), then
        # the largest bound; its norm is the group's lower bound
        by = np.lexsort((np.where(np.isnan(bound), -np.inf, -bound), group))
        top = np.zeros(nb, bool)
        top[by[np.diff(group[by], prepend=-1) > 0]] = True
        decompose(top)
        out[group[top]] = norm[top]
        # a NaN lower bound keeps every block of its group
        decompose(~top & ~(bound * (1 + BOUND_SLACK) < out[group]))
        np.maximum.at(out, group, norm)
    return out
