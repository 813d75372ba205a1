"""Weight-sector grading and the exact operator norm built on it.

Every operator the suites measure shifts the weights (i, j) by a fixed
amount, so it maps each weight sector (``TruncatedSpace.sector``) into one
other sector.  :func:`sector_map` decides this grading for the norm below
and for the Gram-Schmidt frames of ``covariant``.  A graded operator splits
into (target x source sector) blocks at most floor(n_max) + 1 square, so a
dense SVD of each is exact and cheap; an ungraded one is one block.  The
norm reads an operator as its entry arrays (row, column, value) and fills
all of its blocks in one pass, then decomposes only the blocks whose Schur
bound reaches the norm of the block of largest bound.
"""

import numpy as np

BOUND_SLACK = 1e-9  #: relative room for rounding between bound and norm
#: Nothing in the package is compiled.  The benchmark binds this name
#: (``perfbench/run.py`` records it), so it stays.
USE_JIT = False


def power_iteration(*args, **kwargs):
    """Not a norm routine.  The benchmark binds this name
    (``perfbench/tracer.py`` wraps it), so it stays; use :func:`spectral_norm`.
    """
    raise NotImplementedError("use spectral_norm")


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


def spectral_norm(row, col, data, row_sector, col_sector) -> float:
    """Largest singular value of the sparse matrix with entries
    ``data[k]`` at ``(row[k], col[k])``, exact up to rounding.

    The largest dense 2-norm over the (target x source) blocks of the row
    and column sectors, or of one block if the matrix is not graded, each
    cut to the rows and columns holding an entry.  One ``np.bincount``
    fills every block, blocks of one shape side by side, so each shape is
    one batched norm.  Duplicate entries are summed.  Blocks whose Schur bound
    is below the norm of the block of largest bound are skipped; LAPACK takes
    each matrix of a batch alone, so the result is that of decomposing all.
    """
    if len(data) == 0:
        return 0.0
    comp = col_sector[col]  # block of each entry: its source sector
    if sector_map(comp, row_sector[row], int(comp.max()) + 1) is None:
        comp = np.zeros(len(data), dtype=np.int64)
    ns = int(comp.max()) + 1  # the label of rows and columns without entry
    rlab, clab = np.full(len(row_sector), ns), np.full(len(col_sector), ns)
    rlab[row] = comp
    clab[col] = comp
    rpos, nrows = _positions(rlab, ns + 1)
    cpos, ncols = _positions(clab, ns + 1)
    held = np.flatnonzero(np.bincount(comp))
    held = held[np.lexsort((ncols[held], nrows[held]))]  # grouped by shape
    area = nrows[held] * ncols[held]
    start = np.zeros(ns, dtype=np.int64)
    start[held] = np.cumsum(area) - area
    flat = np.bincount(start[comp] + rpos[row] * ncols[comp] + cpos[col],
                       weights=data, minlength=int(area.sum()))
    # one batch per shape, from its first block to the next shape's first
    first = held[np.flatnonzero(np.diff(nrows[held], prepend=-1)
                                | np.diff(ncols[held], prepend=-1))]
    batches = [b.reshape(-1, nrows[s], ncols[s])
               for s, b in zip(first, np.split(flat, start[first[1:]]))]
    with np.errstate(all="ignore"):  # an overflowing bound keeps its block
        bound = np.concatenate([schur_bounds(b) for b in batches])
    top = int(np.argmax(bound))  # a NaN bound first: its SVD raises
    s = held[top]
    norms = [np.linalg.norm(flat[start[s]:start[s] + area[top]].reshape(
        1, nrows[s], ncols[s]), 2, axis=(1, 2))]
    keep = ~(bound * (1 + BOUND_SLACK) < norms[0])  # a NaN norm keeps all
    keep[top] = False
    ends = np.cumsum(list(map(len, batches)))[:-1]
    norms += [np.linalg.norm(b[k], 2, axis=(1, 2))
              for b, k in zip(batches, np.split(keep, ends)) if k.any()]
    return max(float(n.max()) for n in norms)
