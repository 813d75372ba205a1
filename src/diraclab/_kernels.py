"""The operator-norm kernel: exact spectral norms of sparse matrices.

Rows and columns that share no nonzero entry, directly or through a chain of
entries, form independent blocks, and the norm of the matrix is the largest
norm over those blocks.  Every operator the suites measure shifts the level
by one half and the torus weights by a fixed amount, so its blocks are tiny
and a dense SVD of each is both exact and cheap.
"""

import numpy as np

#: Nothing in the package is compiled.  The benchmark binds this name
#: (``perfbench/run.py`` records it), so it stays.
USE_JIT = False


def power_iteration(*args, **kwargs):
    """Not a norm routine.  The benchmark binds this name
    (``perfbench/tracer.py`` wraps it), so it stays; use :func:`spectral_norm`.
    """
    raise NotImplementedError("use spectral_norm")


def component_labels(n_nodes, a, b) -> np.ndarray:
    """Connected-component label of each node of an undirected graph.

    The edges are ``a[k] -- b[k]``.  A node's label is the smallest node of
    its component.  Min-label propagation along the edges, with pointer
    jumping, until no label changes.
    """
    lab = np.arange(n_nodes)
    while True:
        new = lab.copy()
        low = np.minimum(lab[a], lab[b])
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _positions(lab, n_labels):
    """(index of each node within its component, size of each component)."""
    size = np.bincount(lab, minlength=n_labels)
    order = np.argsort(lab, kind="stable")
    start = np.cumsum(size) - size
    pos = np.empty_like(order)
    pos[order] = np.arange(len(lab)) - start[lab[order]]
    return pos, size


def spectral_norm(mat) -> float:
    """Largest singular value of a scipy sparse matrix, exact up to rounding.

    The dense 2-norm of each connected block of the row/column sparsity
    graph; blocks of one shape are stacked and their norms taken in one
    batched call.  Duplicate entries are summed.
    """
    coo = mat.tocoo()
    if coo.nnz == 0:
        return 0.0
    m, n = coo.shape
    label = component_labels(m + n, coo.row, m + coo.col)
    rpos, nrows = _positions(label[:m], m + n)
    cpos, ncols = _positions(label[m:], m + n)
    comp = label[coo.row]
    held = np.unique(comp)
    best = 0.0
    for nr, nc in set(zip(nrows[held].tolist(), ncols[held].tolist())):
        members = held[(nrows[held] == nr) & (ncols[held] == nc)]
        slot = np.full(m + n, -1)
        slot[members] = np.arange(len(members))
        sel = slot[comp] >= 0
        blocks = np.zeros((len(members), nr, nc))
        np.add.at(blocks, (slot[comp[sel]], rpos[coo.row[sel]],
                           cpos[coo.col[sel]]), coo.data[sel])
        best = max(best, float(np.linalg.norm(blocks, 2, axis=(1, 2)).max()))
    return best
