"""Minimality via cyclicity of the ground vector.

The doubled representation is minimal iff the invariant-mean projection has
rank one, which on the truncations reduces to a checkable statement: the
span of words of length <= L in the generators, applied to the ground
vector e_0 = e^{(0)}_{00}, exhausts the n <= L/2 subspace.
``cyclic_dimension`` decides it by an exact certificate, a count of labels
that reads no tolerance.

The certificate.  Each hatted generator shifts (i, j) by a fixed amount
(alpha by (-1/2, -1/2), beta by (+1/2, -1/2), the adjoints the other way)
and moves the level by +-1/2, so it maps a basis vector e_y to at most one
vector one level up, g[x, y] e_x, plus one vector one level down.  Write
V_d for the span at depth d.  If V_{d-1} is every level <= (d-1)/2, then
g e_y for y at twice-level d - 1 puts e_x in V_d, its down part already
lying in V_{d-1}; and V_d lies in the levels <= d/2.  So, by induction
from e_0, V_d is exactly the levels <= d/2 when every label at twice-level
1..d receives a nonzero up entry from some generator.

For the hatted pair that holds at every q in (0, 1), since assembly keeps
every nonzero coefficient: (N, -N, -N) receives q^1 from alpha, (N, I, -N)
with I > -N receives (1 - q^{2N+2I})^{1/2} from beta, (N, -N, J) with
J > -N the same kind of factor from beta*, and every other label a
nonzero entry from alpha*.  Where the structure does not decide the span
(a space other than L2, a generator that is not a +-1/2 band operator with
one weight shift, or a label that receives no nonzero up entry),
``cyclic_dimension`` raises ValueError and names the cause.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hilbert import check_count, check_kind
from .linop import SpaceMismatchError
from .qnum import label_text


class CyclicityReport(NamedTuple):
    depth: int
    reached: int        # dimension of the span of the words applied to e_0
    target: int         # dim of the n <= depth/2 subspace
    saturated: bool     # reached == target
    discarded: int      # candidate images that added no new direction
    history: tuple      # reached dimension after each depth 0..depth


def cyclic_dimension(generators, depth: int) -> CyclicityReport:
    """Dimension of span{(words of length <= depth in generators) e_0}.

    generators: square SparseOps on a common L2 space.  Requires
    depth/2 <= n_max, so that the target subspace exists in the truncation.
    Depth d adds the labels(d) labels at twice-level d, and its frontier,
    one vector per label at twice-level d - 1, has labels(d - 1) x (number
    of generators) candidate images, and each image that adds no new
    direction counts as discarded.
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
    depth = check_count(depth, "depth")
    if depth > space.n_max:
        raise ValueError(
            f"cyclic_dimension: depth {depth} reaches level "
            f"{label_text(depth)}, "
            f"beyond the truncation n_max = {label_text(space.n_max)}")
    # on L2, (n, i, j) fixes a label: one up target per entry's source, and
    # level 0 is e_0 alone
    check_kind(space, "L2")
    tn, ti, tj = space.tn, space.ti, space.tj
    reached = np.zeros(space.dim, dtype=bool)
    for k, g in enumerate(gens):
        dn, di, dj = (t[g.rows] - t[g.cols] for t in (tn, ti, tj))
        if np.any(np.abs(dn) != 1) or np.any(di != di[:1]) \
                or np.any(dj != dj[:1]):
            raise ValueError(
                f"cyclic_dimension: generator {k} is not a +-1/2 band "
                "operator with one weight shift")
        reached[g.rows[(dn == 1) & (g.vals != 0)]] = True
    missing = np.flatnonzero(~reached & (tn > 0) & (tn <= depth))
    if len(missing):
        n, i, j = (label_text(t[missing[0]]) for t in (tn, ti, tj))
        raise ValueError(f"cyclic_dimension: label (n, i, j) = ({n}, {i}, "
                         f"{j}) receives no nonzero up entry")
    labels = np.bincount(tn, minlength=depth + 1)[:depth + 1]
    history = tuple(np.cumsum(labels).tolist())
    discarded = int((labels[:-1] * len(gens) - labels[1:]).sum())
    return CyclicityReport(depth, history[-1], history[-1], True, discarded,
                           history)
