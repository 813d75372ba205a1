"""The tilde displays of the spinorial representation, as test oracles.

The package assembles pi'(alpha*) and pi'(beta) from the displayed 2x2
matrices a+-, b+- and takes pi'(alpha) and pi'(beta*) as their adjoints.
The paper displays those two through the transposed matrices

    pi'(alpha)  v^n_{ij} = ta+_{nij} v^{n+1/2}_{i-1/2, j-1/2} + ta-_{nij} v^{n-1/2}_{i-1/2, j-1/2}
    pi'(-beta*) v^n_{ij} = tb+_{nij} v^{n+1/2}_{i-1/2, j+1/2} + tb-_{nij} v^{n-1/2}_{i-1/2, j+1/2}

This module keeps those leaves and their array assembly, so the adjoints
can be checked against the displays entry for entry.
"""

import numpy as np

from diraclab.linop import SparseOp
from diraclab.qnum import twice
from diraclab.rep_double import _halves, a_minus, a_plus, b_minus, b_plus


def valid_v_label(n, i, j):
    """Whether (n, i, j) is a valid spinor-pair label: i in {-n..n},
    j in {-n-1/2..n+1/2} (integer steps in both).  Broadcasts over arrays."""
    tn, ti, tj = twice(n), twice(i), twice(j)
    return ((tn >= 0) & (np.abs(ti) <= tn) & ((ti - tn) % 2 == 0)
            & (np.abs(tj) <= tn + 1) & ((tj - tn - 1) % 2 == 0))


def tilde_coeffs(kind: str, sign: int, n, i, j, q: float) -> np.ndarray:
    """Hermitian conjugates of the displayed matrices:

        ta+-_{nij} = (a-+_{n +- 1/2, i-1/2, j-1/2})*
        tb+-_{nij} = (b-+_{n +- 1/2, i-1/2, j+1/2})*

    (real entries, so conjugate-transpose = transpose).  A referenced label
    outside the valid range yields the zero matrix.
    """
    if kind not in ("a", "b") or sign not in (+1, -1):
        raise ValueError(f"tilde_coeffs: bad kind/sign {kind!r}/{sign!r}")
    n, i, j = _halves(n, i, j)
    if kind == "a":
        ref = (n + sign / 2, i - 0.5, j - 0.5)
        base = a_minus if sign > 0 else a_plus
    else:
        ref = (n + sign / 2, i - 0.5, j + 0.5)
        base = b_minus if sign > 0 else b_plus
    valid = valid_v_label(*ref)
    return np.where(valid[..., None, None], np.swapaxes(base(*ref, q), -1, -2),
                    0.0)


#: gen: (tilde kind, (di, dj) target shift, overall sign)
TILDE_MOVES = {"alpha": ("a", (-1, -1), +1.0), "beta*": ("b", (-1, +1), -1.0)}


def pi_prime_tilde(gen: str, space, q: float) -> SparseOp:
    """pi'(alpha) or pi'(beta*) assembled from the tilde displays in one
    numpy pass over the label arrays of a Double space."""
    kind, (di, dj), sgn = TILDE_MOVES[gen]
    labels = (space.tn / 2.0, space.ti / 2.0, space.tj / 2.0)
    col = np.arange(space.dim)
    rows, cols, vals = [], [], []
    for dn in (+1, -1):
        M = tilde_coeffs(kind, dn, *labels, q)
        for tb in (0, 1):
            row = space.ordinals(space.tn + dn, space.ti + di, space.tj + dj,
                                 band=tb)
            hit = row >= 0
            rows.append(row[hit])
            cols.append(col[hit])
            vals.append(sgn * M[col[hit], tb, space.band[hit]])
    return SparseOp.from_coo(space, space, np.concatenate(rows),
                             np.concatenate(cols), np.concatenate(vals))
