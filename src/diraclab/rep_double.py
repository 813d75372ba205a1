"""Spinorial representation on the doubled space, and the isospectral D.

Every level-n vector pair is written as a coefficient column
v^n_{ij} = (u^n_{ij}, d^n_{ij})^T, with the convention d^n_{ij} = 0 for
j = +-(n+1/2).  The four generator images are assembled from 2x2 coefficient
matrices:

    pi'(alpha*) v^n_{ij} = a+_{nij} v^{n+1/2}_{i+1/2, j+1/2} + a-_{nij} v^{n-1/2}_{i+1/2, j+1/2}
    pi'(-beta)  v^n_{ij} = b+_{nij} v^{n+1/2}_{i+1/2, j-1/2} + b-_{nij} v^{n-1/2}_{i+1/2, j-1/2}
    pi'(alpha)  v^n_{ij} = ta+_{nij} v^{n+1/2}_{i-1/2, j-1/2} + ta-_{nij} v^{n-1/2}_{i-1/2, j-1/2}
    pi'(-beta*) v^n_{ij} = tb+_{nij} v^{n+1/2}_{i-1/2, j+1/2} + tb-_{nij} v^{n-1/2}_{i-1/2, j+1/2}

(the beta displays carry the minus sign, so pi'(beta) and pi'(beta*) negate
them).  The matrices act on the coefficient column: rows address the target
band, columns the source band, i.e. the entry routed into band t from band s
of the source is M[t, s].  Any coefficient matrix referenced at labels
outside the valid range is the zero matrix, mirroring the d-vector
convention.

Transcription of the four displays is isolated in one leaf function per
matrix below — it is the highest-risk step of the whole build, and each leaf
is pinned against independent evaluation oracles in the tests.  The leaves
broadcast: given arrays of labels they return one 2x2 matrix per label (in
the last two axes), so a generator is assembled in one numpy pass over the
label arrays of the space.  Overflow of q^{-m} at tiny q raises
OverflowError, for an array of labels as for one (see :data:`_silent`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .hilbert import TruncatedSpace
from .linop import SparseOp
from .qnum import q_number, q_power, twice, validate_q
from .rep_l2 import _sqrt0


#: Float semantics of the leaves over arrays, as for Python floats: every
#: label-dependent power is taken by :func:`qnum.q_power`, which raises
#: OverflowError; a product that overflows is inf, silently.  Division by
#: zero and invalid operations occur only where a prefactor vanishes (see
#: :func:`_matrix`) or at the invalid labels :func:`tilde_coeffs` masks; a
#: nan that escaped those masks would show as a non-finite operator entry.
_silent = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _halves(n, i, j):
    """Label values as float arrays; raises ValueError off the half-integers."""
    return (twice(x) / 2.0 for x in (n, i, j))


def _matrix(pref, uu, ud, du, dd) -> np.ndarray:
    """pref * [[uu, ud], [du, dd]] in the last two axes.

    The zero matrix wherever the prefactor vanishes: there the other factors
    may be singular (the [2n] denominators of a- and b- at n = 0).
    """
    shape = np.broadcast_shapes(*map(np.shape, (pref, uu, ud, du, dd)))
    M = np.empty(shape + (2, 2))
    M[..., 0, 0] = pref * uu
    M[..., 0, 1] = pref * ud
    M[..., 1, 0] = pref * du
    M[..., 1, 1] = pref * dd
    M[np.broadcast_to(np.asarray(pref) == 0.0, shape)] = 0.0
    return M


@_silent
def a_plus(n, i, j, q: float) -> np.ndarray:
    """2x2 coefficient matrix a+_{nij}.

        q^{(i+j-1/2)/2} [n+i+1]^{1/2} *
            [ q^{-n-1/2} [n+j+3/2]^{1/2} / [2n+2]        0                              ]
            [ q^{1/2} [n-j+1/2]^{1/2} / ([2n+1][2n+2])   q^{-n} [n+j+1/2]^{1/2} / [2n+1] ]
    """
    q = validate_q(q)
    n, i, j = _halves(n, i, j)
    qn = lambda m: q_number(m, q)
    pref = q_power((i + j - 0.5) / 2.0, q) * _sqrt0(qn(n + i + 1))
    uu = q_power(-n - 0.5, q) * _sqrt0(qn(n + j + 1.5)) / qn(2 * n + 2)
    du = q ** 0.5 * _sqrt0(qn(n - j + 0.5)) / (qn(2 * n + 1) * qn(2 * n + 2))
    dd = q_power(-n, q) * _sqrt0(qn(n + j + 0.5)) / qn(2 * n + 1)
    return _matrix(pref, uu, 0.0, du, dd)


@_silent
def a_minus(n, i, j, q: float) -> np.ndarray:
    """2x2 coefficient matrix a-_{nij}.

        q^{(i+j-1/2)/2} [n-i]^{1/2} *
            [ q^{n+1} [n-j+1/2]^{1/2} / [2n+1]   -q^{1/2} [n+j+1/2]^{1/2} / ([2n][2n+1]) ]
            [ 0                                   q^{n+1/2} [n-j-1/2]^{1/2} / [2n]       ]

    The prefactor [n-i]^{1/2} vanishes at i = n (in particular everywhere at
    n = 0, where the [2n] denominators would be singular), giving the zero
    matrix there.
    """
    q = validate_q(q)
    n, i, j = _halves(n, i, j)
    qn = lambda m: q_number(m, q)
    pref = q_power((i + j - 0.5) / 2.0, q) * _sqrt0(qn(n - i))
    uu = q_power(n + 1, q) * _sqrt0(qn(n - j + 0.5)) / qn(2 * n + 1)
    ud = -q ** 0.5 * _sqrt0(qn(n + j + 0.5)) / (qn(2 * n) * qn(2 * n + 1))
    dd = q_power(n + 0.5, q) * _sqrt0(qn(n - j - 0.5)) / qn(2 * n)
    return _matrix(pref, uu, ud, 0.0, dd)


@_silent
def b_plus(n, i, j, q: float) -> np.ndarray:
    """2x2 coefficient matrix b+_{nij}.

        q^{(i+j-1/2)/2} [n+i+1]^{1/2} *
            [ [n-j+3/2]^{1/2} / [2n+2]                      0                               ]
            [ -q^{-n-1} [n+j+1/2]^{1/2} / ([2n+1][2n+2])    q^{-1/2} [n-j+1/2]^{1/2} / [2n+1] ]

    The prefactor [n+i+1]^{1/2} never vanishes on valid labels.
    """
    q = validate_q(q)
    n, i, j = _halves(n, i, j)
    qn = lambda m: q_number(m, q)
    pref = q_power((i + j - 0.5) / 2.0, q) * _sqrt0(qn(n + i + 1))
    uu = _sqrt0(qn(n - j + 1.5)) / qn(2 * n + 2)
    du = -q_power(-n - 1, q) * _sqrt0(qn(n + j + 0.5)) / (qn(2 * n + 1) * qn(2 * n + 2))
    dd = q ** (-0.5) * _sqrt0(qn(n - j + 0.5)) / qn(2 * n + 1)
    return _matrix(pref, uu, 0.0, du, dd)


@_silent
def b_minus(n, i, j, q: float) -> np.ndarray:
    """2x2 coefficient matrix b-_{nij}.

        q^{(i+j-1/2)/2} [n-i]^{1/2} *
            [ -q^{-1/2} [n+j+1/2]^{1/2} / [2n+1]   -q^{n} [n-j+1/2]^{1/2} / ([2n][2n+1]) ]
            [ 0                                     -[n+j-1/2]^{1/2} / [2n]              ]

    Zero matrix at i = n, as for a-.
    """
    q = validate_q(q)
    n, i, j = _halves(n, i, j)
    qn = lambda m: q_number(m, q)
    pref = q_power((i + j - 0.5) / 2.0, q) * _sqrt0(qn(n - i))
    uu = -q ** (-0.5) * _sqrt0(qn(n + j + 0.5)) / qn(2 * n + 1)
    ud = -q_power(n, q) * _sqrt0(qn(n - j + 0.5)) / (qn(2 * n) * qn(2 * n + 1))
    dd = -_sqrt0(qn(n + j - 0.5)) / qn(2 * n)
    return _matrix(pref, uu, ud, 0.0, dd)


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


_MOVES = {
    # gen: (matrix pair at +1/2 and -1/2, (di, dj) target shift, overall sign)
    "alpha*": ((a_plus, a_minus), (+1, +1), +1.0),
    "beta": ((b_plus, b_minus), (+1, -1), -1.0),
    "alpha": ((partial(tilde_coeffs, "a", +1), partial(tilde_coeffs, "a", -1)),
              (-1, -1), +1.0),
    "beta*": ((partial(tilde_coeffs, "b", +1), partial(tilde_coeffs, "b", -1)),
              (-1, +1), -1.0),
}


def pi_prime(gen: str, space: TruncatedSpace, q: float) -> SparseOp:
    """One generator of the spinorial representation on a Double space.

    Band structure: level n is connected to levels n +- 1/2 only.  Rows that
    would target d^n_{i, +-(n+1/2)} never appear (those labels are not in the
    basis).  pi_prime('alpha') is the exact adjoint of pi_prime('alpha*'),
    and likewise for beta; all five defining relations hold on interior
    vectors at machine precision.

    Each coefficient matrix is evaluated once over the label arrays of the
    space; source band s and target band t select the entry M[t, s].
    """
    q = validate_q(q)
    if space.kind != "Double":
        raise ValueError(f"expected a Double space, got kind {space.kind!r}")
    if gen not in _MOVES:
        raise ValueError(f"unknown generator {gen!r}")
    (mat_up, mat_dn), (di, dj), sgn = _MOVES[gen]
    labels = (space.tn / 2.0, space.ti / 2.0, space.tj / 2.0)
    col = np.arange(space.dim)
    rows, cols, vals = [], [], []
    for mat_fn, dn in ((mat_up, +1), (mat_dn, -1)):
        M = mat_fn(*labels, q)
        for tb in (0, 1):
            row = space.ordinals(space.tn + dn, space.ti + di, space.tj + dj,
                                 band=tb)
            hit = row >= 0
            rows.append(row[hit])
            cols.append(col[hit])
            vals.append(sgn * M[col[hit], tb, space.band[hit]])
    return SparseOp.from_coo(space, space, np.concatenate(rows),
                             np.concatenate(cols), np.concatenate(vals))


def pi_prime_generators(space: TruncatedSpace, q: float) -> dict:
    return {g: pi_prime(g, space, q) for g in ("alpha", "alpha*", "beta", "beta*")}


def dirac_D(space: TruncatedSpace) -> SparseOp:
    """The isospectral Dirac operator: u^n -> (2n+1) u^n, d^n -> -2n d^n.

    Integer eigenvalues; positive exactly on the up band.
    """
    if space.kind != "Double":
        raise ValueError(f"expected a Double space, got kind {space.kind!r}")
    return SparseOp.diagonal(
        space, np.where(space.band == 0, space.tn + 1, -space.tn))
