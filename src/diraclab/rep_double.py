"""Spinorial representation on the doubled space, and the isospectral D.

Every level-n vector pair is written as a coefficient column
v^n_{ij} = (u^n_{ij}, d^n_{ij})^T, with the convention d^n_{ij} = 0 for
j = +-(n+1/2).  Two generator images are assembled from 2x2 coefficient
matrices, and pi'(alpha), pi'(beta*) are their adjoints:

    pi'(alpha*) v^n_{ij} = a+_{nij} v^{n+1/2}_{i+1/2, j+1/2} + a-_{nij} v^{n-1/2}_{i+1/2, j+1/2}
    pi'(-beta)  v^n_{ij} = b+_{nij} v^{n+1/2}_{i+1/2, j-1/2} + b-_{nij} v^{n-1/2}_{i+1/2, j-1/2}

(the beta display carries the minus sign, so pi'(beta) negates it).  The
matrices act on the coefficient column: rows address the target band,
columns the source band, i.e. the entry routed into band t from band s of
the source is M[t, s].  The adjoints equal bit for bit the assembly from
the paper's transposed displays, ta+-_{nij} = (a-+_{n +- 1/2, i-1/2, j-1/2})^T.

Transcription of the four displays is isolated in one leaf function per
matrix below — it is the highest-risk step of the whole build, and each leaf
is pinned against independent evaluation oracles in the tests.  The leaves
broadcast: given arrays of labels they return one 2x2 matrix per label (in
the last two axes).  Each is written f(n, i, j, q, qn) and called as
(n, i, j, q): :func:`_leaf` supplies the prologue they share, the q check,
the labels as floats, qn(m) = [m] at q and the float semantics of
:data:`_silent`.  :func:`rep_l2._band_op`, which assembles the hatted
pair too, evaluates each leaf once per (n, i, j) label, over the up band
of the doubled space (which holds every label), and reads entry [t, s]
at the hits of each target band t.  Overflow of q^{-m} at tiny q raises
OverflowError, for an array of labels as for one (see :data:`_silent`).
"""

from __future__ import annotations

import functools

import numpy as np

from .hilbert import TruncatedSpace, check_kind
from .linop import SparseOp
from .qnum import q_number, q_power, sqrt0, twice, validate_q
from .rep_l2 import _band_op


#: Float semantics of the leaves over arrays, as for Python floats: every
#: label-dependent power is taken by :func:`qnum.q_power`, which raises
#: OverflowError; a product that overflows is inf, silently.  Division by
#: zero and invalid operations occur only where a prefactor vanishes (see
#: :func:`_matrix`); a nan that escaped that mask would show as a
#: non-finite operator entry.
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


def _leaf(f):
    """The leaf ``f(n, i, j, q, qn)`` called as (n, i, j, q): q checked,
    the labels as float arrays (:func:`_halves`), ``qn(m)`` the q-number
    [m] at q, under :data:`_silent`."""
    @functools.wraps(f)
    @_silent
    def leaf(n, i, j, q: float) -> np.ndarray:
        q = validate_q(q)
        return f(*_halves(n, i, j), q, lambda m: q_number(m, q))
    return leaf


@_leaf
def a_plus(n, i, j, q: float, qn) -> np.ndarray:
    """2x2 coefficient matrix a+_{nij}.

        q^{(i+j-1/2)/2} [n+i+1]^{1/2} *
            [ q^{-n-1/2} [n+j+3/2]^{1/2} / [2n+2]        0                              ]
            [ q^{1/2} [n-j+1/2]^{1/2} / ([2n+1][2n+2])   q^{-n} [n+j+1/2]^{1/2} / [2n+1] ]
    """
    pref = q_power((i + j - 0.5) / 2.0, q) * sqrt0(qn(n + i + 1))
    uu = q_power(-n - 0.5, q) * sqrt0(qn(n + j + 1.5)) / qn(2 * n + 2)
    du = q ** 0.5 * sqrt0(qn(n - j + 0.5)) / (qn(2 * n + 1) * qn(2 * n + 2))
    dd = q_power(-n, q) * sqrt0(qn(n + j + 0.5)) / qn(2 * n + 1)
    return _matrix(pref, uu, 0.0, du, dd)


@_leaf
def a_minus(n, i, j, q: float, qn) -> np.ndarray:
    """2x2 coefficient matrix a-_{nij}.

        q^{(i+j-1/2)/2} [n-i]^{1/2} *
            [ q^{n+1} [n-j+1/2]^{1/2} / [2n+1]   -q^{1/2} [n+j+1/2]^{1/2} / ([2n][2n+1]) ]
            [ 0                                   q^{n+1/2} [n-j-1/2]^{1/2} / [2n]       ]

    The prefactor [n-i]^{1/2} vanishes at i = n (in particular everywhere at
    n = 0, where the [2n] denominators would be singular), giving the zero
    matrix there.
    """
    pref = q_power((i + j - 0.5) / 2.0, q) * sqrt0(qn(n - i))
    uu = q_power(n + 1, q) * sqrt0(qn(n - j + 0.5)) / qn(2 * n + 1)
    ud = -q ** 0.5 * sqrt0(qn(n + j + 0.5)) / (qn(2 * n) * qn(2 * n + 1))
    dd = q_power(n + 0.5, q) * sqrt0(qn(n - j - 0.5)) / qn(2 * n)
    return _matrix(pref, uu, ud, 0.0, dd)


@_leaf
def b_plus(n, i, j, q: float, qn) -> np.ndarray:
    """2x2 coefficient matrix b+_{nij}.

        q^{(i+j-1/2)/2} [n+i+1]^{1/2} *
            [ [n-j+3/2]^{1/2} / [2n+2]                      0                               ]
            [ -q^{-n-1} [n+j+1/2]^{1/2} / ([2n+1][2n+2])    q^{-1/2} [n-j+1/2]^{1/2} / [2n+1] ]

    The prefactor [n+i+1]^{1/2} never vanishes on valid labels.
    """
    pref = q_power((i + j - 0.5) / 2.0, q) * sqrt0(qn(n + i + 1))
    uu = sqrt0(qn(n - j + 1.5)) / qn(2 * n + 2)
    du = -q_power(-n - 1, q) * sqrt0(qn(n + j + 0.5)) / (qn(2 * n + 1) * qn(2 * n + 2))
    dd = q ** (-0.5) * sqrt0(qn(n - j + 0.5)) / qn(2 * n + 1)
    return _matrix(pref, uu, 0.0, du, dd)


@_leaf
def b_minus(n, i, j, q: float, qn) -> np.ndarray:
    """2x2 coefficient matrix b-_{nij}.

        q^{(i+j-1/2)/2} [n-i]^{1/2} *
            [ -q^{-1/2} [n+j+1/2]^{1/2} / [2n+1]   -q^{n} [n-j+1/2]^{1/2} / ([2n][2n+1]) ]
            [ 0                                     -[n+j-1/2]^{1/2} / [2n]              ]

    Zero matrix at i = n, as for a-.
    """
    pref = q_power((i + j - 0.5) / 2.0, q) * sqrt0(qn(n - i))
    uu = -q ** (-0.5) * sqrt0(qn(n + j + 0.5)) / qn(2 * n + 1)
    ud = -q_power(n, q) * sqrt0(qn(n - j + 0.5)) / (qn(2 * n) * qn(2 * n + 1))
    dd = -sqrt0(qn(n + j - 0.5)) / qn(2 * n)
    return _matrix(pref, uu, ud, 0.0, dd)


_MOVES = {
    # gen: (matrix pair at +1/2 and -1/2, (di, dj) target shift, overall sign)
    "alpha*": ((a_plus, a_minus), (+1, +1), +1.0),
    "beta": ((b_plus, b_minus), (+1, -1), -1.0),
}
_ADJOINTS = {"alpha": "alpha*", "beta*": "beta"}  #: taken as adjoints


def pi_prime(gen: str, space: TruncatedSpace, q: float) -> SparseOp:
    """One generator of the spinorial representation on a Double space.

    Band structure: level n is connected to levels n +- 1/2 only.  Rows that
    would target d^n_{i, +-(n+1/2)} never appear (those labels are not in the
    basis).  'alpha' and 'beta*' are the adjoints of 'alpha*' and 'beta';
    all five defining relations hold on interior vectors at machine precision.
    """
    q = validate_q(q)
    check_kind(space, "Double")
    if gen in _ADJOINTS:
        return pi_prime(_ADJOINTS[gen], space, q).adjoint()
    if gen not in _MOVES:
        raise ValueError(f"unknown generator {gen!r}")
    (up, down), shift, sgn = _MOVES[gen]
    return _band_op(space, shift, functools.partial(up, q=q),
                    functools.partial(down, q=q), sgn)


def pi_prime_generators(space: TruncatedSpace, q: float) -> dict:
    """All four generators: two assemblies and their adjoints."""
    a, b = (pi_prime(g, space, q) for g in ("alpha*", "beta"))
    return {"alpha": a.adjoint(), "alpha*": a, "beta": b, "beta*": b.adjoint()}


def dirac_D(space: TruncatedSpace) -> SparseOp:
    """The isospectral Dirac operator: u^n -> (2n+1) u^n, d^n -> -2n d^n.

    Integer eigenvalues; positive exactly on the up band.
    """
    check_kind(space, "Double")
    return SparseOp.diagonal(
        space, np.where(space.band == 0, space.tn + 1, -space.tn))
