"""Hatted generator pair on truncated L2 and the equivariant Dirac family.

The two band operators act on the Peter-Weyl basis as

    alpha_hat e^{(n)}_{ij} = q^{2n+i+j+1}                      e^{(n+1/2)}_{i-1/2, j-1/2}
                           + (1-q^{2n+2i})^{1/2} (1-q^{2n+2j})^{1/2} e^{(n-1/2)}_{i-1/2, j-1/2}

    beta_hat  e^{(n)}_{ij} = -q^{n+j} (1-q^{2n+2i+2})^{1/2}    e^{(n+1/2)}_{i+1/2, j-1/2}
                           +  q^{n+i} (1-q^{2n+2j})^{1/2}      e^{(n-1/2)}_{i+1/2, j-1/2}

with out-of-range targets dropped (truncation policy).  Starred generators
are the adjoints.  Note that the pair is an asymptotic model of the regular
representation: the displayed lowering coefficient of beta_hat does not
vanish at the weight boundary i = n, where its target label leaves the basis,
so the defining algebra relations hold for this pair only up to corrections
supported on weight-boundary columns.  The corrections decay like q^{4n} per
level (they belong to the compact ideal measured in :mod:`diraclab.decomp`);
the worst-case relation defects have closed forms, pinned in the test suite.
The spinorial representation in :mod:`diraclab.rep_double` satisfies the same
relations at machine precision.

:func:`_band_op` assembles a band operator on either space kind, so it
builds both this pair and pi'.  A word over ``GENERATORS`` is a plain tuple
of (weight, symbols) terms: :func:`relation_words` writes the five defining
relations so, and :func:`pi_hat` evaluates any word on any generator dict.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hilbert import TruncatedSpace, check_count, check_kind
from .linop import SparseOp, on_columns
from .qnum import q_power, sqrt0, validate_q

GENERATORS = ("alpha", "alpha*", "beta", "beta*")


def _band_op(space, shift, up, down, sign=1.0) -> SparseOp:
    """The operator moving each basis vector of level n to levels n +- 1/2
    and weights (i, j) + shift/2, with coefficients up(n, i, j) and
    down(n, i, j), each evaluated once per (n, i, j) label of the space.

    On L2 a coefficient is one value per label.  On Double it is one 2x2
    matrix per label, evaluated over the up band, which holds every
    (n, i, j); an ordinal of either band reads the matrix of its label at
    the label's up-band place, and source band s feeds target band t its
    entry [t, s].  ``sign`` multiplies the selected values.  Only exact
    zeros are dropped: a coefficient as small as q^31 at q = 0.3, or q at
    q = 1e-300, is kept.
    """
    tn, ti, tj = space.tn, space.ti, space.tj
    own = np.ones(space.dim, bool) if space.band is None else space.band == 0
    at = (np.cumsum(own) - 1)[space.ordinals(tn, ti, tj, band=0)]
    labels = (tn[own] / 2.0, ti[own] / 2.0, tj[own] / 2.0)
    di, dj = shift
    rows, cols, vals = [], [], []
    for dn, coeff in ((+1, up), (-1, down)):
        c = coeff(*labels)
        for tb in (None,) if space.band is None else (0, 1):
            row = space.ordinals(tn + dn, ti + di, tj + dj, band=tb)
            hit = np.flatnonzero(row >= 0)
            rows.append(row[hit])
            cols.append(hit)
            vals.append(sign * (c[at[hit]] if tb is None
                                else c[at[hit], tb, space.band[hit]]))
    return SparseOp.from_coo(space, space, *map(np.concatenate,
                                                (rows, cols, vals)))


def alpha_hat(space: TruncatedSpace, q: float) -> SparseOp:
    """The band operator alpha_hat on a truncated L2 space."""
    q = validate_q(q)
    return _band_op(
        check_kind(space, "L2"), (-1, -1),
        lambda n, i, j: q_power(2 * n + i + j + 1, q),
        lambda n, i, j: (sqrt0(1 - q_power(2 * n + 2 * i, q))
                         * sqrt0(1 - q_power(2 * n + 2 * j, q))))


def beta_hat(space: TruncatedSpace, q: float) -> SparseOp:
    """The band operator beta_hat on a truncated L2 space."""
    q = validate_q(q)
    return _band_op(
        check_kind(space, "L2"), (+1, -1),
        lambda n, i, j: (-q_power(n + j, q)
                         * sqrt0(1 - q_power(2 * n + 2 * i + 2, q))),
        lambda n, i, j: (q_power(n + i, q)
                         * sqrt0(1 - q_power(2 * n + 2 * j, q))))


def hat_generators(space: TruncatedSpace, q: float) -> dict:
    """All four generator operators; starred ones are adjoints."""
    a = alpha_hat(space, q)
    b = beta_hat(space, q)
    return {"alpha": a, "alpha*": a.adjoint(),
            "beta": b, "beta*": b.adjoint()}


def pi_hat(w: tuple, space: TruncatedSpace, q: float,
           ops: dict | None = None, right: np.ndarray | None = None,
           terms: dict | None = None) -> SparseOp:
    """Evaluate a word, a tuple of (weight, symbols) terms, in the hatted
    pair or in the generators ``ops``.

    Symbols multiply left to right as operators (the rightmost acts first),
    the empty symbol tuple is the identity and the empty tuple of terms is
    zero; an unknown symbol raises KeyError.  A length-L word moves the
    level by at most L/2, so only on interior(L) vectors is the result
    free of truncation.  Each term is one product chain, built from its
    last factor, and the word is one :meth:`SparseOp.from_coo` over every
    term's entries times its weight: bit for bit the chained sum
    ``t1 + t2.scale(w2) + ...``, which also sums each coordinate in term
    order from 0.0 and drops only exact zeros.

    ``right``, column ordinals such as ``interior(space, 2)``, gives
    ``w @ P`` for the projector P onto them, bit for bit, with each term's
    last factor cut to them first (:func:`on_columns`): the same sums from
    fewer products.  ``terms`` keeps each unscaled term by its symbols, so
    that words evaluated with the same ``ops`` and ``right`` share them.
    """
    if ops is None:
        ops = hat_generators(space, q)
    if terms is None:
        terms = {}
    none = np.empty(0, np.int64)
    parts = [(none, none, np.empty(0))]  # no entry: the empty word is 0
    for weight, syms in w:
        if syms not in terms:
            cur = ops[syms[-1]] if syms else SparseOp.identity(space)
            if right is not None:
                cur = on_columns(cur, right)
            for s in reversed(syms[:-1]):
                cur = ops[s] @ cur
            terms[syms] = cur
        T = terms[syms]
        parts.append((T.rows, T.cols, weight * T.vals))
    return SparseOp.from_coo(space, space, *map(np.concatenate, zip(*parts)))


def relation_words(q: float) -> dict:
    """The five defining relations as words (each should evaluate to 0).

    unit_left        alpha* alpha + beta* beta - 1
    beta_normal      beta* beta - beta beta*
    unit_right       alpha alpha* + q^2 beta beta* - 1
    twist_beta       alpha beta - q beta alpha
    twist_beta_star  alpha beta* - q beta* alpha

    In this order each product two words share (beta* beta, beta beta*)
    is used by consecutive words, so an evaluation that keeps only the
    current word's products (``pi_hat(..., terms=...)``) builds each once.
    """
    q = validate_q(q)
    return {
        "unit_left": ((1.0, ("alpha*", "alpha")), (1.0, ("beta*", "beta")),
                      (-1.0, ())),
        "beta_normal": ((1.0, ("beta*", "beta")), (-1.0, ("beta", "beta*"))),
        "unit_right": ((1.0, ("alpha", "alpha*")), (q * q, ("beta", "beta*")),
                       (-1.0, ())),
        "twist_beta": ((1.0, ("alpha", "beta")), (-q, ("beta", "alpha"))),
        "twist_beta_star": ((1.0, ("alpha", "beta*")),
                            (-q, ("beta*", "alpha"))),
    }


# ------------------------------------------------------------- Dirac family

class DiracParams(NamedTuple):
    """Parameters (k, a, b, c, d) of the equivariant Dirac family.

    k is an int >= 0; a, b, c, d are finite reals with a*c < 0.
    """

    k: int
    a: float
    b: float
    c: float
    d: float

    def validate(self) -> "DiracParams":
        check_count(self.k, "k")
        a, b, c, d = self[1:]
        if not (np.isfinite([a, b, c, d]).all() and a * c < 0):
            raise ValueError("family requires finite a, b, c, d with "
                             f"a*c < 0, got a={a}, b={b}, c={c}, d={d}")
        return self


D1_PARAMS = DiracParams(0, -2.0, 0.0, 2.0, 1.0)
D2_PARAMS = DiracParams(0, -2.0, -1.0, 2.0, 1.0)


def dirac_family(params: DiracParams, space: TruncatedSpace,
                 side: str = "left") -> SparseOp:
    """Diagonal operator of the equivariant family.

    Left side (default): eigenvalue a*n + b on -n <= j < n - k and
    c*n + d on j in {n-k, ..., n}.  The right-sided family applies the same
    split to i instead.  The eigenvalue depends only on (n, j) resp. (n, i).
    """
    params = DiracParams(*params).validate()
    check_kind(space, "L2")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    k2 = 2 * int(params.k)
    tx = space.tj if side == "left" else space.ti
    n = space.tn / 2.0
    return SparseOp.diagonal(space, np.where(tx < space.tn - k2,
                                             params.a * n + params.b,
                                             params.c * n + params.d))
