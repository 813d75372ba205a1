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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hilbert import TruncatedSpace
from .linop import SparseOp
from .qnum import q_power, validate_q

GENERATORS = ("alpha", "alpha*", "beta", "beta*")


def _sqrt0(x):
    """sqrt clipped at zero (boundary factors may round to tiny negatives)."""
    return np.sqrt(np.maximum(x, 0.0))


def _band_op(space, shift, up, down) -> SparseOp:
    """The operator moving e^{(n)}_{ij} to levels n +- 1/2 and weights
    (i, j) + shift/2, with coefficients up(n, i, j) and down(n, i, j)
    evaluated over the label arrays of an L2 space."""
    _check_l2(space)
    tn, ti, tj = space.tn, space.ti, space.tj
    n, i, j = tn / 2.0, ti / 2.0, tj / 2.0
    di, dj = shift
    col = np.arange(space.dim)
    rows, cols, vals = [], [], []
    for dn, coeff in ((+1, up), (-1, down)):
        row = space.ordinals(tn + dn, ti + di, tj + dj)
        hit = row >= 0
        rows.append(row[hit])
        cols.append(col[hit])
        vals.append(coeff(n[hit], i[hit], j[hit]))
    return SparseOp.from_coo(space, space, np.concatenate(rows),
                             np.concatenate(cols), np.concatenate(vals))


def alpha_hat(space: TruncatedSpace, q: float) -> SparseOp:
    """The band operator alpha_hat on a truncated L2 space."""
    q = validate_q(q)
    return _band_op(
        space, (-1, -1),
        lambda n, i, j: q_power(2 * n + i + j + 1, q),
        lambda n, i, j: (_sqrt0(1 - q_power(2 * n + 2 * i, q))
                         * _sqrt0(1 - q_power(2 * n + 2 * j, q))))


def beta_hat(space: TruncatedSpace, q: float) -> SparseOp:
    """The band operator beta_hat on a truncated L2 space."""
    q = validate_q(q)
    return _band_op(
        space, (+1, -1),
        lambda n, i, j: (-q_power(n + j, q)
                         * _sqrt0(1 - q_power(2 * n + 2 * i + 2, q))),
        lambda n, i, j: (q_power(n + i, q)
                         * _sqrt0(1 - q_power(2 * n + 2 * j, q))))


def _check_l2(space):
    if space.kind != "L2":
        raise ValueError(f"expected an L2 space, got kind {space.kind!r}")


def hat_generators(space: TruncatedSpace, q: float) -> dict:
    """All four generator operators; starred ones are adjoints."""
    a = alpha_hat(space, q)
    b = beta_hat(space, q)
    return {"alpha": a, "alpha*": a.adjoint(),
            "beta": b, "beta*": b.adjoint()}


# ------------------------------------------------------------ generator words

class GeneratorWord(NamedTuple):
    """A *-polynomial: weighted sum of words over {alpha, alpha*, beta, beta*}.

    Each term is (weight, symbols); the empty symbol tuple is the identity.
    Under evaluation, symbols multiply left to right as operators (the
    rightmost factor acts first), and evaluation is multiplicative over
    concatenation of words.
    """

    terms: tuple

    @property
    def length(self) -> int:
        return max((len(s) for _, s in self.terms), default=0)

    def __add__(self, other):
        return GeneratorWord(self.terms + other.terms)


def word(*symbols, weight: float = 1.0) -> GeneratorWord:
    for s in symbols:
        if s not in GENERATORS:
            raise ValueError(f"unknown generator symbol {s!r}")
    return GeneratorWord(((float(weight), tuple(symbols)),))


def pi_hat(w: GeneratorWord, space: TruncatedSpace, q: float,
           ops: dict | None = None) -> SparseOp:
    """Evaluate a generator word in the hatted pair.

    Assertions about the result are only meaningful on interior vectors with
    margin = word length / 2: a length-L word moves the level by at most L/2,
    so on that subset truncation cannot contaminate the outcome.
    """
    if ops is None:
        ops = hat_generators(space, q)
    out = None
    for weight, syms in w.terms:
        cur = ops[syms[0]] if syms else SparseOp.identity(space)
        for s in syms[1:]:
            cur = cur @ ops[s]
        out = cur.scale(weight) if out is None else out + cur.scale(weight)
    return SparseOp.zero(space) if out is None else out


def relation_words(q: float) -> dict:
    """The five defining relations as defect words (each should evaluate to 0).

    unit_left        alpha* alpha + beta* beta - 1
    unit_right       alpha alpha* + q^2 beta beta* - 1
    twist_beta       alpha beta - q beta alpha
    twist_beta_star  alpha beta* - q beta* alpha
    beta_normal      beta* beta - beta beta*
    """
    q = validate_q(q)
    return {
        "unit_left": (word("alpha*", "alpha") + word("beta*", "beta")
                      + word(weight=-1.0)),
        "unit_right": (word("alpha", "alpha*") + word("beta", "beta*", weight=q * q)
                       + word(weight=-1.0)),
        "twist_beta": word("alpha", "beta") + word("beta", "alpha", weight=-q),
        "twist_beta_star": (word("alpha", "beta*")
                            + word("beta*", "alpha", weight=-q)),
        "beta_normal": word("beta*", "beta") + word("beta", "beta*", weight=-1.0),
    }


# ------------------------------------------------------------- Dirac family

class DiracParams(NamedTuple):
    """Parameters (k, a, b, c, d) of the equivariant Dirac family.

    k is a nonnegative integer; a, b, c, d are reals with a*c < 0.
    """

    k: int
    a: float
    b: float
    c: float
    d: float

    def validate(self) -> "DiracParams":
        if int(self.k) != self.k or self.k < 0:
            raise ValueError(f"k must be a nonnegative integer, got {self.k}")
        if self.a * self.c >= 0:
            raise ValueError(
                f"family requires a*c < 0, got a={self.a}, c={self.c}")
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
    _check_l2(space)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    k2 = 2 * int(params.k)
    tx = space.tj if side == "left" else space.ti
    n = space.tn / 2.0
    return SparseOp.diagonal(space, np.where(tx < space.tn - k2,
                                             params.a * n + params.b,
                                             params.c * n + params.d))


def abs_op(D: SparseOp) -> SparseOp:
    """Entrywise absolute value of a diagonal operator."""
    if np.any(D.rows != D.cols):
        raise ValueError("abs_op expects a diagonal operator")
    return SparseOp.diagonal(D.dom, abs(D.diag()))
