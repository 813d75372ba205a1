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
builds both this pair and pi'.  A word over ``GENERATORS`` is a tuple of
(weight, symbols) terms, as :func:`relation_words` writes the relations;
:func:`word_entries` reads the entries of a dict of words on a column
prefix straight off a generator dict, and :func:`pi_hat` is the operator
view of one word's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hilbert import BANDS, TruncatedSpace, check_count, check_kind
from .linop import SparseOp
from .qnum import q_power, sqrt0, validate_q

GENERATORS = ("alpha", "alpha*", "beta", "beta*")


def _band_op(space, shift, up, down, sign=1.0) -> SparseOp:
    """The operator moving each basis vector of level n to levels n +- 1/2
    and weights (i, j) + shift/2, with coefficients up(n, i, j) and
    down(n, i, j), each evaluated once per (n, i, j) label of the space.

    With b bands per level (:data:`hilbert.BANDS`) a coefficient is one
    b x b matrix per label, on L2 a scalar, the 1 x 1 matrix.  It is
    evaluated over the up band, which holds every (n, i, j); an ordinal of
    any band reads the matrix of its label at the label's up-band place,
    and source band s feeds target band t its entry [t, s].  ``sign``
    multiplies the selected values.  Only exact zeros are dropped: a
    coefficient as small as q^31 at q = 0.3, or q at q = 1e-300, is kept.
    """
    tn, ti, tj, band = space.tn, space.ti, space.tj, space.band
    b = BANDS[space.kind]
    own = band == 0
    at = (np.cumsum(own) - 1)[space.ordinals(tn, ti, tj)]
    labels = (tn[own] / 2.0, ti[own] / 2.0, tj[own] / 2.0)
    di, dj = shift
    rows, cols, vals = [], [], []
    for dn, coeff in ((+1, up), (-1, down)):
        c = np.reshape(coeff(*labels), (-1, b, b))
        for tb in range(b):
            row = space.ordinals(tn + dn, ti + di, tj + dj, tb)
            hit = np.flatnonzero(row >= 0)
            rows.append(row[hit])
            cols.append(hit)
            vals.append(sign * c[at[hit], tb, band[hit]])
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
           ops: dict | None = None) -> SparseOp:
    """The word w, a tuple of (weight, symbols) terms, as an operator on
    ``space``: :func:`word_entries` of the one word on every column, in the
    hatted pair or in the generators ``ops``.  Symbols multiply left to
    right as operators (the rightmost acts first), the empty symbol tuple
    is the identity and the empty word is zero.  A length-L word moves the
    level by at most L/2, so it is free of truncation on the interior(L)
    columns alone (:func:`linop.on_columns` cuts it to them)."""
    if ops is None:
        ops = hat_generators(space, q)
    [(_, e)] = word_entries({"w": w}, space, ops, space.dim)
    return SparseOp.from_coo(space, space, e.rows, e.cols, e.vals)


class Entries(NamedTuple):
    """A word's entries as :func:`word_entries` yields them: no coordinate
    twice and no exact 0, in column order, with the space as ``dom`` and
    ``cod``.  These are the fields :func:`linop.op_norm` reads; it is no
    :class:`SparseOp`, whose entries are sorted row-major."""

    dom: TruncatedSpace
    cod: TruncatedSpace
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _paths(syms: tuple, ops: dict, ptr: dict, m: int):
    """(column, row, value) of each path of the product ``syms``, of at most
    two symbols, from the columns [0, m): by column, then by inner ordinal,
    then by row.  Column c of a generator is row c of its adjoint, which
    ``ops`` holds under the other name (alpha and alpha*), so the last
    factor's columns are a prefix of its adjoint's arrays and the first
    factor's are reached through its adjoint's row pointer, which ``ptr``
    holds under the adjoint's name."""
    if len(syms) > 2:  # one inner index: a path sum is compose's sum
        raise ValueError(f"word_entries takes terms of at most two "
                         f"symbols, got {syms!r}")
    if not syms:
        col = np.arange(m)
        return col, col, np.ones(m)
    if missing := [s for s in syms if s not in ops]:  # the written name
        raise KeyError(missing[0])
    adj = [s[:-1] if s.endswith("*") else s + "*" for s in syms]
    last = ops[adj[-1]]
    end = np.searchsorted(last.rows, m)
    col, row, val = last.rows[:end], last.cols[:end], last.vals[:end]
    if len(syms) == 2:  # as in SparseOp.compose
        first, start = ops[adj[0]], ptr[adj[0]]
        count = np.diff(start)[row]
        at = np.repeat(start[row] - np.cumsum(count) + count, count)
        at += np.arange(len(at))
        col, row, val = (np.repeat(col, count), first.cols[at],
                         np.repeat(val, count) * first.vals[at])
    return col, row, val


def word_entries(words: dict, space: TruncatedSpace, ops: dict, m: int):
    """Yield ``(name, Entries)`` for each word of ``words``, in dict order:
    its entries on the columns [0, m), such as ``interior(space, 2)``, read
    off the generators ``ops`` with no product built.  For terms of at most
    two symbols and finite weights they are, as a multiset, bit for bit,
    those of the chained sum ``t1 + t2.scale(w2) + ...`` of the terms built
    with ``@`` and cut to those columns.

    Every generator moves the level by 1/2 and shifts the weights (i, j) by
    a fixed amount, and every term of a relation word shifts them alike.
    So from column c a path has one target for each level offset (-1, 0 or
    +1) and target band, and is keyed ``K * c + b * index + band``: with b
    bands per level (:data:`hilbert.BANDS`), K = 3 x b and the offset's
    index 0, 1 or 2, so on L2 the band adds 0.  A product is one
    ``np.bincount`` over its paths, in path order, inner ordinal ascending,
    the order in which :meth:`SparseOp.compose` sums; the word is
    0.0 + w1 T1 + w2 T2 + ... in term order, and its exact zeros are
    dropped at the end, as a sum of operators drops them.  A key that two
    paths give two targets raises ValueError, and a symbol or an adjoint
    that ``ops`` lacks raises KeyError.

    Each generator's row pointer is built once per call.  A product is
    kept while consecutive words use it and built again when a later word
    uses it after a gap, so sharing saves work and changes no bit: in
    :func:`relation_words`' order beta* beta and beta beta* each serve two
    consecutive words, and the identity, which unit_left and unit_right
    share around beta_normal, is built twice.
    """
    b = BANDS[space.kind]
    K = 3 * b
    ptr = {s: np.bincount(g.rows + 1, minlength=space.dim + 1).cumsum()
           for s, g in ops.items()}
    terms = {}
    for name, w in words.items():
        terms = {syms: terms[syms] for _, syms in w if syms in terms}
        word, target = np.zeros(m * K), np.zeros(m * K, np.int64)
        for weight, syms in w:
            if syms not in terms:
                col, row, val = _paths(syms, ops, ptr, m)
                # in place: at --nmax 64 a product has 1.5e6 paths
                key = space.tn[row] - space.tn[col]  # -2..2, twice-valued
                key += 2
                key //= 2
                key *= b
                key += space.band[row]
                key += K * col
                terms[syms] = key, row, np.bincount(key, val, minlength=m * K)
            key, row, sums = terms[syms]
            word += weight * sums
            target[key] = row
        if not all(np.array_equal(target[terms[syms][0]], terms[syms][1])
                   for _, syms in w):
            raise ValueError("word_entries: the terms of a word must shift "
                             "the weights alike")
        at = np.flatnonzero(word != 0)  # (faster than on the floats)
        yield name, Entries(space, space, target[at], at // K, word[at])


def relation_words(q: float) -> dict:
    """The five defining relations as words (each should evaluate to 0).

    unit_left        alpha* alpha + beta* beta - 1
    beta_normal      beta* beta - beta beta*
    unit_right       alpha alpha* + q^2 beta beta* - 1
    twist_beta       alpha beta - q beta alpha
    twist_beta_star  alpha beta* - q beta* alpha
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
