"""Sparse operator algebra between truncated spaces.

A :class:`SparseOp` is a sparse coefficient table with domain and codomain
metadata: numpy arrays ``rows``, ``cols`` and ``vals``, sorted row-major,
no coordinate twice, never an exact zero.  Every operator keeps each
nonzero coefficient, however small: :meth:`SparseOp.from_coo` drops only
the entries that are exactly 0, as ``scipy.sparse`` does.  Every operator
a suite measures is weight-graded and canonicalised once, by one
``from_coo`` over all its entries, or read off such operators' entries
(:func:`on_columns`, :func:`commutator`): no suite sums, scales or
composes operators.  The algebra below serves the tests and the
benchmark's reference operators; it checks that spaces match, and a
product sums each entry over the inner index in ascending order, as a CSR
product does, bit for bit.  Scalars are real doubles throughout, so the
adjoint is the transpose.  :func:`op_norm` and
:func:`block_norm` are exact up to rounding: one row group of
:func:`_kernels.spectral_norms`, which raises ``ValueError`` on an
operator that is not weight-graded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import spectral_norms
from .hilbert import TruncatedSpace, interior
from .qnum import label_text, twice


class SpaceMismatchError(ValueError):
    """Domain/codomain incompatibility in an operator expression."""


@dataclass(frozen=True, eq=False)
class SparseOp:
    dom: TruncatedSpace
    cod: TruncatedSpace
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    # ---------------------------------------------------------- constructors

    @staticmethod
    def from_coo(dom, cod, rows, cols, vals) -> "SparseOp":
        """Canonical operator from coordinates: sorted stably by
        row * dom.dim + col, duplicates summed in input order, exact zeros
        dropped.  A row outside [0, cod.dim) or a column outside
        [0, dom.dim) raises SpaceMismatchError."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if len(rows) and not (0 <= rows.min() and rows.max() < cod.dim
                              and 0 <= cols.min() and cols.max() < dom.dim):
            raise SpaceMismatchError("from_coo: a coordinate lies outside "
                                     "the domain or codomain")
        key = rows * max(dom.dim, 1)
        key += cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.empty(len(key), dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        group = new.astype(np.int64)  # index of each sorted coordinate
        group[:1] = 0
        np.cumsum(group, out=group)
        vals = np.asarray(  # (bincount gives integers if empty)
            np.bincount(group, np.asarray(vals, np.float64)[order]), np.float64)
        keep = vals != 0
        rows, cols = np.divmod(key[new][keep], max(dom.dim, 1))
        return SparseOp(dom, cod, rows, cols, vals[keep])

    @staticmethod
    def zero(space) -> "SparseOp":
        return SparseOp.from_coo(space, space, [], [], [])

    @staticmethod
    def diagonal(space, values) -> "SparseOp":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (space.dim,):
            raise SpaceMismatchError(
                f"diagonal needs {space.dim} values, got {values.shape}")
        at = np.flatnonzero(values != 0)
        return SparseOp(space, space, at, at, values[at])

    # --------------------------------------------------------------- algebra

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dom.dim,):
            raise SpaceMismatchError(
                f"vector of length {v.shape} applied to operator with "
                f"domain dim {self.dom.dim}")
        Tv = np.bincount(self.rows, self.vals * v[self.cols], self.cod.dim)
        return np.asarray(Tv, np.float64)  # (integers if no entry)

    def compose(self, other: "SparseOp") -> "SparseOp":
        """self after other (matrix product self @ other)."""
        if other.cod.signature != self.dom.signature:
            raise SpaceMismatchError(
                f"compose: domain {self.dom.kind}/"
                f"{label_text(self.dom.n_max)} does not match codomain "
                f"{other.cod.kind}/{label_text(other.cod.n_max)}")
        # each entry (i, j) of self, in order, meets row j of other in order
        ptr = np.bincount(other.rows + 1, minlength=other.cod.dim + 1).cumsum()
        count = np.diff(ptr)[self.cols]
        right = np.repeat(ptr[self.cols] - np.cumsum(count) + count, count)
        right += np.arange(len(right))
        return SparseOp.from_coo(
            other.dom, self.cod, np.repeat(self.rows, count), other.cols[right],
            np.repeat(self.vals, count) * other.vals[right])

    def add(self, other: "SparseOp") -> "SparseOp":
        if (other.dom.signature != self.dom.signature
                or other.cod.signature != self.cod.signature):
            raise SpaceMismatchError("add: operators live on different spaces")
        return SparseOp.from_coo(self.dom, self.cod,
                                 np.concatenate([self.rows, other.rows]),
                                 np.concatenate([self.cols, other.cols]),
                                 np.concatenate([self.vals, other.vals]))

    def scale(self, c: float) -> "SparseOp":
        return SparseOp.from_coo(self.dom, self.cod, self.rows, self.cols,
                                 self.vals * float(c))

    def adjoint(self) -> "SparseOp":
        order = np.argsort(self.cols, kind="stable")
        return SparseOp(self.cod, self.dom, self.cols[order],
                        self.rows[order], self.vals[order])

    def __matmul__(self, other):
        return self.compose(other)

    def __sub__(self, other):  # perfbench's reference [D, T] uses it
        return self.add(other.scale(-1.0))

    # ------------------------------------------------------------- accessors

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def diag(self) -> np.ndarray:
        """The main diagonal as a dense array."""
        out = np.zeros(min(self.cod.dim, self.dom.dim))
        on = self.rows == self.cols
        out[self.rows[on]] = self.vals[on]
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.cod.dim, self.dom.dim))
        out[self.rows, self.cols] = self.vals
        return out

    @property
    def mat(self):
        """A scipy CSR copy for tests and benchmarks (only here is scipy
        imported)."""
        import scipy.sparse as sp
        return sp.csr_matrix((self.vals, (self.rows, self.cols)),
                             shape=(self.cod.dim, self.dom.dim))


def op_norm(T: SparseOp) -> float:
    """Largest singular value of a weight-graded T, exact up to rounding:
    its rows as one group of :func:`_kernels.spectral_norms`, which takes
    entries in any order, so T may also be a :class:`rep_l2.Entries`."""
    return float(spectral_norms(T.rows, T.cols, T.vals, T.cod.sector,
                                T.dom.sector, np.zeros(T.cod.dim, np.int64),
                                1)[0])


def block_norm(T: SparseOp, n: int) -> float:
    """Norm of the row block of T at twice-level n (named ``n``, not
    ``tn``, because perfbench's tracer binds it by that name)."""
    T.cod.level_ordinals(n)  # raises if T has no such level
    at = T.cod.tn[T.rows] == n
    return op_norm(SparseOp(T.dom, T.cod, T.rows[at], T.cols[at], T.vals[at]))


def commutator(d, T: SparseOp) -> SparseOp:
    """[D, T] = D @ T - T @ D for the diagonal D with eigenvalues d, from
    T's entries in their order: a = T * d[row] and b = T * d[col], each 0
    where d is 0, as D stores no entry there (T may hold inf, which a
    product with 0 would turn into nan), then a - b without its exact
    zeros; bit for bit the operator ``D @ T - T @ D`` for
    ``D = SparseOp.diagonal(T.dom, d)``, whose sum adds each entry's a and
    -b to 0.0."""
    d = np.asarray(d, dtype=np.float64)
    if T.dom.signature != T.cod.signature or d.shape != (T.dom.dim,):
        raise SpaceMismatchError("commutator: T must act on the space of d")
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf are nan
        a, b = (np.where(d[idx] != 0, T.vals * d[idx], 0.0)
                for idx in (T.rows, T.cols))
        vals = a - b
    keep = vals != 0
    return SparseOp(T.dom, T.cod, T.rows[keep], T.cols[keep], vals[keep])


def on_columns(T: SparseOp, cols) -> SparseOp:
    """T's entries whose column is in ``cols``, in T's order: bit for bit
    ``T @ P`` for the projector P onto those columns, whose every entry is
    one product with 1.0 added to 0.0."""
    keep = np.zeros(T.dom.dim, bool)
    keep[cols] = True
    at = keep[T.cols]
    return SparseOp(T.dom, T.cod, T.rows[at], T.cols[at], T.vals[at])


def interior_projector(space: TruncatedSpace, margin) -> SparseOp:
    """Orthogonal projection onto the interior subspace ``margin`` levels
    in, counted in units of n (perfbench passes 1), not twice-valued as
    :func:`interior` counts."""
    d = np.zeros(space.dim)
    d[interior(space, int(twice(margin)))] = 1.0
    return SparseOp.diagonal(space, d)
