"""Sparse operator algebra between truncated spaces.

A :class:`SparseOp` is a sparse coefficient table with domain and codomain
metadata: numpy arrays ``rows``, ``cols`` and ``vals``, sorted row-major,
no coordinate twice, entries below 1e-15 pruned.  All algebra enforces
space compatibility, and a product sums each entry over the inner index in
ascending order, as a compressed-sparse-row product does, bit for bit.
Scalars are real doubles throughout (every displayed coefficient in this
problem is real), so the adjoint is the transpose; a diagonal factor of a
product scales the other's entries in place.  :func:`op_norm` and
:func:`block_norm` are exact up to rounding: one row group of
:func:`_kernels.spectral_norms`.  :meth:`SparseOp.compress` cuts an operator
to a smaller truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import spectral_norms
from .hilbert import TruncatedSpace, interior
from .qnum import half

PRUNE_TOL = 1e-15


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
        row * dom.dim + col, duplicates summed in input order, entries below
        PRUNE_TOL dropped."""
        key = np.asarray(rows, dtype=np.int64) * max(dom.dim, 1)
        key += np.asarray(cols, dtype=np.int64)
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
        keep = ~(np.abs(vals) < PRUNE_TOL)
        rows, cols = np.divmod(key[new][keep], max(dom.dim, 1))
        return SparseOp(dom, cod, rows, cols, vals[keep])

    @staticmethod
    def identity(space) -> "SparseOp":
        return SparseOp.diagonal(space, np.ones(space.dim))

    @staticmethod
    def zero(dom, cod=None) -> "SparseOp":
        return SparseOp.from_coo(dom, dom if cod is None else cod, [], [], [])

    @staticmethod
    def diagonal(space, values) -> "SparseOp":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (space.dim,):
            raise SpaceMismatchError(
                f"diagonal needs {space.dim} values, got {values.shape}")
        return SparseOp.from_coo(space, space, *[np.arange(space.dim)] * 2,
                                 values)

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
                f"compose: domain {self.dom.kind}/{self.dom.n_max} does not "
                f"match codomain {other.cod.kind}/{other.cod.n_max}")
        # a diagonal factor (all entries at rows == cols) scales the other's
        # entries in order; CSR would add each single product to 0.0
        for diag, T, inner in ((other, self, self.cols),
                               (self, other, other.rows)):
            if np.array_equal(diag.rows, diag.cols):
                d, on = np.zeros(self.dom.dim), np.zeros(self.dom.dim, bool)
                d[diag.rows], on[diag.rows] = diag.vals, True
                at = np.flatnonzero(on[inner])
                vals = T.vals[at] * d[inner[at]]
                keep = ~(np.abs(vals) < PRUNE_TOL)
                return SparseOp(other.dom, self.cod, T.rows[at[keep]],
                                T.cols[at[keep]], vals[keep])
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
        vals = self.vals * float(c)
        keep = ~(np.abs(vals) < PRUNE_TOL)
        return SparseOp(self.dom, self.cod, self.rows[keep], self.cols[keep],
                        vals[keep])

    def adjoint(self) -> "SparseOp":
        order = np.argsort(self.cols, kind="stable")
        return SparseOp(self.cod, self.dom, self.cols[order],
                        self.rows[order], self.vals[order])

    def compress(self, space) -> "SparseOp":
        """P T P on a smaller truncation ``space`` of the same kind, whose
        basis is a prefix of the level-major basis."""
        big = {(s.kind, s.n_max >= space.n_max) for s in (self.dom, self.cod)}
        if big != {(space.kind, True)}:
            raise SpaceMismatchError("compress: not a smaller truncation")
        keep = (self.rows < space.dim) & (self.cols < space.dim)
        return SparseOp(space, space, self.rows[keep], self.cols[keep],
                        self.vals[keep])

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    # ------------------------------------------------------------- accessors

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def max_abs(self) -> float:
        return float(np.abs(self.vals).max()) if self.nnz else 0.0

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
    """Largest singular value of T, exact up to rounding: its rows as one
    group of :func:`_kernels.spectral_norms`."""
    return float(spectral_norms(T.rows, T.cols, T.vals, T.cod.sector,
                                T.dom.sector, np.zeros(T.cod.dim, np.int64),
                                1)[0])


def block_norm(T: SparseOp, n) -> float:
    """Norm of the level-n row block of T."""
    T.cod.level_ordinals(n)  # raises if T has no level n
    at = T.cod.tn[T.rows] == half(n).twice
    return op_norm(SparseOp(T.dom, T.cod, T.rows[at], T.cols[at], T.vals[at]))


def interior_projector(space: TruncatedSpace, margin) -> SparseOp:
    """Orthogonal projection onto the interior(margin) subspace."""
    d = np.zeros(space.dim)
    d[interior(space, margin)] = 1.0
    return SparseOp.diagonal(space, d)
