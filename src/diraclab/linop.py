"""Sparse operator algebra between truncated spaces.

A :class:`SparseOp` is an explicit sparse coefficient table with domain and
codomain metadata.  All algebra enforces space compatibility; entries below
1e-15 are pruned at construction.  Scalars are real doubles throughout (every
displayed coefficient in this problem is real), so the adjoint is the
transpose.  Operator norms are exact up to rounding: :func:`op_norm` and
:func:`block_norm` both take the largest dense 2-norm over the weight-sector
blocks of the operator (:func:`_kernels.spectral_norm`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._kernels import spectral_norm
from .hilbert import TruncatedSpace, interior

PRUNE_TOL = 1e-15


class SpaceMismatchError(ValueError):
    """Domain/codomain incompatibility in an operator expression."""


def _prune(mat: sp.csr_matrix) -> sp.csr_matrix:
    mat = mat.tocsr()
    if mat.nnz:
        mat.data[np.abs(mat.data) < PRUNE_TOL] = 0.0
        mat.eliminate_zeros()
    mat.sort_indices()
    return mat


@dataclass(frozen=True, eq=False)
class SparseOp:
    dom: TruncatedSpace
    cod: TruncatedSpace
    mat: sp.csr_matrix

    # ---------------------------------------------------------- constructors

    @staticmethod
    def from_coo(dom, cod, rows, cols, vals) -> "SparseOp":
        m = sp.csr_matrix(
            (np.asarray(vals, dtype=np.float64),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(cod.dim, dom.dim))
        m.sum_duplicates()
        return SparseOp(dom, cod, _prune(m))

    @staticmethod
    def identity(space) -> "SparseOp":
        return SparseOp(space, space, sp.identity(space.dim, format="csr"))

    @staticmethod
    def zero(dom, cod=None) -> "SparseOp":
        cod = dom if cod is None else cod
        return SparseOp(dom, cod, sp.csr_matrix((cod.dim, dom.dim)))

    @staticmethod
    def diagonal(space, values) -> "SparseOp":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (space.dim,):
            raise SpaceMismatchError(
                f"diagonal needs {space.dim} values, got {values.shape}")
        return SparseOp(space, space, _prune(sp.diags(values).tocsr()))

    # --------------------------------------------------------------- algebra

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dom.dim,):
            raise SpaceMismatchError(
                f"vector of length {v.shape} applied to operator with "
                f"domain dim {self.dom.dim}")
        return self.mat @ v

    def compose(self, other: "SparseOp") -> "SparseOp":
        """self after other (matrix product self @ other)."""
        if other.cod.signature != self.dom.signature:
            raise SpaceMismatchError(
                f"compose: domain {self.dom.kind}/{self.dom.n_max} does not "
                f"match codomain {other.cod.kind}/{other.cod.n_max}")
        return SparseOp(other.dom, self.cod, _prune(self.mat @ other.mat))

    def add(self, other: "SparseOp") -> "SparseOp":
        if (other.dom.signature != self.dom.signature
                or other.cod.signature != self.cod.signature):
            raise SpaceMismatchError("add: operators live on different spaces")
        return SparseOp(self.dom, self.cod, _prune(self.mat + other.mat))

    def scale(self, c: float) -> "SparseOp":
        return SparseOp(self.dom, self.cod, _prune(self.mat * float(c)))

    def adjoint(self) -> "SparseOp":
        return SparseOp(self.cod, self.dom, _prune(self.mat.T.tocsr()))

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    # ------------------------------------------------------------- accessors

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def max_abs(self) -> float:
        return float(np.abs(self.mat.data).max()) if self.mat.nnz else 0.0

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()


def op_norm(T: SparseOp) -> float:
    """Largest singular value of T, exact up to rounding.

    Computed by :func:`_kernels.spectral_norm` as the largest dense 2-norm
    over the weight-sector blocks of T.
    """
    return spectral_norm(T.mat, T.cod.sector, T.dom.sector)


def block_norm(T: SparseOp, n) -> float:
    """Norm of the level-n row block of T."""
    rows = T.cod.level_ordinals(n)
    return spectral_norm(T.mat[rows, :], T.cod.sector[rows], T.dom.sector)


def interior_projector(space: TruncatedSpace, margin) -> SparseOp:
    """Orthogonal projection onto the interior(margin) subspace."""
    d = np.zeros(space.dim)
    d[interior(space, margin)] = 1.0
    return SparseOp.diagonal(space, d)
