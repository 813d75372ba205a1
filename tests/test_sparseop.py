"""SparseOp's numpy algebra against scipy.sparse, bit for bit.

Every result must have exactly the rows, columns and values of scipy's
canonical CSR result (sorted indices, no duplicates, no exact zeros), read
through ``tocoo()``; ``from_coo`` must match a plain loop that sums each
coordinate's duplicates in input order.  Operands mix ordinary values, tiny
values and exact cancellations, on spaces of dimension 0 to 6, so sums of
three or more rounded terms, cancelled sums and empty operators all occur.
The operands of a product may also hold inf and NaN, or be diagonal (every
entry at row == column), which ``compose`` multiplies by its one general
path, each entry one product added to 0.0.  Examples are derived from each
test's source (``derandomize=True``) and no example database is kept.
"""

import numpy as np
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.hilbert import TruncatedSpace
from diraclab.linop import SparseOp

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=200)
dims = st.integers(0, 6)
# a third of a float rounds, so sums of three or more such terms depend on
# their order
values = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False).map(lambda x: x / 3),
    st.sampled_from([1.0, -1.0, 0.5, 0.0, 1e-16, -9e-16, 1e-15, 2e-15,
                     1e-300]))
extremes = st.sampled_from([np.inf, -np.inf, np.nan])
# a diagonal entry of 0.0 is dropped, so the product has no entry in its
# column (or row), even where the other operand holds inf or NaN; 1e-8 times
# 3e-8 and 1/3 times 1e-15 are tiny products, and 1e-300 times 1e-300
# underflows to 0
diagonal_values = st.one_of(values, extremes,
                            st.sampled_from([-2.0, -1 / 3, 1e-8, 3e-8]))


def _space(dim):
    """A stand-in space of any dimension (SparseOp reads only dim and
    signature)."""
    labels = np.zeros(dim, dtype=np.int64)
    return TruncatedSpace("L2", 0, labels, labels, labels)


@st.composite
def coordinates(draw, m, n, vals=values):
    """(rows, cols, vals) on an m x n grid; some coordinates repeat, and
    some entries are followed later by their exact negation."""
    if m == 0 or n == 0:
        return [], [], []
    entries = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                      st.integers(0, n - 1), vals),
                            max_size=3 * m * n))
    for k in draw(st.lists(st.integers(0, max(len(entries) - 1, 0)),
                           max_size=len(entries))):
        r, c, v = entries[k]
        entries.append((r, c, -v))
    rows, cols, vals = (list(x) for x in zip(*entries)) if entries \
        else ([], [], [])
    return rows, cols, vals


@st.composite
def operators(draw, m, n, vals=values):
    return SparseOp.from_coo(_space(n), _space(m),
                             *draw(coordinates(m, n, vals)))


@st.composite
def diagonals(draw, m, n):
    """An m x n operator whose entries all sit at row == column."""
    k = min(m, n)
    d = draw(st.lists(diagonal_values, min_size=k, max_size=k))
    return SparseOp.from_coo(_space(n), _space(m), np.arange(k),
                             np.arange(k), np.array(d, dtype=np.float64))


def operands(m, n):
    """Operators that may hold inf or NaN, or diagonal ones."""
    return st.one_of(operators(m, n, st.one_of(values, extremes)),
                     diagonals(m, n))


def _scipy_canonical(mat):
    """scipy's canonical CSR without exact zeros, as COO."""
    mat = mat.tocsr()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat.tocoo()


def _assert_same(T, coo):
    assert T.rows.dtype.kind == T.cols.dtype.kind == "i"
    assert T.vals.dtype == np.float64
    assert np.array_equal(T.rows, coo.row)
    assert np.array_equal(T.cols, coo.col)
    assert np.array_equal(T.vals, coo.data, equal_nan=True)


@deterministic
@given(st.data(), dims, dims)
def test_from_coo_matches_a_plain_loop(data, m, n):
    rows, cols, vals = data.draw(coordinates(m, n))
    want = {}
    for r, c, v in zip(rows, cols, vals):
        want[(r, c)] = want.get((r, c), 0.0) + v
    want = sorted((rc, v) for rc, v in want.items() if v != 0)
    T = SparseOp.from_coo(_space(n), _space(m), np.array(rows, dtype=int),
                          np.array(cols, dtype=int), np.array(vals))
    assert T.cod.dim == m and T.dom.dim == n
    assert [((r, c), v) for r, c, v in
            zip(T.rows.tolist(), T.cols.tolist(), T.vals.tolist())] == want


@deterministic
@given(st.data(), dims, dims, dims)
def test_compose_matches_scipy_exactly(data, m, k, n):
    """Slow: 200 examples, each product also taken in scipy.sparse."""
    A = data.draw(operands(m, k))
    B = data.draw(operands(k, n))
    _assert_same(A @ B, _scipy_canonical(A.mat @ B.mat))


def test_compose_matches_scipy_exactly_on_dense_random_operators():
    # long inner sums: every entry of the product adds up to 60 terms
    rng = np.random.default_rng(5)
    for (m, k, n), density in zip(((40, 60, 30), (25, 25, 25), (1, 50, 7)),
                                  (0.9, 0.5, 0.7)):
        A, B = (SparseOp.from_coo(_space(c), _space(r), *np.nonzero(mask),
                                  rng.standard_normal(mask.sum()))
                for r, c, mask in ((m, k, rng.random((m, k)) < density),
                                   (k, n, rng.random((k, n)) < density)))
        _assert_same(A @ B, _scipy_canonical(A.mat @ B.mat))


@deterministic
@given(st.data(), dims, dims, values)
def test_add_sub_scale_match_scipy_exactly(data, m, n, c):
    """Slow: 200 examples, each of three results also taken in scipy."""
    A = data.draw(operators(m, n))
    B = data.draw(operators(m, n))
    _assert_same(A.add(B), _scipy_canonical(A.mat + B.mat))
    _assert_same(A - B, _scipy_canonical(
        A.mat + _scipy_canonical(B.mat * -1.0).tocsr()))
    _assert_same(A.scale(c), _scipy_canonical(A.mat * c))


@deterministic
@given(st.data(), dims, dims)
def test_adjoint_and_accessors_match_scipy_exactly(data, m, n):
    A = data.draw(operators(m, n))
    _assert_same(A.adjoint(), _scipy_canonical(A.mat.T))
    v = data.draw(st.lists(values, min_size=n, max_size=n))
    Av = A.apply(np.array(v))
    assert Av.dtype == np.float64 and np.array_equal(Av, A.mat @ np.array(v))
    assert np.array_equal(A.to_dense(), A.mat.toarray())
    assert np.array_equal(A.diag(), A.mat.diagonal())
