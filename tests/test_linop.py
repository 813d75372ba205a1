import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

from diraclab._kernels import component_labels, spectral_norm
from diraclab.hilbert import enumerate_space
from diraclab.linop import (
    SparseOp,
    SpaceMismatchError,
    block_norm,
    interior_projector,
    op_norm,
)
from diraclab.qnum import half


def _toy_space(dim_levels):
    """A stand-in space: use L2 truncations whose dims we know."""
    return enumerate_space("L2", half(dim_levels))


def _dense_op(space_a, space_b, arr):
    arr = np.asarray(arr, dtype=float)
    rows, cols = np.nonzero(arr)
    return SparseOp.from_coo(space_a, space_b, rows, cols, arr[rows, cols])


def test_identity_and_apply():
    sp = _toy_space(1)  # dim 14
    ident = SparseOp.identity(sp)
    v = np.arange(sp.dim, dtype=float)
    assert np.array_equal(ident.apply(v), v)
    with pytest.raises(SpaceMismatchError):
        ident.apply(np.ones(sp.dim + 1))


def test_zero_and_diagonal():
    sp = _toy_space(0.5)  # dim 5
    z = SparseOp.zero(sp)
    assert z.nnz == 0 and op_norm(z) == 0.0
    d = SparseOp.diagonal(sp, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert d.apply(np.ones(5)).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(SpaceMismatchError):
        SparseOp.diagonal(sp, [1.0, 2.0])


def test_prune_tolerance():
    sp = _toy_space(0.5)
    T = SparseOp.from_coo(sp, sp, [0, 1], [0, 1], [1e-16, 1.0])
    assert T.nnz == 1


def test_adjoint_involution_and_shift():
    sp = _toy_space(1)
    rng = np.random.default_rng(7)
    arr = np.where(rng.random((sp.dim, sp.dim)) < 0.2,
                   rng.standard_normal((sp.dim, sp.dim)), 0.0)
    T = _dense_op(sp, sp, arr)
    assert np.array_equal(T.adjoint().adjoint().to_dense(), T.to_dense())
    # <Tx, y> = <x, T*y> on a few random pairs
    for _ in range(5):
        x = rng.standard_normal(sp.dim)
        y = rng.standard_normal(sp.dim)
        lhs = float(T.apply(x) @ y)
        rhs = float(x @ T.adjoint().apply(y))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_compose_identity_and_mismatch():
    a = _toy_space(1)
    b = _toy_space(2)
    T = SparseOp.from_coo(a, b, range(a.dim), range(a.dim), np.ones(a.dim))
    assert np.array_equal((T @ SparseOp.identity(a)).to_dense(), T.to_dense())
    assert np.array_equal((SparseOp.identity(b) @ T).to_dense(), T.to_dense())
    with pytest.raises(SpaceMismatchError):
        T @ T
    with pytest.raises(SpaceMismatchError):
        T + SparseOp.identity(a)


def test_op_norm_examples():
    sp3 = _toy_space(0.5)
    ident = SparseOp.identity(sp3)
    assert op_norm(ident) == pytest.approx(1.0, abs=1e-12)
    diag = SparseOp.diagonal(sp3, [1.0, 2.0, 3.0, 0.0, 0.0])
    assert op_norm(diag) == pytest.approx(3.0, rel=1e-12)
    # a nilpotent single-entry operator still has norm 1
    nil = SparseOp.from_coo(sp3, sp3, [0], [1], [1.0])
    assert op_norm(nil) == pytest.approx(1.0, rel=1e-12)


def test_op_norm_matches_dense_svd():
    sp = _toy_space(1)
    rng = np.random.default_rng(3)
    arr = np.where(rng.random((sp.dim, sp.dim)) < 0.3,
                   rng.standard_normal((sp.dim, sp.dim)), 0.0)
    T = _dense_op(sp, sp, arr)
    assert op_norm(T) == pytest.approx(np.linalg.norm(arr, 2), rel=1e-12)


def test_norm_equals_adjoint_norm_randomized():
    # dim <= 500; dim(L2, 4) = 285
    sp = _toy_space(4)
    rng = np.random.default_rng(11)
    k = 2000
    rows = rng.integers(0, sp.dim, size=k)
    cols = rng.integers(0, sp.dim, size=k)
    vals = rng.standard_normal(k)
    T = SparseOp.from_coo(sp, sp, rows, cols, vals)
    a, b = op_norm(T), op_norm(T.adjoint())
    assert abs(a - b) <= 1e-12 * max(a, 1.0)


def test_submultiplicativity():
    sp = _toy_space(1)
    rng = np.random.default_rng(5)
    arrs = [np.where(rng.random((sp.dim, sp.dim)) < 0.3,
                     rng.standard_normal((sp.dim, sp.dim)), 0.0)
            for _ in range(2)]
    S, T = (_dense_op(sp, sp, a) for a in arrs)
    assert op_norm(S @ T) <= op_norm(S) * op_norm(T) * (1 + 1e-12)


def test_block_norm_examples():
    sp = _toy_space(2)
    ident = SparseOp.identity(sp)
    for tn in range(5):
        assert block_norm(ident, half(tn / 2)) == pytest.approx(1.0)
    z = SparseOp.zero(sp)
    assert block_norm(z, half(1)) == 0.0
    # diagonal with value q^n on level n: block norm at level 2 is q^2
    q = 0.5
    vals = np.array([q ** lab.n.value for lab in sp.basis])
    d = SparseOp.diagonal(sp, vals)
    assert block_norm(d, half(2)) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        block_norm(d, half(7))


def test_block_norm_brackets_op_norm():
    # for a banded operator: max_n block_norm <= op_norm <= sum_n block_norm
    from diraclab.rep_l2 import hat_generators

    sp = _toy_space(3)
    ops = hat_generators(sp, 0.5)
    T = ops["alpha"]
    blocks = [block_norm(T, half(tn / 2)) for tn in range(sp.n_max.twice + 1)]
    # dense SVD as the exact reference
    exact = float(np.linalg.norm(T.to_dense(), 2))
    assert max(blocks) <= exact * (1 + 1e-12)
    assert exact <= sum(blocks) * (1 + 1e-12)
    assert op_norm(T) == pytest.approx(exact, rel=1e-12)


def test_scale_sub_max_abs():
    sp = _toy_space(0.5)
    T = SparseOp.diagonal(sp, [1.0, -2.0, 0.5, 0.0, 0.0])
    assert T.scale(2.0).max_abs() == 4.0
    diff = T - T
    assert diff.nnz == 0 and diff.max_abs() == 0.0


def test_interior_projector():
    sp = _toy_space(1)
    P = interior_projector(sp, half(0.5))
    v = np.ones(sp.dim)
    out = P.apply(v)
    assert out.sum() == 5.0
    assert set(np.nonzero(out)[0]) == {0, 1, 2, 3, 4}


# ------------------------------------- the norm kernel against dense SVD


def _measured_operators(q):
    """The relation defects and [D, g] commutators the harness takes norms
    of, at n_max 4."""
    from diraclab.rep_double import dirac_D, pi_prime_generators
    from diraclab.rep_l2 import (D1_PARAMS, dirac_family, hat_generators,
                                 pi_hat, relation_words)

    l2 = enumerate_space("L2", half(4))
    dbl = enumerate_space("Double", half(4))
    out = {}
    for rep, space, ops, D in (
            ("hat", l2, hat_generators(l2, q), dirac_family(D1_PARAMS, l2)),
            ("prime", dbl, pi_prime_generators(dbl, q), dirac_D(dbl))):
        P = interior_projector(space, 1)
        for name, w in relation_words(q).items():
            out[(rep, name)] = pi_hat(w, space, q, ops=ops) @ P
        for g, T in ops.items():
            out[(rep, f"[D,{g}]")] = (D @ T - T @ D) @ P
    return out


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.8, 0.9])
def test_spectral_norm_matches_dense_svd_on_measured_operators(q):
    for key, T in _measured_operators(q).items():
        want = float(np.linalg.norm(T.to_dense(), 2))
        assert op_norm(T) == pytest.approx(want, rel=1e-12), key


def _random_sparse(rng, m, n, density):
    k = int(density * m * n)
    rows = rng.integers(0, m, size=k)
    cols = rng.integers(0, n, size=k)
    return scipy.sparse.coo_matrix((rng.standard_normal(k), (rows, cols)),
                                   shape=(m, n))


def test_spectral_norm_matches_dense_svd_on_random_matrices():
    rng = np.random.default_rng(7)
    mats = [_random_sparse(rng, m, n, d)
            for m, n in ((1, 1), (3, 40), (40, 3), (25, 31), (60, 60))
            for d in (0.01, 0.05, 0.3)]
    # empty rows and columns; duplicate coordinates are summed
    mats.append(scipy.sparse.coo_matrix(
        ([2.0, -1.0, 0.5], ([0, 0, 5], [3, 3, 9])), shape=(8, 12)))
    mats.append(scipy.sparse.coo_matrix(([-4.0], ([2], [6])), shape=(5, 7)))
    for A in mats:
        want = float(np.linalg.norm(A.toarray(), 2))
        for fmt in (A.tocsr(), A.tocsc(), A):
            assert spectral_norm(fmt) == pytest.approx(want, rel=1e-12)
    assert spectral_norm(scipy.sparse.csr_matrix((6, 4))) == 0.0
    assert spectral_norm(scipy.sparse.csr_matrix((0, 4))) == 0.0


def test_block_norm_matches_dense_level_block():
    from diraclab.decomp import kq_defect
    from diraclab.rep_l2 import hat_generators

    for T in (kq_defect("beta", 3, 0.7),
              hat_generators(_toy_space(3), 0.5)["beta"]):
        for tn in range(T.cod.n_max.twice + 1):
            rows = T.cod.level_ordinals(half(tn / 2))
            want = float(np.linalg.norm(T.to_dense()[rows, :], 2))
            assert block_norm(T, half(tn / 2)) == pytest.approx(
                want, rel=1e-12), tn


def test_component_labels_match_csgraph():
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(2)
    for n_nodes, n_edges in ((1, 0), (10, 3), (50, 40), (200, 150),
                             (300, 900)):
        a = rng.integers(0, n_nodes, size=n_edges)
        b = rng.integers(0, n_nodes, size=n_edges)
        lab = component_labels(n_nodes, a, b)
        graph = scipy.sparse.coo_matrix((np.ones(n_edges), (a, b)),
                                        shape=(n_nodes, n_nodes))
        k, ref = connected_components(graph, directed=False)
        # the same partition, each part labelled by its smallest node
        first = np.full(k, n_nodes)
        np.minimum.at(first, ref, np.arange(n_nodes))
        assert np.array_equal(lab, first[ref])


def test_hat_beta_normal_defect_is_exact():
    from diraclab.rep_l2 import hat_generators, pi_hat, relation_words

    q = 0.7
    space = enumerate_space("L2", half(8))
    word = relation_words(q)["beta_normal"]
    T = pi_hat(word, space, q, ops=hat_generators(space, q))
    defect = op_norm(T @ interior_projector(space, 1))
    assert defect == pytest.approx(q ** 4 * (1 - q ** 2), abs=1e-12)


def test_import_does_not_load_csgraph():
    # csgraph pulls in scipy.sparse.linalg and scipy.linalg at import time
    import diraclab

    src = os.path.dirname(os.path.dirname(diraclab.__file__))
    code = ("import sys, diraclab; "
            "print('scipy.sparse.csgraph' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
