import os
import subprocess
import sys

import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab._kernels import BOUND_SLACK, schur_bounds, spectral_norms
from diraclab.hilbert import enumerate_space, interior
from diraclab.linop import (
    SparseOp,
    SpaceMismatchError,
    block_norm,
    commutator,
    interior_projector,
    on_columns,
    op_norm,
)


def sector_map(src, dst, n_src):
    """Target sector of each source sector, or None unless one-to-one.

    ``src[k]``, ``dst[k]``: source and target sector of an operator's k-th
    entry.  ``to[s]`` is the one sector the entries leaving sector s land
    in (-1 if none leave s); None if a source sector reaches two targets
    or a target is reached from two sources.  The grading oracle of the
    tests below.
    """
    to = np.full(n_src, -1)
    to[src] = dst
    held = to[to >= 0]
    if not np.array_equal(to[src], dst) or len(np.unique(held)) < len(held):
        return None
    return to


def spectral_norm(row, col, data, row_sector, col_sector):
    """The kernel's norm with every row in one group, as op_norm takes it."""
    return float(spectral_norms(row, col, data, row_sector, col_sector,
                                np.zeros(len(row_sector), np.int64), 1)[0])


def _toy_space(tn_max):
    """A stand-in space: use L2 truncations whose dims we know."""
    return enumerate_space("L2", tn_max)


def _dense_op(space_a, space_b, arr):
    arr = np.asarray(arr, dtype=float)
    rows, cols = np.nonzero(arr)
    return SparseOp.from_coo(space_a, space_b, rows, cols, arr[rows, cols])


def _one(space):
    return SparseOp.diagonal(space, np.ones(space.dim))


def _graded_coords(space, rng, k, shift=(0, 0)):
    """Up to k random coordinates (rows, cols) of an operator that shifts
    every twice-weight (ti, tj) by ``shift``: each column's row is a label of
    the shifted weight at a random level, where the space has one."""
    cols = rng.integers(0, space.dim, size=k)
    rows = space.ordinals(rng.integers(0, space.n_max + 1, size=k),
                          space.ti[cols] + shift[0], space.tj[cols] + shift[1])
    return rows[rows >= 0], cols[rows >= 0]


def _graded_dense(space, rng, density, shift=(0, 0)):
    """A dense random weight-graded matrix on ``space``."""
    arr = np.zeros((space.dim, space.dim))
    rows, cols = _graded_coords(space, rng, int(density * arr.size), shift)
    arr[rows, cols] = rng.standard_normal(len(rows))
    return arr


def test_identity_and_apply():
    sp = _toy_space(2)  # dim 14
    ident = _one(sp)
    v = np.arange(sp.dim, dtype=float)
    assert np.array_equal(ident.apply(v), v)
    with pytest.raises(SpaceMismatchError):
        ident.apply(np.ones(sp.dim + 1))


def test_zero_and_diagonal():
    sp = _toy_space(1)  # dim 5
    z = SparseOp.zero(sp)
    assert z.nnz == 0 and op_norm(z) == 0.0
    d = SparseOp.diagonal(sp, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert d.apply(np.ones(5)).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(SpaceMismatchError):
        SparseOp.diagonal(sp, [1.0, 2.0])


def _triples(T):
    return list(zip(T.rows.tolist(), T.cols.tolist(), T.vals.tolist()))


def test_every_nonzero_entry_is_kept():
    # an entry is dropped only when it is exactly 0: a 1e-20 entry and the
    # subnormal product 1e-300 * 1e-20 stay; an exact cancellation, or a
    # product that underflows to 0, goes
    sp = _toy_space(1)  # dim 5
    T = SparseOp.from_coo(sp, sp, [0, 1, 2, 2], [0, 1, 2, 2],
                          [1e-20, 1.0, 0.5, -0.5])
    assert _triples(T) == [(0, 0, 1e-20), (1, 1, 1.0)]
    assert _triples(SparseOp.diagonal(sp, [1e-20, 0.0, 1.0, 0.0, 0.0])) \
        == [(0, 0, 1e-20), (2, 2, 1.0)]
    # compose, general path: sums over the inner index
    A = SparseOp.from_coo(sp, sp, [0, 1, 1], [1, 1, 2], [1e-300, 1.0, 1.0])
    B = SparseOp.from_coo(sp, sp, [1, 1, 2], [3, 4, 4], [1e-20, 0.5, -0.5])
    assert _triples(A @ B) == [(0, 3, 1e-320), (0, 4, 5e-301),
                               (1, 3, 1e-20)]
    # compose, diagonal path, from either side
    D = SparseOp.diagonal(sp, [1e-300, 1e-300, 1.0, 1.0, 1.0])
    T = SparseOp.from_coo(sp, sp, [0, 1, 2], [0, 1, 3], [1e-20, 1e-300, 1.0])
    assert _triples(T @ D) == [(0, 0, 1e-320), (2, 3, 1.0)]
    assert _triples(D @ T) == [(0, 0, 1e-320), (2, 3, 1.0)]
    # add and scale
    assert T.add(T.scale(-1.0)).nnz == 0
    assert _triples(T.add(B)) == [(0, 0, 1e-20), (1, 1, 1e-300), (1, 3, 1e-20),
                               (1, 4, 0.5), (2, 3, 1.0), (2, 4, -0.5)]
    assert _triples(T.scale(1e-300)) == [(0, 0, 1e-320), (2, 3, 1e-300)]
    assert T.scale(0.0).nnz == 0
    # commutator: (d[row] - d[col]) t, 2e-20 - 1e-20 kept, 1.5 - 1.5 dropped
    D = SparseOp.diagonal(sp, [2.0, 1.0, 3.0, 3.0, 1.0])
    T = SparseOp.from_coo(sp, sp, [0, 2], [1, 3], [1e-20, 0.5])
    assert _triples(commutator(D.diag(), T)) == [(0, 1, 1e-20)]
    assert _triples(D @ T - T @ D) == [(0, 1, 1e-20)]


def test_from_coo_rejects_coordinates_outside_its_spaces():
    dbl = enumerate_space("Double", 2)
    # row * dim + col would fold (5, dim + 3) onto the entry (6, 3)
    for rows, cols in (([5], [dbl.dim + 3]), ([dbl.dim], [0]), ([-1], [0]),
                       ([0], [-1])):
        with pytest.raises(SpaceMismatchError):
            SparseOp.from_coo(dbl, dbl, rows, cols, [1.0])
    # the bounds are the codomain's for rows and the domain's for columns
    a, b = _toy_space(1), _toy_space(2)
    T = SparseOp.from_coo(a, b, [b.dim - 1], [a.dim - 1], [1.0])
    assert (T.rows.tolist(), T.cols.tolist()) == ([b.dim - 1], [a.dim - 1])
    with pytest.raises(SpaceMismatchError):
        SparseOp.from_coo(a, b, [0], [a.dim], [1.0])


def test_adjoint_involution_and_shift():
    sp = _toy_space(2)
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
    a = _toy_space(2)
    b = _toy_space(4)
    T = SparseOp.from_coo(a, b, range(a.dim), range(a.dim), np.ones(a.dim))
    assert np.array_equal((T @ _one(a)).to_dense(), T.to_dense())
    assert np.array_equal((_one(b) @ T).to_dense(), T.to_dense())
    with pytest.raises(SpaceMismatchError):
        T @ T
    with pytest.raises(SpaceMismatchError):
        T.add(_one(a))


def test_op_norm_examples():
    sp3 = _toy_space(1)
    ident = _one(sp3)
    assert op_norm(ident) == pytest.approx(1.0, abs=1e-12)
    diag = SparseOp.diagonal(sp3, [1.0, 2.0, 3.0, 0.0, 0.0])
    assert op_norm(diag) == pytest.approx(3.0, rel=1e-12)
    # a nilpotent single-entry operator still has norm 1
    nil = SparseOp.from_coo(sp3, sp3, [0], [1], [1.0])
    assert op_norm(nil) == pytest.approx(1.0, rel=1e-12)


def test_op_norm_matches_dense_svd():
    sp = _toy_space(4)
    rng = np.random.default_rng(3)
    for shift in ((0, 0), (1, -1), (-2, 0)):
        arr = _graded_dense(sp, rng, 0.3, shift)
        T = _dense_op(sp, sp, arr)
        assert T.nnz > 20
        assert op_norm(T) == pytest.approx(np.linalg.norm(arr, 2), rel=1e-12)


def test_norm_equals_adjoint_norm_randomized():
    # dim <= 500; dim(L2, 4) = 285
    sp = _toy_space(8)
    rng = np.random.default_rng(11)
    rows, cols = _graded_coords(sp, rng, 2000, (1, 1))
    T = SparseOp.from_coo(sp, sp, rows, cols, rng.standard_normal(len(rows)))
    a, b = op_norm(T), op_norm(T.adjoint())
    assert abs(a - b) <= 1e-12 * max(a, 1.0)


def test_submultiplicativity():
    sp = _toy_space(4)
    rng = np.random.default_rng(5)
    S, T = (_dense_op(sp, sp, _graded_dense(sp, rng, 0.3, shift))
            for shift in ((1, -1), (0, 2)))
    assert op_norm(S @ T) <= op_norm(S) * op_norm(T) * (1 + 1e-12)


def test_block_norm_examples():
    sp = _toy_space(4)
    ident = _one(sp)
    for tn in range(5):
        assert block_norm(ident, tn) == pytest.approx(1.0)
    z = SparseOp.zero(sp)
    assert block_norm(z, 2) == 0.0
    # diagonal with value q^n on level n: block norm at level 2 is q^2
    q = 0.5
    vals = q ** (sp.tn / 2.0)
    d = SparseOp.diagonal(sp, vals)
    assert block_norm(d, 4) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        block_norm(d, 14)


def test_block_norm_brackets_op_norm():
    # for a banded operator: max_n block_norm <= op_norm <= sum_n block_norm
    from diraclab.rep_l2 import hat_generators

    sp = _toy_space(6)
    ops = hat_generators(sp, 0.5)
    T = ops["alpha"]
    blocks = [block_norm(T, tn) for tn in range(sp.n_max + 1)]
    # dense SVD as the exact reference
    exact = float(np.linalg.norm(T.to_dense(), 2))
    assert max(blocks) <= exact * (1 + 1e-12)
    assert exact <= sum(blocks) * (1 + 1e-12)
    assert op_norm(T) == pytest.approx(exact, rel=1e-12)


def test_scale_and_sub():
    sp = _toy_space(1)
    T = SparseOp.diagonal(sp, [1.0, -2.0, 0.5, 0.0, 0.0])
    assert T.scale(2.0).vals.tolist() == [2.0, -4.0, 1.0]
    diff = T - T
    assert diff.nnz == 0


def test_interior_projector():
    sp = _toy_space(2)
    P = interior_projector(sp, 0.5)
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

    l2 = enumerate_space("L2", 8)
    dbl = enumerate_space("Double", 8)
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


def _entries(A):
    """(row, col, data) of a scipy matrix, in its storage order: row-major
    from CSR, column-major from CSC, as given from COO."""
    coo = A.tocoo()
    return coo.row, coo.col, coo.data


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
    # one sector on each side: every matrix is graded, as one block
    one = lambda A: (np.zeros(A.shape[0], dtype=int),
                     np.zeros(A.shape[1], dtype=int))
    for A in mats:
        want = float(np.linalg.norm(A.toarray(), 2))
        for fmt in (A.tocsr(), A.tocsc(), A):
            assert spectral_norm(*_entries(fmt), *one(A)) == pytest.approx(
                want, rel=1e-12)
    for shape in ((6, 4), (0, 4)):
        A = scipy.sparse.csr_matrix(shape)
        assert spectral_norm(*_entries(A), *one(A)) == 0.0


def _random_graded(rng, m, n, n_sectors, k):
    """A random m x n matrix with entries only from column sector s to row
    sector to[s], for a random bijection to; some sectors hold no rows,
    columns or entries, and coordinates repeat."""
    row_sector = rng.integers(0, n_sectors, size=m)
    col_sector = rng.integers(0, n_sectors, size=n)
    to = rng.permutation(n_sectors)
    to[rng.random(n_sectors) < 0.3] = -1  # sectors no entry leaves
    rows = rng.integers(0, m, size=k)
    cols = rng.integers(0, n, size=k)
    keep = row_sector[rows] == to[col_sector[cols]]
    # duplicate coordinates are summed
    rows, cols = np.tile(rows[keep], 2)[:-1], np.tile(cols[keep], 2)[:-1]
    A = scipy.sparse.coo_matrix((rng.standard_normal(len(rows)),
                                 (rows, cols)), shape=(m, n))
    return A, row_sector, col_sector


def test_spectral_norm_matches_dense_svd_on_random_graded_matrices():
    rng = np.random.default_rng(11)
    for m, n, n_sectors, k in ((5, 7, 3, 20), (30, 20, 6, 200),
                               (60, 60, 10, 2000), (40, 90, 25, 4000),
                               (80, 80, 4, 900)):
        A, rs, cs = _random_graded(rng, m, n, n_sectors, k)
        assert sector_map(cs[A.col], rs[A.row], n_sectors) is not None
        want = float(np.linalg.norm(A.toarray(), 2))
        for fmt in (A.tocsr(), A.tocsc(), A):
            assert spectral_norm(*_entries(fmt), rs, cs) == pytest.approx(
                want, rel=1e-12)


def test_spectral_norm_rejects_ungraded_input():
    # entries from one column sector into two row sectors, or from two
    # column sectors into one row sector: not graded, so the norm kernel
    # raises and names the first row group that is not
    one_to_two = (np.array([0, 1, 2]), np.array([0, 0, 1]),
                  np.array([3.0, 4.0, 1.0]), np.array([0, 1, 1]),
                  np.array([0, 0]))
    two_to_one = (np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]),
                  np.array([0]), np.array([0, 1]))
    for row, col, data, rs, cs in (one_to_two, two_to_one):
        assert sector_map(cs[col], rs[row], 2) is None
        with pytest.raises(ValueError, match="row group 0 is not weight-"):
            spectral_norm(row, col, data, rs, cs)
    # column 0 reaches every row; in groups 1 and 3 it reaches two row
    # sectors, in groups 0 and 2 one: group 1 is named
    rs, groups = np.array([0, 1, 2, 0, 1, 2]), np.array([0, 1, 1, 2, 3, 3])
    with pytest.raises(ValueError, match="row group 1 is not weight-"):
        spectral_norms(np.arange(6), np.zeros(6, np.int64), np.ones(6), rs,
                       np.zeros(1, np.int64), groups, 4)
    # op_norm and level_block_norms of a sum of two weight shifts
    from diraclab.decomp import level_block_norms
    from diraclab.rep_double import pi_prime_generators

    dbl = enumerate_space("Double", 6)
    gens = pi_prime_generators(dbl, 0.5)
    T = gens["alpha"].add(gens["beta"])
    first = min(tn for tn in range(dbl.n_max + 1)
                if not _graded(_level_rows(T, tn)))
    with pytest.raises(ValueError, match="row group 0 is not weight-"):
        op_norm(T)
    with pytest.raises(ValueError, match=f"row group {first} is not weight-"):
        level_block_norms(T)


def test_sector_map_cases():
    # one-to-one: each source sector reaches one target, no target twice
    assert sector_map(np.array([0, 0, 2]), np.array([1, 1, 0]),
                      4).tolist() == [1, -1, 0, -1]
    # many-to-one: sectors 0 and 1 both land in sector 3
    assert sector_map(np.array([0, 1]), np.array([3, 3]), 2) is None
    # one-to-many: sector 0 lands in sectors 1 and 2
    assert sector_map(np.array([0, 0]), np.array([1, 2]), 1) is None
    # no entries: graded, every sector maps to zero
    empty = np.array([], dtype=np.int64)
    assert sector_map(empty, empty, 3).tolist() == [-1, -1, -1]


def _graded(T):
    return sector_map(T.dom.sector[T.cols], T.cod.sector[T.rows],
                      T.dom.sector.max() + 1) is not None


def _level_rows(T, tn):
    """T's entries on the rows of twice-level tn."""
    at = T.cod.tn[T.rows] == tn
    return SparseOp(T.dom, T.cod, T.rows[at], T.cols[at], T.vals[at])


@pytest.mark.parametrize("q", [0.3, 0.7])
def test_measured_operators_are_graded(q):
    # every operator the suites take a norm of maps each weight sector into
    # one sector, and no two into one, as the norm kernel requires
    from diraclab.decomp import KQ_GENERATORS, build_U, kq_defect
    from diraclab.rep_double import pi_prime, pi_prime_generators
    from diraclab.rep_l2 import GENERATORS, hat_generators

    dbl = enumerate_space("Double", 6)
    hat = hat_generators(enumerate_space("L2", 6), q)
    prime = pi_prime_generators(dbl, q)
    ops = dict(_measured_operators(q))
    U = build_U(6)
    ops.update({("kq", g): kq_defect(g, hat, prime, U) for g in KQ_GENERATORS})
    ops.update({("pi_prime", g): pi_prime(g, dbl, q) for g in GENERATORS})
    for key, T in ops.items():
        assert _graded(T), key


def test_block_norm_matches_dense_level_block():
    from diraclab.decomp import build_U, kq_defect
    from diraclab.rep_double import pi_prime_generators
    from diraclab.rep_l2 import hat_generators

    hat = hat_generators(enumerate_space("L2", 6), 0.7)
    prime = pi_prime_generators(enumerate_space("Double", 6), 0.7)
    for T in (kq_defect("beta", hat, prime, build_U(6)),
              hat_generators(_toy_space(6), 0.5)["beta"]):
        for tn in range(T.cod.n_max + 1):
            rows = T.cod.level_ordinals(tn)
            want = float(np.linalg.norm(T.to_dense()[rows, :], 2))
            assert block_norm(T, tn) == pytest.approx(
                want, rel=1e-12), tn


def test_hat_beta_normal_defect_is_exact():
    from diraclab.rep_l2 import hat_generators, pi_hat, relation_words

    q = 0.7
    space = enumerate_space("L2", 16)
    word = relation_words(q)["beta_normal"]
    T = pi_hat(word, space, q, ops=hat_generators(space, q))
    defect = op_norm(T @ interior_projector(space, 1))
    assert defect == pytest.approx(q ** 4 * (1 - q ** 2), abs=1e-12)


def test_no_scipy_module_is_loaded(tmp_path):
    # scipy and mpmath are test dependencies only, and a run forks its
    # passes bare, with no process pool: neither the import nor a full run
    # (--nmax 8 is the smallest at which every suite runs; some cells fail
    # by design, so the status is 1) may load any of their modules
    import diraclab

    src = os.path.dirname(os.path.dirname(diraclab.__file__))
    code = ("import sys, diraclab\n"
            "from diraclab.cli import main\n"
            "extra = lambda: sorted(m for m in sys.modules if m.split('.')[0]\n"
            "                       in ('scipy', 'mpmath',\n"
            "                           'multiprocessing', 'concurrent'))\n"
            "before = extra()\n"
            f"status = main(['all', '--nmax', '8', '--out', {str(tmp_path)!r}])\n"
            "print(status, before, extra())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines()[-1] == "1 [] []"
    assert (tmp_path / "report.json").exists()


# --------------------------- the pruned kernel against every block's norm

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=200)
# few distinct magnitudes, so blocks of equal bound and equal norm are common
values = st.sampled_from([1.0, -1.0, 2.0, 0.5, 1 / 3, -2 / 3, 3.0, 1e-300])


def _unpruned_norm(row, col, data, row_sector, col_sector):
    """Every (target x source sector) block of a graded matrix densified on
    its own and decomposed, none skipped: the kernel without its Schur
    bound."""
    if len(data) == 0:
        return 0.0
    src = col_sector[col]
    assert sector_map(src, row_sector[row], int(src.max()) + 1) is not None
    norms = []
    for s in np.unique(src):
        at = src == s
        r, ri = np.unique(row[at], return_inverse=True)
        c, ci = np.unique(col[at], return_inverse=True)
        block = np.zeros((len(r), len(c)))
        np.add.at(block, (ri, ci), data[at])  # duplicates in input order
        norms.append(float(np.linalg.norm(block[None], 2, axis=(1, 2))[0]))
    return max(norms)


@st.composite
def graded_entries(draw):
    """(row, col, data, row_sector, col_sector) of a graded matrix from
    1 x 1 to 12 x 12: column sector s maps into row sector to[s]; some have
    no entry, coordinates repeat and some entries are followed by their
    exact negation."""
    n_sectors = draw(st.integers(2, 6))
    sectors = lambda k: np.array(draw(st.lists(
        st.integers(0, n_sectors - 1), min_size=k, max_size=k)), np.int64)
    rs = sectors(draw(st.integers(1, 12)))
    cs = sectors(draw(st.integers(1, 12)))
    to = np.array(draw(st.permutations(range(n_sectors))))
    entries = []
    for c, k, v in draw(st.lists(st.tuples(
            st.integers(0, 11), st.integers(0, 11), values),
            min_size=1, max_size=60)):
        targets = np.flatnonzero(rs == to[cs[c % len(cs)]])
        if len(targets):
            entries.append((targets[k % len(targets)], c % len(cs), v))
    for k in draw(st.lists(st.integers(0, 59), max_size=20)):
        if entries:
            r, c, v = entries[k % len(entries)]
            entries.append((r, c, -v))
    row, col, data = (np.array(x) for x in zip(*entries)) if entries else \
        (np.array([], np.int64), np.array([], np.int64), np.array([]))
    return row, col, data, rs, cs


@deterministic
@given(graded_entries())
def test_spectral_norm_equals_unpruned_norm_on_graded_matrices(args):
    assert spectral_norm(*args) == _unpruned_norm(*args)


@deterministic
@given(graded_entries(), st.data())
def test_spectral_norm_equals_unpruned_norm_when_ungraded(args, data):
    """The same entries with one sector on each side, so the whole matrix
    is one graded block, and with random sectors, which grade some
    matrices and not others: an ungraded one raises."""
    row, col, d, rs, cs = args
    one = np.zeros(len(rs), np.int64), np.zeros(len(cs), np.int64)
    assert spectral_norm(row, col, d, *one) == _unpruned_norm(
        row, col, d, *one)
    rs, cs = (np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(x),
                                          max_size=len(x))), np.int64)
              for x in (rs, cs))
    if len(d) and sector_map(cs[col], rs[row], 3) is None:
        with pytest.raises(ValueError, match="row group 0 is not weight-"):
            spectral_norm(row, col, d, rs, cs)
    else:
        assert spectral_norm(row, col, d, rs, cs) == _unpruned_norm(
            row, col, d, rs, cs)


def test_spectral_norm_equals_unpruned_norm_on_edge_cases():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((3, 4))
    cases = []
    # ties: one block in each of four sectors, rows and columns permuted,
    # so all four bounds and norms are equal
    r, c = np.nonzero(np.ones((3, 4)))
    for k in range(4):
        p, s = rng.permutation(3), rng.permutation(4)
        cases.append((r + 3 * k, c + 4 * k, block[p[r], s[c]]))
    tie = [np.concatenate(x) for x in zip(*cases)]
    sectors = np.repeat(np.arange(4), 3), np.repeat(np.arange(4), 4)
    # entries that cancel to exactly 0, and an all-zero operator
    zero = (np.array([0, 0, 3]), np.array([0, 0, 5]),
            np.array([2.5, -2.5, 0.0]))
    for entries, rs, cs in ((tie, *sectors), (zero, *sectors),
                            ((np.array([0, 3]), np.array([0, 5]),
                              np.array([1.0, -7.0])), *sectors)):
        assert spectral_norm(*entries, rs, cs) == _unpruned_norm(
            *entries, rs, cs)
    assert spectral_norm(*zero, *sectors) == 0.0
    # the maximum sits in a 1 x 1 block (the first batch) whose bound is
    # not the largest: [[1, 1], [1, -1]] has bound 2 but norm sqrt(2)
    args = (np.array([0, 1, 1, 2, 2]), np.array([0, 1, 2, 1, 2]),
            np.array([1.5, 1.0, 1.0, 1.0, -1.0]), np.array([0, 1, 1]),
            np.array([0, 1, 1]))
    assert spectral_norm(*args) == _unpruned_norm(*args) == 1.5
    # shape (0, 4): no entry at all
    empty = np.array([], np.int64)
    assert spectral_norm(empty, empty, np.array([]), empty,
                         np.zeros(4, np.int64)) == 0.0
    # not graded (sector 0 reaches sectors 0 and 1): no block rule holds
    args = (np.array([0, 1, 2]), np.array([0, 0, 1]),
            np.array([3.0, 4.0, 1.0]), np.array([0, 1, 1]), np.array([0, 0]))
    with pytest.raises(ValueError, match="row group 0 is not weight-"):
        spectral_norm(*args)


def test_spectral_norm_equals_unpruned_norm_on_a_full_run(tmp_path,
                                                          monkeypatch):
    # every norm of `diraclab all --nmax 8`, op_norm and level norms alike:
    # each group's norm against the unpruned norm of the group's entries
    from diraclab import decomp, linop
    from diraclab.cli import main

    seen = []

    def checked(row, col, data, row_sector, col_sector, row_group,
                n_groups):
        got = spectral_norms(row, col, data, row_sector, col_sector,
                             row_group, n_groups)
        for g in range(n_groups):
            at = row_group[row] == g
            seen.append(got[g] == _unpruned_norm(
                row[at], col[at], data[at], row_sector, col_sector))
        return got

    monkeypatch.setattr(linop, "spectral_norms", checked)
    monkeypatch.setattr(decomp, "spectral_norms", checked)
    # seen is kept in this process, so every pass runs here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    main(["all", "--nmax", "8", "--out", str(tmp_path)])
    assert len(seen) > 100 and all(seen)


# ------------------------------------ every row group's norm in one call


def _group_oracle(row, col, data, row_sector, col_sector, row_group,
                  n_groups):
    """The unpruned norm of each group's entries on their own, or the
    first group whose entries are not graded."""
    ats = [row_group[row] == g for g in range(n_groups)]
    for g, at in enumerate(ats):
        if at.any() and sector_map(col_sector[col[at]], row_sector[row[at]],
                                   col_sector.max() + 1) is None:
            return g
    return [_unpruned_norm(row[at], col[at], data[at], row_sector, col_sector)
            for at in ats]


@deterministic
@given(graded_entries(), st.data())
def test_spectral_norms_equal_unpruned_norm_per_group(args, data):
    """Rows in up to four groups, some without entries.  A graded matrix
    is graded in every group, with one sector per side every group is one
    block, and with random sectors some groups are graded and some not:
    then the first group that is not is named.

    About 1.3 s: 200 examples, each against the oracle three times.
    """
    row, col, d, rs, cs = args
    n_groups = data.draw(st.integers(1, 4))
    groups = np.array(data.draw(st.lists(st.integers(0, n_groups - 1),
                                         min_size=len(rs), max_size=len(rs))))
    one = np.zeros(len(rs), np.int64), np.zeros(len(cs), np.int64)
    mixed = (np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(rs),
                                         max_size=len(rs))), np.int64),
             np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(cs),
                                         max_size=len(cs))), np.int64))
    for sectors in ((rs, cs), one, mixed):
        entries = (row, col, d, *sectors, groups, n_groups)
        want = _group_oracle(*entries)
        if isinstance(want, int):
            with pytest.raises(ValueError,
                               match=f"row group {want} is not weight-"):
                spectral_norms(*entries)
        else:
            assert spectral_norms(*entries).tolist() == want


def _level_oracle(T):
    return [_unpruned_norm(T.rows[at], T.cols[at], T.vals[at], T.cod.sector,
                           T.dom.sector)
            for at in (T.cod.tn[T.rows] == tn
                       for tn in range(T.cod.n_max + 1))]


@pytest.mark.parametrize("q", [0.3, 0.9])
@pytest.mark.parametrize("nmax", [8, 16])  # twice n_max, as on the CLI
def test_level_block_norms_equal_unpruned_norm_per_level(q, nmax):
    """The kq defects, pi'(alpha*) and one operator with empty levels; an
    ungraded operator, and one graded on some levels only, raise and name
    their first ungraded level.  At --nmax 16 the oracle's loop over every
    block of every level takes most of a second."""
    from diraclab.decomp import (KQ_GENERATORS, build_U, kq_defect,
                                 level_block_norms)
    from diraclab.rep_double import pi_prime_generators
    from diraclab.rep_l2 import hat_generators

    dbl = enumerate_space("Double", nmax)
    hat = hat_generators(enumerate_space("L2", nmax), q)
    prime = pi_prime_generators(dbl, q)
    U = build_U(nmax)
    ops = {g: kq_defect(g, hat, prime, U) for g in KQ_GENERATORS}
    ops["alpha*"] = prime["alpha*"]
    # not graded: two weight shifts at once; and graded on the rows above
    # level 2 only, so that each level decides its own grading
    ungraded = {"alpha+beta": prime["alpha"].add(prime["beta"])}
    ungraded["mixed"] = (
        SparseOp.diagonal(dbl, dbl.tn <= 4) @ ungraded["alpha+beta"]).add(
        SparseOp.diagonal(dbl, dbl.tn > 4) @ prime["alpha*"])
    for key, T in ungraded.items():
        graded = [_graded(_level_rows(T, tn)) for tn in range(nmax + 1)]
        assert not all(graded) and (key == "alpha+beta" or graded[-1]), key
        with pytest.raises(ValueError, match=f"row group {graded.index(False)}"
                                             " is not weight-"):
            level_block_norms(T)
    # the top level and level 0 hold no entry
    P = interior_projector(dbl, 1)
    ops["cut"] = P @ prime["beta"] @ P - SparseOp.diagonal(
        dbl, dbl.tn == 0) @ prime["beta"]
    for key, T in ops.items():
        levels, norms = level_block_norms(T)
        assert levels == tuple(range(nmax + 1))
        assert norms.tolist() == _level_oracle(T), key
    cut = level_block_norms(ops["cut"])[1]
    assert cut[0] == cut[-1] == cut[-2] == 0.0 and cut[1:-2].all()


def _dense_bound(M):
    """The entry bound of one dense block, every place an entry."""
    r, c = np.indices(M.shape)
    return schur_bounds(np.zeros(M.size, np.int64), r.ravel(), c.ravel(),
                        M.ravel(), np.array([M.shape[0]]),
                        np.array([M.shape[1]]))[0]


@deterministic
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
       st.lists(values, min_size=100, max_size=100),
       st.lists(st.tuples(st.integers(0, 99), values), max_size=30))
def test_schur_bound_is_not_below_the_norm(count, m, n, pool, extra):
    """Every place of ``count`` blocks of shape m x n holds an entry, and
    the places in ``extra`` hold a second one, summed in the dense block."""
    blk, rpos, cpos = (a.ravel() for a in np.indices((count, m, n)))
    data = np.resize(np.array(pool), count * m * n)
    at = np.array([k for k, _ in extra], np.int64) % len(data)
    blk, rpos, cpos = (np.concatenate([a, a[at]]) for a in (blk, rpos, cpos))
    data = np.concatenate([data, [v for _, v in extra]])
    dense = np.zeros((count, m, n))
    np.add.at(dense, (blk, rpos, cpos), data)
    norms = np.linalg.norm(dense, 2, axis=(1, 2))
    bounds = schur_bounds(blk, rpos, cpos, data, np.full(count, m),
                          np.full(count, n))
    assert np.all(bounds * (1 + BOUND_SLACK) >= norms)


def test_schur_bound_of_a_non_finite_entry_is_not_finite():
    # four 2 x 2 blocks: finite, an inf entry, an inf and a -inf at one
    # place (a nan in the dense block) and a NaN entry; no bound may rule
    # out a block that is not finite
    M = np.array([[1.0, -2.0], [0.5, 3.0]])
    r, c = (np.tile(x.ravel(), 4) for x in np.indices((2, 2)))
    blk, data = np.repeat(np.arange(4), 4), np.tile(M.ravel(), 4)
    data[[5, 9, 14]] = np.inf, np.inf, np.nan
    blk, r, c = (np.append(x, x[9]) for x in (blk, r, c))
    data = np.append(data, -np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = schur_bounds(blk, r, c, data, np.full(4, 2), np.full(4, 2))
    assert bounds[0] == _dense_bound(M) >= np.linalg.norm(M, 2)
    assert bounds[1] == bounds[2] == np.inf and np.isnan(bounds[3])


def test_spectral_norm_keeps_a_block_whose_bound_rounds_below_its_norm():
    # M = [[1/3, 7], [7, 1/3]] has norm 22/3, but its Schur bound rounds
    # three ulps below the computed norm; the 1 x 1 block x in between has
    # the larger bound, so its norm is the lower bound and M must survive it
    M = np.array([[1 / 3, 7.0], [7.0, 1 / 3]])
    bound, norm = _dense_bound(M), np.linalg.norm(M, 2)
    x = np.nextafter(np.nextafter(bound, 8.0), 8.0)
    assert bound < x < norm and _dense_bound(np.array([[x]])) > bound
    args = (np.array([0, 1, 1, 2, 2]), np.array([0, 1, 2, 1, 2]),
            np.array([x, *M.ravel()]), np.array([0, 1, 1]),
            np.array([0, 1, 1]))
    assert spectral_norm(*args) == _unpruned_norm(*args) == norm


def _non_finite_cases(bad):
    # three sectors of different block shapes; the bad entry in each block
    rs, cs = np.array([0, 0, 1, 2, 2, 2]), np.array([0, 1, 1, 2, 2])
    row, col = np.array([0, 1, 2, 3, 4, 5, 3]), np.array([0, 0, 2, 3, 4, 4, 4])
    for k in range(len(row)):
        data = np.arange(1.0, len(row) + 1)
        data[k] = bad
        yield row, col, data, rs, cs
        yield row, col, data, np.zeros(6, np.int64), np.zeros(5, np.int64)


def _grouped(args):
    """The same entries with row r in group r % 2."""
    row, col, data, rs, cs = args
    return row, col, data, rs, cs, np.arange(len(rs)) % 2, 2


def test_spectral_norm_nan_entry_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in _non_finite_cases(np.nan):
            with pytest.raises(np.linalg.LinAlgError):
                spectral_norm(*args)
            with pytest.raises(np.linalg.LinAlgError):
                spectral_norms(*_grouped(args))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_spectral_norm_inf_entry_gives_nan_without_warnings(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in _non_finite_cases(bad):
            assert np.isnan(spectral_norm(*args))
            # the group of the bad entry's row is nan, the other is not
            row, data = args[0], args[2]
            bad_group = int(row[np.isinf(data)][0]) % 2
            got = spectral_norms(*_grouped(args))
            assert np.isnan(got[bad_group])
            assert got[1 - bad_group] == \
                _group_oracle(*_grouped(args))[1 - bad_group]
        # entries near the largest double: the bound overflows, not the norm
        big = (np.array([0, 0, 1]), np.array([0, 1, 1]),
               np.array([1e308, 1e308, -1e308]), np.array([0, 0]),
               np.array([0, 0]))
        assert spectral_norm(*big) == _unpruned_norm(*big)


# ------------------------- the commutators of a smaller truncation


def _commutators(kind, n_max, q):
    """[D, g] for each generator g, built on the truncation at twice-level
    n_max."""
    from diraclab.rep_double import dirac_D, pi_prime_generators
    from diraclab.rep_l2 import D1_PARAMS, dirac_family, hat_generators

    space = enumerate_space(kind, n_max)
    if kind == "L2":
        D, gens = dirac_family(D1_PARAMS, space), hat_generators(space, q)
    else:
        D, gens = dirac_D(space), pi_prime_generators(space, q)
    return space, {g: D @ T - T @ D for g, T in gens.items()}


@pytest.mark.parametrize("kind", ["L2", "Double"])
@pytest.mark.parametrize("q", [0.3, 0.8, 0.95])
@pytest.mark.parametrize("nmax", [4, 7, 16, 24])  # twice n_max, as on the CLI
def test_compressed_commutator_is_the_small_truncation(kind, q, nmax):
    # the commutators suite takes its n_max - 2 norm from the large
    # commutator projected onto interior(6): the same entries, and the same
    # norm, as the commutator built at n_max - 2 on its interior(2)
    space, large = _commutators(kind, nmax, q)
    small_space, small = _commutators(kind, nmax - 4, q)
    p3, ps = interior_projector(space, 3), interior_projector(small_space, 1)
    for g, C in large.items():
        got, want = C @ p3, small[g] @ ps
        assert got.dom is space and got.cod is space
        for attr in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(got, attr),
                                  getattr(want, attr)), (g, attr)
        assert op_norm(got) == op_norm(want), g


# ------------------------------- [D, T] by entry scaling, bit for bit


def _assert_same_entries(got, want, key=None):
    assert got.dom is want.dom and got.cod is want.cod
    for attr in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr),
                              equal_nan=True), (key, attr)


@pytest.mark.parametrize("kind", ["L2", "Double"])
@pytest.mark.parametrize("q", [0.3, 0.9])
@pytest.mark.parametrize("nmax", [8, 16])  # twice n_max, as on the CLI
def test_commutator_by_scaling_is_the_product_difference(kind, q, nmax):
    from diraclab.rep_double import dirac_D, pi_prime_generators
    from diraclab.rep_l2 import D1_PARAMS, dirac_family, hat_generators

    space = enumerate_space(kind, nmax)
    if kind == "L2":
        D, gens = dirac_family(D1_PARAMS, space), hat_generators(space, q)
    else:
        D, gens = dirac_D(space), pi_prime_generators(space, q)
    for g, T in gens.items():
        _assert_same_entries(commutator(D.diag(), T), D @ T - T @ D, g)


def test_commutator_by_scaling_masks_rows_where_d_stores_nothing():
    # D1 projected onto interior(2) stores no diagonal entry above level
    # n_max - 1; T holds inf and NaN on the top level, and inside, where
    # both a and b can be inf (a difference of infs, like their sum, is nan)
    from diraclab.rep_l2 import D1_PARAMS, dirac_family, hat_generators

    space = enumerate_space("L2", 6)
    D = dirac_family(D1_PARAMS, space) @ interior_projector(space, 1)
    assert len(D.rows) < space.dim
    for g, T in hat_generators(space, 0.5).items():
        vals = T.vals.copy()
        top = np.flatnonzero(space.tn[T.rows] == space.tn.max())
        inner = np.flatnonzero(space.tn[T.rows] < space.tn.max())
        vals[top[::3]], vals[top[1::3]] = np.inf, np.nan
        vals[inner[::5]], vals[inner[1::7]] = -np.inf, np.nan
        bad = SparseOp(T.dom, T.cod, T.rows, T.cols, vals)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = commutator(D.diag(), bad)
        _assert_same_entries(got, D @ bad - bad @ D, g)
        assert np.isnan(got.vals).any() and np.isinf(got.vals).any()


def test_commutator_rejects_a_non_diagonal_or_foreign_operator():
    from diraclab.rep_l2 import D1_PARAMS, dirac_family, hat_generators

    space, other = enumerate_space("L2", 4), enumerate_space("L2", 2)
    T = hat_generators(space, 0.5)["beta"]
    d = dirac_family(D1_PARAMS, space)
    # D is given by its eigenvalues: a matrix, even a diagonal one, is not
    # an eigenvalue array, and neither is one of another space
    for bad in (T.to_dense(), d.to_dense(),
                dirac_family(D1_PARAMS, other).diag()):
        with pytest.raises(SpaceMismatchError):
            commutator(bad, T)
    rect = SparseOp.from_coo(space, other, [], [], [])
    with pytest.raises(SpaceMismatchError):
        commutator(d.diag(), rect)


# --------------------------------- column cuts are products with projectors


@pytest.mark.parametrize("kind", ["L2", "Double"])
@pytest.mark.parametrize("nmax", [8, 16])  # twice n_max, as on the CLI
def test_column_cut_is_the_product_with_the_projector(kind, nmax):
    # every generator and every [D, g] the harness measures, on the
    # interior(2) and interior(6) columns; cutting T before the commutator
    # gives the same arrays as cutting the commutator
    from diraclab.rep_double import dirac_D, pi_prime_generators
    from diraclab.rep_l2 import D1_PARAMS, dirac_family, hat_generators

    space = enumerate_space(kind, nmax)
    if kind == "L2":
        D, gens = dirac_family(D1_PARAMS, space), hat_generators(space, 0.5)
    else:
        D, gens = dirac_D(space), pi_prime_generators(space, 0.5)
    for m in (1, 3):
        cols, P = interior(space, 2 * m), interior_projector(space, m)
        for g, T in gens.items():
            C = commutator(D.diag(), T)
            for key, op in ((g, T), (f"[D,{g}]", C)):
                _assert_same_entries(on_columns(op, cols), op @ P, (m, key))
            _assert_same_entries(commutator(D.diag(), on_columns(T, cols)),
                                 on_columns(C, cols), (m, g))
