import math

import numpy as np
import pytest

from diraclab import decomp
from diraclab.decomp import (
    KQ_GENERATORS,
    asymptotic_residual,
    asymptotic_scan,
    build_U,
    check_dirac_intertwine,
    control_decay,
    decay_fit,
    direct_sum_op,
    kq_decay,
    kq_defect,
    leading_form,
    level_block_norms,
)
from diraclab.hilbert import enumerate_space
from diraclab.linop import SparseOp, SpaceMismatchError
from diraclab.rep_double import a_plus, dirac_D, pi_prime_generators
from diraclab.rep_l2 import D1_PARAMS, D2_PARAMS, dirac_family, hat_generators

Q = 0.5


def _gens(n_max, q=Q):
    """(hatted, pi') generator dicts at one n_max and q, and U there."""
    return (hat_generators(enumerate_space("L2", n_max), q),
            pi_prime_generators(enumerate_space("Double", n_max), q),
            build_U(n_max))


def _U_matrix(U, dbl):
    """The matrix of the map U: 1.0 at (U[k], k) for every ordinal k of
    L2 (+) L2, built from the map alone."""
    assert U.dtype == np.int64 and U.shape == (dbl.dim,)
    assert U.min() >= 0 and U.max() < dbl.dim
    dense = np.zeros((dbl.dim, len(U)))
    np.add.at(dense, (U, np.arange(len(U))), 1.0)
    return dense


def test_U_pinned_columns():
    U = build_U(2)
    l2 = enumerate_space("L2", 2)
    dbl = enumerate_space("Double", 2)
    dense = _U_matrix(U, dbl)

    def image_of(copy, tn, ti, tj):
        # the sum lists copy 0, then copy 1, each in the order of L2; labels
        # are twice-valued, and a Double label is (band, tn, ti, tj)
        col = copy * l2.dim + l2.ordinals(tn, ti, tj)
        hits = np.nonzero(dense[:, col])[0]
        assert hits.size == 1 and dense[hits[0], col] == 1.0
        assert hits[0] == U[col]
        k = hits[0]
        return dbl.band[k], dbl.tn[k], dbl.ti[k], dbl.tj[k]

    assert image_of(0, 0, 0, 0) == (0, 0, 0, 1)
    assert image_of(1, 0, 0, 0) == (0, 0, 0, -1)
    assert image_of(0, 2, 0, 0) == (1, 2, 0, 1)


def test_U_is_permutation_and_unitary():
    for nm in (0, 3, 6):
        U = build_U(nm)
        l2 = enumerate_space("L2", nm)
        dbl = enumerate_space("Double", nm)
        dense = _U_matrix(U, dbl)
        assert dense.shape == (dbl.dim, 2 * l2.dim)
        assert dense.shape[0] == dense.shape[1]
        # exactly one 1.0 per column and per row
        assert np.array_equal(np.sort(np.nonzero(dense)[0]), np.arange(dbl.dim))
        assert set(np.unique(dense)) == {0.0, 1.0}
        eye = np.eye(dbl.dim)
        assert np.array_equal(dense.T @ dense, eye)
        assert np.array_equal(dense @ dense.T, eye)


def test_direct_sum_op_blocks():
    sp = enumerate_space("L2", 1)
    dbl = enumerate_space("Double", 1)
    U = build_U(1)
    A = SparseOp.diagonal(sp, [1, 2, 3, 4, 5])
    B = SparseOp.diagonal(sp, [6, 7, 8, 9, 10])
    blk = direct_sum_op(A, B, U, dbl).to_dense()
    # A's ordinal k sits at U[k], B's at U[dim + k]
    assert np.array_equal(np.diag(blk)[U], np.arange(1, 11, dtype=float))
    assert np.count_nonzero(blk) == 10
    # off the diagonal too: U (A (+) B) U* as matrices, bit for bit
    rng = np.random.default_rng(7)
    dense = [rng.standard_normal((sp.dim, sp.dim)) for _ in range(2)]
    A, B = (SparseOp.from_coo(sp, sp, *np.nonzero(np.ones_like(d)), d.ravel())
            for d in dense)
    Um = _U_matrix(U, dbl)
    sum_ = np.zeros((2 * sp.dim, 2 * sp.dim))
    sum_[:sp.dim, :sp.dim], sum_[sp.dim:, sp.dim:] = dense
    assert np.array_equal(direct_sum_op(A, B, U, dbl).to_dense(),
                          Um @ sum_ @ Um.T)


def test_direct_sum_op_rejects_other_spaces():
    # only two L2 operators at the n_max of U and of the Double space
    nm = 2
    l2 = enumerate_space("L2", nm)
    dbl = enumerate_space("Double", nm)
    U = build_U(nm)
    I = SparseOp.identity(l2)
    assert direct_sum_op(I, I, U, dbl).nnz == dbl.dim
    bad = (SparseOp.identity(dbl), SparseOp.identity(enumerate_space("L2", 4)),
           SparseOp.identity(enumerate_space("L2", 1)))
    for T in bad:
        for args in ((T, I, U, dbl), (I, T, U, dbl)):
            with pytest.raises(SpaceMismatchError):
                direct_sum_op(*args)
    with pytest.raises(SpaceMismatchError):  # a map of another n_max
        direct_sum_op(I, I, build_U(1), dbl)
    with pytest.raises(SpaceMismatchError):  # not the Double space
        direct_sum_op(I, I, U, enumerate_space("L2", 4))


@pytest.mark.parametrize("nm", [0, 4, 8])
def test_intertwine_is_exact(nm):
    rep = check_dirac_intertwine(nm)
    assert rep.unitary_defect == 0.0
    assert rep.conjugation_defect == 0.0
    assert rep.dim_sum == rep.dim_double


def test_intertwine_negative_control(monkeypatch):
    # redirecting U through a swap of two eigenvectors with different
    # eigenvalues must produce a nonzero conjugation defect
    nm = 2
    U = build_U(nm)
    l2 = enumerate_space("L2", nm)
    dbl = enumerate_space("Double", nm)
    d1, d2 = (dirac_family(p, l2).diag() for p in (D1_PARAMS, D2_PARAMS))
    diag = np.concatenate([d1, np.abs(d2)])  # of D1 (+) |D2|
    a, b = 0, int(np.argmax(diag != diag[0]))
    Ubad = U.copy()
    Ubad[a], Ubad[b] = U[b], U[a]
    Um = _U_matrix(Ubad, dbl)
    defect = np.abs(Um @ np.diag(diag) @ Um.T - dirac_D(dbl).to_dense()).max()
    assert defect >= abs(diag[a] - diag[b]) - 1e-12
    assert defect > 0.5
    # the swapped map is still a permutation: only the conjugation fails
    monkeypatch.setattr(decomp, "build_U", lambda n_max: Ubad)
    rep = check_dirac_intertwine(nm)
    assert rep.unitary_defect == 0.0
    assert rep.conjugation_defect == defect


@pytest.mark.parametrize("fault", ["repeated", "absent"])
def test_unitary_defect_negative_control(monkeypatch, fault):
    # a map that hits one Double ordinal twice, or sends an ordinal to no
    # label (-1), is not unitary
    nm = 3
    bad = build_U(nm).copy()
    if fault == "repeated":
        bad[1] = bad[0]
    else:
        bad[0] = -1
    monkeypatch.setattr(decomp, "build_U", lambda n_max: bad)
    rep = check_dirac_intertwine(nm)
    assert rep.unitary_defect >= 1.0
    assert rep.U is bad
    if fault == "absent":
        # no relabelled operator exists to compare with D
        assert rep.conjugation_defect == math.inf


def test_kq_defect_validates_generator():
    assert KQ_GENERATORS == ("alpha*", "beta")
    with pytest.raises(ValueError):
        kq_defect("alpha", *_gens(4))


def test_kq_defect_band_structure_and_level_zero():
    delta = kq_defect("beta", *_gens(6))
    sp = delta.cod
    assert np.all(np.abs(sp.tn[delta.rows] - sp.tn[delta.cols]) == 1)
    levels, norms = level_block_norms(delta)
    assert norms[0] <= 1.0
    # strictly decreasing block norms from n = 2 on
    tail = norms[4:]  # twice-n 4, 5, 6 -> n = 2, 2.5, 3
    assert all(tail[k + 1] < tail[k] for k in range(len(tail) - 1))


def test_kq_defect_norms_track_q2n():
    delta = kq_defect("alpha*", *_gens(8))
    levels, norms = level_block_norms(delta)
    for tn, nrm in zip(levels, norms):
        if tn < 4 or tn > 6:
            continue
        ratio = nrm / Q ** tn
        assert 0.05 < ratio < 20.0, (tn, nrm)


def test_decay_fit_recovers_synthetic_rate():
    levels = list(range(0, 13))
    norms = [Q ** tn for tn in levels]
    fit = decay_fit(levels, norms)
    assert fit.gamma_hat == pytest.approx(2 * math.log(1 / Q), abs=1e-9)
    assert fit.censored == 0
    assert fit.residual < 1e-12


def test_decay_fit_constant_sequence():
    fit = decay_fit([0, 2, 4, 6], [0.7, 0.7, 0.7, 0.7])
    assert fit.gamma_hat == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_tolerates_bounded_wobble():
    levels = list(range(0, 11))
    norms = [(1 + (-1) ** t / 10) * Q ** t for t in range(0, 11)]
    # norms here decay like q^{2n} with n = t/2, modulated by +-10%
    fit = decay_fit(levels, norms)
    target = 2 * math.log(1 / Q)
    assert abs(fit.gamma_hat - target) / target < 0.05


def test_decay_fit_censoring_and_errors():
    with pytest.raises(ValueError):
        decay_fit([0, 2], [1.0, 0.5])
    with pytest.raises(ValueError):
        decay_fit([0, 2, 4, 6], [1.0, 1e-16, 1e-16, 1e-16])
    with pytest.raises(ValueError):
        decay_fit([0, 2, 4], [1.0, 0.5])
    fit = decay_fit([0, 2, 4, 6], [1.0, 0.5, 0.25, 1e-15])
    assert fit.censored == 1
    assert len(fit.levels) == 3


@pytest.mark.parametrize("n_max, window", [(8, (4, 5, 6)),
                                           (9, (4, 5, 6, 7))])
def test_kq_fit_window_runs_from_level_2_to_n_max_minus_1(n_max, window):
    # twice-levels 4..n_max - 2, both ends included, as plain ints
    out = kq_decay("beta", *_gens(n_max), Q)
    assert out.levels == tuple(range(n_max + 1))
    assert out.fit.levels == window
    assert all(type(tn) is int for tn in out.fit.levels)
    assert out.fit.norms == tuple(out.norms[4:n_max - 1])


@pytest.mark.parametrize("gen", KQ_GENERATORS)
def test_kq_decay_certifies_rate(gen):
    hat, prime, U = _gens(12)
    out = kq_decay(gen, hat, prime, U, Q)
    assert 1.8 <= out.gamma_ratio <= 2.2
    assert out.fit.censored == 0
    # control: the representation itself shows no such decay
    ctl = control_decay(gen, prime, Q)
    assert abs(ctl.gamma_ratio) < 0.5


def test_leading_forms_are_diagonal_and_close():
    for kind in ("a+", "a-", "b+", "b-"):
        for tn in range(0, 7):
            for ti in range(-tn, tn + 1, 2):
                for tj in range(-tn - 1, tn + 2, 2):
                    lead = leading_form(kind, tn / 2, ti / 2, tj / 2, Q)
                    assert lead[0, 1] == 0.0 and lead[1, 0] == 0.0
    with pytest.raises(ValueError):
        leading_form("c+", 0, 0, 0.5, Q)


def test_asymptotic_residual_lowering_zero_level():
    # at n = 0 both a- and its leading form vanish identically
    res = asymptotic_residual("a-", [0], Q)
    assert res[0] == 0.0


def test_a_plus_offdiagonal_is_suppressed():
    # the (down, up) entry of the exact a+ is pure correction: it must decay
    # like q^{2n} since the leading form is diagonal
    vals = []
    for tn in range(2, 9, 2):
        worst = 0.0
        for ti in range(-tn, tn + 1, 2):
            for tj in range(-tn - 1, tn + 2, 2):
                worst = max(worst,
                            abs(a_plus(tn / 2, ti / 2, tj / 2, Q)[1, 0]))
        vals.append(worst / Q ** tn)
    base = vals[0]
    assert all(v <= 10 * base for v in vals)


@pytest.mark.parametrize("kind", ["a+", "a-", "b+", "b-"])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_asymptotic_scan_envelope(kind, q):
    scan = asymptotic_scan(kind, q)
    assert scan.levels[0] == 2
    assert scan.envelope <= 10.0
    # empirically the constant is much tighter; pin a regression margin
    assert scan.envelope <= 1.5
    assert np.all(scan.residuals >= 0)
