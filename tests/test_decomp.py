import math

import numpy as np
import pytest

from diraclab.decomp import (
    KQ_GENERATORS,
    asymptotic_residual,
    asymptotic_scan,
    build_U,
    check_dirac_intertwine,
    control_decay,
    decay_fit,
    dirac_pair,
    direct_sum_op,
    kq_decay,
    kq_defect,
    leading_form,
    level_block_norms,
)
from diraclab.hilbert import DoubleIndex, L2Index, SumIndex, enumerate_space
from diraclab.linop import SparseOp
from diraclab.qnum import HalfInt, half
from diraclab.rep_double import a_plus, pi_prime_generators
from diraclab.rep_l2 import hat_generators

Q = 0.5


def _gens(n_max, q=Q):
    """(hatted, pi') generator dicts at one n_max and q, and U there."""
    return (hat_generators(enumerate_space("L2", n_max), q),
            pi_prime_generators(enumerate_space("Double", n_max), q),
            build_U(n_max))


def test_U_pinned_columns():
    U = build_U(1)
    l2 = enumerate_space("L2", half(1))
    dbl = U.cod
    dense = U.to_dense()

    def image_of(copy, n, i, j):
        col = U.dom.ordinal(SumIndex(copy, L2Index(half(n), half(i), half(j))))
        hits = np.nonzero(dense[:, col])[0]
        assert hits.size == 1 and dense[hits[0], col] == 1.0
        return dbl.basis[hits[0]]

    assert image_of(0, 0, 0, 0) == DoubleIndex("up", half(0), half(0), half(0.5))
    assert image_of(1, 0, 0, 0) == DoubleIndex("up", half(0), half(0), half(-0.5))
    assert image_of(0, 1, 0, 0) == DoubleIndex("down", half(1), half(0), half(0.5))


def test_U_is_permutation_and_unitary():
    for nm in (0, 1.5, 3):
        U = build_U(nm)
        dense = U.to_dense()
        assert dense.shape == (U.cod.dim, U.dom.dim)
        assert U.cod.dim == U.dom.dim
        # exactly one 1.0 per column and per row
        assert np.array_equal(np.sort(np.nonzero(dense)[0]), np.arange(U.cod.dim))
        assert set(np.unique(dense)) == {0.0, 1.0}
        eye = np.eye(U.dom.dim)
        assert np.array_equal((U.adjoint() @ U).to_dense(), eye)
        assert np.array_equal((U @ U.adjoint()).to_dense(), eye)


def test_direct_sum_op_blocks():
    sp = enumerate_space("L2", half(0.5))
    A = SparseOp.diagonal(sp, [1, 2, 3, 4, 5])
    B = SparseOp.diagonal(sp, [6, 7, 8, 9, 10])
    blk = direct_sum_op(A, B).to_dense()
    assert np.array_equal(np.diag(blk), np.arange(1, 11, dtype=float))
    assert np.count_nonzero(blk) == 10


@pytest.mark.parametrize("nm", [0, 4])
def test_intertwine_is_exact(nm):
    rep = check_dirac_intertwine(nm)
    assert rep.unitary_defect == 0.0
    assert rep.conjugation_defect == 0.0
    assert rep.dim_sum == rep.dim_double


def test_intertwine_negative_control():
    # redirecting U through a swap of two eigenvectors with different
    # eigenvalues must produce a nonzero conjugation defect
    from diraclab.rep_double import dirac_D

    nm = half(1)
    U = build_U(nm)
    l2 = enumerate_space("L2", nm)
    d1, absd2 = dirac_pair(l2)
    blk = direct_sum_op(d1, absd2)
    diag = blk.mat.diagonal()
    a, b = 0, int(np.argmax(diag != diag[0]))
    perm = np.arange(U.dom.dim)
    perm[a], perm[b] = perm[b], perm[a]
    S = SparseOp.from_coo(U.dom, U.dom, perm, np.arange(U.dom.dim),
                          np.ones(U.dom.dim))
    Ubad = U @ S
    defect = (Ubad @ blk @ Ubad.adjoint() - dirac_D(U.cod)).max_abs()
    assert defect >= abs(diag[a] - diag[b]) - 1e-12
    assert defect > 0.5


def test_kq_defect_validates_generator():
    assert KQ_GENERATORS == ("alpha*", "beta")
    with pytest.raises(ValueError):
        kq_defect("alpha", *_gens(2))


def test_kq_defect_band_structure_and_level_zero():
    delta = kq_defect("beta", *_gens(3))
    sp = delta.cod
    coo = delta.mat.tocoo()
    for r, c in zip(coo.row, coo.col):
        assert abs(sp.basis[r].n.twice - sp.basis[c].n.twice) == 1
    levels, norms = level_block_norms(delta)
    assert norms[0] <= 1.0
    # strictly decreasing block norms from n = 2 on
    tail = norms[4:]  # twice-n 4, 5, 6 -> n = 2, 2.5, 3
    assert all(tail[k + 1] < tail[k] for k in range(len(tail) - 1))


def test_kq_defect_norms_track_q2n():
    delta = kq_defect("alpha*", *_gens(4))
    levels, norms = level_block_norms(delta)
    for lev, nrm in zip(levels, norms):
        if lev.value < 2 or lev.value > 3:
            continue
        ratio = nrm / Q ** (2 * lev.value)
        assert 0.05 < ratio < 20.0, (lev, nrm)


def test_decay_fit_recovers_synthetic_rate():
    levels = [HalfInt(t) for t in range(0, 13)]
    norms = [Q ** (2 * l.value) for l in levels]
    fit = decay_fit(levels, norms)
    assert fit.gamma_hat == pytest.approx(2 * math.log(1 / Q), abs=1e-9)
    assert fit.censored == 0
    assert fit.residual < 1e-12


def test_decay_fit_constant_sequence():
    fit = decay_fit([0, 1, 2, 3], [0.7, 0.7, 0.7, 0.7])
    assert fit.gamma_hat == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_tolerates_bounded_wobble():
    levels = [HalfInt(t) for t in range(0, 11)]
    norms = [(1 + (-1) ** t / 10) * Q ** t for t in range(0, 11)]
    # norms here decay like q^{2n} with n = t/2, modulated by +-10%
    fit = decay_fit(levels, norms)
    target = 2 * math.log(1 / Q)
    assert abs(fit.gamma_hat - target) / target < 0.05


def test_decay_fit_censoring_and_errors():
    with pytest.raises(ValueError):
        decay_fit([0, 1], [1.0, 0.5])
    with pytest.raises(ValueError):
        decay_fit([0, 1, 2, 3], [1.0, 1e-16, 1e-16, 1e-16])
    with pytest.raises(ValueError):
        decay_fit([0, 1, 2], [1.0, 0.5])
    fit = decay_fit([0, 1, 2, 3], [1.0, 0.5, 0.25, 1e-15])
    assert fit.censored == 1
    assert len(fit.levels) == 3


@pytest.mark.parametrize("gen", KQ_GENERATORS)
def test_kq_decay_certifies_rate(gen):
    hat, prime, U = _gens(6)
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
                    lead = leading_form(kind, HalfInt(tn), HalfInt(ti),
                                        HalfInt(tj), Q)
                    assert lead[0, 1] == 0.0 and lead[1, 0] == 0.0
    with pytest.raises(ValueError):
        leading_form("c+", 0, 0, half(0.5), Q)


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
                worst = max(worst, abs(a_plus(HalfInt(tn), HalfInt(ti),
                                              HalfInt(tj), Q)[1, 0]))
        vals.append(worst / Q ** tn)
    base = vals[0]
    assert all(v <= 10 * base for v in vals)


@pytest.mark.parametrize("kind", ["a+", "a-", "b+", "b-"])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_asymptotic_scan_envelope(kind, q):
    scan = asymptotic_scan(kind, q)
    assert scan.levels[0] == HalfInt(2)
    assert scan.envelope <= 10.0
    # empirically the constant is much tighter; pin a regression margin
    assert scan.envelope <= 1.5
    assert np.all(scan.residuals >= 0)
