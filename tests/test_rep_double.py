import math

import numpy as np
import pytest

from diraclab.hilbert import enumerate_space
from diraclab.linop import interior_projector, op_norm
from diraclab.qnum import HalfInt, half, q_number
from diraclab.rep_double import (
    a_minus,
    a_plus,
    b_minus,
    b_plus,
    dirac_D,
    pi_prime,
    pi_prime_generators,
)
from diraclab.rep_l2 import pi_hat, relation_words
from tilde_oracle import tilde_coeffs, valid_v_label

Q = 0.5


def qn(t, q=Q):
    return q_number(HalfInt(t), q)


def _valid_pair_labels(tn_max):
    for tn in range(tn_max + 1):
        for ti in range(-tn, tn + 1, 2):
            for tj in range(-tn - 1, tn + 2, 2):
                yield tn, ti, tj


def test_a_plus_at_origin_against_factored_oracle():
    # independent re-evaluation of the displayed factorization at
    # n = i = j = 0, q = 1/2, plus frozen decimals from a symbolic evaluation
    got = a_plus(0, 0, 0, Q)
    pref = Q ** -0.25 * math.sqrt(qn(2))  # q^{-1/4} [1]^{1/2}
    assert pref == pytest.approx(2 ** 0.25, rel=1e-13)
    uu = pref * Q ** -0.5 * math.sqrt(qn(3)) / qn(4)   # [3/2], [2]
    du = pref * Q ** 0.5 * math.sqrt(qn(1)) / (qn(2) * qn(4))
    dd = pref * math.sqrt(qn(1)) / qn(2)
    np.testing.assert_allclose(got, [[uu, 0.0], [du, dd]], rtol=1e-13)
    frozen = np.array([[0.864098759787715, 0.0],
                       [0.230940107675850, 0.816496580927726]])
    np.testing.assert_allclose(got, frozen, atol=1e-14)


def test_lowering_matrices_vanish_at_weight_ceiling():
    # the [n-i]^{1/2} prefactor kills a- and b- at i = n; at n = 0 that is
    # every label, which also protects the [2n] denominators
    for tj in (-1, 1):
        assert not a_minus(0, 0, half(tj / 2), Q).any()
        assert not b_minus(0, 0, half(tj / 2), Q).any()
    assert not a_minus(1, 1, 0.5, Q).any()
    assert not b_minus(1.5, 1.5, -0.5, Q).any()
    assert a_minus(1, 0, 0.5, Q).any()


def test_b_plus_prefactor_never_vanishes():
    # [n+i+1] >= [1] > 0 on valid labels, so b+ is nonzero everywhere
    for tn, ti, tj in _valid_pair_labels(6):
        M = b_plus(HalfInt(tn), HalfInt(ti), HalfInt(tj), Q)
        assert M.any(), (tn, ti, tj)


def test_triangular_zero_patterns():
    for tn, ti, tj in _valid_pair_labels(4):
        args = (HalfInt(tn), HalfInt(ti), HalfInt(tj), Q)
        assert a_plus(*args)[0, 1] == 0.0
        assert a_minus(*args)[1, 0] == 0.0
        assert b_plus(*args)[0, 1] == 0.0
        assert b_minus(*args)[1, 0] == 0.0
        # tildes transpose: raising tildes are upper-triangular where the
        # referenced lowering matrices were lower-triangular, and vice versa
        assert tilde_coeffs("a", +1, *args)[0, 1] == 0.0
        assert tilde_coeffs("a", -1, *args)[1, 0] == 0.0
        assert tilde_coeffs("b", +1, *args)[0, 1] == 0.0
        assert tilde_coeffs("b", -1, *args)[1, 0] == 0.0


def test_valid_v_label():
    assert valid_v_label(0, 0, 0.5)
    assert valid_v_label(0, 0, -0.5)
    assert not valid_v_label(0, 0, 0)       # j must be half-integer at n = 0
    assert not valid_v_label(0, 0.5, 0.5)   # |i| > n
    assert not valid_v_label(1, 0, 2.5)     # |j| > n + 1/2
    assert not valid_v_label(-0.5, 0, 0)
    assert valid_v_label(1, -1, 1.5)


def test_tilde_zero_outside_range():
    # referenced label invalid -> zero matrix (matches the d = 0 convention)
    assert not tilde_coeffs("a", -1, 0, 0, 0.5, Q).any()
    assert not tilde_coeffs("b", -1, 0, 0, -0.5, Q).any()
    with pytest.raises(ValueError):
        tilde_coeffs("c", +1, 0, 0, 0.5, Q)
    with pytest.raises(ValueError):
        tilde_coeffs("a", 2, 0, 0, 0.5, Q)


def test_tilde_involution():
    # conjugating twice returns the original matrix:
    # a+-_{nij} = (ta-+_{n +- 1/2, i+1/2, j+1/2})^T and the b analogue
    for tn, ti, tj in _valid_pair_labels(4):
        n, i, j = HalfInt(tn), HalfInt(ti), HalfInt(tj)
        up = HalfInt(tn + 1)
        dn = HalfInt(tn - 1)
        ip, jp, jm = HalfInt(ti + 1), HalfInt(tj + 1), HalfInt(tj - 1)
        np.testing.assert_array_equal(
            a_plus(n, i, j, Q), tilde_coeffs("a", -1, up, ip, jp, Q).T)
        np.testing.assert_array_equal(
            b_plus(n, i, j, Q), tilde_coeffs("b", -1, up, ip, jm, Q).T)
        if valid_v_label(dn, ip, jp):
            np.testing.assert_array_equal(
                a_minus(n, i, j, Q), tilde_coeffs("a", +1, dn, ip, jp, Q).T)
        if valid_v_label(dn, ip, jm):
            np.testing.assert_array_equal(
                b_minus(n, i, j, Q), tilde_coeffs("b", +1, dn, ip, jm, Q).T)


def test_pi_prime_adjoint_pairs_are_exact():
    sp = enumerate_space("Double", half(3))
    ops = pi_prime_generators(sp, Q)
    assert (ops["alpha"].adjoint() - ops["alpha*"]).nnz == 0
    assert (ops["beta"].adjoint() - ops["beta*"]).nnz == 0


def test_pi_prime_band_and_weight_structure():
    sp = enumerate_space("Double", half(2))
    shifts = {"alpha*": (1, 1), "beta": (1, -1),
              "alpha": (-1, -1), "beta*": (-1, 1)}
    for gen, (di, dj) in shifts.items():
        T = pi_prime(gen, sp, Q)
        assert T.nnz > 0
        r, c = T.rows, T.cols
        assert np.all(np.abs(sp.tn[r] - sp.tn[c]) == 1), gen
        assert np.all(sp.ti[r] - sp.ti[c] == di), gen
        assert np.all(sp.tj[r] - sp.tj[c] == dj), gen


def test_pi_prime_beta_carries_display_sign():
    # the displays define pi'(-beta); the vacuum-level image of beta must
    # come out with the opposite sign of the raw b+ coefficients
    sp = enumerate_space("Double", half(1))
    B = pi_prime("beta", sp, Q).to_dense()
    src = sp.ordinals(0, 0, 1, band=0)  # twice-valued; band 0 up, 1 down
    M = b_plus(0, 0, 0.5, Q)
    tgt_up = sp.ordinals(1, 1, 0, band=0)
    tgt_dn = sp.ordinals(1, 1, 0, band=1)
    assert B[tgt_up, src] == -M[0, 0]
    assert B[tgt_dn, src] == -M[1, 0]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_pi_prime_satisfies_relations(q):
    # all five defining relations at machine precision on interior vectors
    sp = enumerate_space("Double", half(3))
    ops = pi_prime_generators(sp, q)
    P = interior_projector(sp, 1)
    for name, w in relation_words(q).items():
        defect = P @ pi_hat(w, sp, q, ops) @ P
        assert op_norm(defect) <= 1e-10, (name, q)


def test_pi_prime_input_validation():
    sp = enumerate_space("Double", half(1))
    l2 = enumerate_space("L2", half(1))
    with pytest.raises(ValueError):
        pi_prime("gamma", sp, Q)
    with pytest.raises(ValueError):
        pi_prime("alpha", l2, Q)
    with pytest.raises(ValueError):
        dirac_D(l2)


def test_dirac_D_values_and_spectrum():
    sp = enumerate_space("Double", half(2))
    D = dirac_D(sp)
    diag = D.mat.diagonal()
    assert diag[sp.ordinals(0, 0, 1, band=0)] == 1.0
    assert diag[sp.ordinals(1, 1, 0, band=1)] == -1.0
    # positive exactly on the up band
    assert np.array_equal(diag > 0, sp.band == 0)
    # census: eigenvalue +m for m = 1..2n_max+1 and -m for m = 1..2n_max,
    # each with multiplicity m(m+1)
    vals, counts = np.unique(diag, return_counts=True)
    census = dict(zip(vals.tolist(), counts.tolist()))
    expected = {float(m): m * (m + 1) for m in range(1, 6)}
    expected.update({float(-m): m * (m + 1) for m in range(1, 5)})
    assert census == expected
