"""The array assembly against per-label loop oracles.

Every operator is assembled in one numpy pass over the label arrays of its
space.  The oracles below are the per-label loops that assembly replaced:
they walk a basis enumerated here, label by label, find target ordinals in
a dict and call the scalar leaves once per label, and like assembly they
drop exact zeros only (``tilde_oracle.exact_op``).  Each array-assembled
operator must have the oracle's CSR pattern and its entries bit for bit,
the map of U must be the oracle's, and the arithmetic ordinals must
reproduce the enumeration order.
"""

import math

import numpy as np
import pytest

from diraclab.decomp import (SCAN_LEVELS, asymptotic_residual, build_U,
                             leading_form)
from diraclab.hilbert import enumerate_space
from diraclab.linop import SparseOp
from diraclab.qnum import q_number
from diraclab.rep_double import (a_minus, a_plus, b_minus, b_plus, dirac_D,
                                 pi_prime, pi_prime_generators)
from diraclab.rep_l2 import (D1_PARAMS, D2_PARAMS, DiracParams, _band_op,
                             alpha_hat, beta_hat, dirac_family,
                             hat_generators)
from tilde_oracle import (exact_op, pi_prime_tilde, tilde_coeffs,
                          valid_v_label)

TN_MAX = (0, 1, 2, 3, 4, 6, 8)  # n_max = 0, 1/2, 1, 3/2, 2, 3, 4
QS = (0.3, 0.5, 0.7, 0.8, 0.9)
GENERATORS = ("alpha", "alpha*", "beta", "beta*")


# ------------------------------------------------------ oracle enumeration

def _l2_labels(tnmax):
    # twice-valued (tn, ti, tj)
    for tn in range(tnmax + 1):
        for ti in range(-tn, tn + 1, 2):
            for tj in range(-tn, tn + 1, 2):
                yield tn, ti, tj


def _double_labels(tnmax):
    # (band, tn, ti, tj), band 0 up and 1 down; canonical order: level,
    # then band (up before down), then i, then j
    for tn in range(tnmax + 1):
        for band, h in ((0, tn + 1), (1, tn - 1)):  # j runs over -h..h
            for ti in range(-tn, tn + 1, 2):
                for tj in range(-h, h + 1, 2):
                    yield band, tn, ti, tj


def _oracle_basis(kind, tnmax):
    if kind == "L2":
        return list(_l2_labels(tnmax))
    return list(_double_labels(tnmax))


def _lookup(kind, tnmax):
    return {b: k for k, b in enumerate(_oracle_basis(kind, tnmax))}


# ------------------------------------------------------- per-label oracles

_MATS = {
    "alpha*": ((a_plus, a_minus), (+1, +1), +1.0),
    "beta": ((b_plus, b_minus), (+1, -1), -1.0),
    "alpha": ((lambda n, i, j, q: tilde_coeffs("a", +1, n, i, j, q),
               lambda n, i, j, q: tilde_coeffs("a", -1, n, i, j, q)),
              (-1, -1), +1.0),
    "beta*": ((lambda n, i, j, q: tilde_coeffs("b", +1, n, i, j, q),
               lambda n, i, j, q: tilde_coeffs("b", -1, n, i, j, q)),
              (-1, +1), -1.0),
}


def _pi_prime_loop(gen, space, q):
    """pi_prime by one scalar leaf call per label and band move."""
    lookup = _lookup("Double", space.n_max)
    (mat_up, mat_dn), (di, dj), sgn = _MATS[gen]
    rows, cols, vals = [], [], []
    for (sb, tn, ti, tj), col in lookup.items():
        for mat_fn, dn in ((mat_up, +1), (mat_dn, -1)):
            M = mat_fn(tn / 2, ti / 2, tj / 2, q)
            for tb in (0, 1):
                c = sgn * M[tb, sb]
                if c == 0.0:
                    continue
                row = lookup.get((tb, tn + dn, ti + di, tj + dj))
                if row is not None:
                    rows.append(row)
                    cols.append(col)
                    vals.append(c)
    return exact_op(space, rows, cols, vals)


def _sqrt0(x):
    return math.sqrt(x) if x > 0.0 else 0.0


def _hat_loop(gen, space, q):
    """alpha_hat or beta_hat by Python float arithmetic per label."""
    lookup = _lookup("L2", space.n_max)
    rows, cols, vals = [], [], []
    for (tn, ti, tj), col in lookup.items():
        n, i, j = tn / 2.0, ti / 2.0, tj / 2.0
        if gen == "alpha":
            moves = ((+1, -1, -1, q ** (2 * n + i + j + 1)),
                     (-1, -1, -1, _sqrt0(1 - q ** (2 * n + 2 * i))
                      * _sqrt0(1 - q ** (2 * n + 2 * j))))
        else:
            moves = ((+1, +1, -1, -q ** (n + j)
                      * _sqrt0(1 - q ** (2 * n + 2 * i + 2))),
                     (-1, +1, -1, q ** (n + i) * _sqrt0(1 - q ** (2 * n + 2 * j))))
        for dn, di, dj, c in moves:
            row = lookup.get((tn + dn, ti + di, tj + dj))
            if row is not None and c:
                rows.append(row)
                cols.append(col)
                vals.append(c)
    return exact_op(space, rows, cols, vals)


def _build_U_loop(tnmax):
    """The map of U: the Double ordinal of copy 0, then copy 1, of L2."""
    l2 = _oracle_basis("L2", tnmax)
    dbl = _lookup("Double", tnmax)
    rows = []
    for tn, ti, tj in l2:
        if tj < tn:
            rows.append(dbl[(1, tn, ti, tj + 1)])
        else:
            rows.append(dbl[(0, tn, ti, tn + 1)])
    for tn, ti, tj in l2:
        rows.append(dbl[(0, tn, ti, tj - 1)])
    return rows


def _dirac_D_loop(space):
    return SparseOp.diagonal(space, [
        float(tn + 1) if band == 0 else float(-tn)
        for band, tn, _, _ in _oracle_basis("Double", space.n_max)])


def _dirac_family_loop(params, space, side):
    k2 = 2 * params.k
    diag = []
    for tn, ti, tj in _oracle_basis("L2", space.n_max):
        tx = tj if side == "left" else ti
        n = tn / 2.0
        diag.append(params.a * n + params.b if tx < tn - k2
                    else params.c * n + params.d)
    return SparseOp.diagonal(space, diag)


def _leading_form_scalar(kind, tn, ti, tj, q):
    """The leading forms as the scalar formulas in twice-valued labels."""
    if kind == "a+":
        return _sqrt0(1 - q ** (tn + ti + 2)) * np.array(
            [[_sqrt0(1 - q ** (tn + tj + 3)), 0.0],
             [0.0, _sqrt0(1 - q ** (tn + tj + 1))]])
    if kind == "a-":
        return (q ** (tn + ti / 2 + tj / 2 + 0.5) * _sqrt0(1 - q ** (tn - ti))
                * np.array([[q * _sqrt0(1 - q ** (tn - tj + 1)), 0.0],
                            [0.0, _sqrt0(1 - q ** (tn - tj - 1))]]))
    if kind == "b+":
        return (q ** (tn / 2 + tj / 2 - 0.5) * _sqrt0(1 - q ** (tn + ti + 2))
                * np.array([[q, 0.0], [0.0, 1.0]]))
    return -q ** (tn / 2 + ti / 2) * np.array(
        [[_sqrt0(1 - q ** (tn + tj + 1)), 0.0],
         [0.0, _sqrt0(1 - q ** (tn + tj - 1))]])


_EXACT = {"a+": a_plus, "a-": a_minus, "b+": b_plus, "b-": b_minus}


def _asymptotic_residual_loop(kind, levels, q):
    out = []
    for tn in levels:
        r = 0.0
        for ti in range(-tn, tn + 1, 2):
            for tj in range(-tn - 1, tn + 2, 2):
                exact = _EXACT[kind](tn / 2, ti / 2, tj / 2, q)
                lead = _leading_form_scalar(kind, tn, ti, tj, q)
                r = max(r, np.max(np.abs(exact - lead)))
        out.append(r)
    return np.asarray(out)


def _assert_same(T, oracle):
    A, B = T.mat, oracle.mat
    assert A.shape == B.shape
    np.testing.assert_array_equal(A.indptr, B.indptr)
    np.testing.assert_array_equal(A.indices, B.indices)
    np.testing.assert_array_equal(A.data, B.data)


# ------------------------------------------------------------------ tests

@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("tn_max", TN_MAX)
def test_generators_match_loop_oracles(tn_max, q):
    dbl = enumerate_space("Double", tn_max)
    for g in GENERATORS:
        _assert_same(pi_prime(g, dbl, q), _pi_prime_loop(g, dbl, q))
    l2 = enumerate_space("L2", tn_max)
    _assert_same(alpha_hat(l2, q), _hat_loop("alpha", l2, q))
    _assert_same(beta_hat(l2, q), _hat_loop("beta", l2, q))


def test_band_op_evaluates_each_label_once():
    # a coefficient sees every (n, i, j) once: the up band of a Double
    # space, which holds every label, and every ordinal of an L2 space
    for kind, tn_max, size in (("Double", 16, 1938), ("L2", 16, 1785),
                               ("Double", 3, 40), ("L2", 0, 1)):
        space = enumerate_space(kind, tn_max)
        seen = []

        def coeff(n, i, j):
            seen.append(np.stack((2 * n, 2 * i, 2 * j)))
            return np.ones(np.shape(n) + ((2, 2) if kind == "Double" else ()))

        _band_op(space, (+1, +1), coeff, coeff)
        own = space.band == 0 if kind == "Double" else slice(None)
        want = np.stack((space.tn, space.ti, space.tj))[:, own]
        assert want.shape == (3, size)
        assert len(seen) == 2
        for got in seen:
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("tn_max", TN_MAX)
def test_q_free_operators_match_loop_oracles(tn_max):
    U = build_U(tn_max)
    assert U.dtype == np.int64
    np.testing.assert_array_equal(U, _build_U_loop(tn_max))
    dbl = enumerate_space("Double", tn_max)
    _assert_same(dirac_D(dbl), _dirac_D_loop(dbl))
    l2 = enumerate_space("L2", tn_max)
    for params in (D1_PARAMS, D2_PARAMS, DiracParams(1, -1.5, 0.25, 3.0, -2.0)):
        for side in ("left", "right"):
            _assert_same(dirac_family(params, l2, side),
                         _dirac_family_loop(params, l2, side))


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("kind", ["a+", "a-", "b+", "b-"])
def test_asymptotic_residual_matches_loop_oracle(kind, q):
    levels = list(range(0, 9))
    got = asymptotic_residual(kind, levels, q)
    np.testing.assert_allclose(got, _asymptotic_residual_loop(kind, levels, q),
                               rtol=1e-14, atol=0.0)
    for tn, ti, tj in ((3, 1, -2), (4, -4, 5), (0, 0, -1)):
        np.testing.assert_allclose(
            leading_form(kind, tn / 2, ti / 2, tj / 2, q),
            _leading_form_scalar(kind, tn, ti, tj, q), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
def test_adjoint_generators_equal_the_tilde_assembly(q):
    # pi'(alpha) and pi'(beta*) are the adjoints of the two assembled
    # generators; they equal the assembly from the tilde displays bit for bit
    for tn_max in (1, 8, 16, 32):
        dbl = enumerate_space("Double", tn_max)
        gens = pi_prime_generators(dbl, q)
        for g in ("alpha", "beta*"):
            want = pi_prime_tilde(g, dbl, q)
            for T in (gens[g], pi_prime(g, dbl, q)):
                for attr in ("rows", "cols", "vals"):
                    assert np.array_equal(getattr(T, attr),
                                          getattr(want, attr)), (g, attr)


def _asymptotic_residual_per_level(kind, levels, q):
    """asymptotic_residual as one evaluation per level."""
    out = []
    for tn in levels:
        ti, tj = np.meshgrid(np.arange(-tn, tn + 1, 2),
                             np.arange(-tn - 1, tn + 2, 2), indexing="ij")
        lab = (tn / 2.0, ti / 2.0, tj / 2.0)
        out.append(np.max(np.abs(_EXACT[kind](*lab, q)
                                 - leading_form(kind, *lab, q))))
    return np.asarray(out)


@pytest.mark.parametrize("q", [0.3, 0.7, 0.95])
@pytest.mark.parametrize("kind", ["a+", "a-", "b+", "b-"])
def test_asymptotic_residual_equals_a_per_level_evaluation(kind, q):
    # all levels are one label array; each label's q-powers are the same
    # Python floats, so the per-level maxima are the same bits
    for levels in (SCAN_LEVELS, [0, 1, 5, 20]):
        assert np.array_equal(asymptotic_residual(kind, levels, q),
                              _asymptotic_residual_per_level(kind, levels, q))


@pytest.mark.parametrize("tn_max", TN_MAX)
def test_ordinals_follow_enumeration_order(tn_max):
    for kind in ("L2", "Double"):
        space = enumerate_space(kind, tn_max)
        labels = np.array(_oracle_basis(kind, tn_max)).T
        tn, ti, tj = labels[-3:]
        band = labels[0] if kind == "Double" else np.zeros_like(tn)
        for got, want in zip((space.tn, space.ti, space.tj, space.band),
                             (tn, ti, tj, band)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(space.ordinals(tn, ti, tj, band=band),
                                      np.arange(space.dim))
        for t in range(tn_max + 1):
            np.testing.assert_array_equal(
                space.level_ordinals(t), np.flatnonzero(tn == t))


def test_labels_outside_the_space_have_no_ordinal():
    tnm = 4
    l2 = enumerate_space("L2", tnm)
    dbl = enumerate_space("Double", tnm)
    absent_l2 = [(tnm + 1, 1, 1), (-1, 1, 1), (2, 4, 0), (2, 1, 0), (2, 0, 4)]
    for tn, ti, tj in absent_l2:
        assert l2.ordinals(tn, ti, tj) == -1, (tn, ti, tj)
    # the down band has no j = +-(n + 1/2); the up band has no j = n + 3/2
    for band, tn, ti, tj in ((1, 2, 0, 3), (1, 2, 0, -3), (0, 2, 0, 5),
                             (0, 0, 0, 0), (1, 0, 0, 1), (0, tnm + 1, 1, 0)):
        assert dbl.ordinals(tn, ti, tj, band=band) == -1, (band, tn, ti, tj)
    # L2 has one band and Double two: the (tn, ti, tj) of every label of
    # the space, asked for a band past the last or for band -1, is absent
    for space, band in ((l2, 1), (l2, -1), (dbl, 2), (dbl, -1)):
        got = space.ordinals(space.tn, space.ti, space.tj, band=band)
        assert (got == -1).all(), (space.kind, band)


def _valid_label_arrays(tn_max):
    labs = [(tn, ti, tj) for tn in range(tn_max + 1)
            for ti in range(-tn, tn + 1, 2) for tj in range(-tn - 1, tn + 2, 2)]
    return tuple(np.array(c) / 2.0 for c in zip(*labs))


@pytest.mark.parametrize("q", [1e-8, 0.05, 0.5, 0.95])
def test_assembled_generators_are_finite(q):
    # division by zero and invalid operations are silenced inside the
    # leaves where the masks zero them; no valid label may keep a nan
    for tn_max in range(0, 7):
        ops = list(pi_prime_generators(
            enumerate_space("Double", tn_max), q).values())
        ops += list(hat_generators(
            enumerate_space("L2", tn_max), q).values())
        for T in ops:
            assert np.isfinite(T.mat.data).all(), (q, tn_max)
    labels = _valid_label_arrays(6)
    assert valid_v_label(*labels).all()
    for leaf in (a_plus, a_minus, b_plus, b_minus):
        assert np.isfinite(leaf(*labels, q)).all(), leaf.__name__
    for kind in ("a", "b"):
        for sign in (+1, -1):
            assert np.isfinite(tilde_coeffs(kind, sign, *labels, q)).all()


@pytest.mark.parametrize("q", [1e-100, 1e-60, 1e-40])
def test_array_assembly_overflows_where_the_loop_does(q):
    # q^{-m} beyond double range raises OverflowError over arrays of labels
    # exactly where the per-label loop raises it
    for tn_max in (2, 4, 6):
        dbl = enumerate_space("Double", tn_max)
        try:
            want = _pi_prime_loop("alpha*", dbl, q)
        except OverflowError:
            with pytest.raises(OverflowError):
                pi_prime("alpha*", dbl, q)
        else:
            _assert_same(pi_prime("alpha*", dbl, q), want)
    with pytest.raises(OverflowError):
        q_number(np.array([0.5, 400.0]), 1e-4)
    with pytest.raises(OverflowError):
        pi_prime("beta", enumerate_space("Double", 8), 1e-100)


def test_tilde_arrays_vanish_at_invalid_references():
    # a tilde matrix whose referenced label is not a valid v-label is the
    # zero matrix, although the display evaluated there need not vanish
    n, i, j = _valid_label_arrays(6)
    for kind, sign, dj in (("a", +1, -0.5), ("a", -1, -0.5),
                           ("b", +1, +0.5), ("b", -1, +0.5)):
        invalid = ~valid_v_label(n + sign / 2, i - 0.5, j + dj)
        M = tilde_coeffs(kind, sign, n, i, j, 0.5)
        assert not M[invalid].any(), (kind, sign)
        assert M[~invalid].any(), (kind, sign)
