"""Unitary decomposition of the doubled representation and decay diagnostics.

Four pieces:

* ``build_U`` / ``check_dirac_intertwine`` — the explicit 0/1 permutation
  U : L2 (+) L2 -> Double and the exact conjugation U (D1 (+) |D2|) U* = D
  (zero deviation: every eigenvalue is a machine integer and U only
  permutes coordinates).
* ``kq_defect`` — the residual U (pi_hat(g) (+) pi_hat(g)) U* - pi'(g) on the
  Double space, whose per-level block norms decay like q^{2n}.
* ``decay_fit`` — least-squares estimate of an exponential decay rate from
  (level, norm) samples, with floor censoring.
* ``leading_form`` / ``asymptotic_residual`` — the closed leading-order forms
  of the four 2x2 coefficient matrices and the q^{2n} envelope of the
  entrywise residuals.

Decay exponents are reported in nats per unit n; divide by ln(1/q) to read
them as multiples of the modulus scale (the kq reports carry that ratio).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hilbert import TruncatedSpace, direct_sum, enumerate_space
from .linop import SparseOp, block_norm
from .qnum import HalfInt, half, q_power, validate_q
from .rep_double import (_halves, _matrix, a_minus, a_plus, b_minus, b_plus,
                         pi_prime)
from .rep_l2 import (D1_PARAMS, D2_PARAMS, _sqrt0, abs_op, dirac_family,
                     hat_generators)

#: Generators whose defect the reduction step actually needs (the other two
#: follow by adjoints).
KQ_GENERATORS = ("alpha*", "beta")

#: Default floor below which a block norm is treated as numerically zero.
NORM_FLOOR = 1e-14


def build_U(n_max) -> SparseOp:
    """The unitary L2 (+) L2 -> Double.

    Copy 0 fills the down band (j -> j + 1/2) except at the weight edge
    j = n, which lands on u^n_{i, n+1/2}; copy 1 fills the rest of the up
    band (j -> j - 1/2).  Every matrix entry is 1.0 and every basis vector
    is hit exactly once, so U is a permutation.
    """
    n_max = half(n_max)
    l2 = enumerate_space("L2", n_max)
    dbl = enumerate_space("Double", n_max)
    tn, ti, tj = l2.tn, l2.ti, l2.tj
    edge = tj == tn
    rows = np.concatenate([
        dbl.ordinals(tn, ti, np.where(edge, tn + 1, tj + 1), band=~edge),
        dbl.ordinals(tn, ti, tj - 1, band=0)])
    return SparseOp.from_coo(direct_sum(l2, l2), dbl, rows,
                             np.arange(2 * l2.dim), np.ones(2 * l2.dim))


def direct_sum_op(A: SparseOp, B: SparseOp) -> SparseOp:
    """Block-diagonal lift A (+) B acting on the direct sum of the domains."""
    dom = direct_sum(A.dom, B.dom)
    cod = direct_sum(A.cod, B.cod)
    return SparseOp.from_coo(
        dom, cod, np.concatenate([A.rows, B.rows + A.cod.dim]),
        np.concatenate([A.cols, B.cols + A.dom.dim]),
        np.concatenate([A.vals, B.vals]))


def dirac_pair(space: TruncatedSpace):
    """(D1, |D2|) on an L2 truncation, the diagonal pair conjugated by U."""
    d1 = dirac_family(D1_PARAMS, space)
    d2 = dirac_family(D2_PARAMS, space)
    return d1, abs_op(d2)


class DecompositionReport(NamedTuple):
    n_max: HalfInt
    dim_sum: int
    dim_double: int
    unitary_defect: float      # max entry of |U*U - I| and |UU* - I|
    conjugation_defect: float  # max entry of |U (D1 (+) |D2|) U* - D|


def check_dirac_intertwine(n_max) -> DecompositionReport:
    """Verify U (D1 (+) |D2|) U* = D exactly on the truncation.

    Both reported defects are exactly 0.0: the three diagonals hold machine
    integers and conjugation by a permutation only reorders them.
    """
    from .rep_double import dirac_D

    n_max = half(n_max)
    U = build_U(n_max)
    d1, absd2 = dirac_pair(enumerate_space("L2", n_max))
    blk = direct_sum_op(d1, absd2)
    eye_dom = SparseOp.identity(U.dom)
    eye_cod = SparseOp.identity(U.cod)
    unitary = max((U.adjoint() @ U - eye_dom).max_abs(),
                  (U @ U.adjoint() - eye_cod).max_abs())
    D = dirac_D(U.cod)
    conj = (U @ blk @ U.adjoint() - D).max_abs()
    return DecompositionReport(n_max, U.dom.dim, U.cod.dim, unitary, conj)


def kq_defect(gen: str, n_max, q: float) -> SparseOp:
    """Defect Delta = U (pi_hat(g) (+) pi_hat(g)) U* - pi'(g) on Double.

    Only 'alpha*' and 'beta' are accepted: the remaining generators are
    adjoints of these two, so their defects carry the same block norms.
    Delta inherits the +-1/2 band structure of its parents and its level-n
    block norm decays like q^{2n}.
    """
    if gen not in KQ_GENERATORS:
        raise ValueError(f"kq_defect: gen must be one of {KQ_GENERATORS}, "
                         f"got {gen!r}")
    q = validate_q(q)
    n_max = half(n_max)
    l2 = enumerate_space("L2", n_max)
    hat = hat_generators(l2, q)[gen]
    U = build_U(n_max)
    lifted = U @ direct_sum_op(hat, hat) @ U.adjoint()
    return lifted - pi_prime(gen, U.cod, q)


class DecayFit(NamedTuple):
    """Least-squares exponential decay fit over uncensored levels."""

    levels: tuple       # HalfInt levels that entered the fit
    norms: tuple        # their block norms
    gamma_hat: float    # decay exponent, nats per unit n
    residual: float     # rms residual of the log-linear fit
    censored: int       # levels dropped for sitting at/below the floor


def decay_fit(levels, norms, floor: float = NORM_FLOOR) -> DecayFit:
    """Fit norms ~ C exp(-gamma n) by least squares on ln(norm) vs n.

    Levels whose norm is <= floor are censored (log of numerical zero);
    at least three uncensored points are required.
    """
    lev = [half(x) for x in levels]
    arr = np.asarray(norms, dtype=float)
    if len(lev) != arr.size:
        raise ValueError("decay_fit: levels and norms must have equal length")
    mask = arr > floor
    kept = int(mask.sum())
    if kept < 3:
        raise ValueError(
            f"decay_fit: only {kept} of {arr.size} levels exceed the floor "
            f"{floor:g}; need >= 3 for a slope estimate")
    x = np.array([l.value for l, m in zip(lev, mask) if m])
    y = np.log(arr[mask])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return DecayFit(tuple(l for l, m in zip(lev, mask) if m),
                    tuple(arr[mask]), float(-coef[0]), resid,
                    int((~mask).sum()))


def level_block_norms(T: SparseOp):
    """(levels, norms): spectral norm of each level-n row block of T."""
    tns = sorted(T.cod.levels)
    norms = np.array([block_norm(T, HalfInt(tn)) for tn in tns])
    return tuple(HalfInt(tn) for tn in tns), norms


class KqDecay(NamedTuple):
    gen: str
    q: float
    n_max: HalfInt
    levels: tuple        # all HalfInt levels of the Double space
    norms: np.ndarray    # block norm of the defect at each level
    fit: DecayFit        # fit over the asymptotic window
    gamma_ratio: float   # gamma_hat / ln(1/q)


def _windowed_fit(levels, norms, fit_lo: float, fit_hi: float) -> DecayFit:
    sel = [(l, v) for l, v in zip(levels, norms)
           if fit_lo <= l.value <= fit_hi]
    return decay_fit([l for l, _ in sel], [v for _, v in sel])


def kq_decay(gen: str, n_max, q: float, fit_lo: float = 2.0,
             fit_hi: float | None = None) -> KqDecay:
    """Per-level norms of the kq defect plus the decay fit.

    The fit window defaults to n in [2, n_max - 1]: the first few levels
    are pre-asymptotic and the last can feel the truncation edge.
    """
    n_max = half(n_max)
    if fit_hi is None:
        fit_hi = n_max.value - 1.0
    delta = kq_defect(gen, n_max, q)
    levels, norms = level_block_norms(delta)
    fit = _windowed_fit(levels, norms, fit_lo, fit_hi)
    return KqDecay(gen, q, n_max, levels, norms, fit,
                   fit.gamma_hat / math.log(1.0 / q))


def control_decay(gen: str, n_max, q: float, fit_lo: float = 2.0,
                  fit_hi: float | None = None) -> KqDecay:
    """Negative control: the same fit applied to pi'(gen) itself.

    The representation operators have O(1) block norms, so gamma_hat
    should sit near zero — evidence that the kq fit is not an artifact
    of the window or the norm plumbing.
    """
    q = validate_q(q)
    n_max = half(n_max)
    if fit_hi is None:
        fit_hi = n_max.value - 1.0
    T = pi_prime(gen, enumerate_space("Double", n_max), q)
    levels, norms = level_block_norms(T)
    fit = _windowed_fit(levels, norms, fit_lo, fit_hi)
    return KqDecay(gen, q, n_max, levels, norms, fit,
                   fit.gamma_hat / math.log(1.0 / q))


# ---------------------------------------------------------------------------
# Leading-order forms of the coefficient matrices

_EXACT = {"a+": a_plus, "a-": a_minus, "b+": b_plus, "b-": b_minus}


def leading_form(kind: str, n, i, j, q: float) -> np.ndarray:
    """The displayed leading matrix (exact matrix minus its O(q^{2n}) tail).

    All four are diagonal; in particular the off-diagonal entries of the
    exact matrices are themselves O(q^{2n}).
    """
    if kind not in _EXACT:
        raise ValueError(f"leading_form: kind must be one of "
                         f"{tuple(_EXACT)}, got {kind!r}")
    q = validate_q(q)
    n, i, j = _halves(n, i, j)
    s = lambda e: _sqrt0(1 - q_power(e, q))
    if kind == "a+":
        return _matrix(s(2 * n + 2 * i + 2), s(2 * n + 2 * j + 3), 0.0,
                       0.0, s(2 * n + 2 * j + 1))
    if kind == "a-":
        pref = q_power(2 * n + i + j + 0.5, q) * s(2 * n - 2 * i)
        return _matrix(pref, q * s(2 * n - 2 * j + 1), 0.0,
                       0.0, s(2 * n - 2 * j - 1))
    if kind == "b+":
        pref = q_power(n + j - 0.5, q) * s(2 * n + 2 * i + 2)
        return _matrix(pref, q, 0.0, 0.0, 1.0)
    return _matrix(-q_power(n + i, q), s(2 * n + 2 * j + 1), 0.0,
                   0.0, s(2 * n + 2 * j - 1))


def asymptotic_residual(kind: str, levels, q: float) -> np.ndarray:
    """Max entrywise |exact - leading| over the (i, j) grid, per level.

    The grid at level n runs i in {-n..n}, j in {-n-1/2..n+1/2} (the labels
    the coefficient matrices are evaluated at in the doubled representation).
    """
    if kind not in _EXACT:
        raise ValueError(f"asymptotic_residual: kind must be one of "
                         f"{tuple(_EXACT)}, got {kind!r}")
    q = validate_q(q)
    exact = _EXACT[kind]
    out = []
    for n in levels:
        tn = half(n).twice
        ti, tj = np.meshgrid(np.arange(-tn, tn + 1, 2),
                             np.arange(-tn - 1, tn + 2, 2), indexing="ij")
        lab = (tn / 2.0, ti / 2.0, tj / 2.0)
        out.append(np.max(np.abs(exact(*lab, q) - leading_form(kind, *lab, q))))
    return np.asarray(out)


class AsymptoticScan(NamedTuple):
    kind: str
    q: float
    levels: tuple        # HalfInt
    residuals: np.ndarray
    ratios: np.ndarray   # residual / q^{2n}
    envelope: float      # max ratio / ratio at the first level


def asymptotic_scan(kind: str, q: float, levels=None) -> AsymptoticScan:
    """Residual-to-q^{2n} ratios over a level range (default n = 1..6).

    A bounded envelope (max ratio within a fixed factor of the ratio at
    the first level) certifies the O(q^{2n}) rate with an explicit constant.
    """
    if levels is None:
        levels = [HalfInt(t) for t in range(2, 13)]
    lev = [half(x) for x in levels]
    res = asymptotic_residual(kind, lev, q)
    ratios = res / np.array([q ** l.twice for l in lev])
    base = ratios[0]
    envelope = float(np.max(ratios) / base) if base > 0 else math.inf
    return AsymptoticScan(kind, q, tuple(lev), res, ratios, envelope)
