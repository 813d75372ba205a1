"""Unitary decomposition of the doubled representation and decay diagnostics.

Four pieces:

* ``build_U`` / ``check_dirac_intertwine`` — the unitary U : L2 (+) L2 ->
  Double, a permutation held as its map of ordinals, and the exact
  conjugation U (D1 (+) |D2|) U* = D (zero deviation: every eigenvalue is a
  machine integer and conjugation by U only relabels ordinals).
* ``kq_defect`` — the residual U (pi_hat(g) (+) pi_hat(g)) U* - pi'(g) on the
  Double space, whose per-level block norms decay like q^{2n}.  It and the
  decay fits take the generators and U they measure, so a run of the harness
  builds each once.
* ``decay_fit`` — least-squares estimate of an exponential decay rate from
  (level, norm) samples, with censoring at ``NORM_FLOOR``.
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

from ._kernels import spectral_norms
from .hilbert import TruncatedSpace, enumerate_space
from .linop import SparseOp, SpaceMismatchError
from .qnum import q_power, sqrt0, validate_q
from .rep_double import (_halves, _matrix, a_minus, a_plus, b_minus, b_plus,
                         dirac_D)
from .rep_l2 import D1_PARAMS, D2_PARAMS, dirac_family

#: Generators whose defect the reduction step actually needs (the other two
#: follow by adjoints).
KQ_GENERATORS = ("alpha*", "beta")

#: Floor below which a block norm is treated as numerically zero.
NORM_FLOOR = 1e-14

#: Twice-levels of the asymptotic scan: n = 1..6.
SCAN_LEVELS = tuple(range(2, 13))


def build_U(n_max: int) -> np.ndarray:
    """The unitary L2 (+) L2 -> Double at twice-level n_max, as a map of
    ordinals.

    Entry k is the Double ordinal of ordinal k of the sum: copy 0 (the first
    dim L2 entries) fills the down band (j -> j + 1/2) except at the weight
    edge j = n, which lands on u^n_{i, n+1/2}; copy 1 fills the rest of the
    up band (j -> j - 1/2).  Every matrix entry of U is 1.0 and every basis
    vector is hit exactly once, so U is a permutation and conjugation by it
    relabels ordinals.
    """
    l2 = enumerate_space("L2", n_max)
    dbl = enumerate_space("Double", n_max)
    tn, ti, tj = l2.tn, l2.ti, l2.tj
    edge = tj == tn
    return np.concatenate([
        dbl.ordinals(tn, ti, np.where(edge, tn + 1, tj + 1), band=~edge),
        dbl.ordinals(tn, ti, tj - 1, band=0)])


def _copies(A: SparseOp, B: SparseOp, U: np.ndarray, dbl: TruncatedSpace):
    """U (A (+) B) U* on ``dbl`` as rows, cols, vals, A's entries first."""
    if len(U) != dbl.dim or dbl.kind != "Double" or any(
            s.kind != "L2" or s.n_max != dbl.n_max
            for s in (A.dom, A.cod, B.dom, B.cod)):
        raise SpaceMismatchError("U (A (+) B) U* needs two L2 operators at "
                                 "the n_max of U and its Double space")
    lo, hi = U[:A.dom.dim], U[A.dom.dim:]
    return (np.concatenate([lo[A.rows], hi[B.rows]]),
            np.concatenate([lo[A.cols], hi[B.cols]]),
            np.concatenate([A.vals, B.vals]))


def direct_sum_op(A: SparseOp, B: SparseOp, U: np.ndarray,
                  dbl: TruncatedSpace) -> SparseOp:
    """U (A (+) B) U* on ``dbl``, for L2 operators at the n_max of U."""
    return SparseOp.from_coo(dbl, dbl, *_copies(A, B, U, dbl))


class DecompositionReport(NamedTuple):
    n_max: int  # twice-valued
    dim_sum: int
    dim_double: int
    unitary_defect: float      # max |hits - 1| over Double ordinals
    conjugation_defect: float  # max |(D1 (+) |D2|)_kk - D_(U k)(U k)|
    U: np.ndarray              # the map checked, for kq_defect


def check_dirac_intertwine(n_max: int) -> DecompositionReport:
    """Verify U (D1 (+) |D2|) U* = D exactly on the truncation at
    twice-level n_max.

    U is unitary iff its map hits every Double ordinal exactly once; an
    absent target (-1) counts as a defect, and leaves no conjugate to
    compare, so the conjugation defect is then inf.  All three operators
    are diagonal and conjugation by the permutation U sends ordinal k of
    the sum to U[k], so the check compares the diagonal of D1 (+) |D2|
    with D's diagonal read through U.  Both reported defects are exactly
    0.0: the diagonals hold machine integers.
    """
    U = build_U(n_max)
    dbl = enumerate_space("Double", n_max)
    absent = bool(np.any(U < 0))
    hits = np.bincount(U[U >= 0], minlength=dbl.dim)
    unitary = float(max(np.abs(hits - 1).max(), absent))
    conj = math.inf
    if not absent:
        l2 = enumerate_space("L2", n_max)
        d1, d2 = (dirac_family(p, l2).diag() for p in (D1_PARAMS, D2_PARAMS))
        conj = float(np.abs(np.concatenate([d1, np.abs(d2)])
                            - dirac_D(dbl).diag()[U]).max())
    return DecompositionReport(n_max, len(U), dbl.dim, unitary, conj, U)


def kq_defect(gen: str, hat: dict, prime: dict, U: np.ndarray) -> SparseOp:
    """Defect Delta = U (pi_hat(g) (+) pi_hat(g)) U* - pi'(g) on Double.

    hat and prime are one q's generators at one n_max, as built by
    ``hat_generators`` and ``pi_prime_generators``, and U is ``build_U`` at
    that n_max.  Only 'alpha*' and 'beta' are accepted: the remaining
    generators are adjoints of these two, so their defects carry the same
    block norms.  Delta inherits the +-1/2 band structure and the weight
    grading of its parents, and its level-n block norm decays like q^{2n}.
    It is one ``from_coo`` over both copies' entries, then -pi'(g)'s.
    """
    if gen not in KQ_GENERATORS:
        raise ValueError(f"kq_defect: gen must be one of {KQ_GENERATORS}, "
                         f"got {gen!r}")
    P = prime[gen]
    if P.dom.signature != P.cod.signature:
        raise SpaceMismatchError("kq_defect: pi'(g) must act on one space")
    return SparseOp.from_coo(P.cod, P.cod, *map(np.concatenate, zip(
        _copies(hat[gen], hat[gen], U, P.cod), (P.rows, P.cols, -P.vals))))


class DecayFit(NamedTuple):
    """Least-squares exponential decay fit over uncensored levels."""

    levels: tuple       # twice-levels that entered the fit
    norms: tuple        # their block norms
    gamma_hat: float    # decay exponent, nats per unit n
    residual: float     # rms residual of the log-linear fit
    censored: int       # levels dropped for sitting at/below the floor


def decay_fit(levels, norms) -> DecayFit:
    """Fit norms ~ C exp(-gamma n) by least squares on ln(norm) vs n, for
    twice-levels ``levels`` (x = tn / 2).

    Levels whose norm is <= NORM_FLOOR are censored (log of numerical zero);
    at least three uncensored points are required.
    """
    lev = np.asarray(levels)
    arr = np.asarray(norms, dtype=float)
    if lev.size != arr.size:
        raise ValueError("decay_fit: levels and norms must have equal length")
    mask = arr > NORM_FLOOR
    kept = int(mask.sum())
    if kept < 3:
        raise ValueError(
            f"decay_fit: only {kept} of {arr.size} levels exceed the floor "
            f"{NORM_FLOOR:g}; need >= 3 for a slope estimate")
    x = lev[mask] / 2
    y = np.log(arr[mask])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return DecayFit(tuple(lev[mask].tolist()), tuple(arr[mask]),
                    float(-coef[0]), resid, arr.size - kept)


def level_block_norms(T: SparseOp):
    """(levels, norms): the twice-levels of T's codomain and the norm of
    each level's row block of T, at once."""
    n_levels = T.cod.n_max + 1
    norms = spectral_norms(T.rows, T.cols, T.vals, T.cod.sector,
                           T.dom.sector, T.cod.tn, n_levels)
    return tuple(range(n_levels)), norms


class KqDecay(NamedTuple):
    gen: str
    q: float
    n_max: int           # twice-valued
    levels: tuple        # all twice-levels of the Double space
    norms: np.ndarray    # block norm of the defect at each level
    fit: DecayFit        # fit over the asymptotic window
    gamma_ratio: float   # gamma_hat / ln(1/q)


def _level_fit(gen: str, q: float, T: SparseOp) -> KqDecay:
    # the fit window is n in [2, n_max - 1]: the first few levels are
    # pre-asymptotic and the last can feel the truncation edge; the
    # levels are 0..n_max in order, so the window is a slice
    n_max = T.cod.n_max
    levels, norms = level_block_norms(T)
    fit = decay_fit(levels[4:n_max - 1], norms[4:n_max - 1])
    return KqDecay(gen, q, n_max, levels, norms, fit,
                   fit.gamma_hat / math.log(1.0 / q))


def kq_decay(gen: str, hat: dict, prime: dict, U: np.ndarray,
             q: float) -> KqDecay:
    """Block norms per level of the kq defect, plus their decay fit; q is
    the modulus that hat and prime were built at."""
    return _level_fit(gen, q, kq_defect(gen, hat, prime, U))


def control_decay(gen: str, prime: dict, q: float) -> KqDecay:
    """Negative control: the same fit applied to pi'(gen) itself.

    The representation operators have O(1) block norms, so gamma_hat
    should sit near zero — evidence that the kq fit is not an artifact
    of the window or the norm plumbing.
    """
    return _level_fit(gen, q, prime[gen])


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
    s = lambda e: sqrt0(1 - q_power(e, q))
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

    The grid at level n is the up band of the Double space, i in {-n..n}
    and j in {-n-1/2..n+1/2}; the requested levels of one Double
    enumeration are evaluated as one label array.  One value per entry of
    ``levels`` (twice-levels), in its order, repeats kept.
    """
    if kind not in _EXACT:
        raise ValueError(f"asymptotic_residual: kind must be one of "
                         f"{tuple(_EXACT)}, got {kind!r}")
    q = validate_q(q)
    tns = np.array(levels, dtype=np.int64)
    dbl = enumerate_space("Double", int(tns.max()))
    at = np.flatnonzero((dbl.band == 0) & np.isin(dbl.tn, tns))
    tn = dbl.tn[at]
    lab = (tn / 2.0, dbl.ti[at] / 2.0, dbl.tj[at] / 2.0)
    res = np.abs(_EXACT[kind](*lab, q) - leading_form(kind, *lab, q))
    first = np.flatnonzero(np.diff(tn, prepend=-1))  # each level's first label
    return np.maximum.reduceat(res.max(axis=(1, 2)), first)[
        np.searchsorted(tn[first], tns)]


class AsymptoticScan(NamedTuple):
    kind: str
    q: float
    levels: tuple        # twice-levels
    residuals: np.ndarray
    ratios: np.ndarray   # residual / q^{2n}
    envelope: float      # max ratio / ratio at the first level


def asymptotic_scan(kind: str, q: float) -> AsymptoticScan:
    """Residual-to-q^{2n} ratios over ``SCAN_LEVELS`` (n = 1..6).

    A bounded envelope (max ratio within a fixed factor of the ratio at
    the first level) certifies the O(q^{2n}) rate with an explicit constant.
    """
    res = asymptotic_residual(kind, SCAN_LEVELS, q)
    ratios = res / np.array([q ** tn for tn in SCAN_LEVELS])
    base = ratios[0]
    envelope = float(np.max(ratios) / base) if base > 0 else math.inf
    return AsymptoticScan(kind, q, SCAN_LEVELS, res, ratios, envelope)
