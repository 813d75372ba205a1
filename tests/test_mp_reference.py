"""The coefficient leaves against a 50-digit reference.

The hatted coefficients of the ``rep_l2`` docstring and the four pi'
displays of the ``rep_double`` docstrings are written again here in mpmath,
at 50 digits, and evaluated at the double nearest each q, so that the
comparison measures the float code alone.  Each float leaf is compared,
entry by entry, over every (n, i, j) label up to twice-n_max 6: the up
band of the doubled space for pi', every label of L2 for the hatted pair.
A transcription error shows as a relative error far above rounding; the
error near q = 1 is cancellation in the q-numbers and in 1 - q^e, which
shrinks only when the q-arithmetic changes.

The same leaves give the generators at 50 digits as dict columns, and the
five relations, written again here, are evaluated on the interior(2)
columns: pi' meets them to about 1e-50, whatever the float code rounds,
and the hatted defect norms are checked against the README's closed forms
and pinned where those stop holding.  ``rep_l2.pi_hat``, which shares no
code with this evaluation, must read the same hatted norms.

The regular representation pi, which the package does not build yet, is
written here from Woronowicz's Clebsch-Gordan coefficients in this
package's conventions, and meets the relations to about 1e-50 as well;
without the factor of its b- that vanishes at the weight boundary it
fails them, as the hatted pair does.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from diraclab import rep_l2
from diraclab.hilbert import enumerate_space, interior
from diraclab.linop import op_norm
from diraclab.rep_double import a_minus, a_plus, b_minus, b_plus

MP = mpmath.MPContext()
MP.dps = 50
HALF = MP.mpf(1) / 2
TN_MAX = 6
ULP8 = 8 * np.finfo(float).eps  # 1.8e-15
ZERO = [[MP.zero] * 2] * 2


def _labels(kind):
    """Twice-valued (tn, ti, tj) of every label of the space, once each."""
    space = enumerate_space(kind, TN_MAX)
    own = slice(None) if space.band is None else space.band == 0
    return space.tn[own], space.ti[own], space.tj[own]


def _qn(m, q):
    return (q ** m - q ** -m) / (q - 1 / q)


def _s(x):
    """Square root clipped at zero, as the leaves take it."""
    return MP.sqrt(x) if x > 0 else MP.zero


def _matrix(pref, uu, ud, du, dd):
    """pref * [[uu, ud], [du, dd]]; zero where pref is, whatever the rest."""
    if pref == 0:
        return ZERO
    return [[pref * uu, pref * ud], [pref * du, pref * dd]]


def _a_plus(n, i, j, q):
    pref = q ** ((i + j - HALF) / 2) * _s(_qn(n + i + 1, q))
    return _matrix(pref,
                   q ** (-n - HALF) * _s(_qn(n + j + 3 * HALF, q))
                   / _qn(2 * n + 2, q),
                   0,
                   q ** HALF * _s(_qn(n - j + HALF, q))
                   / (_qn(2 * n + 1, q) * _qn(2 * n + 2, q)),
                   q ** -n * _s(_qn(n + j + HALF, q)) / _qn(2 * n + 1, q))


def _a_minus(n, i, j, q):
    pref = q ** ((i + j - HALF) / 2) * _s(_qn(n - i, q))
    if pref == 0:  # [2n] = 0 at n = 0: the other factors are not defined
        return ZERO
    return _matrix(pref,
                   q ** (n + 1) * _s(_qn(n - j + HALF, q))
                   / _qn(2 * n + 1, q),
                   -q ** HALF * _s(_qn(n + j + HALF, q))
                   / (_qn(2 * n, q) * _qn(2 * n + 1, q)),
                   0,
                   q ** (n + HALF) * _s(_qn(n - j - HALF, q)) / _qn(2 * n, q))


def _b_plus(n, i, j, q):
    pref = q ** ((i + j - HALF) / 2) * _s(_qn(n + i + 1, q))
    return _matrix(pref,
                   _s(_qn(n - j + 3 * HALF, q)) / _qn(2 * n + 2, q),
                   0,
                   -q ** (-n - 1) * _s(_qn(n + j + HALF, q))
                   / (_qn(2 * n + 1, q) * _qn(2 * n + 2, q)),
                   q ** -HALF * _s(_qn(n - j + HALF, q)) / _qn(2 * n + 1, q))


def _b_minus(n, i, j, q):
    pref = q ** ((i + j - HALF) / 2) * _s(_qn(n - i, q))
    if pref == 0:
        return ZERO
    return _matrix(pref,
                   -q ** -HALF * _s(_qn(n + j + HALF, q)) / _qn(2 * n + 1, q),
                   -q ** n * _s(_qn(n - j + HALF, q))
                   / (_qn(2 * n, q) * _qn(2 * n + 1, q)),
                   0,
                   -_s(_qn(n + j - HALF, q)) / _qn(2 * n, q))


def _hat(n, i, j, q):
    """alpha_hat up and down, beta_hat up and down, as rep_l2 displays them."""
    return (q ** (2 * n + i + j + 1),
            _s(1 - q ** (2 * n + 2 * i)) * _s(1 - q ** (2 * n + 2 * j)),
            -q ** (n + j) * _s(1 - q ** (2 * n + 2 * i + 2)),
            q ** (n + i) * _s(1 - q ** (2 * n + 2 * j)))


def _se(e, q):
    """s(e) = (1 - q^e)^(1/2), as the coefficients of pi write it."""
    return _s(1 - q ** e)


def _regular(n, i, j, q, edge=True):
    """pi(alpha) up and down, pi(beta) up and down:

        a+ =  q^(2n+i+j+1) s(2n-2i+2) s(2n-2j+2) / (s(4n+2) s(4n+4))
        a- =               s(2n+2i)   s(2n+2j)   / (s(4n)   s(4n+2))
        b+ = -q^(n+j)      s(2n+2i+2) s(2n-2j+2) / (s(4n+2) s(4n+4))
        b- =  q^(n+i)      s(2n+2j)   s(2n-2i)   / (s(4n)   s(4n+2))

    a- and b- have no target at n = 0, where s(4n) = 0: they are 0 there.
    ``edge=False`` leaves out the factor s(2n-2i) of b-, which vanishes at
    the weight boundary i = n and which the hatted pair lacks."""
    up = _se(4 * n + 2, q) * _se(4 * n + 4, q)
    a_up = (q ** (2 * n + i + j + 1) * _se(2 * n - 2 * i + 2, q)
            * _se(2 * n - 2 * j + 2, q) / up)
    b_up = (-q ** (n + j) * _se(2 * n + 2 * i + 2, q)
            * _se(2 * n - 2 * j + 2, q) / up)
    if n == 0:
        return a_up, MP.zero, b_up, MP.zero
    down = _se(4 * n, q) * _se(4 * n + 2, q)
    return (a_up, _se(2 * n + 2 * i, q) * _se(2 * n + 2 * j, q) / down,
            b_up, q ** (n + i) * _se(2 * n + 2 * j, q)
            * (_se(2 * n - 2 * i, q) if edge else 1) / down)


def _reference(leaf, kind, q):
    """The reference entries of ``leaf`` at every label, flattened."""
    qm = MP.mpf(q)  # the double itself, exactly
    return [x for label in zip(*_labels(kind))
            for x in np.ravel(leaf(*(MP.mpf(int(t)) / 2 for t in label), qm))]


def _hat_leaves(monkeypatch, q):
    """The four float leaves that alpha_hat and beta_hat hand _band_op."""
    monkeypatch.setattr(rep_l2, "_band_op",
                        lambda space, shift, up, down, sign=1.0: (up, down))
    space = enumerate_space("L2", TN_MAX)
    return (*rep_l2.alpha_hat(space, q), *rep_l2.beta_hat(space, q))


def _max_error(got, want):
    """Largest relative error of the floats ``got`` against ``want``,
    after checking that both are exactly zero in the same places."""
    got = np.ravel(got)
    assert got.shape == (len(want),)
    np.testing.assert_array_equal(got == 0.0, [w == 0 for w in want])
    return max(abs((MP.mpf(float(g)) - w) / w)
               for g, w in zip(got, want) if w != 0)


def _pi_prime_errors(q):
    tn, ti, tj = _labels("Double")
    return {f.__name__: _max_error(f(tn / 2, ti / 2, tj / 2, q),
                                   _reference(ref, "Double", q))
            for f, ref in ((a_plus, _a_plus), (a_minus, _a_minus),
                           (b_plus, _b_plus), (b_minus, _b_minus))}


def _hat_errors(monkeypatch, q):
    tn, ti, tj = _labels("L2")
    got = np.stack([leaf(tn / 2, ti / 2, tj / 2)
                    for leaf in _hat_leaves(monkeypatch, q)], axis=-1)
    return _max_error(got, _reference(_hat, "L2", q))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_leaves_are_within_8_ulp_of_the_reference(q, monkeypatch):
    for name, err in _pi_prime_errors(q).items():
        assert err < ULP8, (name, float(err / np.finfo(float).eps))
    assert _hat_errors(monkeypatch, q) < ULP8


def test_leaves_near_q_one_lose_digits_to_cancellation(monkeypatch):
    # near q = 1, [m] = (q^m - q^-m) / (q - 1/q) and 1 - q^e cancel: at
    # q = 0.9999 the pi' leaves are off by 7.9e-13 relative and the hatted
    # ones by 2.5e-13, against about 2e-16 at q = 0.5
    q = 0.9999
    assert max(_pi_prime_errors(q).values()) < 1e-12
    assert _hat_errors(monkeypatch, q) < 1e-12


# ------------------------------------------------ the relations at 50 digits

def _l2_moves(f):
    """alpha and beta on L2 from f(n, i, j, q) = (alpha up, alpha down,
    beta up, beta down), each entry as a 1x1 matrix: L2 is one band."""
    def leaf(k):
        return lambda n, i, j, q: [[f(n, i, j, q)[k]]]
    return {"alpha": (leaf(0), leaf(1), (-1, -1), 1, "alpha*"),
            "beta": (leaf(2), leaf(3), (1, -1), 1, "beta*")}


#: Each representation's space kind and raising-shift generator pairs:
#: (up leaf, down leaf, twice (di, dj), sign, name of the adjoint), as the
#: module docstrings display them.
_REPS = {
    "prime": ("Double", {"alpha*": (_a_plus, _a_minus, (1, 1), 1, "alpha"),
                         "beta": (_b_plus, _b_minus, (1, -1), -1, "beta*")}),
    "hat": ("L2", _l2_moves(_hat)),
    "regular": ("L2", _l2_moves(_regular)),
}


def _generators(rep, tn_max, q):
    """The labels (tn, ti, tj, band) of the space of ``rep``, a (kind,
    moves) pair of :data:`_REPS`, band 0 throughout on L2, and the four
    generators at 50 digits, each {column: {row: entry}} over those labels.
    Source band s feeds target band t the entry [t][s] of the leaf at the
    source's (n, i, j); a target outside the labels is dropped, as assembly
    drops it."""
    kind, moves = rep
    space = enumerate_space(kind, tn_max)
    band = np.zeros(space.dim, int) if space.band is None else space.band
    labels = list(zip(*(a.tolist()
                        for a in (space.tn, space.ti, space.tj, band))))
    known = set(labels)
    ops = {}
    for gen, (up, down, (di, dj), sign, adj) in moves.items():
        ops[gen], ops[adj] = ({c: {} for c in labels} for _ in range(2))
        for tn, ti, tj, _ in filter(lambda c: c[3] == 0, labels):
            n, i, j = (MP.mpf(t) / 2 for t in (tn, ti, tj))
            for dn, leaf in ((1, up), (-1, down)):
                M = leaf(n, i, j, MP.mpf(q))
                for t in range(len(M)):
                    for s in range(len(M)):
                        src = (tn, ti, tj, s)
                        dst = (tn + dn, ti + di, tj + dj, t)
                        if src in known and dst in known and M[t][s] != 0:
                            ops[gen][src][dst] = sign * M[t][s]
                            ops[adj][dst][src] = sign * M[t][s]
    return labels, ops


def _relations(q):
    """The five defining relations as (weight, symbols) terms, written
    again here with weights at 50 digits."""
    q = MP.mpf(q)
    return {"unit_left": ((1, ("alpha*", "alpha")), (1, ("beta*", "beta")),
                          (-1, ())),
            "beta_normal": ((1, ("beta*", "beta")), (-1, ("beta", "beta*"))),
            "unit_right": ((1, ("alpha", "alpha*")), (q * q, ("beta", "beta*")),
                           (-1, ())),
            "twist_beta": ((1, ("alpha", "beta")), (-q, ("beta", "alpha"))),
            "twist_beta_star": ((1, ("alpha", "beta*")),
                                (-q, ("beta*", "alpha")))}


def _column(w, ops, c):
    """The word applied to the basis vector c, as {row: entry}."""
    out = {}
    for weight, syms in w:
        vec = {c: MP.one}
        for s in reversed(syms):  # the rightmost symbol acts first
            new = {}
            for k, x in vec.items():
                for r, y in ops[s][k].items():
                    new[r] = new.get(r, MP.zero) + y * x
            vec = new
        for r, x in vec.items():
            out[r] = out.get(r, MP.zero) + weight * x
    return out


def _defects(rep, tn_max, q):
    """Each relation on the interior(2) columns, as {column: {row: entry}}:
    a word of length 2 moves the level by at most 1, so truncation leaves
    these columns alone."""
    labels, ops = _generators(rep, tn_max, q)
    inner = [c for c in labels if c[0] <= tn_max - 2]
    return labels, {name: {c: _column(w, ops, c) for c in inner}
                    for name, w in _relations(q).items()}


def _worst(cols):
    """The largest absolute entry of {column: {row: entry}}."""
    return max((abs(x) for col in cols.values() for x in col.values()),
               default=MP.zero)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.9999])
def test_pi_prime_relations_hold_at_50_digits(q):
    # the entries read 2.0e-51 to 1.1e-50 at q <= 0.9 and up to 1.1e-47
    # at 0.9999: the displays are transcribed right, whatever the float
    # code rounds
    labels, defects = _defects(_REPS["prime"], TN_MAX, q)
    assert len(labels) == 280 and all(len(d) == 110 for d in defects.values())
    for name, cols in defects.items():
        worst = _worst(cols)
        assert worst < 1e-40, (name, mpmath.nstr(worst, 3))


@pytest.mark.parametrize("q", [0.3, 0.9])
def test_regular_relations_hold_at_50_digits(q):
    # the entries read 1.6e-51 to 5.4e-51 at both q
    labels, defects = _defects(_REPS["regular"], TN_MAX, q)
    assert len(labels) == 140 and all(len(d) == 55 for d in defects.values())
    for name, cols in defects.items():
        worst = _worst(cols)
        assert worst < 1e-40, (name, mpmath.nstr(worst, 3))


def test_regular_relations_fail_without_the_edge_factor_of_b_minus():
    # the control for the test above: the same evaluation must see a b-
    # that is wrong only on the weight boundary i = n (the worst entries
    # read 8.2e-3 to 9.1e-2)
    rep = ("L2", _l2_moves(functools.partial(_regular, edge=False)))
    _, defects = _defects(rep, TN_MAX, 0.3)
    assert max(_worst(cols) for cols in defects.values()) > 1e-3


HAT_TN_MAX = 8  # where tests/test_rep_l2.py measures the hatted defects


def _closed_forms(q):
    """The README's closed-form hatted defect norms."""
    r = math.sqrt(1 - q * q)
    return {"unit_left": max(q ** 2 * (1 - q ** 2), q ** 4 * (1 - q ** 4)),
            "unit_right": q ** 2,
            "twist_beta": q ** 3 * r,
            "twist_beta_star": q ** 3 * r,
            "beta_normal": max(q ** 4 * (1 - q ** 2), q ** 6 * (1 - q ** 4))}


#: The 50-digit defect norms past the crossover at q = 0.786, where the
#: second terms of the two maxima win (0.8, 0.85), and at 0.9, where
#: unit_left is q^6 (1 - q^6) and beta_normal q^8 (1 - q^6): boundary
#: terms one level further up, which the table does not hold.
PINNED = {
    0.8: {"unit_left": 0.24182784, "beta_normal": 0.1547698176,
          "unit_right": 0.64, "twist_beta": 0.3072, "twist_beta_star": 0.3072},
    0.85: {"unit_left": 0.2495157249609375,
           "beta_normal": 0.18027511128427734, "unit_right": 0.7225,
           "twist_beta": 0.3235104180485344,
           "twist_beta_star": 0.3235104180485344},
    0.9: {"unit_left": 0.249011463519, "beta_normal": 0.20169928545039,
          "unit_right": 0.81, "twist_beta": 0.3177637329841151,
          "twist_beta_star": 0.3177637329841151},
}


def _hat_norms(q):
    """Each hatted defect norm: the 50-digit defect rounded to floats, then
    its largest singular value."""
    labels, defects = _defects(_REPS["hat"], HAT_TN_MAX, q)
    at = {c: k for k, c in enumerate(labels)}
    norms = {}
    for name, cols in defects.items():
        D = np.zeros((len(labels), len(cols)))
        for k, col in enumerate(cols.values()):
            for r, x in col.items():
                D[at[r], k] = float(x)
        norms[name] = float(np.linalg.norm(D, 2))
    return norms


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.8, 0.85, 0.9])
def test_hat_defects_at_50_digits_and_pi_hat(q):
    want = PINNED.get(q, _closed_forms(q))
    got = _hat_norms(q)
    space = enumerate_space("L2", HAT_TN_MAX)
    inner = interior(space, 2)
    for name, w in rep_l2.relation_words(q).items():
        assert got[name] == pytest.approx(want[name], rel=0, abs=1e-12), name
        assert op_norm(rep_l2.pi_hat(w, space, q, right=inner)) \
            == pytest.approx(got[name], rel=0, abs=1e-12), name


def test_the_closed_forms_hold_up_to_q_085():
    for q, pinned in PINNED.items():
        table = _closed_forms(q)
        held = [name for name in pinned
                if pinned[name] == pytest.approx(table[name], abs=1e-12)]
        assert len(held) == (5 if q <= 0.85 else 3), q
    assert PINNED[0.9]["unit_left"] > _closed_forms(0.9)["unit_left"]
    assert PINNED[0.9]["beta_normal"] > _closed_forms(0.9)["beta_normal"]
