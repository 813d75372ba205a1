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
"""

import mpmath
import numpy as np
import pytest

from diraclab import rep_l2
from diraclab.hilbert import enumerate_space
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
