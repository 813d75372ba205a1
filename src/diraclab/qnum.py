"""q-arithmetic: half-integer labels, q-numbers, q-powers.

Every spin/weight label in this package is a half-integer stored by its
doubled value, so index arithmetic stays exact and hashable.  All
coefficient formulas funnel through :func:`q_number`, :func:`q_power` and
:func:`sqrt0`; :func:`q_number`, :func:`q_power` and :func:`twice` take
numpy arrays of labels as well as single labels.
"""

from __future__ import annotations

import numpy as np


def twice(x) -> np.ndarray:
    """Twice a half-integer value, as integers.

    x may be a number or an array of numbers.  Raises ValueError unless
    every entry is an exact multiple of 1/2 with |2x| < 2^63, the int64
    range (so no infinity or NaN), and x is not a bool or an array of bools.
    """
    a = np.asarray(x)
    t = 2 * np.asarray(a, dtype=float)
    if (a.dtype == bool or not (np.abs(t) < 2.0 ** 63).all()
            or (t != np.rint(t)).any()):
        raise ValueError(f"{x!r} is not a half-integer")
    return t.astype(np.int64)


def label_text(t) -> str:
    """A twice-valued label as text: 4 gives "2", -1 gives "-1/2"."""
    return str(t // 2) if t % 2 == 0 else f"{t}/2"


def validate_q(q: float) -> float:
    """Check the deformation parameter: q must lie strictly inside (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"deformation parameter must be in (0, 1), got {q}")
    return q


def q_number(m, q: float) -> float:
    """The q-number [m] = (q^m - q^{-m}) / (q - q^{-1}).

    Parameters
    ----------
    m : int, float or array
        Any half-integer (or real) order; an array gives an array.
    q : float
        Deformation parameter in (0, 1).

    Notes
    -----
    [m] is an odd function of m, [0] = 0, [1] = 1, and [m] -> m as q -> 1.
    The recursion [m+1] = (q + q^{-1})[m] - [m-1] holds exactly.
    """
    q = validate_q(q)
    return _each_distinct(lambda mv: (q**mv - q**(-mv)) / (q - 1.0 / q), m)


def q_power(e, q: float) -> float:
    """q raised to a (half-integer-combination) exponent e; an array e
    gives an array."""
    q = validate_q(q)
    return _each_distinct(lambda ev: q ** ev, e)


def sqrt0(x):
    """sqrt clipped at zero (boundary factors may round to tiny negatives)."""
    return np.sqrt(np.maximum(x, 0.0))


def _each_distinct(f, x):
    """f of the value of x; for an array x, f of each distinct entry.

    f is Python float arithmetic, so overflow raises OverflowError, and an
    array result equals the scalar one bit for bit on every CPU (numpy's
    vectorised power can differ from it in the last place).  An operator
    has few distinct orders and exponents, found by ``np.unique``, so the
    loop is short.
    """
    if np.ndim(x) == 0:
        return f(float(x))
    v = np.asarray(x, dtype=float).ravel()
    u, inv = np.unique(v, return_inverse=True)
    return np.array([f(e) for e in u.tolist()])[inv].reshape(np.shape(x))
