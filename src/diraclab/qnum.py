"""q-arithmetic: half-integer labels, q-numbers, q-powers.

Every spin/weight label in this package is a half-integer stored by its
doubled value, so index arithmetic stays exact and hashable.  All
coefficient formulas funnel through :func:`q_number` and :func:`q_power`;
:func:`q_number`, :func:`q_power` and :func:`twice` take numpy arrays of
labels as well as single labels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class HalfInt(NamedTuple):
    """Exact half-integer, stored as twice its value.

    ``HalfInt(3)`` is the number 3/2.  Use :func:`half` to build one from
    a float or int when that reads better.
    """

    twice: int

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other):
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other):
        return HalfInt(self.twice - other.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def half(x) -> HalfInt:
    """Coerce an int, float or HalfInt to a HalfInt.

    Raises ValueError if x is not an exact multiple of 1/2.
    """
    if isinstance(x, HalfInt):
        return x
    t = 2 * x
    if t != int(t):
        raise ValueError(f"{x!r} is not a half-integer")
    return HalfInt(int(t))


def twice(x) -> np.ndarray:
    """Twice a half-integer label, as integers: the array form of
    ``half(x).twice``.

    x may be a HalfInt, a number or an array of numbers.  Raises ValueError
    unless every entry is an exact multiple of 1/2.
    """
    if isinstance(x, HalfInt):
        return np.int64(x.twice)
    t = 2 * np.asarray(x, dtype=float)
    if (t != np.rint(t)).any():
        raise ValueError(f"{x!r} is not a half-integer")
    return t.astype(np.int64)


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
    m : HalfInt, int, float or array
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
    q = float(q)
    return _each_distinct(lambda ev: q ** ev, e)


def _each_distinct(f, x):
    """f of the value of x; for an array x, f of each distinct entry.

    f is Python float arithmetic, so overflow raises OverflowError, and an
    array result equals the scalar one bit for bit on every CPU (numpy's
    vectorised power can differ from it in the last place).  An operator
    has few distinct orders and exponents, so the loop is short.  Orders
    on a quarter-integer grid (every one the package takes) over a span
    not much wider than x is long are found by a table over 4x, without
    a sort; other real orders by ``np.unique``.
    """
    if isinstance(x, HalfInt):
        return f(x.value)
    if np.ndim(x) == 0:
        return f(float(x))
    v = np.asarray(x, dtype=float).ravel()
    t = 4.0 * v
    if v.size and np.all(np.abs(t) < 2.0**52):
        k = t.astype(np.int64)
        lo = k.min()
        span = int(k.max() - lo) + 1
        if span <= 2 * v.size + 64 and np.array_equal(k, t):
            k -= lo
            at = np.flatnonzero(np.bincount(k, minlength=span))
            table = np.empty(span)
            table[at] = [f(u) for u in ((at + lo) / 4.0).tolist()]
            return table[k].reshape(np.shape(x))
    u, inv = np.unique(v, return_inverse=True)
    return np.array([f(e) for e in u.tolist()])[inv].reshape(np.shape(x))
