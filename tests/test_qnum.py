import math

import numpy as np
import pytest

from diraclab.hilbert import enumerate_space
from diraclab.linop import interior_projector
from diraclab.qnum import (label_text, q_number, q_power, sqrt0, twice,
                           validate_q)


def test_label_text():
    # messages print a twice-valued label as the half-integer it stands for
    for t, text in ((3, "3/2"), (4, "2"), (0, "0"), (-1, "-1/2"), (-2, "-1")):
        assert label_text(t) == text
    assert label_text(np.int64(5)) == "5/2"


def test_sqrt0_clips_rounding_below_zero():
    # 1 - q^e can round to a tiny negative where it should be 0
    assert sqrt0(-1e-17) == 0.0 and sqrt0(0.25) == 0.5
    np.testing.assert_array_equal(sqrt0(np.array([-0.0, -1e-300, 4.0])),
                                  [0.0, 0.0, 2.0])


def test_validate_q():
    assert validate_q(0.5) == 0.5
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            validate_q(bad)


def test_q_number_basics():
    for q in (0.3, 0.5, 0.7):
        assert q_number(0, q) == 0.0
        assert q_number(1, q) == pytest.approx(1.0)
    assert q_number(2, 0.5) == pytest.approx(2.5)  # [2] = q + 1/q
    with pytest.raises(ValueError):
        q_number(1, 1.2)


def test_q_number_sign_symmetry():
    for tm in range(-40, 41):
        m = tm / 2
        assert q_number(-m, 0.42) == pytest.approx(-q_number(m, 0.42), abs=1e-12)


def test_q_number_classical_limit():
    # [m] -> m as q -> 1-
    q = 1.0 - 1e-3
    for m in range(1, 11):
        assert abs(q_number(m, q) - m) < 1e-2


def test_q_number_recursions():
    # three-term recursion [m+1] = (q + 1/q)[m] - [m-1], and the one-step
    # form [m+1] = q^m + q^{-1}[m]; both are exact algebraic consequences
    # of the definition (expand the numerators over q - q^{-1})
    for q in (0.3, 0.5, 0.7):
        for m in range(1, 21):
            three = (q + 1 / q) * q_number(m, q) - q_number(m - 1, q)
            one = q ** m + q_number(m, q) / q
            ref = q_number(m + 1, q)
            assert three == pytest.approx(ref, rel=1e-12)
            assert one == pytest.approx(ref, rel=1e-12)


def test_q_number_positive_for_positive_m():
    for tm in range(1, 20):
        assert q_number(tm / 2, 0.6) > 0


def test_q_power():
    assert q_power(0, 0.5) == 1.0
    assert q_power(1, 0.5) == 0.5
    assert q_power(3, 0.5) == pytest.approx(0.125)
    assert q_power(-1.0, 0.5) == pytest.approx(2.0)
    assert q_power(0.5, 0.25) == pytest.approx(math.sqrt(0.25))
    # q is checked as q_number checks it, for a label and an array alike
    for e, q in ((0.5, -0.25), (np.array([0.5, 1.0]), -0.25), (1, 1.5)):
        with pytest.raises(ValueError, match="must be in \\(0, 1\\)"):
            q_power(e, q)


def test_array_orders_match_scalar_evaluation_exactly():
    # an array is evaluated with the same Python float arithmetic as one
    # label, so results agree bit for bit; overflow raises as for a scalar
    quarters = np.arange(-60, 61) / 4.0
    # off the quarter grid, over a wide span, with repeats
    off_grid = np.array([1 / 3, 0.3, 250.0, -1 / 3, 0.3, -250.0, 1e-9, 7.1,
                         1 / 3, -0.3, 0.0])
    for orders in (quarters, off_grid):
        for q in (0.3, 0.5, 0.7, 0.8, 0.9):
            np.testing.assert_array_equal(
                q_number(orders.reshape(-1, 1), q),
                [[q_number(float(m), q)] for m in orders])
            np.testing.assert_array_equal(
                q_power(orders, q), [q_power(float(e), q) for e in orders])
    assert q_number(np.array([]), 0.5).shape == (0,)
    with pytest.raises(OverflowError):
        q_power(np.array([1.0, -400.0]), 1e-4)
    np.testing.assert_array_equal(twice(np.array([0.5, -1.5, 2])), [1, -3, 4])
    assert twice(-1.5) == -3
    # beyond the int64 range an entry cannot be cast exactly
    for bad in (0.3, [0.5, 0.3], np.array([0.5, 0.3]), np.inf, -np.inf,
                [0.5, np.inf], 1e300, -1e300, 2.0 ** 62):
        with pytest.raises(ValueError, match="is not a half-integer"):
            twice(bad)
    # an infinite margin in units of n is no half-integer, not a negative one
    with pytest.raises(ValueError, match="inf is not a half-integer"):
        interior_projector(enumerate_space("L2", 2), np.inf)
