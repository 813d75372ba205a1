"""One table per input rule: every entry point of a rule rejects the same
inputs with the same message, the one its owner in ``hilbert`` gives."""

import math

import numpy as np
import pytest

from diraclab.covariant import cyclic_dimension
from diraclab.harness import RunConfig, validate_config
from diraclab.hilbert import enumerate_space, interior
from diraclab.linop import SparseOp, block_norm
from diraclab.rep_double import dirac_D, pi_prime, pi_prime_generators
from diraclab.rep_l2 import (D1_PARAMS, DiracParams, alpha_hat, beta_hat,
                             dirac_family, hat_generators)

L2 = enumerate_space("L2", 4)
DOUBLE = enumerate_space("Double", 4)

#: entry point -> (the name its message gives, the call taking the count)
COUNTS = {
    "enumerate_space": ("n_max", lambda v: enumerate_space("L2", v)),
    "validate_config": ("n_max", lambda v: validate_config(
        RunConfig(q=(0.5,), n_max=v, suites=("family",)))),
    "interior": ("margin", lambda v: interior(L2, v)),
    "level_ordinals": ("level", lambda v: L2.level_ordinals(v)),
    "block_norm": ("level", lambda v: block_norm(
        SparseOp.diagonal(L2, np.ones(L2.dim)), v)),
    "cyclic_dimension": ("depth", lambda v: cyclic_dimension(
        hat_generators(L2, 0.5).values(), v)),
    "DiracParams": ("k", lambda v: DiracParams(
        v, -2.0, 0.0, 2.0, 1.0).validate()),
}


@pytest.mark.parametrize("value", [True, np.True_, 2.0, 1.5, -1],
                         ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_every_count_rejects_a_bool_a_float_and_a_negative(entry, value):
    name, call = COUNTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an int >= 0, "
                                         f"got {value!r}$"):
        call(value)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_every_count_accepts_a_numpy_int(entry):
    COUNTS[entry][1](np.int64(2))


def test_a_level_beyond_n_max_is_absent():
    with pytest.raises(ValueError, match="level 5/2 absent"):
        L2.level_ordinals(5)


#: entry point -> the call on a space of the wrong kind, and the kinds
KINDS = {
    "alpha_hat": (lambda: alpha_hat(DOUBLE, 0.5), "L2", "Double"),
    "beta_hat": (lambda: beta_hat(DOUBLE, 0.5), "L2", "Double"),
    "dirac_family": (lambda: dirac_family(D1_PARAMS, DOUBLE), "L2",
                     "Double"),
    "cyclic_dimension": (lambda: cyclic_dimension(
        pi_prime_generators(DOUBLE, 0.5).values(), 1), "L2", "Double"),
    "pi_prime": (lambda: pi_prime("alpha*", L2, 0.5), "Double", "L2"),
    "dirac_D": (lambda: dirac_D(L2), "Double", "L2"),
}


@pytest.mark.parametrize("entry", sorted(KINDS))
def test_every_entry_point_gives_one_message_for_the_wrong_kind(entry):
    call, want, got = KINDS[entry]
    with pytest.raises(ValueError, match=f"^expected a space of kind "
                                         f"'{want}', got '{got}'$"):
        call()


@pytest.mark.parametrize("name, value", [
    ("a", math.inf), ("a", -math.inf), ("c", math.inf), ("d", math.inf),
    ("b", math.nan), ("d", math.nan)])
def test_dirac_params_are_finite(name, value):
    params = D1_PARAMS._replace(**{name: value})
    with pytest.raises(ValueError, match=rf"finite a, b, c, d with a\*c < 0"
                                         rf", got .*{name}={value}"):
        params.validate()
    with pytest.raises(ValueError, match=rf"{name}={value}"):
        dirac_family(params, L2)
