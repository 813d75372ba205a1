"""Property tests over q in (0.05, 0.95) and n_max <= 3.

Examples are derived from each test's source (``derandomize=True``) and no
example database is kept, so every run checks the same cases.
"""

import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.decomp import build_U
from diraclab.hilbert import enumerate_space
from diraclab.linop import interior_projector, op_norm
from diraclab.rep_double import pi_prime, pi_prime_generators
from diraclab.rep_l2 import pi_hat, relation_words

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=25)
qs = st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)
tn_maxes = st.integers(0, 6)  # n_max = tn_max / 2 <= 3


@deterministic
@given(q=qs, tn_max=tn_maxes)
def test_unstarred_generators_are_exact_transposes(q, tn_max):
    space = enumerate_space("Double", tn_max)
    for g in ("alpha", "beta"):
        A = pi_prime(g, space, q).mat
        B = pi_prime(g + "*", space, q).mat.T.tocsr()
        B.sort_indices()
        np.testing.assert_array_equal(A.indptr, B.indptr)
        np.testing.assert_array_equal(A.indices, B.indices)
        np.testing.assert_array_equal(A.data, B.data)


@deterministic
@given(tn_max=tn_maxes)
def test_U_is_a_permutation(tn_max):
    # the matrix of the map: duplicate coordinates would sum to 2.0
    U = build_U(tn_max)
    dim = enumerate_space("Double", tn_max).dim
    assert U.shape == (dim,) and U.min() >= 0
    U = sp.csr_matrix((np.ones(dim), (U, np.arange(dim))), shape=(dim, dim))
    assert U.shape[0] == U.shape[1]
    assert (U.data == 1.0).all()
    np.testing.assert_array_equal(np.diff(U.indptr), 1)
    np.testing.assert_array_equal(np.sort(U.indices), np.arange(U.shape[1]))


@deterministic
@given(q=qs, tn_max=st.integers(2, 6))
def test_spinorial_relations_hold_on_interior(q, tn_max):
    space = enumerate_space("Double", tn_max)
    ops = pi_prime_generators(space, q)
    P = interior_projector(space, 1)
    for name, w in relation_words(q).items():
        assert op_norm(pi_hat(w, space, q, ops=ops) @ P) <= 1e-12, name


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """A failing ``@given`` test and a passing one, run by pytest with this
    repo's ini: both report and no INTERNALERROR ends the session.  On a
    failure hypothesis's pytest plugin raises a DeprecationWarning of
    mypy_extensions, which ``filterwarnings = ["error"]`` alone would turn
    into an INTERNALERROR that skips every later test."""
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert False

        def test_passes():
            pass
    """))
    ini = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ini), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
