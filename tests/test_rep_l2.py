import math

import numpy as np
import pytest

from diraclab.hilbert import enumerate_space, interior
from diraclab.linop import SparseOp, interior_projector, op_norm
from diraclab.qnum import q_power
from diraclab.rep_l2 import (
    D1_PARAMS,
    D2_PARAMS,
    DiracParams,
    alpha_hat,
    beta_hat,
    dirac_family,
    hat_generators,
    pi_hat,
    relation_words,
)

Q = 0.5


def labels(space):
    """(ordinal, (tn, ti, tj)) over the twice-valued label arrays."""
    return enumerate(zip(space.tn.tolist(), space.ti.tolist(),
                         space.tj.tolist()))


def column(T, space, tn, ti, tj):
    return T.to_dense()[:, space.ordinals(tn, ti, tj)]


def test_alpha_hat_on_vacuum():
    sp = enumerate_space("L2", 4)
    col = column(alpha_hat(sp, Q), sp, 0, 0, 0)
    expected = np.zeros(sp.dim)
    expected[sp.ordinals(1, -1, -1)] = Q
    np.testing.assert_allclose(col, expected, atol=1e-15)


def test_alpha_hat_two_terms():
    sp = enumerate_space("L2", 4)
    col = column(alpha_hat(sp, Q), sp, 1, 1, 1)
    expected = np.zeros(sp.dim)
    expected[sp.ordinals(2, 0, 0)] = Q ** 3
    expected[sp.ordinals(0, 0, 0)] = 1 - Q ** 2
    np.testing.assert_allclose(col, expected, atol=1e-15)


def test_alpha_hat_lowering_vanishes_on_weight_floor():
    # the level-lowering coefficient (1-q^{2n+2i})^1/2 (1-q^{2n+2j})^1/2
    # is zero exactly when i = -n or j = -n
    sp = enumerate_space("L2", 6)
    A = alpha_hat(sp, Q).to_dense()
    for k, (tn, ti, tj) in labels(sp):
        if tn == 0 or tn == sp.n_max:
            continue
        target = sp.ordinals(tn - 1, ti - 1, tj - 1)
        if target < 0:  # |i| or |j| exceeds the lower level
            continue
        vanishes = ti == -tn or tj == -tn
        assert (A[target, k] == 0.0) == vanishes, (tn, ti, tj)


def test_assembly_keeps_coefficients_at_tiny_q():
    # only exact zeros are dropped: at q = 1e-100 alpha has the 10 entries
    # it has at q = 0.5, down to q^3 = 1e-300, and maps e_0 to q times
    # e^{(1/2)}_{-1/2,-1/2}
    sp = enumerate_space("L2", 2)
    tiny, mid = (hat_generators(sp, q)["alpha"] for q in (1e-100, 0.5))
    assert tiny.nnz == mid.nnz == 10
    for attr in ("rows", "cols"):
        assert np.array_equal(getattr(tiny, attr), getattr(mid, attr))
    want = np.zeros(sp.dim)
    want[sp.ordinals(1, -1, -1)] = 1e-100
    assert np.array_equal(tiny.apply(np.eye(sp.dim)[0]), want)


def test_assembly_keeps_entries_below_prune_tol():
    # at q = 0.3, n_max = 8 the up entries q^{2n+i+j+1} of exponent 29 to
    # 31 lie below 1e-15; assembly keeps all seven, exactly
    sp = enumerate_space("L2", 16)
    a = alpha_hat(sp, 0.3)
    small = np.abs(a.vals) < 1e-15
    e = (sp.tn + (sp.ti + sp.tj) // 2 + 1)[a.cols]  # 2n + i + j + 1
    up = sp.tn[a.rows] > sp.tn[a.cols]
    assert small.sum() == 7
    assert np.array_equal(small, up & (e >= 29))
    assert np.array_equal(a.vals[small], q_power(e[small], 0.3))
    assert a.vals[small].min() == q_power(31, 0.3) > 6e-17


def test_beta_hat_on_vacuum():
    sp = enumerate_space("L2", 4)
    col = column(beta_hat(sp, Q), sp, 0, 0, 0)
    expected = np.zeros(sp.dim)
    expected[sp.ordinals(1, 1, -1)] = -math.sqrt(1 - Q ** 2)
    np.testing.assert_allclose(col, expected, atol=1e-15)


def test_beta_hat_lowering_vanishes_iff_j_floor():
    sp = enumerate_space("L2", 6)
    B = beta_hat(sp, Q).to_dense()
    for k, (tn, ti, tj) in labels(sp):
        if tn == 0:
            continue
        target = sp.ordinals(tn - 1, ti + 1, tj - 1)
        if target < 0:  # |i| or |j| exceeds the lower level
            continue
        assert (B[target, k] == 0.0) == (tj == -tn), (tn, ti, tj)


def test_beta_hat_norm_formula():
    # the formula q^{2n+2j}(1-q^{2n+2i+2}) + q^{2n+2i}(1-q^{2n+2j}) stays <= 1
    # over all labels with n <= 4; the computed column norm matches it exactly
    # away from the weight boundary i = n, where the lowering target leaves
    # the label set and its contribution is dropped
    sp = enumerate_space("L2", 10)
    B = beta_hat(sp, Q).to_dense()
    for k, (tn, ti, tj) in labels(sp):
        if tn > 8:
            continue
        n, i, j = tn / 2, ti / 2, tj / 2
        up_sq = Q ** (2 * n + 2 * j) * (1 - Q ** (2 * n + 2 * i + 2))
        down_sq = Q ** (2 * n + 2 * i) * (1 - Q ** (2 * n + 2 * j))
        formula = up_sq + down_sq
        assert formula <= 1.0 + 1e-15
        computed = float(np.sum(B[:, k] ** 2))
        if ti < tn:
            assert computed == pytest.approx(formula, abs=1e-14)
        else:
            assert computed == pytest.approx(up_sq, abs=1e-14)


def test_hat_generators_adjoints():
    sp = enumerate_space("L2", 4)
    ops = hat_generators(sp, Q)
    assert np.array_equal(ops["alpha*"].to_dense(), ops["alpha"].to_dense().T)
    assert np.array_equal(ops["beta*"].to_dense(), ops["beta"].to_dense().T)


def test_pi_hat_empty_word_is_identity():
    sp = enumerate_space("L2", 2)
    T = pi_hat(((1.0, ()),), sp, Q)
    assert np.array_equal(T.to_dense(), np.eye(sp.dim))
    # and a word with no terms is the empty sum
    assert np.array_equal(pi_hat((), sp, Q).to_dense(),
                          np.zeros((sp.dim, sp.dim)))


def test_pi_hat_is_multiplicative():
    sp = enumerate_space("L2", 4)
    ops = hat_generators(sp, Q)
    T = pi_hat(((1.0, ("alpha", "beta")),), sp, Q, ops)
    np.testing.assert_allclose(T.to_dense(),
                               (ops["alpha"] @ ops["beta"]).to_dense(),
                               atol=1e-15)
    S = pi_hat(((2.0, ("beta",)), (-0.5, ())), sp, Q, ops)
    np.testing.assert_allclose(
        S.to_dense(), 2.0 * ops["beta"].to_dense() - 0.5 * np.eye(sp.dim),
        atol=1e-15)


def test_word_rejects_unknown_symbol():
    sp = enumerate_space("L2", 2)
    for syms in (("gamma",), ("alpha", "gamma")):
        with pytest.raises(KeyError):
            pi_hat(((1.0, syms),), sp, Q)


@pytest.mark.parametrize("kind", ["L2", "Double"])
@pytest.mark.parametrize("q", [0.3, 0.9])
@pytest.mark.parametrize("nmax", [8, 16])  # twice n_max, as on the CLI
def test_projected_words_are_the_word_then_the_projector(kind, q, nmax):
    """Each term's last factor cut to the interior columns first, and the
    products shared between the words, give w @ P bit for bit: the five
    relations and a length-3 word with a weight 1.0, a scaled and an
    identity term."""
    from diraclab.rep_double import pi_prime_generators

    space = enumerate_space(kind, nmax)
    ops = (hat_generators if kind == "L2" else pi_prime_generators)(space, q)
    words = dict(relation_words(q))
    words["length_3"] = ((1.0, ("alpha", "beta*", "alpha*")),
                         (-q, ("beta", "beta", "alpha")), (2.0, ()),
                         (1.0, ("beta*", "beta")))
    P, terms = interior_projector(space, 1), {}
    for name, w in words.items():
        got = pi_hat(w, space, q, ops=ops, right=interior(space, 2),
                     terms=terms)
        want = pi_hat(w, space, q, ops=ops) @ P
        for attr in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr),
                                  equal_nan=True), (name, attr)
    # 9 distinct terms in the relations (beta* beta, beta beta* and the
    # identity each serve two) and 2 more in the last word
    assert len(terms) == 11


def _chained(w, space, ops):
    """The word as the chained sum t1 + t2.scale(w2) + ...: each term a
    product from the left, each sum canonicalised on its own."""
    out = SparseOp.zero(space)
    for weight, syms in w:
        term = SparseOp.identity(space)
        for s in syms:
            term = term @ ops[s]
        out = out + term.scale(weight)
    return out


@pytest.mark.parametrize("kind", ["L2", "Double"])
@pytest.mark.parametrize("q", [0.3, 0.9])
def test_pi_hat_is_the_chained_sum_bit_for_bit(kind, q):
    """One canonicalisation of all the weighted terms gives the chained
    sum's operator: the relations, a word whose terms cancel exactly, a
    weight whose products underflow to 0 or to subnormals, and the empty
    word."""
    from diraclab.rep_double import pi_prime_generators

    space = enumerate_space(kind, 8)
    ops = (hat_generators if kind == "L2" else pi_prime_generators)(space, q)
    words = dict(relation_words(q))
    words["cancelled"] = ((1.0, ("beta",)), (-1.0, ("beta",)))
    words["underflow"] = ((1e-320, ("alpha", "beta")),)
    words["empty"] = ()
    got = {name: pi_hat(w, space, q, ops=ops) for name, w in words.items()}
    for name, w in words.items():
        want = _chained(w, space, ops)
        for attr in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(got[name], attr),
                                  getattr(want, attr)), (name, attr)
    assert got["cancelled"].nnz == got["empty"].nnz == 0
    # every weighted product is subnormal, and some round to 0 (on L2 at
    # q = 0.9 every entry of alpha beta exceeds 1e-3, so none does)
    tiny, product = got["underflow"], ops["alpha"] @ ops["beta"]
    assert tiny.nnz and np.all(np.abs(tiny.vals) < np.finfo(float).tiny)
    assert (tiny.nnz < product.nnz) != ((kind, q) == ("L2", 0.9))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_hat_relation_defects_have_closed_forms(q):
    """Regression pin for the asymptotic-model defects of the hatted pair.

    The pair satisfies the defining relations only modulo corrections
    supported on weight-boundary columns; the interior-compressed defect
    norms have the closed forms below, independent of the truncation level.
    """
    closed = {
        "unit_left": q ** 2 * (1 - q ** 2),
        "unit_right": q ** 2,
        "twist_beta": q ** 3 * math.sqrt(1 - q ** 2),
        "twist_beta_star": q ** 3 * math.sqrt(1 - q ** 2),
        "beta_normal": q ** 4 * (1 - q ** 2),
    }
    sp = enumerate_space("L2", 8)
    ops = hat_generators(sp, q)
    P = interior_projector(sp, 1)
    for name, w in relation_words(q).items():
        T = P @ pi_hat(w, sp, q, ops) @ P
        assert op_norm(T) == pytest.approx(closed[name], abs=1e-9), name
        # localization: every nonzero defect column is a weight-boundary label
        dense = T.to_dense()
        for c in np.nonzero(np.abs(dense).max(axis=0) > 1e-14)[0]:
            assert sp.tn[c] in (sp.ti[c], sp.tj[c]), (name, c)


@pytest.mark.parametrize("q", [1e-9, 1e-100])
def test_hat_twist_defects_keep_their_closed_form_at_tiny_q(q):
    # q^3 (1 - q^2)^(1/2) is far below 1e-15, yet a product of kept
    # coefficients, not a rounding residue: the relations suite reads it
    # to within an ulp (0 and 1.1e-16 relative, at either truncation)
    for tn_max in (8, 16):
        sp = enumerate_space("L2", tn_max)
        inner = interior(sp, 2)
        ops = hat_generators(sp, q)
        for name in ("twist_beta", "twist_beta_star"):
            T = pi_hat(relation_words(q)[name], sp, q, ops, right=inner)
            assert op_norm(T) == pytest.approx(q ** 3 * math.sqrt(1 - q * q),
                                               rel=1e-15, abs=0), name


def test_hat_relation_defects_past_the_crossover():
    """At q = 0.8 the next boundary term sets two of the defect norms.

    unit_left is max(q^2 (1-q^2), q^4 (1-q^4)) and beta_normal is
    max(q^4 (1-q^2), q^6 (1-q^4)); the second terms win once
    q^2 > (sqrt 5 - 1)/2, i.e. q > 0.786.  Exact norms by dense SVD.
    """
    q = 0.8
    pinned = {"unit_left": 0.24182784, "beta_normal": 0.1547698176}
    sp = enumerate_space("L2", 8)
    ops = hat_generators(sp, q)
    P = interior_projector(sp, 1)
    words = relation_words(q)
    for name, value in pinned.items():
        T = P @ pi_hat(words[name], sp, q, ops) @ P
        assert np.linalg.norm(T.to_dense(), 2) == \
            pytest.approx(value, abs=1e-9), name
    assert pinned["unit_left"] == pytest.approx(q ** 4 * (1 - q ** 4))
    assert pinned["beta_normal"] == pytest.approx(q ** 6 * (1 - q ** 4))


def test_relation_words_shape():
    rel = relation_words(Q)
    assert set(rel) == {"unit_left", "unit_right", "twist_beta",
                        "twist_beta_star", "beta_normal"}
    assert all(max(len(syms) for _, syms in w) == 2 for w in rel.values())


@pytest.mark.parametrize("q", [0.3, 0.9])
def test_relation_words_put_each_shared_product_in_consecutive_words(q):
    """The relations suite keeps, before each word, only that word's
    products; so a product two words share must serve a run of
    consecutive words.  The identity, which unit_left and unit_right share,
    is no product of generators, and the suite builds it again."""
    words = list(relation_words(q).values())
    used = {}
    for k, w in enumerate(words):
        for _, syms in w:
            used.setdefault(syms, []).append(k)
    shared = {syms: ks for syms, ks in used.items() if syms and len(ks) > 1}
    assert set(shared) == {("beta*", "beta"), ("beta", "beta*")}
    for syms, ks in shared.items():
        assert ks == list(range(ks[0], ks[-1] + 1)), (syms, ks)
    assert used[()] == [0, 2]


def test_dirac_family_tables():
    sp = enumerate_space("L2", 6)
    D1 = dirac_family(D1_PARAMS, sp)
    D2 = dirac_family(D2_PARAMS, sp)
    d1 = D1.to_dense()
    d2 = D2.to_dense()
    assert d1[sp.ordinals(0, 0, 0), sp.ordinals(0, 0, 0)] == 1.0
    for ti in (-2, 0, 2):
        k = sp.ordinals(2, ti, 0)
        assert d1[k, k] == -2.0
        assert d2[k, k] == -3.0
        k2 = sp.ordinals(2, ti, 2)
        assert d1[k2, k2] == 3.0


def test_dirac_family_eigenvalue_rule():
    # eigenvalue depends only on (n, j): a*n+b below the split, c*n+d at
    # or above it; for the first family that is -2n / 2n+1
    sp = enumerate_space("L2", 8)
    diag = dirac_family(D1_PARAMS, sp).mat.diagonal()
    for k, (tn, ti, tj) in labels(sp):
        n = tn / 2
        expect = -2 * n if tj < tn else 2 * n + 1
        assert diag[k] == expect
        assert diag[k] == int(diag[k])  # integer spectrum
        # negative exactly off the top weight line j = n
        assert (diag[k] < 0) == (tj != tn and n >= 0.5)


def test_dirac_family_right_side():
    sp = enumerate_space("L2", 4)
    diag = dirac_family(D1_PARAMS, sp, side="right").mat.diagonal()
    for k, (tn, ti, tj) in labels(sp):
        n = tn / 2
        expect = -2 * n if ti < tn else 2 * n + 1
        assert diag[k] == expect
    with pytest.raises(ValueError):
        dirac_family(D1_PARAMS, sp, side="middle")


def test_abs_of_second_family_is_linear_table():
    # |D2| has eigenvalue 2n+1 on every label: |-2n-1| = |2n+1| = 2n+1,
    # the split disappears entirely
    sp = enumerate_space("L2", 6)
    absd2 = np.abs(dirac_family(D2_PARAMS, sp).diag())
    assert np.array_equal(absd2, sp.tn + 1.0)


def test_dirac_params_validation():
    with pytest.raises(ValueError):
        DiracParams(0, 1.0, 0.0, 2.0, 1.0).validate()  # a*c > 0
    with pytest.raises(ValueError):
        DiracParams(0, -1.0, 0.0, 0.0, 1.0).validate()  # a*c = 0
    with pytest.raises(ValueError):
        DiracParams(-1, -2.0, 0.0, 2.0, 1.0).validate()
    with pytest.raises(ValueError):
        DiracParams(0.5, -2.0, 0.0, 2.0, 1.0).validate()
    # a NaN a or c makes a*c >= 0 false as well as a*c < 0; an infinite k
    # has no int, and True is no k
    for a, c in ((math.nan, 2.0), (-2.0, math.nan)):
        with pytest.raises(ValueError, match="a\\*c < 0"):
            DiracParams(0, a, 0.0, c, 1.0).validate()
    for k in (math.inf, math.nan, True):
        with pytest.raises(ValueError, match="k must be an int >= 0"):
            DiracParams(k, -2.0, 0.0, 2.0, 1.0).validate()
    with pytest.raises(ValueError, match="a\\*c < 0"):
        dirac_family(DiracParams(0, math.nan, 0.0, 2.0, 1.0),
                     enumerate_space("L2", 2))
    assert DiracParams(2, -1.0, 5.0, 3.0, 0.0).validate().k == 2


def test_hat_ops_require_l2():
    dbl = enumerate_space("Double", 2)
    with pytest.raises(ValueError):
        alpha_hat(dbl, Q)
    with pytest.raises(ValueError):
        dirac_family(D1_PARAMS, dbl)
