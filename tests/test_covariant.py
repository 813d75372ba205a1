import itertools

import numpy as np
import pytest

from diraclab.covariant import cyclic_dimension
from diraclab.harness import RunConfig, run
from diraclab.hilbert import enumerate_space
from diraclab.linop import SpaceMismatchError, SparseOp
from diraclab.rep_double import pi_prime_generators
from diraclab.rep_l2 import D1_PARAMS, dirac_family, hat_generators

Q = 0.5
GRAM_TOL = 1e-8  # the dense oracle's discard threshold


def _setup(tn_max=6, q=Q):
    sp = enumerate_space("L2", tn_max)
    ops = hat_generators(sp, q)
    gens = [ops[g] for g in ("alpha", "alpha*", "beta", "beta*")]
    seed = int(sp.ordinals(0, 0, 0))
    return sp, gens, seed


def test_depth_zero():
    sp, gens, seed = _setup()
    assert seed == 0  # e_0 is the first ordinal
    rep = cyclic_dimension(gens, 0)
    assert rep.reached == 1
    assert rep.target == 1
    assert rep.saturated
    assert rep.history == (1,)


def test_depth_one_reaches_five():
    sp, gens, seed = _setup()
    rep = cyclic_dimension(gens, 1)
    assert rep.reached == 5
    assert rep.target == 5
    assert rep.saturated
    assert rep.history == (1, 5)


def test_depth_one_matches_brute_force_oracle():
    # the four generator images of the ground vector, computed without any
    # package code: their numpy matrix rank (with the seed) must equal the
    # reported dimension, and each level-1/2 basis vector must be a
    # single-coefficient image
    sp, gens, seed = _setup()
    v0 = np.zeros(sp.dim)
    v0[seed] = 1.0
    images = [g.apply(v0) for g in gens]
    stack = np.column_stack([v0] + images)
    assert np.linalg.matrix_rank(stack, tol=1e-10) \
        == cyclic_dimension(gens, 1).reached == 5
    expected = {
        ("alpha", -1, -1): Q,
        ("alpha*", 1, 1): 1 - Q ** 2,
        ("beta", 1, -1): -np.sqrt(1 - Q ** 2),
        ("beta*", -1, 1): np.sqrt(1 - Q ** 2),
    }  # twice-valued (i, j) at n = 1/2
    for (g, ti, tj), coeff in expected.items():
        img = gens[["alpha", "alpha*", "beta", "beta*"].index(g)].apply(v0)
        k = sp.ordinals(1, ti, tj)
        assert img[k] == pytest.approx(coeff, abs=1e-15)
        img[k] = 0.0
        assert np.max(np.abs(img)) < 1e-15  # single-component image


def test_history_is_monotone_and_level_capped():
    sp, gens, seed = _setup()
    rep = cyclic_dimension(gens, 4)
    assert rep.history == tuple(sorted(rep.history))
    # after d applications the span lives inside levels n <= d/2
    for d, dim_d in enumerate(rep.history):
        cap = np.count_nonzero(sp.tn <= d)
        assert dim_d <= cap


def test_saturation_at_double_depth():
    sp, gens, seed = _setup(tn_max=6)
    rep = cyclic_dimension(gens, 6)
    assert rep.target == sp.dim
    assert rep.saturated
    assert rep.reached == sp.dim


def test_diagonal_generator_is_not_cyclic():
    # negative control: a diagonal operator keeps the seed direction fixed,
    # so the span never grows (the dense oracle discards the lone image
    # once, then has an empty frontier); it is no band operator, so the
    # certificate does not decide it and says why
    sp, gens, seed = _setup()
    D1 = dirac_family(D1_PARAMS, sp)
    for depth in (1, 3, 6):
        with pytest.raises(ValueError, match="generator 0 is not a"):
            cyclic_dimension([D1], depth)
        assert _dense_oracle([D1], seed, depth)[:3] \
            == (1, 1, tuple([1] * (depth + 1)))


def test_alpha_alone_names_the_first_unreached_label():
    # alpha alone only walks the i = j = -n diagonal: the first label it
    # misses is named, and the dense oracle measures the shortfall
    sp, gens, seed = _setup()
    alpha = gens[0]
    with pytest.raises(ValueError,
                       match=r"\(1/2, -1/2, 1/2\) receives no nonzero up"):
        cyclic_dimension([alpha], 2)
    got = dict(_dense_oracle([alpha], seed, 2)[3])
    assert got[1] == 3   # level 1/2: rank 1 of 4
    assert got[2] == 8   # level 1: rank 1 of 9


def test_input_validation():
    sp, gens, seed = _setup(tn_max=2)
    with pytest.raises(ValueError):
        cyclic_dimension([], 1)
    # a depth is an int >= 0: 2.7 is not cut to 2, nor is True read as 1
    for depth in (-1, 2.7, True):
        with pytest.raises(ValueError, match="depth must be an int >= 0"):
            cyclic_dimension(gens, depth)
    with pytest.raises(ValueError, match="depth 3 reaches level 3/2, beyond "
                       "the truncation n_max = 1$"):
        cyclic_dimension(gens, sp.n_max + 1)
    other = enumerate_space("L2", 6)
    bad = [SparseOp.diagonal(other, np.ones(other.dim))] + gens
    with pytest.raises(SpaceMismatchError):
        cyclic_dimension(bad, 1)


# -------------------------------------- the certificate against a dense frame

def _dense_oracle(gens, seed, depth, gram_tol=GRAM_TOL):
    """Breadth-first Gram-Schmidt of the words applied to e_seed, with one
    frame over the whole space, one candidate at a time.

    Returns (reached, discarded, history, deficiency), where deficiency
    lists (twice-level, missing dims) pairs, () when saturated.
    """
    space = gens[0].dom
    Q = np.zeros((space.dim, 0))

    def try_add(w):
        # twice-reorthogonalised insertion into the frame Q
        nonlocal Q
        for _ in range(2):
            w = w - Q @ (Q.T @ w)
        nw = np.linalg.norm(w)
        if nw <= gram_tol:
            return False
        Q = np.column_stack([Q, w / nw])
        return True

    try_add(np.eye(space.dim)[seed])
    frontier, discarded, history = [Q[:, 0]], 0, [1]
    for _ in range(depth):
        fresh = []
        for v in frontier:
            for g in gens:
                if try_add(g.apply(v)):
                    fresh.append(Q[:, -1])
                else:
                    discarded += 1
        frontier = fresh
        history.append(Q.shape[1])
    deficiency = []
    for tn in range(min(depth, space.n_max) + 1):
        rows = space.level_ordinals(tn)
        miss = len(rows) - np.linalg.matrix_rank(Q[rows], tol=gram_tol)
        if miss:
            deficiency.append((tn, int(miss)))
    return Q.shape[1], discarded, tuple(history), tuple(deficiency)


def _assert_matches_dense(gens, seed, depth):
    rep = cyclic_dimension(gens, depth)
    assert (rep.reached, rep.discarded, rep.history, ()) \
        == _dense_oracle(gens, seed, depth)
    return rep


def _assert_undecided(gens, seed, depth, cause):
    """The certificate raises, naming the cause; the dense oracle's report
    of the same words, for the test to check."""
    with pytest.raises(ValueError, match=cause):
        cyclic_dimension(gens, depth)
    return _dense_oracle(gens, seed, depth)


NOT_BAND = "is not a \\+-1/2 band operator with one weight shift"
UNREACHED = "receives no nonzero up entry"


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("tn_max", [1, 2, 3, 4, 5, 6])
def test_sector_frames_match_dense_all_generators(q, tn_max):
    sp, gens, seed = _setup(tn_max=tn_max, q=q)
    rep = _assert_matches_dense(gens, seed, tn_max)
    assert rep.saturated


def test_alpha_alone_is_undecided():
    sp, gens, seed = _setup()
    assert _assert_undecided([gens[0]], seed, 6, UNREACHED)[3]  # shortfall


def test_alpha_with_beta_is_undecided():
    # alpha and beta both lower j by 1/2, so a word fixes j by its length
    # and the span falls short at every level past the ground
    sp, gens, seed = _setup()
    assert len(_assert_undecided([gens[0], gens[2]], seed, 6,
                                 UNREACHED)[3]) == 6


def test_diagonal_dirac_is_not_a_band_operator():
    sp, gens, seed = _setup()
    D1 = dirac_family(D1_PARAMS, sp)
    assert _assert_undecided([D1], seed, 6, NOT_BAND)[0] == 1


def test_mixed_weight_shift_raises_not_band():
    # alpha + beta shifts (i, j) by (-1/2, -1/2) on some nonzeros and by
    # (+1/2, -1/2) on others, so it maps a weight sector into two: the
    # certificate names it, although each summand alone is accepted
    sp, gens, seed = _setup()
    mixed = gens[0].add(gens[2])
    _assert_undecided([gens[1], mixed], seed, 6, "generator 1 " + NOT_BAND)
    assert cyclic_dimension(gens, 6).saturated


def test_regression_pin_beyond_dense_oracle_sizes():
    # the parent's values at n_max 16, depth 32, q = 0.5: far beyond what
    # the dense oracle can check, so pinned numbers guard the count
    sp = enumerate_space("L2", 32)
    rep = cyclic_dimension(list(hat_generators(sp, 0.5).values()), 32)
    assert (rep.reached, rep.discarded, rep.saturated) == (12529, 33232, True)


@pytest.mark.parametrize("q", [0.3, 0.95])
@pytest.mark.parametrize("tn_max, reached, discarded",
                         [(24, 5525, 14076), (32, 12529, 33232)])
def test_regression_pins_across_q(q, tn_max, reached, discarded):
    # the certificate's counts, pinned beyond the dense oracle's reach;
    # saturated, so depth d reaches every level <= d/2
    sp = enumerate_space("L2", tn_max)
    rep = cyclic_dimension(list(hat_generators(sp, q).values()), tn_max)
    levels = itertools.accumulate((d + 1) ** 2 for d in range(tn_max + 1))
    assert (rep.reached, rep.discarded, rep.history) \
        == (reached, discarded, tuple(levels))


def test_regression_pin_at_nmax_48():
    sp = enumerate_space("L2", 48)
    rep = cyclic_dimension(list(hat_generators(sp, 0.5).values()), 48)
    assert (rep.reached, rep.discarded, rep.saturated) == (40425, 111672, True)


def test_same_target_candidates_are_decided_in_order():
    # at depth 2, beta(alpha seed) and then alpha(beta seed) land in weight
    # sector (0, -1), whose only vector at level <= 1 is e^{(1)}_{0,-1}: the
    # later image is nonzero on its own and is discarded only because the
    # earlier one of the same depth was accepted.  The pair misses labels,
    # so only the dense oracle counts it.
    sp, gens, seed = _setup()
    alpha, beta = gens[0], gens[2]
    v0 = np.zeros(sp.dim)
    v0[seed] = 1.0
    k = sp.ordinals(2, 0, -2)
    for w in (beta.apply(alpha.apply(v0)), alpha.apply(beta.apply(v0))):
        assert np.flatnonzero(w).tolist() == [k]
        assert abs(w[k]) > GRAM_TOL
    _, discarded, history, _ = _assert_undecided([alpha, beta], seed, 2,
                                                 UNREACHED)
    assert history == (1, 3, 6)
    assert discarded == 1


@pytest.mark.parametrize("names", [("alpha",), ("alpha", "alpha*")],
                         ids=["alpha", "alpha+alpha*"])
def test_i_equals_j_generators_leave_labels_unreached(names):
    # alpha (and alpha*) keep to the i = j sectors: most labels are never
    # reached, and the dense oracle reports the shortfall per level
    sp, gens, seed = _setup(tn_max=8)
    ops = hat_generators(sp, Q)
    assert _assert_undecided([ops[g] for g in names], seed, 8, UNREACHED)[3]


def test_dense_random_generators_are_undecided():
    # generic dense operators move the level by every amount: the words do
    # fill the space (by the dense oracle), but the structure cannot say so
    sp = enumerate_space("L2", 2)
    rng = np.random.default_rng(0)
    rows, cols = np.divmod(np.arange(sp.dim ** 2), sp.dim)
    gens = [SparseOp.from_coo(sp, sp, rows, cols,
                              rng.standard_normal(sp.dim ** 2))
            for _ in range(5)]
    history = _assert_undecided(gens, 0, 2, "generator 0 " + NOT_BAND)[2]
    assert history == (1, 6, sp.dim)


def test_tiny_q_keeps_the_alpha_image():
    # at q = 1e-100 alpha maps the seed to q e^{(1/2)}_{-1/2,-1/2}: far
    # below any Gram-Schmidt tolerance, but a nonzero entry, and the only
    # up entry that label receives
    sp, gens, seed = _setup(q=1e-100)
    k = sp.ordinals(1, -1, -1)
    ups = [g.vals[(g.rows == k) & (g.cols == seed)] for g in gens]
    assert [u.tolist() for u in ups] == [[1e-100], [], [], []]
    rep = cyclic_dimension(gens, 6)
    assert rep.history[1] == 5
    assert rep.saturated
    assert _dense_oracle(gens, seed, 1)[2] == (1, 4)  # the tolerance's view


# ------------------------------------------------ the certificate across q

@pytest.mark.parametrize("q", [0.3, 0.7, 0.95, 1e-3])
def test_certificate_equals_gram_schmidt_and_dense(q):
    for tn_max in (*range(1, 9), 16, 24):
        sp, gens, seed = _setup(tn_max=tn_max, q=q)
        if tn_max <= 8:
            rep = _assert_matches_dense(gens, seed, tn_max)
        else:
            rep = cyclic_dimension(gens, tn_max)
        assert rep.saturated


@pytest.mark.parametrize("tn_max", [2, 16, 32])
def test_certificate_holds_for_the_hatted_pair_at_every_q(tn_max):
    # every label at N >= 1/2 receives a nonzero up entry at every q in
    # (0, 1): (N, -N, -N) q^1 from alpha, (N, I, -N) a factor
    # (1 - q^{2N+2I})^{1/2} from beta, (N, -N, J) one from beta*, the rest
    # one from alpha*
    sp = enumerate_space("L2", tn_max)
    levels = tuple(itertools.accumulate((d + 1) ** 2
                                        for d in range(tn_max + 1)))
    for q in (5e-324, 1e-300, 1e-100, 1e-30, 1e-15, 1e-9, 0.3, 0.9,
              0.9999999999999999):
        rep = cyclic_dimension(hat_generators(sp, q).values(), tn_max)
        assert rep.history == levels, q


def _zeroed(g, row, col):
    """g with its (row, col) entry stored as an explicit 0."""
    hit = (g.rows == row) & (g.cols == col)
    assert hit.sum() == 1
    return SparseOp(g.dom, g.cod, g.rows, g.cols, np.where(hit, 0.0, g.vals))


def test_undecided_structures_raise():
    sp, gens, seed = _setup(tn_max=4)
    depth = 4
    # a generator with two weight shifts
    mixed = [gens[0].add(gens[2])] + gens[1:]
    _assert_undecided(mixed, seed, depth, "generator 0 " + NOT_BAND)
    # a generator with entries at level offset 0 (a diagonal D1)
    with_d1 = gens + [dirac_family(D1_PARAMS, sp)]
    _assert_undecided(with_d1, seed, depth, "generator 4 " + NOT_BAND)
    # a Double space: (n, i, j) does not fix a label
    dbl = enumerate_space("Double", 4)
    with pytest.raises(ValueError, match="expected a space of kind 'L2', "
                                         "got 'Double'"):
        cyclic_dimension(pi_prime_generators(dbl, Q).values(), depth)


def test_zeroed_up_entry_raises_naming_the_label():
    # the top corner e^{(2)}_{-2,-2} receives its only up entry from alpha;
    # with that entry zeroed no word reaches the label: the certificate
    # names it, and the dense oracle finds that one dimension is missing
    sp, gens, seed = _setup(tn_max=4)
    corner = sp.ordinals(4, -4, -4)
    source = sp.ordinals(3, -3, -3)
    up = [g for g in gens if np.any((g.rows == corner)
                                    & (sp.tn[g.cols] == 3))]
    assert up == [gens[0]]
    cut = [_zeroed(gens[0], corner, source)] + gens[1:]
    reached, _, _, deficiency = _assert_undecided(
        cut, seed, 4, r"\(2, -2, -2\) " + UNREACHED)
    assert reached == sp.dim - 1
    assert deficiency == ((4, 1),)


@pytest.mark.parametrize("q", [1e-9, 1e-12, 1e-30, 1e-100, 5e-324])
def test_minimality_saturates_at_small_q(q):
    # alpha maps the seed to q e^{(1/2)}_{-1/2,-1/2}, a length below any
    # Gram-Schmidt tolerance: the certificate sees it as a new direction
    (cell,) = run(RunConfig(q=(q,), n_max=16, suites=("minimality",)))
    assert cell.passed
    m = cell.metrics
    assert (m["reached"], m["target"], m["depth1_dim"], m["discarded"]) \
        == (1785, 1785, 5, 4200)
    assert m["saturated"] == 1.0 and m["missing_total"] == 0
