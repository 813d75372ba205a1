import itertools

import numpy as np
import pytest

from diraclab._kernels import sector_map
from diraclab.covariant import GRAM_TOL, _certificate, cyclic_dimension
from diraclab.harness import RunConfig, run
from diraclab.hilbert import L2Index, enumerate_space
from diraclab.linop import SpaceMismatchError, SparseOp
from diraclab.qnum import half
from diraclab.rep_l2 import D1_PARAMS, dirac_family, hat_generators

Q = 0.5


def _setup(tn_max=6, q=Q):
    sp = enumerate_space("L2", half(tn_max / 2))
    ops = hat_generators(sp, q)
    gens = [ops[g] for g in ("alpha", "alpha*", "beta", "beta*")]
    seed = sp.ordinal(L2Index(half(0), half(0), half(0)))
    return sp, gens, seed


def _gram_schmidt(gens, seed, depth):
    """cyclic_dimension's Gram-Schmidt: an explicit seed vector skips the
    certificate."""
    v0 = np.zeros(gens[0].dom.dim)
    v0[seed] = 1.0
    return cyclic_dimension(gens, v0, depth)


def _both_paths(gens, seed, depth):
    """The report for an ordinal seed, asserted equal to the Gram-Schmidt's,
    so that the fallback keeps its checks where the certificate holds."""
    rep = cyclic_dimension(gens, seed, depth)
    assert rep == _gram_schmidt(gens, seed, depth)
    return rep


def test_depth_zero():
    sp, gens, seed = _setup()
    rep = _both_paths(gens, seed, 0)
    assert rep.reached == 1
    assert rep.target == 1
    assert rep.saturated
    assert rep.history == (1,)
    assert rep.deficiency == ()


def test_depth_one_reaches_five():
    sp, gens, seed = _setup()
    rep = _both_paths(gens, seed, 1)
    assert rep.reached == 5
    assert rep.target == 5
    assert rep.saturated
    assert rep.history == (1, 5)


def test_depth_one_matches_brute_force_oracle():
    # the four generator images of the ground vector, computed without any
    # package Gram-Schmidt: their numpy matrix rank (with the seed) must
    # equal the reported dimension, and each level-1/2 basis vector must be
    # a single-coefficient image
    sp, gens, seed = _setup()
    v0 = np.zeros(sp.dim)
    v0[seed] = 1.0
    images = [g.apply(v0) for g in gens]
    stack = np.column_stack([v0] + images)
    assert np.linalg.matrix_rank(stack, tol=1e-10) == 5
    expected = {
        ("alpha", -0.5, -0.5): Q,
        ("alpha*", 0.5, 0.5): 1 - Q ** 2,
        ("beta", 0.5, -0.5): -np.sqrt(1 - Q ** 2),
        ("beta*", -0.5, 0.5): np.sqrt(1 - Q ** 2),
    }
    for (g, i, j), coeff in expected.items():
        img = gens[["alpha", "alpha*", "beta", "beta*"].index(g)].apply(v0)
        k = sp.ordinal(L2Index(half(0.5), half(i), half(j)))
        assert img[k] == pytest.approx(coeff, abs=1e-15)
        img[k] = 0.0
        assert np.max(np.abs(img)) < 1e-15  # single-component image


def test_history_is_monotone_and_level_capped():
    sp, gens, seed = _setup()
    rep = _both_paths(gens, seed, 4)
    assert rep.history == tuple(sorted(rep.history))
    # after d applications the span lives inside levels n <= d/2
    for d, dim_d in enumerate(rep.history):
        cap = sum(len(sp.levels[tn]) for tn in sp.levels if tn <= d)
        assert dim_d <= cap


def test_saturation_at_double_depth():
    sp, gens, seed = _setup(tn_max=6)
    rep = _both_paths(gens, seed, 6)
    assert rep.target == sp.dim
    assert rep.saturated
    assert rep.reached == sp.dim
    assert rep.deficiency == ()
    assert rep.gram_tol == GRAM_TOL


def test_diagonal_generator_is_not_cyclic():
    # negative control: a diagonal operator keeps the seed direction fixed,
    # so the span never grows and every image is discarded
    sp, gens, seed = _setup()
    D1 = dirac_family(D1_PARAMS, sp)
    for depth in (1, 3, 6):
        rep = cyclic_dimension([D1], seed, depth)
        assert rep.reached == 1
        assert not rep.saturated
        # the lone image is discarded once; the frontier then empties, so
        # deeper passes have nothing left to try
        assert rep.discarded == 1
        assert rep.history == tuple([1] * (depth + 1))


def test_deficiency_reporting():
    # alpha alone only walks the i = j = -n diagonal, leaving a measured
    # per-level shortfall
    sp, gens, seed = _setup()
    alpha = gens[0]
    rep = cyclic_dimension([alpha], seed, 2)
    assert rep.reached < rep.target
    assert not rep.saturated
    got = dict(rep.deficiency)
    assert got[1] == 3   # level 1/2: rank 1 of 4
    assert got[2] == 8   # level 1: rank 1 of 9


def test_seed_vector_forms():
    sp, gens, seed = _setup(tn_max=2)
    v = np.zeros(sp.dim)
    v[seed] = 2.0  # unnormalized is fine
    a = cyclic_dimension(gens, seed, 1)
    b = cyclic_dimension(gens, v, 1)
    assert a.reached == b.reached == 5


def test_input_validation():
    sp, gens, seed = _setup(tn_max=2)
    with pytest.raises(ValueError):
        cyclic_dimension([], seed, 1)
    with pytest.raises(ValueError):
        cyclic_dimension(gens, seed, -1)
    with pytest.raises(ValueError):
        cyclic_dimension(gens, seed, sp.n_max.twice + 1)
    with pytest.raises(ValueError):
        cyclic_dimension(gens, np.zeros(sp.dim), 1)
    with pytest.raises(ValueError):
        cyclic_dimension(gens, np.ones(3), 1)
    for bad_seed in (-1, sp.dim):  # ordinals outside [0, dim)
        with pytest.raises(ValueError):
            cyclic_dimension(gens, bad_seed, 1)
    other = enumerate_space("L2", half(3))
    bad = [SparseOp.identity(other)] + gens
    with pytest.raises(SpaceMismatchError):
        cyclic_dimension(bad, seed, 1)


# ------------------------------------------ weight sectors vs one dense frame

def _dense_oracle(gens, v0, depth, gram_tol=GRAM_TOL):
    """Breadth-first Gram-Schmidt with one frame over the whole space, one
    candidate at a time.

    Returns (reached, discarded, history, deficiency) for comparison with
    the per-sector frames and batched rounds of cyclic_dimension.
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

    try_add(v0 / np.linalg.norm(v0))
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
    for tn in sorted(space.levels):
        if tn <= depth:
            rows = space.levels[tn]
            miss = len(rows) - np.linalg.matrix_rank(Q[rows], tol=gram_tol)
            if miss:
                deficiency.append((tn, int(miss)))
    return Q.shape[1], discarded, tuple(history), tuple(deficiency)


def _assert_matches_dense(gens, seed, depth):
    if isinstance(seed, (int, np.integer)):
        v0 = np.eye(gens[0].dom.dim)[seed]
        rep = _both_paths(gens, seed, depth)
    else:
        v0 = np.asarray(seed, dtype=float)
        rep = cyclic_dimension(gens, seed, depth)
    assert (rep.reached, rep.discarded, rep.history, rep.deficiency) \
        == _dense_oracle(gens, v0, depth)
    return rep


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.8, 0.9])
@pytest.mark.parametrize("tn_max", [1, 2, 3, 4, 5, 6])
def test_sector_frames_match_dense_all_generators(q, tn_max):
    sp, gens, seed = _setup(tn_max=tn_max, q=q)
    rep = _assert_matches_dense(gens, seed, tn_max)
    assert rep.saturated


def test_sector_frames_match_dense_alpha_alone():
    sp, gens, seed = _setup()
    rep = _assert_matches_dense([gens[0]], seed, 6)
    assert rep.deficiency  # the shortfall case


def test_sector_frames_match_dense_alpha_beta():
    # alpha and beta both lower j by 1/2, so a word fixes j by its length
    # and the span falls short at every level past the ground: the shortfall
    # count ranks blocks of several shapes
    sp, gens, seed = _setup()
    rep = _assert_matches_dense([gens[0], gens[2]], seed, 6)
    assert len(rep.deficiency) == 6


def test_sector_frames_match_dense_diagonal():
    sp, gens, seed = _setup()
    D1 = dirac_family(D1_PARAMS, sp)
    rep = _assert_matches_dense([D1], seed, 6)
    assert rep.reached == 1


def test_mixed_weight_shift_falls_back_to_one_sector():
    # alpha + beta shifts (i, j) by (-1/2, -1/2) on some nonzeros and by
    # (+1/2, -1/2) on others, so it maps a weight sector into two and the
    # weights do not grade its images
    sp, gens, seed = _setup()

    def to(g):
        return sector_map(sp.sector[g.cols], sp.sector[g.rows],
                          sp.sector.max() + 1)

    mixed = gens[0] + gens[2]
    assert to(mixed) is None
    assert all(to(g) is not None for g in gens)
    _assert_matches_dense([mixed, gens[1]], seed, 6)
    # a seed spread over two sectors also forces the single frame
    two = np.zeros(sp.dim)
    two[seed] = 1.0
    two[sp.ordinal(L2Index(half(0.5), half(0.5), half(0.5)))] = 1.0
    assert len(set(sp.sector[np.flatnonzero(two)])) == 2
    _assert_matches_dense(gens, two, 4)


def test_regression_pin_beyond_dense_oracle_sizes():
    # the parent's values at n_max 16, depth 32, q = 0.5: far beyond what
    # the dense oracle can check, so pinned numbers guard the sector blocks
    sp = enumerate_space("L2", half(16))
    rep = _both_paths(list(hat_generators(sp, 0.5).values()), 0, 32)
    assert (rep.reached, rep.discarded, rep.saturated) == (12529, 33232, True)


@pytest.mark.parametrize("q", [0.3, 0.95])
@pytest.mark.parametrize("tn_max, reached, discarded",
                         [(24, 5525, 14076), (32, 12529, 33232)])
def test_regression_pins_across_q(q, tn_max, reached, discarded):
    # counts of one-candidate-at-a-time Gram-Schmidt, pinned beyond the dense
    # oracle's reach; saturated, so depth d reaches every level <= d/2
    sp = enumerate_space("L2", half(tn_max / 2))
    rep = _both_paths(list(hat_generators(sp, q).values()), 0, tn_max)
    levels = itertools.accumulate((d + 1) ** 2 for d in range(tn_max + 1))
    assert (rep.reached, rep.discarded, rep.history, rep.deficiency) \
        == (reached, discarded, tuple(levels), ())


def test_regression_pin_at_nmax_48():
    sp = enumerate_space("L2", half(24))
    rep = _both_paths(list(hat_generators(sp, 0.5).values()), 0, 48)
    assert (rep.reached, rep.discarded, rep.saturated) == (40425, 111672, True)


def test_same_target_candidates_are_decided_in_order():
    # at depth 2, beta(alpha seed) and then alpha(beta seed) land in weight
    # sector (0, -1), whose only vector at level <= 1 is e^{(1)}_{0,-1}: the
    # later image is nonzero on its own and is discarded only because the
    # earlier one of the same depth was accepted
    sp, gens, seed = _setup()
    alpha, beta = gens[0], gens[2]
    v0 = np.zeros(sp.dim)
    v0[seed] = 1.0
    k = sp.ordinal(L2Index(half(1), half(0), half(-1)))
    for w in (beta.apply(alpha.apply(v0)), alpha.apply(beta.apply(v0))):
        assert np.flatnonzero(w).tolist() == [k]
        assert abs(w[k]) > GRAM_TOL
    rep = _assert_matches_dense([alpha, beta], seed, 2)
    assert rep.history == (1, 3, 6)
    assert rep.discarded == 1


@pytest.mark.parametrize("names", [("alpha",), ("alpha", "alpha*")],
                         ids=["alpha", "alpha+alpha*"])
def test_part_filled_sector_frames_match_dense(names):
    # alpha (and alpha*) keep to the i = j sectors: many frames are left
    # part-filled, and the shortfall is reported per level
    sp, gens, seed = _setup(tn_max=8)
    ops = hat_generators(sp, Q)
    rep = _assert_matches_dense([ops[g] for g in names], seed, 8)
    assert rep.deficiency


def test_zero_gram_tol_stops_at_the_dimension():
    # with gram_tol = 0 the rounding residue left by a full frame would count
    # as a new direction; a frame holds at most its sector's dimension
    sp = enumerate_space("L2", half(1))
    rng = np.random.default_rng(0)
    rows, cols = np.divmod(np.arange(sp.dim ** 2), sp.dim)
    gens = [SparseOp.from_coo(sp, sp, rows, cols,
                              rng.standard_normal(sp.dim ** 2))
            for _ in range(5)]
    rep = cyclic_dimension(gens, 0, 2, gram_tol=0.0)
    assert rep.history == (1, 6, sp.dim)
    assert rep.saturated


def test_tiny_q_drops_the_alpha_image():
    # at q = 1e-100 alpha maps the seed to q e^{(1/2)}_{-1/2,-1/2}, far below
    # gram_tol (SparseOp even prunes the coefficient, so the certificate
    # fails), and only the other three images are new at depth 1
    sp, gens, seed = _setup(q=1e-100)
    assert _certificate(gens, seed, 6, GRAM_TOL) is None
    rep = _assert_matches_dense(gens, seed, 6)
    assert rep.history[1] == 4


# ------------------------------------------- the certificate and its fallback

@pytest.mark.parametrize("q", [0.3, 0.7, 0.95, 1e-3])
def test_certificate_equals_gram_schmidt_and_dense(q):
    for tn_max in (*range(1, 9), 16, 24):
        sp, gens, seed = _setup(tn_max=tn_max, q=q)
        assert _certificate(gens, seed, tn_max, GRAM_TOL) is not None
        rep = _both_paths(gens, seed, tn_max)
        assert rep.saturated and rep.deficiency == ()
        if tn_max <= 8:
            assert (rep.reached, rep.discarded, rep.history, rep.deficiency) \
                == _dense_oracle(gens, np.eye(sp.dim)[seed], tn_max)


def _zeroed(g, row, col):
    """g with its (row, col) entry stored as an explicit 0."""
    hit = (g.rows == row) & (g.cols == col)
    assert hit.sum() == 1
    return SparseOp(g.dom, g.cod, g.rows, g.cols, np.where(hit, 0.0, g.vals))


def test_fallback_triggers_take_the_gram_schmidt():
    sp, gens, seed = _setup(tn_max=4)
    depth = 4
    # an explicit seed vector never reaches the certificate
    v0 = np.zeros(sp.dim)
    v0[seed] = 1.0
    _assert_matches_dense(gens, v0, depth)
    # a seed off level 0
    off = sp.ordinal(L2Index(half(0.5), half(0.5), half(0.5)))
    assert _certificate(gens, off, depth, GRAM_TOL) is None
    _assert_matches_dense(gens, off, depth)
    # a generator with two weight shifts
    mixed = [gens[0] + gens[2]] + gens[1:]
    assert _certificate(mixed, seed, depth, GRAM_TOL) is None
    _assert_matches_dense(mixed, seed, depth)
    # a generator with entries at level offset 0 (a diagonal D1)
    with_d1 = gens + [dirac_family(D1_PARAMS, sp)]
    assert _certificate(with_d1, seed, depth, GRAM_TOL) is None
    _assert_matches_dense(with_d1, seed, depth)


def test_fallback_reports_an_unreached_label():
    # the top corner e^{(2)}_{-2,-2} receives its only up entry from alpha;
    # with that entry zeroed no word reaches the label, the certificate
    # fails, and the Gram-Schmidt reports the shortfall
    sp, gens, seed = _setup(tn_max=4)
    corner = sp.ordinal(L2Index(half(2), half(-2), half(-2)))
    source = sp.ordinal(L2Index(half(1.5), half(-1.5), half(-1.5)))
    up = [g for g in gens if np.any((g.rows == corner)
                                    & (sp.tn[g.cols] == 3))]
    assert up == [gens[0]]
    cut = [_zeroed(gens[0], corner, source)] + gens[1:]
    assert _certificate(cut, seed, 4, GRAM_TOL) is None
    rep = _assert_matches_dense(cut, seed, 4)
    assert not rep.saturated
    assert rep.reached == rep.target - 1
    assert rep.deficiency == ((4, 1),)


@pytest.mark.parametrize("q", [1e-9, 1e-12])
def test_minimality_saturates_at_small_q(q):
    # alpha maps the seed to q e^{(1/2)}_{-1/2,-1/2}, a length below the
    # default gram_tol: only the certificate sees it as a new direction
    (cell,) = run(RunConfig(q=(q,), n_max=half(8), suites=("minimality",)))
    assert cell.passed
    m = cell.metrics
    assert (m["reached"], m["target"], m["depth1_dim"], m["discarded"]) \
        == (1785, 1785, 5, 4200)
    assert m["saturated"] == 1.0 and m["missing_total"] == 0
