import itertools

import numpy as np
import pytest

from diraclab._kernels import sector_map
from diraclab.covariant import GRAM_TOL, cyclic_dimension
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


def test_depth_zero():
    sp, gens, seed = _setup()
    rep = cyclic_dimension(gens, seed, 0)
    assert rep.reached == 1
    assert rep.target == 1
    assert rep.saturated
    assert rep.history == (1,)
    assert rep.deficiency == ()


def test_depth_one_reaches_five():
    sp, gens, seed = _setup()
    rep = cyclic_dimension(gens, seed, 1)
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
    rep = cyclic_dimension(gens, seed, 4)
    assert rep.history == tuple(sorted(rep.history))
    # after d applications the span lives inside levels n <= d/2
    for d, dim_d in enumerate(rep.history):
        cap = sum(len(sp.levels[tn]) for tn in sp.levels if tn <= d)
        assert dim_d <= cap


def test_saturation_at_double_depth():
    sp, gens, seed = _setup(tn_max=6)
    rep = cyclic_dimension(gens, seed, 6)
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
    v0 = np.zeros(gens[0].dom.dim)
    if isinstance(seed, (int, np.integer)):
        v0[seed] = 1.0
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
    rep = cyclic_dimension(hat_generators(sp, 0.5).values(), 0, 32)
    assert (rep.reached, rep.discarded, rep.saturated) == (12529, 33232, True)


@pytest.mark.parametrize("q", [0.3, 0.95])
@pytest.mark.parametrize("tn_max, reached, discarded",
                         [(24, 5525, 14076), (32, 12529, 33232)])
def test_regression_pins_across_q(q, tn_max, reached, discarded):
    # counts of one-candidate-at-a-time Gram-Schmidt, pinned beyond the dense
    # oracle's reach; saturated, so depth d reaches every level <= d/2
    sp = enumerate_space("L2", half(tn_max / 2))
    rep = cyclic_dimension(hat_generators(sp, q).values(), 0, tn_max)
    levels = itertools.accumulate((d + 1) ** 2 for d in range(tn_max + 1))
    assert (rep.reached, rep.discarded, rep.history, rep.deficiency) \
        == (reached, discarded, tuple(levels), ())


def test_regression_pin_at_nmax_48():
    sp = enumerate_space("L2", half(24))
    rep = cyclic_dimension(hat_generators(sp, 0.5).values(), 0, 48)
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
    # gram_tol (SparseOp even prunes the coefficient), so only the other
    # three images are new at depth 1
    sp, gens, seed = _setup(q=1e-100)
    rep = _assert_matches_dense(gens, seed, 6)
    assert rep.history[1] == 4
