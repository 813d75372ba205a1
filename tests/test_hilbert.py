import numpy as np
import pytest

from diraclab.hilbert import TruncatedSpace, enumerate_space, interior


def l2_dim_oracle(tn_max: int) -> int:
    # sum of (2n+1)^2 over n = 0, 1/2, ..., n_max, with 2n running over
    # the integers 0..tn_max
    return sum((tn + 1) ** 2 for tn in range(tn_max + 1))


def double_dim_oracle(tn_max: int) -> int:
    # up component has (2n+1)(2n+2) vectors per level, down has (2n+1)(2n)
    up = sum((tn + 1) * (tn + 2) for tn in range(tn_max + 1))
    down = sum((tn + 1) * tn for tn in range(tn_max + 1))
    return up + down


def test_l2_dimensions():
    assert enumerate_space("L2", 0).dim == 1
    assert enumerate_space("L2", 2).dim == 14
    assert enumerate_space("L2", 8).dim == 285
    assert enumerate_space("L2", 16).dim == 1785
    assert enumerate_space("L2", 24).dim == 5525


def test_l2_dimension_oracle_agreement():
    for tn_max in range(0, 13):
        sp = enumerate_space("L2", tn_max)
        assert sp.dim == l2_dim_oracle(tn_max)


def test_double_dimension_small():
    # at n_max = 1/2: level 0 contributes 1*2 + 1*0 = 2, level 1/2
    # contributes 2*3 + 2*1 = 8, so the total is 10
    sp = enumerate_space("Double", 1)
    assert sp.dim == 10
    assert sp.dim == double_dim_oracle(1)


def test_doubling_identity():
    # dim Double(n_max) = 2 * dim L2(n_max): the up and down weight windows
    # at level n tile two copies of the (2n+1)^2 square
    for tn_max in range(0, 13):
        l2 = enumerate_space("L2", tn_max)
        dbl = enumerate_space("Double", tn_max)
        assert dbl.dim == 2 * l2.dim


def test_per_level_count_identity():
    # (2n+1)(2n+2) + (2n+1)(2n) = 2(2n+1)^2 for every level
    for tn in range(0, 25):
        assert (tn + 1) * (tn + 2) + (tn + 1) * tn == 2 * (tn + 1) ** 2


def test_l2_labels_are_valid():
    sp = enumerate_space("L2", 6)
    assert sp.band is None
    assert np.all(np.abs(sp.ti) <= sp.tn) and np.all(np.abs(sp.tj) <= sp.tn)
    assert np.all((sp.ti - sp.tn) % 2 == 0)
    assert np.all((sp.tj - sp.tn) % 2 == 0)


def test_double_labels_are_valid():
    sp = enumerate_space("Double", 4)
    assert set(sp.band.tolist()) == {0, 1}
    h = sp.tn + 1 - 2 * sp.band  # j runs over -h..h
    assert np.all(np.abs(sp.ti) <= sp.tn) and np.all((sp.ti - sp.tn) % 2 == 0)
    assert np.all(np.abs(sp.tj) <= h) and np.all((sp.tj - h) % 2 == 0)
    # levels are half-integers: twice-n runs over 0..4 at n_max = 2
    assert np.count_nonzero(sp.band == 0) \
        == sum((tn + 1) * (tn + 2) for tn in range(5))


def test_lookup_enumerate_inverse():
    # the ordinals of the space's own label arrays are its ordinals, and
    # no label repeats
    for kind, nm in (("L2", 4), ("Double", 3)):
        sp = enumerate_space(kind, nm)
        got = sp.ordinals(sp.tn, sp.ti, sp.tj, band=sp.band)
        assert np.array_equal(got, np.arange(sp.dim))
        labels = np.column_stack([sp.tn, sp.ti, sp.tj]
                                 + ([sp.band] if kind == "Double" else []))
        assert len(np.unique(labels, axis=0)) == sp.dim


def test_levels_partition():
    sp = enumerate_space("L2", 8)
    seen = np.concatenate([sp.level_ordinals(tn) for tn in range(9)])
    assert np.array_equal(seen, np.arange(sp.dim))
    assert np.array_equal(sp.tn[sp.level_ordinals(4)], np.full(25, 4))
    with pytest.raises(ValueError):
        sp.level_ordinals(10)
    with pytest.raises(ValueError):
        sp.level_ordinals(-1)


@pytest.mark.parametrize("kind", ["L2", "Double"])
@pytest.mark.parametrize("tn_max", [0, 1, 7, 16])
def test_closed_forms_equal_their_label_array_definitions(kind, tn_max):
    sp = enumerate_space(kind, tn_max)
    assert np.array_equal(sp.ordinals(sp.tn, sp.ti, sp.tj, band=sp.band),
                          np.arange(sp.dim))
    for tn in range(tn_max + 1):
        want = np.flatnonzero(sp.tn == tn)
        assert sp.start(tn) == want[0]
        assert np.array_equal(sp.level_ordinals(tn), want)
    assert sp.start(tn_max + 1) == sp.dim
    assert np.array_equal(sp.start(np.arange(tn_max + 1)),
                          [np.flatnonzero(sp.tn == t)[0]
                           for t in range(tn_max + 1)])
    for tm in range(tn_max + 3):  # margins from 0 to past n_max
        assert np.array_equal(interior(sp, tm / 2),
                              np.flatnonzero(sp.tn <= tn_max - tm))


def test_interior_examples():
    sp = enumerate_space("L2", 2)
    assert len(interior(sp, 0)) == sp.dim
    assert len(interior(sp, 0.5)) == 5
    assert len(interior(sp, 1)) == 1
    # the surviving ordinals are exactly the low levels
    assert np.all(sp.tn[interior(sp, 0.5)] <= 1)


def test_interior_monotone():
    sp = enumerate_space("Double", 4)
    prev = None
    for tm in range(0, 5):
        cur = set(interior(sp, tm / 2))
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_signature_distinguishes_spaces():
    a = enumerate_space("L2", 4)
    b = enumerate_space("L2", 6)
    c = enumerate_space("Double", 4)
    assert a.signature != b.signature
    assert a.signature != c.signature
    assert a.signature == enumerate_space("L2", 4).signature


def test_enumerate_space_errors():
    with pytest.raises(ValueError):
        enumerate_space("Fock", 2)
    with pytest.raises(ValueError):
        enumerate_space("L2", -1)
    # n_max is twice-valued: an int, never a float, and never a bool,
    # though True counts as the int 1
    for n_max in (16.5, 2.0, True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="must be an int"):
            enumerate_space("L2", n_max)


def test_space_is_frozen():
    sp = enumerate_space("L2", 2)
    assert isinstance(sp, TruncatedSpace)
    with pytest.raises(Exception):
        sp.n_max = 6


@pytest.mark.parametrize("kind", ["L2", "Double"])
def test_sector_numbers_the_weights(kind):
    sp = enumerate_space(kind, 4)
    weights = list(zip(sp.ti.tolist(), sp.tj.tolist()))
    ij = sorted(set(weights))
    # the sector of an ordinal is the rank of its (2i, 2j) among all weights
    assert [ij.index(w) for w in weights] == sp.sector.tolist()
    with pytest.raises(ValueError):
        sp.sector[0] = 1
