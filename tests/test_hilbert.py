import pytest

from diraclab.hilbert import (
    DoubleIndex,
    L2Index,
    TruncatedSpace,
    enumerate_space,
    interior,
)
from diraclab.qnum import HalfInt, half


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
    assert enumerate_space("L2", half(0)).dim == 1
    assert enumerate_space("L2", half(1)).dim == 14
    assert enumerate_space("L2", half(4)).dim == 285
    assert enumerate_space("L2", half(8)).dim == 1785
    assert enumerate_space("L2", half(12)).dim == 5525


def test_l2_dimension_oracle_agreement():
    for tn_max in range(0, 13):
        sp = enumerate_space("L2", HalfInt(tn_max))
        assert sp.dim == l2_dim_oracle(tn_max)


def test_double_dimension_small():
    # at n_max = 1/2: level 0 contributes 1*2 + 1*0 = 2, level 1/2
    # contributes 2*3 + 2*1 = 8, so the total is 10
    sp = enumerate_space("Double", half(0.5))
    assert sp.dim == 10
    assert sp.dim == double_dim_oracle(1)


def test_doubling_identity():
    # dim Double(n_max) = 2 * dim L2(n_max): the up and down weight windows
    # at level n tile two copies of the (2n+1)^2 square
    for tn_max in range(0, 13):
        l2 = enumerate_space("L2", HalfInt(tn_max))
        dbl = enumerate_space("Double", HalfInt(tn_max))
        assert dbl.dim == 2 * l2.dim


def test_per_level_count_identity():
    # (2n+1)(2n+2) + (2n+1)(2n) = 2(2n+1)^2 for every level
    for tn in range(0, 25):
        assert (tn + 1) * (tn + 2) + (tn + 1) * tn == 2 * (tn + 1) ** 2


def test_l2_labels_are_valid():
    sp = enumerate_space("L2", half(3))
    for lab in sp.basis:
        assert isinstance(lab, L2Index)
        assert abs(lab.i.twice) <= lab.n.twice
        assert abs(lab.j.twice) <= lab.n.twice
        assert (lab.i.twice - lab.n.twice) % 2 == 0
        assert (lab.j.twice - lab.n.twice) % 2 == 0


def test_double_labels_are_valid():
    sp = enumerate_space("Double", half(2))
    ups = 0
    for lab in sp.basis:
        assert isinstance(lab, DoubleIndex)
        assert lab.band in ("up", "down")
        tn = lab.n.twice
        assert abs(lab.i.twice) <= tn and (lab.i.twice - tn) % 2 == 0
        if lab.band == "up":
            ups += 1
            assert abs(lab.j.twice) <= tn + 1 and (lab.j.twice - tn - 1) % 2 == 0
        else:
            assert abs(lab.j.twice) <= tn - 1 and (lab.j.twice - tn + 1) % 2 == 0
    # levels are half-integers: twice-n runs over 0..4 at n_max = 2
    assert ups == sum((tn + 1) * (tn + 2) for tn in range(5))


def test_lookup_enumerate_inverse():
    for kind, nm in (("L2", half(2)), ("Double", half(1.5))):
        sp = enumerate_space(kind, nm)
        for k, lab in enumerate(sp.basis):
            assert sp.ordinal(lab) == k
        assert len(set(sp.basis)) == sp.dim


def test_levels_partition():
    sp = enumerate_space("L2", half(4))
    seen = []
    for tn, ordinals in sorted(sp.levels.items()):
        ordinals = list(ordinals)
        assert ordinals == sorted(ordinals)
        for k in ordinals:
            assert sp.basis[k].n.twice == tn
        seen.extend(ordinals)
    assert sorted(seen) == list(range(sp.dim))
    assert list(sp.level_ordinals(half(2))) == list(sp.levels[4])
    with pytest.raises(ValueError):
        sp.level_ordinals(half(5))


def test_interior_examples():
    sp = enumerate_space("L2", half(1))
    assert len(interior(sp, half(0))) == sp.dim
    assert len(interior(sp, half(0.5))) == 5
    assert len(interior(sp, half(1))) == 1
    # the surviving ordinals are exactly the low levels
    for k in interior(sp, half(0.5)):
        assert sp.basis[k].n.twice <= 1


def test_interior_monotone():
    sp = enumerate_space("Double", half(2))
    prev = None
    for tm in range(0, 5):
        cur = set(interior(sp, HalfInt(tm)))
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_signature_distinguishes_spaces():
    a = enumerate_space("L2", half(2))
    b = enumerate_space("L2", half(3))
    c = enumerate_space("Double", half(2))
    assert a.signature != b.signature
    assert a.signature != c.signature
    assert a.signature == enumerate_space("L2", half(2)).signature


def test_enumerate_space_errors():
    with pytest.raises(ValueError):
        enumerate_space("Fock", half(1))
    with pytest.raises(ValueError):
        enumerate_space("L2", half(-0.5))


def test_space_is_frozen():
    sp = enumerate_space("L2", half(1))
    assert isinstance(sp, TruncatedSpace)
    with pytest.raises(Exception):
        sp.n_max = half(3)


@pytest.mark.parametrize("kind", ["L2", "Double"])
def test_sector_numbers_the_weights(kind):
    sp = enumerate_space(kind, half(2))
    ij = sorted({(b.i.twice, b.j.twice) for b in sp.basis})
    # the sector of an ordinal is the rank of its (2i, 2j) among all weights
    assert [ij.index((b.i.twice, b.j.twice)) for b in sp.basis] \
        == sp.sector.tolist()
    with pytest.raises(ValueError):
        sp.sector[0] = 1
