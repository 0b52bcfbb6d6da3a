"""Set-family helpers on bitmasks, each against the loop it replaced."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from bcres.util import bits, connected_unions, pairwise_disjoint

mask_families = st.lists(st.integers(0, (1 << 10) - 1), max_size=12)


def union_find_unions(masks):
    """Components of the bits that occur in the masks, by path-halving union-find."""
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in masks:
        for i in bits(m):
            parent.setdefault(i, i)
        if m:
            first, *rest = bits(m)
            first = find(first)
            for i in rest:
                parent[find(i)] = first
    comps = {}
    for i in parent:
        comps[find(i)] = comps.get(find(i), 0) | 1 << i
    return sorted(comps.values())


@settings(max_examples=300)
@given(mask_families)
def test_connected_unions_match_union_find(masks):
    assert sorted(connected_unions(masks)) == union_find_unions(masks)


def test_connected_unions_join_through_a_later_mask():
    assert connected_unions([0b0011, 0b1100, 0b0000, 0b0110]) == [0b1111]
    assert sorted(connected_unions([0b0001, 0b0100, 0b0011])) == [0b0011, 0b0100]


@settings(max_examples=300)
@given(mask_families)
def test_pairwise_disjoint_matches_the_pairwise_loop(masks):
    assert pairwise_disjoint(masks) == all(not a & b for a, b in combinations(masks, 2))


def test_pairwise_disjoint_edge_cases():
    assert pairwise_disjoint([])
    assert pairwise_disjoint([0, 0, 0b101])
    assert not pairwise_disjoint([0b101, 0b101])
