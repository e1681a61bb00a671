import math

import pytest
from hypothesis import given, settings, strategies as st

from sdowling import groups
from sdowling.dowling import (
    adjoin_top,
    build_dowling,
    build_subposet,
    covers_of,
    passes_subposet_filter,
    poset_to_dot,
    poset_to_json,
)
from sdowling.elements import (
    bottom_element,
    bracket_notation,
    element_from_json,
    element_to_json,
    make_element,
    top_element,
)
from sdowling.errors import AlreadyBounded, NonInvariantT, SizeLimitExceeded
from sdowling.poset import is_graded, hasse_violations


Z2 = groups.cyclic_group(2)
Z4 = groups.cyclic_group(4)
SWAP2 = groups.action_from_permutations(Z2, [[0, 1], [1, 0]])
SWAP4 = groups.action_from_permutations(Z4, [[0, 1], [1, 0], [0, 1], [1, 0]])


def whitney_size(n, g, m):
    """Element count of the full poset via the known Whitney-number sum."""
    # number of elements of rank r: sum over partitions counted directly
    total = 0
    for blocks in range(n + 1):
        total += _count_rank(n, g, m, n - blocks)
    return total


def _count_rank(n, g, m, r):
    # elements with n - r blocks: choose a set partition of a subset with
    # colorings; brute force by small recursion instead of a formula
    from itertools import combinations

    def parts(items, k):
        if k == 0:
            if not items:
                yield []
            return
        if not items or k > len(items):
            return
        first, rest = items[0], items[1:]
        for size in range(0, len(rest) + 1):
            for comb in combinations(rest, size):
                block = (first,) + comb
                remaining = [x for x in rest if x not in comb]
                for p in parts(remaining, k - 1):
                    yield [block] + p

    count = 0
    blocks = n - r
    for zsize in range(0, n + 1):
        for zero in combinations(range(1, n + 1), zsize):
            rest = [i for i in range(1, n + 1) if i not in zero]
            if len(rest) < blocks:
                continue
            for p in parts(rest, blocks):
                if len(p) != blocks:
                    continue
                colorings = 1
                for block in p:
                    colorings *= g ** (len(block) - 1)
                count += colorings * m ** zsize
    return count


def test_element_canonical_form_quotients_right_translation():
    el1 = make_element(Z4, 3, [((1, 2), (1, 3))], [(3, 0)])
    el2 = make_element(Z4, 3, [((2, 1), (0, 2))], [(3, 0)])
    # (1,3) right-translated by inverse of 1 equals (0,2)
    assert el1 == el2
    assert hash(el1) == hash(el2)


def test_bottom_and_top_elements():
    b = bottom_element(3)
    assert b.rank == 0
    assert len(b.blocks) == 3
    t = top_element(3)
    assert t.is_top
    with pytest.raises(ValueError):
        t.rank


def test_bracket_notation():
    el = make_element(Z2, 2, [((1, 2), (0, 1))], [])
    assert bracket_notation(el) == "[1_e 2_g ∥ ∅]"
    assert bracket_notation(el, ascii_only=True) == "[1_e 2_g || 0]"
    assert bracket_notation(top_element(2)) == "1^"


def test_element_json_round_trip():
    el = make_element(Z4, 4, [((1, 3), (0, 2)), ((2,), (0,))], [(4, 1)])
    back = element_from_json(Z4, 4, element_to_json(el))
    assert back == el


def test_covers_of_bottom_counts():
    action = groups.trivial_action(Z2, 2)
    b = bottom_element(2)
    covers = covers_of(b, action)
    # one merge pair with |G| colorings, plus 2 blocks x 2 colors
    assert len(covers) == 2 + 4


@pytest.mark.parametrize("n,g,action", [
    (2, 2, groups.trivial_action(Z2, 2)),
    (3, 2, SWAP2),
    (2, 4, SWAP4),
])
def test_full_poset_size_against_direct_enumeration(n, g, action):
    poset = build_dowling(n, action)
    assert len(poset) == whitney_size(n, g, action.set_size)
    assert is_graded(poset)
    assert hasse_violations(poset) == []


def test_rank_sizes_small_case():
    # D_2(Z2, one fixed color): ranks 1, (1 merge pair)*2 + 2 colorings, top-rank 1+...
    action = groups.trivial_action(Z2, 1)
    poset = build_dowling(2, action)
    by_rank = {}
    for i in range(len(poset)):
        by_rank.setdefault(poset.rank[i], 0)
        by_rank[poset.rank[i]] += 1
    assert by_rank[0] == 1
    assert by_rank[1] == 2 + 2  # two merges, two single colorings
    assert by_rank[2] == 1  # everything colored


def test_max_elements_cap():
    action = groups.trivial_action(Z2, 3)
    with pytest.raises(SizeLimitExceeded):
        build_dowling(3, action, max_elements=10)


def test_adjoin_top_refuses_twice():
    action = groups.trivial_action(Z2, 1)
    phat = adjoin_top(build_dowling(2, action))
    assert phat.is_bounded()
    with pytest.raises(AlreadyBounded):
        adjoin_top(phat)


def test_subposet_filter_and_figure_sizes():
    # the two worked counterexample posets have 7 and 9 elements
    p2 = build_subposet(2, SWAP2, [])
    assert len(p2) == 7
    p4 = build_subposet(2, SWAP4, [])
    assert len(p4) == 9


def test_subposet_filter_predicate():
    el = make_element(Z2, 2, [((2,), (0,))], [(1, 0)])
    # one zero position in a free orbit of size two: filtered out
    assert not passes_subposet_filter(el, SWAP2, [])
    assert passes_subposet_filter(el, SWAP2, [0, 1])
    both = make_element(Z2, 2, [], [(1, 0), (2, 1)])
    assert passes_subposet_filter(both, SWAP2, [])


def test_subposet_requires_invariant_T():
    with pytest.raises(NonInvariantT):
        build_subposet(2, SWAP2, [0])


def test_subposet_with_full_T_is_whole_poset():
    full = build_dowling(2, SWAP2)
    sub = build_subposet(2, SWAP2, [0, 1])
    assert len(full) == len(sub)
    assert sorted(full.cover_edges()) == sorted(sub.cover_edges())


def test_induced_covers_match_transitive_reduction():
    # covers of the filtered poset must be recomputed, not inherited: compare
    # against a brute-force transitive reduction of the induced order
    swap3 = groups.action_from_permutations(Z2, [[0, 1, 2], [1, 0, 2]])
    full = build_dowling(3, swap3)
    sub = build_subposet(3, swap3, [])
    index_in_full = {el: i for i, el in enumerate(full.elements)}
    back = [index_in_full[el] for el in sub.elements]
    expected = set()
    for x in range(len(sub)):
        for y in range(len(sub)):
            if x == y or not full.leq(back[x], back[y]):
                continue
            if not any(
                z not in (x, y) and full.leq(back[x], back[z]) and full.leq(back[z], back[y])
                for z in range(len(sub))
            ):
                expected.add((x, y))
    assert set(sub.cover_edges()) == expected


def test_poset_json_and_dot_shapes():
    action = groups.trivial_action(Z2, 1)
    poset = build_dowling(2, action)
    data = poset_to_json(poset)
    assert data["size"] == len(poset)
    assert data["bottom"] == poset.bottom
    assert all("label" in e and "rank" in e for e in data["elements"])
    dot = poset_to_dot(poset)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(sorted(poset.cover_edges()))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2))
def test_cover_rank_increment_property(n, m):
    action = groups.trivial_action(Z2, m)
    poset = build_dowling(n, action)
    for x, y in poset.cover_edges():
        assert poset.rank[y] == poset.rank[x] + 1
