import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cover_oracle import classify_cover
from element_oracle import bottom_element, make_element, poset_from_edges
from sdowling import acceptance, catalog, dowling, groups, reduction, trees
from sdowling.dowling import (
    EdgeType,
    adjoin_top,
    build_dowling,
    build_subposet,
    cut_subposet,
    poset_to_dot,
    poset_to_json,
)
from sdowling.elements import bracket_notation, element_to_json, top_element
from sdowling.errors import AlreadyBounded, NonInvariantT, NotACover, SizeLimitExceeded
from sdowling.labeling import (
    count_decreasing_chains,
    label_lambda,
    label_mu,
    recorded_row,
    verify_el,
)
from sdowling.poset import (
    Polynomial,
    characteristic_polynomial,
    is_graded,
    moebius,
    subposet_rows,
)
from subposet_oracle import induced_covers, induced_rows, passes_subposet_filter


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
    assert element_to_json(el) == {
        "blocks": [{"support": [1, 3], "colors": [0, 2]}, {"support": [2], "colors": [0]}],
        "zero": {"4": 1},
    }
    assert element_to_json(top_element(4)) == {"top": True}


def test_bottom_cover_counts():
    action = groups.trivial_action(Z2, 2)
    # one merge pair with |G| colorings, plus 2 blocks x 2 colors
    assert len(build_dowling(2, action).up[0]) == 2 + 4


def _after(x, move, action):
    """The element that one entry of `cover_moves` makes from x, applied
    after the entries that make x from the bottom: each block's positions
    merged into its minimum with their colors as twists, then the zero
    block's positions colored one by one.  The code runs through the
    entries' tables by `step` and is decoded once, at the end."""
    merges, colorings, code, step = dowling.cover_moves(x.n, action)
    path = [merges[s[0] - 1][p - 1][c] for s, cs in x.blocks for p, c in zip(s[1:], cs[1:])]
    path += [colorings[p - 1][s] for p, s in x.zero]
    for _, table in path + [move]:
        code = step(code, table)
    return dowling._decode(code, x.n, action.group.order, {})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moves_and_classify_cover_invert_each_other(n):
    """On every element of the n <= 3 grid posets, classify_cover reads back
    the blocks and the twist or color each move was given."""
    for key, _, action in catalog.dowling_grid(ns=(n,)):
        group = action.group
        poset = build_dowling(n, action)
        merges, colorings, _, _ = dowling.cover_moves(n, action)
        for x, ys in zip(poset.elements, poset.up):
            minima = [support[0] for support, _ in x.blocks]
            covers = []
            for j, b in enumerate(minima):
                for a in minima[:j]:
                    for g in range(group.order):
                        covers.append(_after(x, merges[a - 1][b - 1][g], action))
                        et = classify_cover(x, covers[-1])
                        assert (et.kind, et.min_a, et.min_b, et.alpha) == ("merge", a, b, g), key
                for s in range(action.set_size):
                    covers.append(_after(x, colorings[b - 1][s], action))
                    et = classify_cover(x, covers[-1])
                    assert (et.kind, et.min_b, et.color) == ("colored", b, s), key
            assert len(set(covers)) == len(covers) == len(ys), key


def _merge_by_make_element(x, group, i, j, g):
    """The merge move built as it first was: glue, then normalize every block."""
    (sa, ca), (sb, cb) = x.blocks[i], x.blocks[j]
    merged = (sa + sb, ca + tuple(group.mul(c, g) for c in cb))
    rest = x.blocks[:i] + x.blocks[i + 1 : j] + x.blocks[j + 1 :]
    return make_element(group, x.n, rest + (merged,), x.zero)


def _color_by_make_element(x, action, i, s):
    """The coloring move built as it first was: append, then normalize."""
    sb, cb = x.blocks[i]
    rest = x.blocks[:i] + x.blocks[i + 1 :]
    zero = x.zero + tuple((p, action.apply(c, s)) for p, c in zip(sb, cb))
    return make_element(action.group, x.n, rest, zero)


def _element_covers(x, action, merge_moves, color_moves):
    """Every cover of x with its move, in the build's order: merges of
    blocks i < j by twist, then colorings by block and color.  The covers
    come from the make_element oracles, the moves from the given tables,
    indexed by block minima counted from 0."""
    group = action.group
    minima = [support[0] - 1 for support, _ in x.blocks]
    k = len(minima)
    covers = [(_merge_by_make_element(x, group, i, j, g), merge_moves[minima[i]][minima[j]][g])
              for i in range(k) for j in range(i + 1, k) for g in range(group.order)]
    covers += [(_color_by_make_element(x, action, i, s), color_moves[minima[i]][s])
               for i in range(k) for s in range(action.set_size)]
    return covers


def _reference_build(n, action):
    """The poset built breadth-first on elements, as it first was: the oracle
    for build_dowling.  Its moves are the objects of the build's own move
    table, so the two builds must record them by identity."""
    merges, colorings, _, _ = dowling.cover_moves(n, action)
    merge_moves = [[[move for move, _ in row] for row in rows] for rows in merges]
    color_moves = [[move for move, _ in row] for row in colorings]
    elements = [bottom_element(n)]
    index = {elements[0]: 0}
    edges, moves = [], []
    for xi, x in enumerate(elements):
        for y, move in _element_covers(x, action, merge_moves, color_moves):
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
            edges.append((xi, index[y]))
            moves.append(move)
    return poset_from_edges(elements, edges, [el.rank for el in elements], bottom=0, moves=moves)


# cyclic groups at the byte boundary of the codes: n*|G| + |S| is 256
# (bytes), 257 and 258 (tuples of ints)
WIDE = [(2, 128, 0), (2, 128, 1), (3, 86, 0)]


def _oracle_configs():
    yield from catalog.dowling_grid()
    yield from catalog.dowling_grid(ns=(4,), group_names=("Z2", "Z4"))
    for n, g, m in WIDE:
        yield f"n={n},G=Z{g},m={m}", n, groups.trivial_action(groups.cyclic_group(g), m)


def test_codes_are_bytes_up_to_256_values():
    for n, g, m in WIDE:
        bottom = dowling.cover_moves(n, groups.trivial_action(groups.cyclic_group(g), m)).bottom
        assert type(bottom) is (bytes if n * g + m <= 256 else tuple), (n, g, m)


def test_build_matches_element_level_reference():
    """The build on codes gives the element-level build's elements, ranks,
    cover rows and moves, the move objects included, on the n <= 3 grid, on
    n = 4 with Z2 and Z4, and on both sides of the byte boundary."""
    for key, n, action in _oracle_configs():
        poset, ref = build_dowling(n, action), _reference_build(n, action)
        assert poset.elements == ref.elements, key
        assert poset.rank == ref.rank, key
        assert poset.up == ref.up, key
        assert poset.moves == ref.moves, key
        assert all(a is b for row, ref_row in zip(poset.moves, ref.moves)
                   for a, b in zip(row, ref_row)), key


def test_direct_moves_match_make_element():
    """The move tables build the canonical child directly; every move of the
    n <= 3 grid, of n = 4 with Z2 and Z4 and of the wide alphabets gives
    the element that make_element normalizes from the glued blocks."""
    moves = 0
    for key, n, action in _oracle_configs():
        group = action.group
        merges, colorings, _, _ = dowling.cover_moves(n, action)
        for x in build_dowling(n, action).elements:
            minima = [support[0] for support, _ in x.blocks]
            for i, a in enumerate(minima):
                for j in range(i + 1, len(minima)):
                    for g in range(group.order):
                        assert _after(x, merges[a - 1][minima[j] - 1][g], action) == \
                            _merge_by_make_element(x, group, i, j, g), key
                        moves += 1
                for s in range(action.set_size):
                    assert _after(x, colorings[a - 1][s], action) == _color_by_make_element(x, action, i, s), key
                    moves += 1
    assert moves == 33_719 + 22_834  # the grid, then the wide alphabets


def _posets_with_moves():
    """Every n <= 3 grid poset and its invariant subposets, T = [] included,
    and n = 4 Z2:2."""
    for key, n, action in catalog.dowling_grid():
        yield key, build_dowling(n, action)
        for T in sorted({(), *catalog.invariant_subsets(action)}):
            yield f"{key},T={list(T)}", build_subposet(n, action, list(T))
    yield "n=4,G=Z2,m=2", build_dowling(4, groups.trivial_action(Z2, 2))


def _bounded_posets_with_moves():
    """The posets of `_posets_with_moves`, each with the adjoined top."""
    for key, poset in _posets_with_moves():
        yield key, adjoin_top(poset)


def test_adjoin_top_shares_rows_and_leaves_its_input():
    """adjoin_top gives the poset that `poset_from_edges` builds from
    the input's covers and the top covers, records the one object
    `dowling.TOP_MOVE` on every top cover, and leaves the input as it was."""
    for key, p in _posets_with_moves():
        before = (list(p.up), list(p.moves), list(p.rank), list(p.elements), p.top)
        phat = adjoin_top(p)
        assert (p.up, p.moves, p.rank, p.elements, p.top) == before, key
        ti = len(p)
        maximal = [x for x, ys in enumerate(p.up) if not ys]
        ref = poset_from_edges(p.elements + [top_element(p.elements[0].n)],
                               list(p.cover_edges()) + [(x, ti) for x in maximal],
                               p.rank + [p.max_rank + 1], bottom=p.bottom, top=ti,
                               moves=[m for row in p.moves for m in row] + [EdgeType("top")] * len(maximal))
        assert (phat.elements, phat.up, phat.moves, phat.rank, phat.bottom, phat.top) == \
            (ref.elements, ref.up, ref.moves, ref.rank, ref.bottom, ref.top), key
        tops = [phat.moves[x][phat.up[x].index(ti)] for x in maximal]
        assert tops and all(m is dowling.TOP_MOVE for m in tops), key


def test_recorded_moves_match_classify_cover():
    for key, phat in _bounded_posets_with_moves():
        recorded = []
        for x, (ys, moves) in enumerate(zip(phat.up, phat.moves)):
            assert len(moves) == len(ys), key
            for y, move in zip(ys, moves):
                assert move == classify_cover(phat.elements[x], phat.elements[y]), (key, x, y)
                recorded.append(move)
        # equal moves are one shared object
        assert len({id(m) for m in recorded}) == len(set(recorded)), key


def _moves_off_their_tables(poset, n, action):
    """The covers (x, y) below the top whose recorded move, applied to x's
    code through its `cover_moves` table, does not give y's code."""
    merges, colorings, _, step = dowling.cover_moves(n, action)
    tables = dict(entry for by_a in merges for by_b in by_a for entry in by_b)
    tables.update(entry for by_a in colorings for entry in by_a)
    codes = poset.codes.codes
    return [(x, y) for x, (ys, moves) in enumerate(zip(poset.up, poset.moves))
            for y, move in zip(ys, moves)
            if move is not dowling.TOP_MOVE and step(codes[x], tables[move]) != codes[y]]


def test_recorded_moves_make_their_covers_on_the_grid():
    """On every full poset of the n <= 4 grid, each recorded move below the
    top, applied to the lower code, gives the upper one."""
    grid = list(catalog.dowling_grid(ns=(1, 2, 3, 4)))
    for key, n, action in grid:
        assert _moves_off_their_tables(adjoin_top(build_dowling(n, action)), n, action) == [], key
    assert len(grid) == 108


def test_swapped_recorded_moves_are_caught_by_their_tables():
    """Swapping two moves in one Hasse row of n=2 Z2:2 leaves the rows
    consistent, and the bijection check passes some such swaps, such as
    the bottom's two merges; the tables report the two covers of every one."""
    action = groups.trivial_action(Z2, 2)
    missed = 0
    for x, row in enumerate(adjoin_top(build_dowling(2, action)).moves):
        for i, j in itertools.combinations(range(len(row)), 2):
            phat = adjoin_top(build_dowling(2, action))
            moves = list(row)
            moves[i], moves[j] = moves[j], moves[i]
            phat.moves[x] = tuple(moves)
            assert _moves_off_their_tables(phat, 2, action) == \
                [(x, phat.up[x][i]), (x, phat.up[x][j])], (x, i, j)
            missed += trees.bijection_failures(phat, 2, action)[2] == []
    assert missed == 15


def test_induced_cover_that_is_no_single_move(monkeypatch):
    """With the rank-1 elements filtered out, the bottom is covered by rank-2
    elements: those covers record no move, and only labeling them raises."""
    monkeypatch.setattr(dowling, "_passes_filter",
                        lambda code, *_: dowling._decode(code, 2, 2, {}).rank != 1)
    p = build_subposet(2, groups.trivial_action(Z2, 1), [])
    assert p.up[p.bottom] and set(p.moves[p.bottom]) == {None}
    y = p.up[p.bottom][0]
    with pytest.raises(NotACover):
        classify_cover(p.elements[p.bottom], p.elements[y])
    assert p.move(p.bottom, y) is None
    with pytest.raises(NotACover):
        recorded_row(p, p.bottom)
    for fn in (label_lambda, label_mu):
        with pytest.raises(NotACover):
            fn(p, p.bottom)
        with pytest.raises(NotACover):
            verify_el(adjoin_top(p), fn)


@pytest.mark.parametrize("n,g,action", [
    (2, 2, groups.trivial_action(Z2, 2)),
    (3, 2, SWAP2),
    (2, 4, SWAP4),
])
def test_full_poset_size_against_direct_enumeration(n, g, action):
    poset = build_dowling(n, action)
    assert len(poset) == whitney_size(n, g, action.set_size)
    assert is_graded(poset)
    assert set(poset.cover_edges()) == set(induced_covers(poset, range(len(poset))))


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


@functools.cache
def stirling2(n, k):
    """Stirling number of the second kind: partitions of n things into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_whitney_numbers_match_the_closed_form():
    """Rank sizes of every full poset with n <= 4 against
    W_r = sum_z C(n, z) |S|^z |G|^(r-z) S(n-z, n-r): z elements go to the
    zero block, the other n - z into n - r blocks colored up to one group
    element per block."""
    grid = list(catalog.dowling_grid(ns=(1, 2, 3, 4)))
    assert len(grid) == 108
    for key, n, action in grid:
        g, m = action.group.order, action.set_size
        sizes = [0] * (n + 1)
        for r in build_dowling(n, action).rank:
            sizes[r] += 1
        assert sizes == [
            sum(math.comb(n, z) * m ** z * g ** (r - z) * stirling2(n - z, n - r)
                for z in range(r + 1))
            for r in range(n + 1)
        ], key


def test_max_elements_cap():
    action = groups.trivial_action(Z2, 3)
    with pytest.raises(SizeLimitExceeded):
        build_dowling(3, action, max_elements=10)


def test_max_elements_cap_is_exact():
    """The whole poset fits under a cap of its size; one fewer raises."""
    action = groups.trivial_action(Z2, 3)
    full = len(build_dowling(3, action))
    assert len(build_dowling(3, action, max_elements=full)) == full
    with pytest.raises(SizeLimitExceeded):
        build_dowling(3, action, max_elements=full - 1)


def test_adjoin_top_refuses_twice():
    action = groups.trivial_action(Z2, 1)
    phat = adjoin_top(build_dowling(2, action))
    assert phat.top == len(phat) - 1
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
    # SWAP2 has the one orbit [0, 1]: free when T is empty, none when T = S
    (orbit,) = groups.orbits(SWAP2)
    # one zero position in a free orbit of size two: filtered out
    assert not passes_subposet_filter(el, [orbit])
    assert passes_subposet_filter(el, [])
    both = make_element(Z2, 2, [], [(1, 0), (2, 1)])
    assert passes_subposet_filter(both, [orbit])
    # the filter on codes keeps what the element-level one keeps: the orbit
    # [0, 1] is the zero-block code values 4 and 5 at n=2, |G|=2
    full = build_dowling(2, SWAP2)
    code = full.codes.codes
    assert cut_subposet(full, SWAP2, []).codes.codes == \
        [c for c in code if dowling._passes_filter(c, [[4, 5]])]
    assert [dowling._passes_filter(c, [[4, 5]]) for c in code] == \
        [passes_subposet_filter(x, [orbit]) for x in full.elements]
    assert code[full.elements.index(el)] == bytes([4, 2])
    assert code[full.elements.index(both)] == bytes([4, 5])


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


def _oracle_cut(ambient, action, T):
    """The kept indices of the invariant subposet for T by the element-level
    filter, and their induced rows by the up-set table."""
    tset = set(T)
    free = [orbit for orbit in groups.orbits(action) if orbit[0] not in tset]
    kept = [i for i, el in enumerate(ambient.elements) if passes_subposet_filter(el, free)]
    return kept, induced_rows(ambient, kept)


def test_walked_rows_match_the_table_oracle():
    """On every invariant subposet of the n <= 4 grid, the code filter keeps
    the elements the element-level filter keeps, and the upward walk finds
    the rows the up-set table gives, moves included."""
    checked = 0
    for key, n, action in catalog.dowling_grid(ns=(1, 2, 3, 4)):
        ambient = build_dowling(n, action)
        for T in catalog.invariant_subsets(action):
            kept, rows = _oracle_cut(ambient, action, T)
            assert subposet_rows(ambient, kept) == rows, (key, T)
            sub = cut_subposet(ambient, action, list(T))
            assert sub.codes.codes == [ambient.codes.codes[i] for i in kept], (key, T)
            new = {old: i for i, old in enumerate(kept)}
            assert sub.up == [tuple(new[y] for y in ys) for ys in rows], (key, T)
            assert sub.moves == [tuple(ambient.move(x, y) for y in ys)
                                 for x, ys in zip(kept, rows)], (key, T)
            checked += 1
    assert checked == 220


def test_walked_rows_match_the_table_oracle_on_closure_images():
    """The image of the closure operator in each of criterion 8's
    configurations, a kept set that is not cut by the orbit filter."""
    for key, n, action, T, orbit_min, _ in acceptance._closure_configs():
        spec = reduction.make_spec(action, T, orbit_min)
        poset = build_subposet(n, action, T)
        codes = poset.codes.codes
        index = {code: i for i, code in enumerate(codes)}
        image = sorted({index[reduction.closure_f(code, spec, action, n)] for code in codes})
        assert len(image) < len(poset), key
        assert subposet_rows(poset, image) == induced_rows(poset, image), key


def _raise(*args):
    raise AssertionError("an element was decoded")


def test_counts_moebius_chi_and_el_decode_no_element(monkeypatch):
    """The chain count, the Möbius function, the characteristic polynomial,
    both EL checks and the closure check read codes, ranks and moves only."""
    z4 = dict(catalog.actions_for("Z4", 3))["trivial"]
    swap = dict(catalog.actions_for("Z2", 2))["swap"]
    monkeypatch.setattr(dowling, "_decode", _raise)
    d = build_dowling(4, z4)
    dhat = adjoin_top(d)
    assert count_decreasing_chains(dhat, label_lambda) == 1680  # 2 * 6 * 10 * 14
    assert moebius(dhat, dhat.bottom, dhat.top) == (-1) ** dhat.max_rank * 1680
    assert characteristic_polynomial(d) == Polynomial.from_roots([3, 7, 11, 15])
    assert verify_el(dhat, label_lambda).passed
    rep = verify_el(adjoin_top(build_subposet(4, swap, [0, 1])), label_mu)
    assert (rep.passed, len(rep.failures)) == (False, 24)
    for key, n, action, T, orbit_min, _ in acceptance._closure_configs():
        spec = reduction.make_spec(action, T, orbit_min)
        assert reduction.reduce_and_verify(n, action, T, spec)[2].passed, key
    with pytest.raises(AssertionError, match="decoded"):
        dhat.elements


def test_decoded_elements_equal_an_eager_decode():
    """`elements` read from the codes of a full poset, its bounded extension
    and its invariant subposets equal each code decoded on its own."""
    for key, n, action in catalog.dowling_grid():
        d = build_dowling(n, action)
        eager = [dowling._decode(c, n, action.group.order, {}) for c in d.codes.codes]
        assert d.elements == eager, key
        assert adjoin_top(d).elements == eager + [top_element(n)], key
        for T in catalog.invariant_subsets(action):
            kept, _ = _oracle_cut(d, action, T)
            assert build_subposet(n, action, list(T)).elements == [eager[i] for i in kept], key


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
