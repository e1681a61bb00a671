import gc
import itertools
import json
import tracemalloc
from operator import ge

import pytest
from hypothesis import given, settings, strategies as st

from element_oracle import bottom_element, make_element
from sdowling import acceptance, catalog, cli, dowling, groups, labeling, trees
from sdowling.dowling import EdgeType, adjoin_top, build_dowling
from sdowling.elements import bracket_notation, top_element
from sdowling.errors import MalformedTree, NotACover, NotDecreasing, NotMaximal, UnsupportedCase
from sdowling.poset import saturated_chains

Z2 = groups.cyclic_group(2)
Z3 = groups.cyclic_group(3)


def test_count_blooming_products():
    assert trees.count_blooming(1, 5, 7) == 1
    assert trees.count_blooming(3, 2, 1) == 3 * 6
    assert trees.count_blooming(3, 0, 0) == 1 * 3
    assert trees.count_blooming(4, 1, 2) == 2 * 6 * 10
    with pytest.raises(ValueError):
        trees.count_blooming(0, 1, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_enumeration_matches_count_and_is_duplicate_free(k, q, r):
    seen = set()
    for t in trees.enumerate_blooming(k, q, r):
        assert t not in seen
        seen.add(t)
        trees.validate_blooming(t, q, r, range(k))
    assert len(seen) == trees.count_blooming(k, q, r)


def _insertions_recursive(tree, new_node):
    """All trees obtained by attaching new_node at one child-gap of any
    labeled node.  Each result is produced exactly once."""
    label, children = tree
    for i in range(len(children) + 1):
        yield (label, children[:i] + (new_node,) + children[i:])
    for i, ch in enumerate(children):
        if ch != trees.BLOOM:
            for sub in _insertions_recursive(ch, new_node):
                yield (label, children[:i] + (sub,) + children[i + 1 :])


def _enumerate_blooming_recursive(nodes, q, r, labels=None):
    """The enumeration as a recursive generator, one frame per level: the
    oracle for enumerate_blooming, order included."""
    labels = sorted(range(nodes) if labels is None else labels)
    root = (labels[0], (trees.BLOOM,) * q)

    def recurse(tree, remaining):
        if not remaining:
            yield tree
            return
        new_node = (remaining[0], (trees.BLOOM,) * r)
        for t in _insertions_recursive(tree, new_node):
            yield from recurse(t, remaining[1:])

    yield from recurse(root, labels[1:])


@pytest.mark.parametrize("k, q, r, labels", [
    *((k, q, r, None) for k in range(1, 6) for q in range(4) for r in range(4)),
    (6, 2, 2, None),
    (4, 1, 2, [2, 5, 9, 11]),
    (4, 0, 3, [11, 2, 9, 5]),
    (6, 3, 3, None),  # criterion 4's largest point, where the subtree memo reuses most
])
def test_enumeration_matches_recursive_oracle_in_order(k, q, r, labels):
    pairs = itertools.zip_longest(trees.enumerate_blooming(k, q, r, labels=labels),
                                  _enumerate_blooming_recursive(k, q, r, labels=labels))
    for i, (t, u) in enumerate(pairs):
        assert t == u, (i, t, u)


def test_enumeration_streams():
    """No level is held while the trees are iterated: each level's subtree
    memo holds only the subtrees of the current tree and the one before."""
    for k, q, r, count in (
        (6, 3, 3, 229_824),
        (7, 1, 2, 665_280),  # the tree side of the n=6 Z4:3 bijection
    ):
        tracemalloc.start()
        try:
            enumerated = sum(1 for _ in trees.enumerate_blooming(k, q, r))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert enumerated == trees.count_blooming(k, q, r) == count
        assert peak < 256 * 1024, (k, q, r, peak)


def test_enumeration_leaves_no_reference_cycle():
    """The memo is freed when the iterator is, without the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        level = trees.enumerate_blooming(5, 1, 1)
        assert sum(1 for _ in level) == trees.count_blooming(5, 1, 1)
        del level
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("q, r", [(-1, 0), (0, -1), (-2, -2)])
def test_negative_bloom_counts_are_rejected(q, r):
    with pytest.raises(ValueError):
        trees.count_blooming(3, q, r)
    with pytest.raises(ValueError):
        trees.enumerate_blooming(3, q, r)


def test_repeated_labels_are_rejected():
    for labels in ([1, 1], [0, 2, 2]):
        with pytest.raises(ValueError):
            trees.enumerate_blooming(len(labels), 0, 0, labels=labels)
    with pytest.raises(ValueError):
        trees.enumerate_blooming(2, 0, 0, labels=[3, 4, 4])  # more labels than nodes


def test_enumeration_with_custom_labels():
    ts = list(trees.enumerate_blooming(3, 1, 1, labels=[2, 5, 9]))
    assert len(ts) == trees.count_blooming(3, 1, 1)
    for t in ts:
        trees.validate_blooming(t, 1, 1, [2, 5, 9])
        assert t[0] == 2


def test_enumeration_cap(capsys):
    # the closed-form count is checked against the cap before enumerating
    for argv, code in (
        (["--nodes", "7", "--q", "3", "--r", "3"], 1),  # 6,664,896 > default cap
        (["--nodes", "5", "--q", "3", "--r", "3", "--max-trees", "10"], 1),
        (["--nodes", "7", "--q", "3", "--r", "3", "--count-only"], 0),
    ):
        assert cli.main(["trees", *argv]) == code, argv
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert json.loads(out)["count"] == 6_664_896


def test_validate_blooming_rejects_bad_trees():
    with pytest.raises(MalformedTree):
        trees.validate_blooming((0, ()), 1, 0, [0])  # missing root bloom
    with pytest.raises(MalformedTree):
        # decreasing labels on a path
        trees.validate_blooming((1, ((0, ()),)), 0, 0, [0, 1])
    with pytest.raises(MalformedTree):
        trees.validate_blooming((0, ((1, ()),)), 0, 0, [0, 1, 2])  # wrong label set
    # children that are no tuple, and labels that are no int
    for tree in ((0, 5), (0, (("x", ()),)), (0, ((1.0, ()),)), (0, ((True, ()),))):
        with pytest.raises(MalformedTree):
            trees.validate_blooming(tree, 0, 0, [0, 1])
        with pytest.raises(MalformedTree):
            trees.psi_inv(tree, 1, groups.trivial_action(Z2, 2))


def test_tree_json_round_trip():
    figure_tree = (
        0,
        ("*", "*", (3, ("*",)), "*", (1, ((2, ("*",)), "*", (4, ("*",))))),
    )
    assert json.loads(json.dumps(figure_tree)) == [
        0, ["*", "*", [3, ["*"]], "*", [1, [[2, ["*"]], "*", [4, ["*"]]]]],
    ]
    # distinct trees give distinct JSON, so nothing is lost
    ts = list(trees.enumerate_blooming(4, 2, 1))
    assert len({json.dumps(t) for t in ts}) == len(ts)


def test_bijection_unsupported_parameters():
    one_color = groups.trivial_action(Z2, 1)
    trivial_group_action = groups.trivial_action(groups.trivial_group(), 2)
    with pytest.raises(UnsupportedCase):
        trees.psi([bottom_element(1), top_element(1)], one_color)
    with pytest.raises(UnsupportedCase):
        trees.psi_inv((0, ()), 1, trivial_group_action)


def test_psi_rejects_non_decreasing_chains():
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(2, action))
    decreasing = {tuple(c) for c in labeling.decreasing_chains(phat, labeling.label_lambda)}
    from sdowling.poset import saturated_chains

    bad = next(
        c for c, _ in saturated_chains(phat, phat.bottom, phat.top) if c not in decreasing
    )
    chain = [phat.elements[i] for i in bad]
    with pytest.raises(NotDecreasing):
        trees.psi(chain, action)


def test_psi_rejects_chains_that_are_not_maximal():
    """The empty chain and the bottom alone are not maximal; below a
    non-maximal x the step x -> 1^ is no cover of the bounded poset."""
    action = groups.trivial_action(Z2, 2)
    # colors block 1 with s2: its label ties the top's, so the word decreases
    x = make_element(Z2, 2, [((2,), (0,))], [(1, 1)])
    for chain in ([], [bottom_element(2)]):
        with pytest.raises(NotMaximal):
            trees.psi(chain, action)
    with pytest.raises(NotACover) as raised:
        trees.psi([bottom_element(2), x, top_element(2)], action)
    assert raised.type is NotACover


def test_psi_rejects_a_list_that_is_not_a_chain():
    """[2_e ∥ 1_s2] < [∅ ∥ 1_s1 2_s2] is no cover: the second element
    recolors position 1 of the zero block.  Block supports alone read it as
    a coloring of block 2, and psi as the tree (0, ((1, ()), (2, ())))."""
    action = groups.trivial_action(Z2, 2)
    chain = [bottom_element(2), make_element(Z2, 2, [((2,), (0,))], [(1, 1)]),
             make_element(Z2, 2, [], [(1, 0), (2, 1)]), top_element(2)]
    with pytest.raises(NotACover):
        trees.psi(chain, action)


def test_psi_rejects_a_step_that_differs_from_a_cover_in_its_colors():
    """Coloring the block 1_e 2_g with one color under the trivial action
    gives 1 and 2 that color; [∅ ∥ 1_s2 2_s1] gives them two, so it covers
    no element of the chain.  Read off the two elements alone, without the
    action, the step looks like a coloring of block 1, and the chain like
    the tree (0, ((1, ((2, ()),)),))."""
    action = groups.trivial_action(Z2, 2)
    chain = [bottom_element(2), make_element(Z2, 2, [((1, 2), (0, 1))], []),
             make_element(Z2, 2, [], [(1, 1), (2, 0)]), top_element(2)]
    with pytest.raises(NotACover):
        trees.psi(chain, action)


def test_validate_blooming_walks_a_deep_path():
    """A path of 1,200 nodes is deeper than the recursion limit."""
    tree = (1199, ())
    for label in range(1198, -1, -1):
        tree = (label, (tree,))
    assert trees.validate_blooming(tree, 0, 0, range(1200)) == [(u, u + 1, 0) for u in range(1199)]


def _roundtrip_all(n, action):
    phat = adjoin_top(build_dowling(n, action))
    chains = [[phat.elements[i] for i in c]
              for c in labeling.decreasing_chains(phat, labeling.label_lambda)]
    images = set()
    for chain in chains:
        t = trees.psi(chain, action)
        images.add(t)
        assert trees.psi_inv(t, n, action) == chain
    m, g = action.set_size, action.group.order
    if m >= 2:
        expected = set(trees.enumerate_blooming(n + 1, m - 2, g - 2))
    else:
        expected = set(trees.enumerate_blooming(n, g - 2, g - 2, labels=range(1, n + 1)))
    assert images == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bijection_z2_two_colors(n):
    _roundtrip_all(n, groups.trivial_action(Z2, 2))


def test_bijection_z3_three_colors_nontrivial_action():
    cyc = groups.action_from_permutations(Z3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    _roundtrip_all(2, cyc)


def test_decreasing_chains_and_bijection_build_no_up_sets():
    """Every element lies below the top, so the walk to it prunes nothing
    and neither the decreasing chains nor the bijection check build the
    up-set table."""
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(3, action))
    assert sum(1 for _ in labeling.decreasing_chains(phat, labeling.label_lambda)) == 15
    assert trees.bijection_failures(phat, 3, action) == (15, 15, [])
    assert "above" not in phat.__dict__


def test_bijection_failures_reads_no_element():
    """The check runs on index chains and recorded moves alone."""
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(3, action))
    phat.elements = [None] * len(phat)
    assert trees.bijection_failures(phat, 3, action) == (15, 15, [])


def test_bijection_failures_reports_a_tree_enumerated_twice(monkeypatch):
    """A duplicate tree passes both round trips and leaves the set of trees
    unchanged; the trees then count one more than the chains."""
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(2, action))
    enumerate_blooming = trees.enumerate_blooming

    def first_twice(*args, **kwargs):
        ts = enumerate_blooming(*args, **kwargs)
        first = next(ts)
        yield first
        yield first
        yield from ts

    monkeypatch.setattr(trees, "enumerate_blooming", first_twice)
    assert trees.bijection_failures(phat, 2, action) == (
        3, 4, ["psi's images are not the blooming trees, each once"])


def test_bijection_failures_reports_a_tree_the_enumeration_drops(monkeypatch):
    """A dropped tree passes both round trips; the trees then count one
    fewer than the chains."""
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(2, action))
    enumerate_blooming = trees.enumerate_blooming

    def all_but_first(*args, **kwargs):
        ts = enumerate_blooming(*args, **kwargs)
        next(ts)
        yield from ts

    monkeypatch.setattr(trees, "enumerate_blooming", all_but_first)
    assert trees.bijection_failures(phat, 2, action) == (
        3, 2, ["psi's images are not the blooming trees, each once"])


NO_COVER = "a move of psi_inv(tree) has no cover in the poset"


def test_bijection_failures_reports_each_failed_direction_once():
    """Swap the moves recorded on the bottom's covers that color block 1
    and block 2 with s2.  Every chain through either cover reads one block
    colored twice, which no blooming tree holds, and the tree that colors
    block 1, then block 2, walks to the element with block 2 colored, where
    coloring block 2 has no cover.  The tree side reports that once, and
    nothing is raised; the chain side's own failure is the same fault seen
    from the chains (see `_chain_side_check`)."""
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(2, action))
    moves = list(phat.moves[phat.bottom])
    i = moves.index(EdgeType("colored", min_b=1, color=1))
    j = moves.index(EdgeType("colored", min_b=2, color=1))
    moves[i], moves[j] = moves[j], moves[i]
    phat.moves[phat.bottom] = tuple(moves)
    assert trees.bijection_failures(phat, 2, action) == (3, 3, [NO_COVER])
    assert _chain_side_check(phat, 2, action) == (3, 3, False)


def test_bijection_failures_reports_each_dropped_cover():
    """Dropping any cover that lies on a decreasing chain loses the chains
    through it, and some tree's moves then leave the poset's covers: the
    check reports both, and raises nothing, and the chain side fails too."""
    action = groups.trivial_action(Z2, 2)
    chains = list(labeling.decreasing_chains(adjoin_top(build_dowling(3, action)), labeling.label_lambda))
    covers = {(x, y) for c in chains for x, y in zip(c, c[1:])}
    for x, y in sorted(covers):
        phat = adjoin_top(build_dowling(3, action))
        j = phat.up[x].index(y)
        phat.up[x] = phat.up[x][:j] + phat.up[x][j + 1 :]
        phat.moves[x] = phat.moves[x][:j] + phat.moves[x][j + 1 :]
        kept = sum(1 for c in chains if (x, y) not in zip(c, c[1:]))
        assert trees.bijection_failures(phat, 3, action) == (
            kept, 15, ["psi's images are not the blooming trees, each once", NO_COVER]), (x, y)
        assert _chain_side_check(phat, 3, action) == (kept, 15, False), (x, y)
    assert len(covers) == 30


def _chain_side_check(poset, n, action):
    """The chain side of the bijection check, the oracle for the tree side
    `bijection_failures` runs: every decreasing chain walks through psi and
    back through psi_inv, which makes psi injective into the blooming
    trees, and the chains and trees count the same.  Returns (chain_count,
    tree_count, passed)."""
    family = q, r, labels = trees._tree_family(n, action)
    chain_count, chains_trip = 0, True
    for chain in labeling.decreasing_chains(poset, labeling.label_lambda):
        chain_count += 1
        if chains_trip:
            try:
                tree = trees._psi(poset, chain, n, action, family)
                chains_trip = trees._psi_inv(poset, tree, n, action, family) == list(chain)
            except (MalformedTree, NotACover):  # psi(chain) is no tree that walks back
                chains_trip = False
    tree_count = sum(1 for _ in trees.enumerate_blooming(len(labels), q, r, labels=labels))
    return chain_count, tree_count, chains_trip and chain_count == tree_count


def _tree_side_check(poset, n, action):
    chain_count, tree_count, messages = trees.bijection_failures(poset, n, action)
    return chain_count, tree_count, not messages


def _supported_grid(ns):
    """The grid points the bijection covers: |G| >= 2 and |S| != 1."""
    for key, n, action in catalog.dowling_grid(ns=ns):
        if action.group.order >= 2 and action.set_size != 1:
            yield key, n, action


def test_tree_side_agrees_with_the_chain_side_on_the_grid():
    """Both sides pass on every supported point of the n <= 4 grid, at the
    forward pass's chain count."""
    points = list(_supported_grid((1, 2, 3, 4)))
    for key, n, action in points:
        phat = adjoin_top(build_dowling(n, action))
        chains = labeling.count_decreasing_chains(phat, labeling.label_lambda)
        assert _tree_side_check(phat, n, action) == _chain_side_check(phat, n, action) \
            == (chains, chains, True), key
    assert len(points) == 76


def test_tree_side_agrees_with_the_chain_side_on_swapped_moves():
    """Each of the 21 single-row swaps of two recorded moves in bounded n=2
    Z2:2 passes or fails both sides alike; 15 pass both (the recorded moves
    are checked against their tables in tests/test_dowling.py)."""
    action = groups.trivial_action(Z2, 2)
    verdicts = []
    for x, row in enumerate(adjoin_top(build_dowling(2, action)).moves):
        for i, j in itertools.combinations(range(len(row)), 2):
            phat = adjoin_top(build_dowling(2, action))
            moves = list(row)
            moves[i], moves[j] = moves[j], moves[i]
            phat.moves[x] = tuple(moves)
            tree_side = _tree_side_check(phat, 2, action)
            assert tree_side == _chain_side_check(phat, 2, action), (x, i, j)
            verdicts.append(tree_side[2])
    assert (len(verdicts), sum(verdicts)) == (21, 15)


@pytest.mark.parametrize("cut", [None, 2])
def test_bijection_failures_reports_a_psi_inv_image_psi_rejects(monkeypatch, cut):
    """A psi_inv that walks a maximal chain whose word rises, or that chain
    cut short of the top, fails the tree round trip: psi's NotDecreasing or
    NotMaximal is reported as such, and nothing is raised."""
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(2, action))
    family = trees._tree_family(2, action)
    rows = [labeling.label_lambda(phat, x) for x in range(len(phat))]
    rising = next(list(chain) for chain, word in saturated_chains(phat, phat.bottom, phat.top, rows)
                  if not all(map(ge, word, word[1:])))
    walked = rising[:cut]
    with pytest.raises(NotDecreasing if cut is None else NotMaximal):
        trees._psi(phat, walked, 2, action, family)
    monkeypatch.setattr(trees, "_psi_inv", lambda *args: walked)
    assert trees.bijection_failures(phat, 2, action) == (3, 3, ["psi(psi_inv(tree)) != tree"])


def test_psi_accepts_exactly_the_decreasing_maximal_chains():
    """Over every maximal chain of every supported point of the n <= 3 grid,
    _psi returns exactly when the label word weakly decreases, and each tree
    it returns is a blooming tree of its family that _psi_inv walks back to
    the same chain."""
    walked = accepted = 0
    for key, n, action in _supported_grid((1, 2, 3)):
        phat = adjoin_top(build_dowling(n, action))
        family = trees._tree_family(n, action)
        rows = [labeling.label_lambda(phat, x) for x in range(len(phat))]
        for chain, word in saturated_chains(phat, phat.bottom, phat.top, rows):
            walked += 1
            if not all(map(ge, word, word[1:])):
                with pytest.raises(NotDecreasing):
                    trees._psi(phat, chain, n, action, family)
                continue
            tree = trees._psi(phat, chain, n, action, family)
            trees.validate_blooming(tree, *family)
            assert trees._psi_inv(phat, tree, n, action, family) == list(chain), key
            accepted += 1
    assert (walked, accepted) == (6_376, 1_179)


def test_bijection_empty_color_set():
    _roundtrip_all(2, groups.trivial_action(Z3, 0))
    _roundtrip_all(3, groups.trivial_action(Z2, 0))


def test_worked_instance_round_trip():
    act = groups.trivial_action(Z3, 5)
    chain = [
        bottom_element(4),
        make_element(Z3, 4, [((1, 2), (0, 2)), ((3,), (0,)), ((4,), (0,))], []),
        make_element(Z3, 4, [((1, 2, 4), (0, 2, 1)), ((3,), (0,))], []),
        make_element(Z3, 4, [((1, 2, 4), (0, 2, 1))], [(3, 2)]),
        make_element(Z3, 4, [], [(3, 2), (1, 1), (2, 1), (4, 1)]),
        top_element(4),
    ]
    expected = (
        0,
        ("*", "*", (3, ("*",)), "*", (1, ((2, ("*",)), "*", (4, ("*",))))),
    )
    assert trees.psi(chain, act) == expected
    assert trees.psi_inv(expected, 4, act) == chain
    # criterion 5 states the chain as these strings
    assert [bracket_notation(el, ascii_only=True) for el in chain] == acceptance.FIGURE_CHAIN


def _apply_by_make_element(x, et, action):
    """One merge or coloring EdgeType applied by gluing blocks and
    normalizing with make_element."""
    group = action.group
    blocks = {s[0]: (s, c) for s, c in x.blocks}
    sb, cb = blocks.pop(et.min_b)
    if et.kind == "colored":
        zero = x.zero + tuple((p, action.apply(c, et.color)) for p, c in zip(sb, cb))
        return make_element(group, x.n, list(blocks.values()), zero)
    sa, ca = blocks.pop(et.min_a)
    merged = (sa + sb, ca + tuple(group.mul(c, et.alpha) for c in cb))
    return make_element(group, x.n, [*blocks.values(), merged], x.zero)


def _psi_inv_by_make_element(tree, n, action):
    """psi_inv as it first was, the oracle for psi_inv: a second walk of the
    tree gives the couples, each couple a new EdgeType, and each EdgeType
    the next element through make_element."""
    m, k = action.set_size, action.group.order - 1
    couples = []

    def walk(node):
        u, ch = node
        blooms = 0
        for c in ch:
            if c == trees.BLOOM:
                blooms += 1
            else:
                couples.append((u, c[0], blooms))
                walk(c)

    walk(tree)
    couples.sort(key=lambda t: -t[0])
    chain = [bottom_element(n)]
    for u, v, i in couples:
        et = (EdgeType("colored", min_b=v, color=m - i - 1) if u == 0
              else EdgeType("merge", min_a=u, min_b=v, alpha=k - i))
        chain.append(_apply_by_make_element(chain[-1], et, action))
    return chain + [top_element(n)]


def _bijection_family_trees():
    """Every catalog action with G in {Z2, Z3} and m in {0, 2, 3} at n <= 4,
    with the blooming trees of its family."""
    for key, n, action in catalog.dowling_grid(ns=(1, 2, 3, 4), group_names=("Z2", "Z3"),
                                               set_sizes=(0, 2, 3)):
        q, r, labels = trees._tree_family(n, action)
        yield key, n, action, list(trees.enumerate_blooming(len(labels), q, r, labels=labels))


def test_psi_inv_matches_make_element_reference():
    """psi_inv gives the oracle's chain for every tree of every point.  The
    points take turns in slices of 50 trees, so the bounded poset of one
    point is dropped and built again between its slices."""
    points = list(_bijection_family_trees())
    checked = 0
    for start in range(0, max(len(ts) for *_, ts in points), 50):
        for key, n, action, ts in points:
            for t in ts[start : start + 50]:
                assert trees.psi_inv(t, n, action) == _psi_inv_by_make_element(t, n, action), key
                checked += 1
    assert checked == sum(len(ts) for *_, ts in points) == 3_502


class _SpyRow(tuple):
    """A row of moves that records each move looked up in it."""

    looked_up = []

    def index(self, move, *args):
        self.looked_up.append(move)
        return super().index(move, *args)


def test_psi_inv_applies_the_builds_own_moves():
    """Each move psi_inv walks the Hasse rows by is one of the objects the
    build records, the last one the shared top move."""
    checked = 0
    for key, n, action, ts in _bijection_family_trees():
        phat = adjoin_top(build_dowling(n, action))
        family = trees._tree_family(n, action)
        own = {id(move) for row in phat.moves for move in row}
        phat.moves = [_SpyRow(row) for row in phat.moves]
        for t in ts:
            _SpyRow.looked_up.clear()
            assert trees._psi_inv(phat, t, n, action, family)[-1] == phat.top, key
            assert all(id(move) in own for move in _SpyRow.looked_up), key
            assert _SpyRow.looked_up[-1] is dowling.TOP_MOVE, key
            checked += len(_SpyRow.looked_up)
    assert checked > 0
