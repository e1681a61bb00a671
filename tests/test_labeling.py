import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import cover_oracle
from cover_oracle import classify_cover
from element_oracle import bottom_element, make_element, poset_from_edges
from sdowling import catalog, groups, labeling
from sdowling.dowling import EdgeType, adjoin_top, build_dowling, build_subposet, cut_subposet
from sdowling.elements import top_element
from sdowling.errors import MalformedLabeling, NotACover, NotBounded
from sdowling.labeling import EdgeLabel
from sdowling.poset import moebius, saturated_chains, sphere_product

Z2 = groups.cyclic_group(2)
Z3 = groups.cyclic_group(3)
SWAP2 = groups.action_from_permutations(Z2, [[0, 1], [1, 0]])
SWAP3 = groups.action_from_permutations(Z2, [[0, 1, 2], [1, 0, 2]])


def test_classify_cover_kinds():
    x = make_element(Z2, 3, [((1,), (0,)), ((2,), (0,)), ((3,), (0,))], [])
    coherent = make_element(Z2, 3, [((1, 2), (0, 0)), ((3,), (0,))], [])
    noncoh = make_element(Z2, 3, [((1, 2), (0, 1)), ((3,), (0,))], [])
    colored = make_element(Z2, 3, [((1,), (0,)), ((2,), (0,))], [(3, 1)])
    et = classify_cover(x, coherent)
    assert et.kind == "merge" and et.alpha == 0
    et = classify_cover(x, noncoh)
    assert et.kind == "merge" and et.alpha == 1
    et = classify_cover(x, colored)
    assert et.kind == "colored" and et.color == 1 and et.min_b == 3
    assert classify_cover(x, top_element(3)).kind == "top"


def test_classify_cover_rejects_non_covers():
    x = bottom_element(3)
    y = make_element(Z2, 3, [((1, 2, 3), (0, 0, 0))], [])
    with pytest.raises(NotACover):
        classify_cover(x, y)


def _classify_cover_by_sets(x, y):
    """classify_cover as it was first written, by sets of block supports:
    the oracle for the scan by first difference."""
    if y.is_top:
        return EdgeType("top")
    if y.zero == x.zero:
        # merge: y has one block that unites two blocks of x
        supports_x = {s for s, _ in x.blocks}
        merged = [(s, c) for s, c in y.blocks if s not in supports_x]
        if len(merged) != 1:
            raise NotACover("elements do not differ by a single merge")
        support, colors = merged[0]
        pieces = [s for s, _ in x.blocks if set(s) <= set(support)]
        if len(pieces) != 2:
            raise NotACover("merged block does not split into two blocks of x")
        min_a, min_b = sorted(p[0] for p in pieces)
        cmap = dict(zip(support, colors))
        return EdgeType("merge", min_a=min_a, min_b=min_b, alpha=cmap[min_b])
    # color: y moved one block of x into the zero block
    supports_y = {s for s, _ in y.blocks}
    gone = [s for s, _ in x.blocks if s not in supports_y]
    if len(gone) != 1:
        raise NotACover("elements do not differ by a single coloring")
    min_b = gone[0][0]
    return EdgeType("colored", min_b=min_b, color=dict(y.zero)[min_b])


def _accepts(classify, x, y):
    try:
        classify(x, y)
    except NotACover:
        return False
    return True


def _classify_cover_disagreements(tally):
    """Every pair of elements at adjacent ranks of the bounded n <= 3 grid
    posets: a cover must classify as the move the build recorded, and a
    pair the oracle rejects must be rejected.  Yields each pair that
    breaks either rule; `tally` counts covers, non-covers, and the
    non-covers each side accepts."""
    for key, n, action in catalog.dowling_grid():
        phat = adjoin_top(build_dowling(n, action))
        by_rank = {}
        for z, r in enumerate(phat.rank):
            by_rank.setdefault(r, []).append(z)
        for xi, x in enumerate(phat.elements):
            recorded = dict(zip(phat.up[xi], phat.moves[xi]))
            for yi in by_rank.get(phat.rank[xi] + 1, ()):
                y = phat.elements[yi]
                if yi in recorded:
                    tally["covers"] += 1
                    if classify_cover(x, y) != recorded[yi]:
                        yield key, xi, yi
                    continue
                accepted = _accepts(classify_cover, x, y)
                oracle = _accepts(_classify_cover_by_sets, x, y)
                tally.update({"non-covers": 1, "accepted": accepted, "oracle accepted": oracle})
                if accepted and not oracle:
                    yield key, xi, yi


def test_classify_cover_matches_the_set_based_oracle():
    """Every cover of the n <= 3 grid classifies as recorded, and no pair is
    accepted that the oracle rejects.  Of the non-covers the oracle accepts,
    only those that differ from a cover in the colors alone, which need
    the action, are accepted still."""
    tally = Counter()
    assert list(_classify_cover_disagreements(tally)) == []
    assert tally == {"covers": 6_794, "non-covers": 31_411,
                     "oracle accepted": 21_262, "accepted": 5_952}


def _scan_one_short(xs, ys, i=0):
    while i < len(ys) - 1 and xs[i] == ys[i]:
        i += 1
    return i


def _scan_one_long(xs, ys, i=0):
    while i < len(ys) and xs[i] == ys[i]:
        i += 1
    return i + 1


@pytest.mark.parametrize("scan", [_scan_one_short, _scan_one_long])
def test_an_off_by_one_first_difference_is_caught(monkeypatch, scan):
    """A scan that stops one block short, or one past the first
    difference, misreads a cover: it classifies wrongly, raises
    NotACover, or indexes past the blocks."""
    monkeypatch.setattr(cover_oracle, "_first_difference", scan)
    with pytest.raises((AssertionError, NotACover, IndexError)):
        test_classify_cover_matches_the_set_based_oracle()


def _label(fn, phat, x, y):
    """The label `fn` gives the cover (x, y) of the built poset, named by its
    elements: the entry for y in x's row."""
    xi = phat.elements.index(x)
    return fn(phat, xi)[phat.up[xi].index(phat.elements.index(y))]


def test_lambda_labels():
    phat = adjoin_top(build_dowling(2, groups.trivial_action(Z2, 2)))
    x = bottom_element(2)
    coherent = make_element(Z2, 2, [((1, 2), (0, 0))], [])
    noncoh = make_element(Z2, 2, [((1, 2), (0, 1))], [])
    colored = make_element(Z2, 2, [((2,), (0,))], [(1, 1)])
    coatom = make_element(Z2, 2, [], [(1, 0), (2, 1)])
    assert _label(labeling.label_lambda, phat, x, coherent) == EdgeLabel(0, 2)
    assert _label(labeling.label_lambda, phat, x, noncoh) == EdgeLabel(2, 1, 1)
    assert _label(labeling.label_lambda, phat, x, colored) == EdgeLabel(1, 2)
    assert _label(labeling.label_lambda, phat, coatom, top_element(2)) == EdgeLabel(1, 2)


def test_mu_labels_favor_present_colors():
    # zero block already uses color s3; coloring with s3 ranks it inside S(x)
    phat = adjoin_top(build_dowling(2, groups.trivial_action(Z2, 3)))
    x = make_element(Z2, 2, [((1,), (0,))], [(2, 2)])
    again = make_element(Z2, 2, [], [(1, 2), (2, 2)])
    fresh = make_element(Z2, 2, [], [(1, 0), (2, 2)])
    assert _label(labeling.label_mu, phat, x, again) == EdgeLabel(1, 1)
    # s1 is new: counted after itself plus the greater used color s3
    assert _label(labeling.label_mu, phat, x, fresh) == EdgeLabel(1, 2)
    # lambda ignores S(x) entirely
    assert _label(labeling.label_lambda, phat, x, again) == EdgeLabel(1, 3)


def test_label_wrappers_check_covers():
    """A pair that is no cover has no move, and a row that records no move
    for one of its covers is refused by the row accessor and both labelings."""
    action = groups.trivial_action(Z2, 1)
    phat = adjoin_top(build_dowling(2, action))
    assert phat.move(phat.bottom, phat.top) is None
    phat.moves[phat.bottom] = (None,) + phat.moves[phat.bottom][1:]
    y = phat.up[phat.bottom][0]
    for fn in (labeling.recorded_row, labeling.label_lambda, labeling.label_mu):
        with pytest.raises(NotACover, match=rf"\({phat.bottom}, {y}\) is not a single-move"):
            fn(phat, phat.bottom)


def _lambda_oracle(et):
    """lambda's table as first written, one case per kind of move."""
    if et.kind == "top":
        return EdgeLabel(1, 2)
    if et.kind == "colored":
        return EdgeLabel(1, et.color + 1)
    if et.alpha == 0:
        return EdgeLabel(0, max(et.min_a, et.min_b))
    return EdgeLabel(2, min(et.min_a, et.min_b), et.alpha)


def _mu_oracle(et, used):
    """mu as first written: lambda off the colorings; a coloring with color s
    counts the colors `used` by the lower element up to s if s is one of
    them, and else s + 1 plus those past s."""
    if et.kind != "colored":
        return _lambda_oracle(et)
    s = et.color
    if s in used:
        return EdgeLabel(1, sum(1 for r in used if r <= s))
    return EdgeLabel(1, (s + 1) + sum(1 for r in used if r > s))


def _n4_grid_posets():
    """The 108 bounded full posets of the n <= 4 grid, then each one's
    invariant subposets, cut from its build."""
    for key, n, action in catalog.dowling_grid(ns=(1, 2, 3, 4)):
        full = build_dowling(n, action)
        yield key, adjoin_top(full)
        for T in catalog.invariant_subsets(action):
            yield f"{key},T={list(T)}", adjoin_top(cut_subposet(full, action, list(T)))


def test_labels_match_the_first_written_rules_on_the_n4_grid():
    """Every cover of the n <= 4 grid posets and their invariant subposets
    gets the oracles' lambda and mu labels, mu with the zero-block colors of
    the decoded lower element, and equal labels in a poset are one object."""
    posets = 0
    for key, phat in _n4_grid_posets():
        posets += 1
        labels = []
        for x, (moves, element) in enumerate(zip(phat.moves, phat.elements)):
            used = {s for _, s in element.zero}
            lam, mu = labeling.label_lambda(phat, x), labeling.label_mu(phat, x)
            assert lam == tuple(map(_lambda_oracle, moves)), (key, x)
            assert mu == tuple(_mu_oracle(et, used) for et in moves), (key, x)
            labels += lam + mu
        assert len(set(map(id, labels))) == len(set(labels)), key
    assert posets == 108 + 220


def test_verify_el_passes_small_full_poset():
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(2, action))
    rep = labeling.verify_el(phat, labeling.label_lambda)
    assert rep.passed
    assert rep.decreasing_chain_count == 3
    assert len(list(labeling.decreasing_chains(phat, labeling.label_lambda))) == 3


def test_verify_el_leaves_no_reference_cycle():
    """With the cyclic collector off, the poset is freed as soon as the
    last reference to it goes: verify_el's memo leaves no cycle behind."""
    phat = adjoin_top(build_dowling(3, groups.trivial_action(Z2, 3)))
    ref = weakref.ref(phat)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert labeling.verify_el(phat, labeling.label_lambda).passed
        del phat
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_verify_el_requires_bounds():
    action = groups.trivial_action(Z2, 2)
    poset = build_dowling(2, action)
    with pytest.raises(NotBounded):
        labeling.verify_el(poset, labeling.label_lambda)
    with pytest.raises(NotBounded):
        labeling.decreasing_chains(poset, labeling.label_lambda)
    with pytest.raises(NotBounded):
        labeling.count_decreasing_chains(poset, labeling.label_lambda)


def _short_rows(poset, x):
    """lambda's rows less their last label."""
    return labeling.label_lambda(poset, x)[:-1]


def _long_rows(poset, x):
    """lambda's rows and one label more."""
    return labeling.label_lambda(poset, x) + (EdgeLabel(0, 0),)


@pytest.mark.parametrize("walker", [labeling.verify_el, labeling.decreasing_chains,
                                    labeling.count_decreasing_chains])
@pytest.mark.parametrize("fn, extra", [(_short_rows, -1), (_long_rows, 1)])
def test_a_row_not_parallel_to_the_covers_raises(walker, fn, extra):
    """A labeling whose row for a node has fewer or more labels than the node
    has covers is refused at the call, naming the node and both lengths."""
    phat = adjoin_top(build_dowling(3, groups.trivial_action(Z2, 2)))
    covers = len(phat.up[phat.bottom])
    with pytest.raises(MalformedLabeling,
                       match=f"node {phat.bottom} has {covers} covers but {covers + extra} labels"):
        walker(phat, fn)


def test_verify_el_fails_on_counterexample_subposet():
    phat = adjoin_top(build_subposet(2, SWAP2, []))
    for fn in (labeling.label_lambda, labeling.label_mu):
        rep = labeling.verify_el(phat, fn)
        assert not rep.passed
        assert all(f.reason in ("NoIncreasing", "MultipleIncreasing", "NotLexFirst")
                   for f in rep.failures)


def test_decreasing_count_equals_moebius():
    action = SWAP3
    phat = adjoin_top(build_dowling(2, action))
    rep = labeling.verify_el(phat, labeling.label_lambda)
    assert rep.passed
    rk = phat.max_rank
    assert (-1) ** rk * moebius(phat, phat.bottom, phat.top) == rep.decreasing_chain_count


def test_mu_equals_lambda_on_merge_edges():
    phat = adjoin_top(build_dowling(2, SWAP3))
    for x, moves in enumerate(phat.moves):
        for move, mu, lam in zip(moves, labeling.label_mu(phat, x), labeling.label_lambda(phat, x)):
            if move.kind == "merge":
                assert mu == lam


def test_open_question_both_labelings_fail_on_filtered_z2_poset():
    # P_3 with Z2 swapping two of three colors, T empty: shellable by other
    # means, but neither edge labeling satisfies the EL condition
    phat = adjoin_top(build_subposet(3, SWAP3, []))
    rep_l = labeling.verify_el(phat, labeling.label_lambda, with_witness_chains=False)
    rep_m = labeling.verify_el(phat, labeling.label_mu, with_witness_chains=False)
    assert not rep_l.passed and not rep_m.passed
    assert all(f.reason == "NoIncreasing" for f in rep_l.failures)
    assert all(f.reason == "NoIncreasing" for f in rep_m.failures)


def test_mu_counterexample_with_nontrivial_action_on_all_colors():
    # with T = S and Z3 cycling all three colors, mu has intervals without
    # any strictly increasing chain while lambda still verifies
    cyc = groups.action_from_permutations(Z3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    phat = adjoin_top(build_subposet(3, cyc, [0, 1, 2]))
    assert labeling.verify_el(phat, labeling.label_lambda,
                              with_witness_chains=False).passed
    rep = labeling.verify_el(phat, labeling.label_mu, with_witness_chains=False)
    assert not rep.passed
    assert len(rep.failures) == 6
    assert any(f.reason == "NoIncreasing" for f in rep.failures)


def test_decreasing_chains_match_brute_force_on_grid():
    # oracle: every maximal chain of the bounded poset, kept when its label
    # word is weakly decreasing
    for key, n, action in catalog.dowling_grid():
        posets = [adjoin_top(build_dowling(n, action))] + [
            adjoin_top(build_subposet(n, action, list(T)))
            for T in catalog.invariant_subsets(action)
        ]
        for phat in posets:
            for fn in (labeling.label_lambda, labeling.label_mu):
                rows = [fn(phat, x) for x in range(len(phat))]
                expected = []
                for chain, word in saturated_chains(phat, phat.bottom, phat.top, rows):
                    if all(a >= b for a, b in zip(word, word[1:])):
                        expected.append(chain)
                assert list(labeling.decreasing_chains(phat, fn)) == expected, key


def _brute_failures(poset, fn):
    """Oracle: `check_interval` on every interval [x, y] with rk y - rk x >= 2,
    on the rows `fn` gives."""
    rows = [fn(poset, x) for x in range(len(poset))]
    out = []
    for x in range(len(poset)):
        for y in range(len(poset)):
            if poset.leq(x, y) and poset.rank[y] - poset.rank[x] >= 2:
                fail = labeling.check_interval(poset, rows, x, y)
                if fail is not None:
                    out.append((fail.x, fail.y, fail.reason, fail.witnesses))
    return out


def _failures(poset, fn, with_witness_chains=True):
    report = labeling.verify_el(poset, fn, with_witness_chains=with_witness_chains)
    return [(f.x, f.y, f.reason, f.witnesses) for f in report.failures]


def _assert_failures_match(poset, fn, expected):
    """verify_el gives the oracle's failures with their witnesses when asked
    for them, and else the same reasons, read off its masks, without any."""
    assert _failures(poset, fn) == expected
    assert _failures(poset, fn, with_witness_chains=False) == \
        [(x, y, reason, []) for x, y, reason, _ in expected]


def _swap_n4_posets():
    """The three n = 4 Z2-swap subposets on which mu fails."""
    for m, T in ((2, [0, 1]), (3, [0, 1]), (3, [0, 1, 2])):
        swap = dict(catalog.actions_for("Z2", m))["swap"]
        yield f"n=4,G=Z2,m={m},act=swap,T={T}", adjoin_top(build_subposet(4, swap, T))


def _el_oracle_posets():
    """Every n <= 3 grid poset and subposet (T = [] included), and the three
    n = 4 Z2-swap subposets on which mu fails."""
    for key, n, action in catalog.dowling_grid():
        yield key, adjoin_top(build_dowling(n, action))
        for T in sorted({(), *catalog.invariant_subsets(action)}):
            yield f"{key},T={list(T)}", adjoin_top(build_subposet(n, action, list(T)))
    yield from _swap_n4_posets()


def _walked(poset, fn):
    return sum(1 for _ in labeling.decreasing_chains(poset, fn))


def test_decreasing_chain_count_matches_the_walk():
    for key, phat in _el_oracle_posets():
        for fn in (labeling.label_lambda, labeling.label_mu):
            walked = _walked(phat, fn)
            assert labeling.count_decreasing_chains(phat, fn) == walked, (key, fn.__name__)
            assert labeling.verify_el(phat, fn, with_witness_chains=False) \
                .decreasing_chain_count == walked, (key, fn.__name__)


def test_verify_el_matches_check_interval_on_grid():
    reasons = set()
    for key, phat in _el_oracle_posets():
        for fn in (labeling.label_lambda, labeling.label_mu):
            expected = _brute_failures(phat, fn)
            try:
                _assert_failures_match(phat, fn, expected)
            except AssertionError as exc:
                raise AssertionError((key, fn.__name__)) from exc
            reasons.update(f[2] for f in expected)
    assert reasons == {"NoIncreasing", "MultipleIncreasing"}


def _spy(fn):
    """A labeling that gives `fn`'s rows and counts its calls per node."""
    calls = Counter()

    def spy(poset, x):
        calls[x] += 1
        return fn(poset, x)

    return spy, calls


def test_a_labeling_is_called_once_per_node():
    """The EL check, the chain walk and the chain count read each node's row
    with one call, for lambda, mu and a hand-written labeling alike, on
    posets that pass and posets that fail."""
    cases = [(phat, fn)
             for phat in (adjoin_top(build_dowling(3, SWAP3)),
                          adjoin_top(build_subposet(3, SWAP3, [])))
             for fn in (labeling.label_lambda, labeling.label_mu)]
    cases.append(_labelled_poset([0, 1, 1, 2], {(0, 1): 1, (1, 3): 2, (0, 2): 1, (2, 3): 0}))
    for poset, fn in cases:
        for walker in (labeling.verify_el, labeling.decreasing_chains,
                       labeling.count_decreasing_chains):
            spy, calls = _spy(fn)
            result = walker(poset, spy)
            if walker is labeling.decreasing_chains:
                list(result)
            assert calls == Counter(range(len(poset))), (walker.__name__, fn)


def test_verify_el_builds_no_up_sets_on_a_passing_poset():
    phat = adjoin_top(build_dowling(3, groups.trivial_action(Z2, 2)))
    assert labeling.verify_el(phat, labeling.label_lambda).passed
    assert "above" not in phat.__dict__


# mu's failures on the n = 4 Z2-swap subposets, as (count, sha256 prefix of
# the repr of [(x, y, reason, witnesses)]), recorded from the per-source
# forward pass that the top-down pass replaced
SWAP_N4_MU_FAILURES = {
    "n=4,G=Z2,m=2,act=swap,T=[0, 1]": (24, "ea7e67af5c18c4c2"),
    "n=4,G=Z2,m=3,act=swap,T=[0, 1]": (24, "a26e1347efaf6af6"),
    "n=4,G=Z2,m=3,act=swap,T=[0, 1, 2]": (48, "37432542973d35c1"),
}


def test_verify_el_witnesses_on_n4_swap_failures_are_unchanged():
    for key, phat in _swap_n4_posets():
        failures = _failures(phat, labeling.label_mu)
        digest = hashlib.sha256(repr(failures).encode()).hexdigest()[:16]
        assert (len(failures), digest) == SWAP_N4_MU_FAILURES[key], key


def _labelled_poset(ranks, covers):
    """Bounded poset on 0..len(ranks)-1 (bottom 0, top last) and a labeling
    that reads the label of each of x's covers from `covers`."""
    poset = poset_from_edges(range(len(ranks)), covers, ranks, 0, len(ranks) - 1)
    return poset, lambda p, x: tuple(covers[(x, y)] for y in p.up[x])


@pytest.mark.parametrize("ranks, covers, expected", [
    # diamond: the unique least word (1, 0) is not increasing
    ([0, 1, 1, 2], {(0, 1): 1, (1, 3): 2, (0, 2): 1, (2, 3): 0},
     [(0, 3, "NotLexFirst", [(0, 1, 3), (0, 2, 3)])]),
    # the least word (0, 0) is carried by two chains, the one increasing
    # chain carries (1, 2)
    ([0, 1, 1, 1, 2], {(0, 1): 0, (1, 4): 0, (0, 2): 0, (2, 4): 0, (0, 3): 1, (3, 4): 2},
     [(0, 4, "NotLexFirst", [(0, 3, 4), (0, 1, 4)])]),
    # not graded: the least word of [0, 4] is (1, 2), a prefix of (1, 2, 0),
    # yet above 4 the longer chain carries the least word (1, 2, 0, 3) of
    # [0, 5], so one least word per node would pass [0, 5]
    ([0, 1, 1, 2, 3, 4], {(0, 1): 1, (1, 4): 2, (0, 2): 1, (2, 3): 2, (3, 4): 0, (4, 5): 3},
     [(0, 5, "NotLexFirst", [(0, 1, 4, 5), (0, 2, 3, 4, 5)]),
      (2, 4, "NoIncreasing", []),
      (2, 5, "NoIncreasing", [])]),
    # [0, 4] reads whether the least word of [1, 4] increases and starts
    # past label 0: it is (0, 1) through 2, and not (1, 2), the least word
    # of the chains of [1, 4] that start past 0
    ([0, 1, 2, 2, 3], {(0, 1): 0, (1, 2): 0, (1, 3): 1, (2, 4): 1, (3, 4): 2},
     [(0, 2, "NoIncreasing", []),
      (0, 4, "NotLexFirst", [(0, 1, 3, 4), (0, 1, 2, 4)]),
      (1, 4, "MultipleIncreasing", [(1, 2, 4), (1, 3, 4)])]),
    # tie: covers 1 and 2 of 0 both carry label 0 and reach 5; the least
    # word (0, 1, 2) runs through 2, the later cover, and increases, so
    # [0, 5] passes beside the chain (0, 3, 0) through 1
    ([0, 1, 1, 2, 2, 3], {(0, 1): 0, (1, 3): 3, (3, 5): 0, (0, 2): 0, (2, 4): 1, (4, 5): 2},
     [(1, 5, "NoIncreasing", [])]),
    # tie: the same shape, but the least word (0, 0, 3) runs through 2 and
    # does not increase, while the chain through 1 does
    ([0, 1, 1, 2, 2, 3], {(0, 1): 0, (1, 3): 1, (3, 5): 2, (0, 2): 0, (2, 4): 0, (4, 5): 3},
     [(0, 4, "NoIncreasing", []),
      (0, 5, "NotLexFirst", [(0, 1, 3, 5), (0, 2, 4, 5)])]),
    # the failing tie one rank up, at covers 2 and 3 of 1; [0, 6] reads
    # whether the least word of [1, 6] increases, and fails with it
    ([0, 1, 2, 2, 3, 3, 4],
     {(0, 1): 0, (1, 2): 1, (2, 4): 2, (4, 6): 3, (1, 3): 1, (3, 5): 1, (5, 6): 4},
     [(0, 5, "NoIncreasing", []),
      (0, 6, "NotLexFirst", [(0, 1, 2, 4, 6), (0, 1, 3, 5, 6)]),
      (1, 5, "NoIncreasing", []),
      (1, 6, "NotLexFirst", [(1, 2, 4, 6), (1, 3, 5, 6)])]),
])
def test_verify_el_hand_built_failures(ranks, covers, expected):
    poset, fn = _labelled_poset(ranks, covers)
    assert expected == _brute_failures(poset, fn)
    _assert_failures_match(poset, fn, expected)


def _bounded_order(ranks, pairs):
    """Ranks and sorted cover pairs of the bounded poset on the inner elements
    1..len(ranks) - 1 ordered by the given pairs that go up in rank.
    Element 0 is the bottom; a top is appended, which may cover maxima of
    different ranks, so covers may skip ranks."""
    inner = range(1, len(ranks))
    top = len(ranks)
    ranks = ranks + [max(ranks) + 1]
    less = {(a, b) for a, b in pairs if ranks[a] < ranks[b]}
    less |= {(0, a) for a in inner} | {(a, top) for a in inner} | {(0, top)}
    for c in inner:  # transitive closure
        less |= {(a, b) for a, c1 in less if c1 == c for c2, b in less if c2 == c}
    covers = sorted((a, b) for a, b in less
                    if not any((a, c) in less and (c, b) in less for c in inner))
    return ranks, covers


@st.composite
def _bounded_labelled_posets(draw):
    """A random bounded poset with small integer labels that tie."""
    size = draw(st.integers(0, 7))
    inner = range(1, size + 1)
    ranks = [0] + [draw(st.integers(1, 4)) for _ in inner]
    pairs = draw(st.sets(st.tuples(st.sampled_from(inner), st.sampled_from(inner)))
                 if size else st.just(set()))
    ranks, covers = _bounded_order(ranks, pairs)
    labels = draw(st.lists(st.integers(0, 2), min_size=len(covers), max_size=len(covers)))
    return _labelled_poset(ranks, dict(zip(covers, labels)))


def _check_against_oracles(poset, fn):
    _assert_failures_match(poset, fn, _brute_failures(poset, fn))
    walked = _walked(poset, fn)
    assert labeling.count_decreasing_chains(poset, fn) == walked
    assert labeling.verify_el(poset, fn).decreasing_chain_count == walked


@settings(max_examples=400, deadline=None)
@given(_bounded_labelled_posets())
def test_verify_el_matches_check_interval_on_random_posets(poset_and_labeling):
    _check_against_oracles(*poset_and_labeling)


def test_verify_el_matches_check_interval_on_a_seeded_sweep():
    """3,000 random bounded posets with up to 9 inner elements, each order
    pair kept with a density drawn per poset, and labels in {0, 1, 2}: larger
    than the property test draws, and the same posets on every run."""
    rng = random.Random(20181)
    for case in range(3000):
        inner = range(1, rng.randint(0, 9) + 1)
        ranks = [0] + [rng.randint(1, 4) for _ in inner]
        density = rng.random()
        pairs = {(a, b) for a in inner for b in inner if rng.random() < density}
        ranks, covers = _bounded_order(ranks, pairs)
        labelled = {c: rng.randint(0, 2) for c in covers}
        try:
            _check_against_oracles(*_labelled_poset(ranks, labelled))
        except AssertionError as exc:
            raise AssertionError(f"case {case}: ranks {ranks}, labelled covers {labelled}") from exc


def test_lambda_verifies_at_n5_z2_three_colors():
    # the n = 5 frontier of the grid for |G| = 2
    phat = adjoin_top(build_dowling(5, groups.trivial_action(Z2, 3)))
    rep = labeling.verify_el(phat, labeling.label_lambda, with_witness_chains=False)
    assert len(phat) == 3441
    assert rep.passed
    assert rep.decreasing_chain_count == sphere_product(5, 2, 3) == 3840
    assert labeling.count_decreasing_chains(phat, labeling.label_lambda) == 3840
