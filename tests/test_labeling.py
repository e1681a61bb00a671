import pytest

from sdowling import catalog, groups, labeling
from sdowling.dowling import adjoin_top, build_dowling, build_subposet
from sdowling.elements import bottom_element, make_element, top_element
from sdowling.errors import NotACover, NotBounded
from sdowling.labeling import EdgeLabel
from sdowling.poset import maximal_chains, moebius

Z2 = groups.cyclic_group(2)
Z3 = groups.cyclic_group(3)
SWAP2 = groups.action_from_permutations(Z2, [[0, 1], [1, 0]])
SWAP3 = groups.action_from_permutations(Z2, [[0, 1, 2], [1, 0, 2]])


def test_classify_cover_kinds():
    x = make_element(Z2, 3, [((1,), (0,)), ((2,), (0,)), ((3,), (0,))], [])
    coherent = make_element(Z2, 3, [((1, 2), (0, 0)), ((3,), (0,))], [])
    noncoh = make_element(Z2, 3, [((1, 2), (0, 1)), ((3,), (0,))], [])
    colored = make_element(Z2, 3, [((1,), (0,)), ((2,), (0,))], [(3, 1)])
    assert labeling.classify_cover(x, coherent).kind == "coherent"
    et = labeling.classify_cover(x, noncoh)
    assert et.kind == "noncoherent" and et.alpha == 1
    et = labeling.classify_cover(x, colored)
    assert et.kind == "colored" and et.color == 1 and et.min_b == 3
    assert labeling.classify_cover(x, top_element(3)).kind == "top"


def test_classify_cover_rejects_non_covers():
    x = bottom_element(3)
    y = make_element(Z2, 3, [((1, 2, 3), (0, 0, 0))], [])
    with pytest.raises(NotACover):
        labeling.classify_cover(x, y)


def test_lambda_labels():
    x = bottom_element(2)
    coherent = make_element(Z2, 2, [((1, 2), (0, 0))], [])
    noncoh = make_element(Z2, 2, [((1, 2), (0, 1))], [])
    colored = make_element(Z2, 2, [((2,), (0,))], [(1, 1)])
    assert labeling.label_lambda_elements(x, coherent) == EdgeLabel(0, 2)
    assert labeling.label_lambda_elements(x, noncoh) == EdgeLabel(2, 1, 1)
    assert labeling.label_lambda_elements(x, colored) == EdgeLabel(1, 2)
    assert labeling.label_lambda_elements(x, top_element(2)) == EdgeLabel(1, 2)


def test_mu_labels_favor_present_colors():
    # zero block already uses color s3; coloring with s3 ranks it inside S(x)
    x = make_element(Z2, 2, [((1,), (0,))], [(2, 2)])
    again = make_element(Z2, 2, [], [(1, 2), (2, 2)])
    fresh = make_element(Z2, 2, [], [(1, 0), (2, 2)])
    assert labeling.label_mu_elements(x, again) == EdgeLabel(1, 1)
    # s1 is new: counted after itself plus the greater used color s3
    assert labeling.label_mu_elements(x, fresh) == EdgeLabel(1, 2)
    # lambda ignores S(x) entirely
    assert labeling.label_lambda_elements(x, again) == EdgeLabel(1, 3)


def test_label_wrappers_check_covers():
    action = groups.trivial_action(Z2, 1)
    phat = adjoin_top(build_dowling(2, action))
    with pytest.raises(NotACover):
        labeling.label_lambda(phat, phat.bottom, phat.top)


def test_verify_el_passes_small_full_poset():
    action = groups.trivial_action(Z2, 2)
    phat = adjoin_top(build_dowling(2, action))
    rep = labeling.verify_el(phat, labeling.label_lambda)
    assert rep.passed
    assert rep.decreasing_chain_count == 3
    assert len(rep.decreasing_chains) == 3


def test_verify_el_requires_bounds():
    action = groups.trivial_action(Z2, 2)
    poset = build_dowling(2, action)
    with pytest.raises(NotBounded):
        labeling.verify_el(poset, labeling.label_lambda)
    with pytest.raises(NotBounded):
        labeling.decreasing_chains(poset, labeling.label_lambda)


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
    for x, y in phat.cover_edges():
        el_y = phat.elements[y]
        if el_y.is_top:
            continue
        et = labeling.classify_edge(phat, x, y)
        if et.kind != "colored":
            assert labeling.label_mu(phat, x, y) == labeling.label_lambda(phat, x, y)


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
                labels = labeling.edge_labels(phat, fn)
                expected = []
                for chain in maximal_chains(phat, phat.bottom, phat.top):
                    word = [labels[e] for e in zip(chain, chain[1:])]
                    if all(a >= b for a, b in zip(word, word[1:])):
                        expected.append(chain)
                assert labeling.decreasing_chains(phat, fn) == expected, key
