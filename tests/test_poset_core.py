import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

from sdowling import catalog, groups, poset as poset_module
from sdowling.dowling import adjoin_top, build_dowling, build_subposet
from sdowling.errors import NotComparable, NotGraded
from sdowling.poset import (
    Polynomial,
    bits,
    characteristic_polynomial,
    is_graded,
    moebius,
    saturated_chains,
    sphere_product,
    subposet_rows,
)
from element_oracle import poset_from_edges
from subposet_oracle import induced_covers, induced_rows


def boolean_lattice(k):
    subsets = [frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(k), r)]
    index = {s: i for i, s in enumerate(subsets)}
    edges = [
        (index[s], index[s | {x}])
        for s in subsets
        for x in range(k)
        if x not in s
    ]
    ranks = [len(s) for s in subsets]
    return poset_from_edges(subsets, edges, ranks, bottom=0, top=len(subsets) - 1)


def chain_poset(k):
    return poset_from_edges(list(range(k)), [(i, i + 1) for i in range(k - 1)],
                            list(range(k)), bottom=0, top=k - 1)


def skipping_poset():
    """0 < a < b < 1 and 0 < c < 1, ranked 0, 1, 2, 3 and c at 1: the cover
    c < 1 skips rank 2, and mu(0, 1) = 1."""
    return poset_from_edges(["0", "a", "b", "c", "1"], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
                            [0, 1, 2, 1, 3], bottom=0, top=4)


@st.composite
def finite_posets(draw):
    """A poset on at most 8 elements whose covers raise the rank by any
    amount: random relations between lower and higher ranks, reduced to
    their covers.  Index order need not follow rank order."""
    k = draw(st.integers(min_value=1, max_value=8))
    ranks = draw(st.lists(st.integers(min_value=0, max_value=k), min_size=k, max_size=k))
    pairs = [(x, y) for x in range(k) for y in range(k) if ranks[x] < ranks[y]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    relations = poset_from_edges(range(k), [e for e, kept in zip(pairs, keep) if kept], ranks,
                                 bottom=None)
    return poset_from_edges(range(k), induced_covers(relations, range(k)), ranks, bottom=None)


def moebius_mismatches(p):
    """(x, y, found, expected) wherever moebius(p, x, y) disagrees with the
    definition mu(x, y) = -sum of mu(x, z) over x <= z < y, read from leq
    alone; None stands for NotComparable, raised or expected."""
    out = []
    for x in range(len(p)):
        mu = {}
        for y in sorted(range(len(p)), key=p.rank.__getitem__):
            expected = None
            if p.leq(x, y):
                expected = mu[y] = 1 if y == x else -sum(
                    v for z, v in mu.items() if p.leq(z, y))
            try:
                found = moebius(p, x, y)
            except NotComparable:
                found = None
            if found != expected:
                out.append((x, y, found, expected))
    return out


def adjacent_rank_sweep(poset, x):
    """A wrong moebius_row that keeps the down-sets of the previous rank
    only; right on every graded poset."""
    below = {}
    for a, b in poset.cover_edges():
        below.setdefault(b, []).append(a)
    row, prev = {x: 1}, {x: 1 << x}
    for r in range(poset.rank[x] + 1, poset.max_rank + 1):
        cur = {}
        for z in range(len(poset)):
            if poset.rank[z] == r:
                m = 0
                for c in below.get(z, ()):
                    m |= prev.get(c, 0)
                if m:
                    cur[z] = m | 1 << z
                    row[z] = -sum(row[w] for w in bits(m))
        prev = cur
    return row


def test_boolean_lattice_moebius():
    b3 = boolean_lattice(3)
    # mu(0, x) = (-1)^|x| on the boolean lattice
    for x in range(len(b3)):
        assert moebius(b3, 0, x) == (-1) ** b3.rank[x]


def test_moebius_on_chain_vanishes_past_rank_one():
    c = chain_poset(5)
    assert moebius(c, 0, 0) == 1
    assert moebius(c, 0, 1) == -1
    for y in range(2, 5):
        assert moebius(c, 0, y) == 0


def test_moebius_requires_comparability():
    p = poset_from_edges(["a", "b", "c"], [(0, 1), (0, 2)], [0, 1, 1], bottom=0)
    with pytest.raises(NotComparable):
        moebius(p, 1, 2)
    assert "above" not in p.__dict__


def test_moebius_and_characteristic_polynomial_build_no_up_sets():
    action = groups.trivial_action(groups.cyclic_group(2), 2)
    d = build_dowling(3, action)
    phat = adjoin_top(d)
    assert moebius(phat, phat.bottom, phat.top) == 15
    assert characteristic_polynomial(d) == Polynomial.from_roots([2, 4, 6])
    assert "above" not in phat.__dict__ and "above" not in d.__dict__


def test_moebius_on_a_cover_that_skips_a_rank():
    p = skipping_poset()
    assert not is_graded(p)
    assert moebius(p, 0, 4) == 1


@given(finite_posets())
@example(skipping_poset())
def test_moebius_from_every_source_on_ungraded_posets(p):
    assert moebius_mismatches(p) == []


def test_moebius_check_rejects_a_two_adjacent_rank_sweep(monkeypatch):
    """The grid is graded, so only a rank-skipping cover tells the sweep
    from one that keeps two adjacent ranks of down-sets."""
    monkeypatch.setattr(poset_module, "moebius_row", adjacent_rank_sweep)
    assert moebius_mismatches(boolean_lattice(3)) == []
    assert (0, 4, 0, 1) in moebius_mismatches(skipping_poset())


def test_leq_and_interval_members():
    b3 = boolean_lattice(3)
    top = len(b3) - 1
    assert b3.leq(0, top)
    assert list(bits(b3.above[0])) == list(range(len(b3)))
    assert list(bits(b3.above[top])) == [top]
    singleton = next(i for i, s in enumerate(b3.elements) if s == frozenset({0}))
    assert [b3.elements[i] for i in bits(b3.above[singleton])] == [
        s for s in b3.elements if 0 in s
    ]
    assert not b3.leq(singleton, 0)


def test_maximal_chain_count_on_boolean_lattice():
    b3 = boolean_lattice(3)
    chains = [chain for chain, _ in saturated_chains(b3, 0, len(b3) - 1)]
    assert len(chains) == 6  # 3! saturated chains
    assert chains == sorted(chains)
    assert [chain for chain, _ in saturated_chains(b3, 1, 2)] == []


def test_up_sets_and_moebius_from_every_source():
    # oracles: the up-sets by a depth-first search over the covers, and
    # mu(x, y) = -sum of mu(x, z) over x <= z < y from leq alone, for every
    # source x, on the bounded posets and invariant subposets with n <= 2
    for key, n, action in catalog.dowling_grid(ns=(1, 2)):
        posets = [adjoin_top(build_dowling(n, action))] + [
            adjoin_top(build_subposet(n, action, list(T)))
            for T in catalog.invariant_subsets(action)
        ]
        for p in posets:
            for x in range(len(p)):
                seen, stack = {x}, [x]
                while stack:
                    for y in p.up[stack.pop()]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                assert list(bits(p.above[x])) == sorted(seen), key
            assert moebius_mismatches(p) == [], key


def test_gradedness_and_hasse():
    b3 = boolean_lattice(3)
    assert is_graded(b3)
    # a Hasse diagram lists exactly the covers of the order it generates
    assert set(b3.cover_edges()) == set(induced_covers(b3, range(len(b3))))
    bad = poset_from_edges(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], [0, 1, 2], bottom=0)
    assert set(bad.cover_edges()) - set(induced_covers(bad, range(len(bad)))) == {(0, 2)}


@given(finite_posets(), st.data())
def test_subposet_rows_match_the_table_oracle(p, data):
    """On random posets whose covers skip ranks, and random kept sets, the
    upward walk gives the rows of the up-set table."""
    kept = [i for i in range(len(p)) if data.draw(st.booleans())]
    assert subposet_rows(p, kept) == induced_rows(p, kept)


def test_subposet_rows_drop_a_candidate_two_ranks_above_another():
    """x < a < c < b < y and x < d1 < d2 < d3 < y with only x, c and y kept:
    both c and y are reached from x through elements not kept, and y lies
    above c through b, one rank below y."""
    names = ["x", "a", "c", "b", "y", "d1", "d2", "d3"]
    ranks = [0, 1, 2, 3, 4, 1, 2, 3]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 4)]
    p = poset_from_edges(names, edges, ranks, bottom=0)
    assert subposet_rows(p, [0, 2, 4]) == [(2,), (4,), ()] == induced_rows(p, [0, 2, 4])


def test_characteristic_polynomial_boolean():
    b3 = boolean_lattice(3)
    assert characteristic_polynomial(b3) == Polynomial.from_roots([1, 1, 1])
    ungraded = poset_from_edges(["a", "b"], [(0, 1)], [0, 2], bottom=0)
    with pytest.raises(NotGraded):
        characteristic_polynomial(ungraded)


def test_polynomial_from_roots_and_eval():
    p = Polynomial.from_roots([2, 5])
    assert p.coeffs == (10, -7, 1)
    assert Polynomial.make([1, 0, 0]).coeffs == (1,)


def test_sphere_count_formula_values():
    assert sphere_product(3, 2, 2) == 1 * 3 * 5
    assert sphere_product(2, 4, 2) == 1 * 5
    assert sphere_product(2, 1, 1) == 0
    # empty color set flips the sign convention
    assert sphere_product(2, 2, 0) == (-1) * (-1 * 1)
    # the degenerate point: the one chain bottom < top
    assert sphere_product(1, 1, 0) == 1
    with pytest.raises(ValueError):
        sphere_product(0, 1, 1)


def test_sphere_product_with_the_trivial_group_is_the_direct_count():
    """With |G| = 1 and m >= 2 colors the product is n! C(n + m - 2, n)."""
    for n in range(1, 9):
        for m in range(2, 9):
            assert sphere_product(n, 1, m) == math.factorial(n) * math.comb(n + m - 2, n), (n, m)


@given(st.integers(min_value=0, max_value=1 << 1500))
@example(0)
@example((1 << 1200) | 1)
def test_bits_matches_naive_scan(mask):
    naive = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert list(bits(mask)) == naive
