import itertools

import pytest
from hypothesis import example, given, strategies as st

from sdowling.errors import DegenerateCase, NotComparable, NotGraded
from sdowling.poset import (
    Polynomial,
    RankedPoset,
    bits,
    characteristic_polynomial,
    hasse_violations,
    is_graded,
    maximal_chains,
    moebius,
    sphere_count_formula,
)


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
    return RankedPoset(subsets, edges, ranks, bottom=0, top=len(subsets) - 1)


def chain_poset(k):
    return RankedPoset(list(range(k)), [(i, i + 1) for i in range(k - 1)],
                       list(range(k)), bottom=0, top=k - 1)


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
    p = RankedPoset(["a", "b", "c"], [(0, 1), (0, 2)], [0, 1, 1], bottom=0)
    with pytest.raises(NotComparable):
        moebius(p, 1, 2)


def test_leq_and_interval_members():
    b3 = boolean_lattice(3)
    assert b3.leq(0, len(b3) - 1)
    members = b3.interval_members(0, len(b3) - 1)
    assert members == list(range(len(b3)))
    singleton = next(i for i, s in enumerate(b3.elements) if s == frozenset({0}))
    assert b3.interval_members(singleton, singleton) == [singleton]


def test_maximal_chain_count_on_boolean_lattice():
    b3 = boolean_lattice(3)
    chains = maximal_chains(b3, 0, len(b3) - 1)
    assert len(chains) == 6  # 3! saturated chains
    assert chains == sorted(chains)
    with pytest.raises(NotComparable):
        maximal_chains(b3, 1, 2)


def test_gradedness_and_hasse():
    b3 = boolean_lattice(3)
    assert is_graded(b3)
    assert hasse_violations(b3) == []
    bad = RankedPoset(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], [0, 1, 2], bottom=0)
    assert hasse_violations(bad) == [(0, 2)]


def test_characteristic_polynomial_boolean():
    b3 = boolean_lattice(3)
    assert characteristic_polynomial(b3) == Polynomial.from_roots([1, 1, 1])
    ungraded = RankedPoset(["a", "b"], [(0, 1)], [0, 2], bottom=0)
    with pytest.raises(NotGraded):
        characteristic_polynomial(ungraded)


def test_polynomial_from_roots_and_eval():
    p = Polynomial.from_roots([2, 5])
    assert p.coeffs == (10, -7, 1)
    assert p(2) == 0 and p(5) == 0 and p(0) == 10
    assert p.degree == 2
    assert Polynomial.make([1, 0, 0]).coeffs == (1,)


def test_sphere_count_formula_values():
    assert sphere_count_formula(3, 2, 2) == 1 * 3 * 5
    assert sphere_count_formula(2, 4, 2) == 1 * 5
    assert sphere_count_formula(2, 1, 1) == 0
    # empty color set flips the sign convention
    assert sphere_count_formula(2, 2, 0) == (-1) * (-1 * 1)
    with pytest.raises(DegenerateCase):
        sphere_count_formula(1, 1, 0)
    with pytest.raises(ValueError):
        sphere_count_formula(0, 1, 1)


@given(st.integers(min_value=0, max_value=1 << 1500))
@example(0)
@example((1 << 1200) | 1)
def test_bits_matches_naive_scan(mask):
    naive = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert list(bits(mask)) == naive
