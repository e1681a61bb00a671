import pytest

from sdowling import acceptance, groups, reduction, topology
from sdowling.dowling import build_subposet
from sdowling.elements import make_element, top_element
from sdowling.errors import InvalidSpec
from sdowling.poset import induced_covers

Z2 = groups.cyclic_group(2)
Z3 = groups.cyclic_group(3)
Z4 = groups.cyclic_group(4)
SWAP2 = groups.action_from_permutations(Z2, [[0, 1], [1, 0]])
SWAP3 = groups.action_from_permutations(Z2, [[0, 1, 2], [1, 0, 2]])
CYC3 = groups.action_from_permutations(Z3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def test_make_spec_requires_free_orbit_outside_T():
    spec = reduction.make_spec(SWAP2, [], 0)
    assert spec.orbit == (0, 1)
    assert spec.base == 0
    with pytest.raises(InvalidSpec):
        reduction.make_spec(SWAP2, [0, 1], 0)  # orbit meets T
    swap4 = groups.action_from_permutations(Z4, [[0, 1], [1, 0], [0, 1], [1, 0]])
    with pytest.raises(InvalidSpec):
        reduction.make_spec(swap4, [], 0)  # stabilizer of order 2
    fixed = groups.trivial_action(Z2, 1)
    with pytest.raises(InvalidSpec):
        reduction.make_spec(fixed, [], 0)  # orbit smaller than the group
    with pytest.raises(InvalidSpec):
        reduction.make_spec(SWAP2, [], 0, base=5)


def test_closure_f_reattaches_orbit_colors():
    spec = reduction.make_spec(SWAP2, [], 0)
    x = make_element(Z2, 2, [], [(1, 0), (2, 1)])
    fx = reduction.closure_f(x, spec, SWAP2)
    assert fx == make_element(Z2, 2, [((1, 2), (0, 1))], [])
    # elements not using the orbit are fixed
    y = make_element(Z2, 2, [((1, 2), (0, 1))], [])
    assert reduction.closure_f(y, spec, SWAP2) == y
    assert reduction.closure_f(top_element(2), spec, SWAP2).is_top


def test_closure_f_is_base_point_independent():
    x = make_element(Z2, 3, [((3,), (0,))], [(1, 0), (2, 1)])
    out = {
        reduction.closure_f(x, reduction.make_spec(SWAP2, [], 0, base=b), SWAP2)
        for b in (0, 1)
    }
    assert len(out) == 1


@pytest.mark.parametrize("n,action,T", [
    (2, SWAP2, []),
    (3, SWAP2, []),
    (2, SWAP3, [2]),
    (3, SWAP3, []),
    (2, CYC3, []),
    (3, CYC3, []),
])
def test_closure_properties_and_isomorphism(n, action, T):
    spec = reduction.make_spec(action, T, 0)
    poset, reduced, report = reduction.reduce_and_verify(n, action, T, spec)
    assert report.passed, report.violations[:5]
    assert report.isomorphic
    assert report.image_size == len(reduced.elements)
    assert len(reduced.elements) < len(poset.elements)


def test_reduction_preserves_homology():
    spec = reduction.make_spec(SWAP3, [2], 0)
    poset, reduced, report = reduction.reduce_and_verify(3, SWAP3, [2], spec)
    assert report.passed
    before = topology.homology(topology.order_complex(poset))
    after = topology.homology(topology.order_complex(reduced))
    pad = max(len(before.reduced_betti), len(after.reduced_betti))
    b = before.reduced_betti + [0] * (pad - len(before.reduced_betti))
    a = after.reduced_betti + [0] * (pad - len(after.reduced_betti))
    assert b == a
    assert not any(before.torsion) and not any(after.torsion)


def test_reduce_poset_returns_restricted_subposet():
    spec = reduction.make_spec(SWAP3, [2], 0)
    reduced, report = reduction.reduce_poset(3, SWAP3, [2], spec)
    # surviving color set is {s3} alone, acted on trivially
    small, _ = groups.restrict_action(SWAP3, [2])
    expected = build_subposet(3, small, [0])
    assert len(reduced.elements) == len(expected.elements)
    assert sorted(reduced.cover_edges()) == sorted(expected.cover_edges())
    assert report.passed


@pytest.mark.parametrize(
    "n,action,T,orbit_min",
    [pytest.param(*c[1:5], id=c[0]) for c in acceptance._closure_configs()],
)
def test_image_covers_match_transitive_reduction(n, action, T, orbit_min):
    spec = reduction.make_spec(action, T, orbit_min)
    poset, reduced, rep = reduction.reduce_and_verify(n, action, T, spec)
    index = {el: i for i, el in enumerate(poset.elements)}
    image = sorted({index[reduction.closure_f(el, spec, action)] for el in poset.elements})
    # oracle: x < y in the image with no image element strictly between
    expected = {
        (x, y)
        for x in image
        for y in image
        if x != y and poset.leq(x, y)
        and not any(z not in (x, y) and poset.leq(x, z) and poset.leq(z, y) for z in image)
    }
    assert set(induced_covers(poset, image)) == expected
    assert rep.isomorphic and rep.image_size == len(image)
    assert len(expected) == len(list(reduced.cover_edges()))
