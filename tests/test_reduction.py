import pytest

from sdowling import acceptance, groups, reduction, topology
from sdowling.dowling import adjoin_top, build_dowling, build_subposet
from sdowling.elements import make_element, top_element
from sdowling.errors import InvalidSpec
from sdowling.poset import RankedPoset, subposet_rows
from subposet_oracle import induced_covers

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


@pytest.mark.parametrize("n", [2, 3])
def test_edge_analysis_flags_every_edge_against_the_other_orbit(monkeypatch, n):
    """Remove the orbit {0, 1} but check the edges against the orbit {2, 3}:
    every edge colored from {0, 1} maps to a fixed pair or a merge, not to a
    coloring, and every edge colored from {2, 3} is kept as a coloring.  The
    image keeps the colors 2 and 3, so it is not relabeled for the
    comparison with the reduced poset."""
    two_orbits = groups.action_from_permutations(Z2, [[0, 1, 2, 3], [1, 0, 3, 2]])
    removed = reduction.make_spec(two_orbits, [], 0)
    closure_f = reduction.closure_f
    monkeypatch.setattr(reduction, "closure_f", lambda x, _, action: closure_f(x, removed, action))
    monkeypatch.setattr(reduction, "_relabel_zero", lambda element, *_: element)
    poset, _, report = reduction.reduce_and_verify(n, two_orbits, [],
                                                   reduction.make_spec(two_orbits, [], 2))
    colors = [move.color for moves in poset.moves for move in moves]
    flagged = [sum("of kind colored" in v for v in report.violations),
               sum(v.startswith("orbit-colored") for v in report.violations)]
    assert flagged == [sum(c in (0, 1) for c in colors), sum(c in (2, 3) for c in colors)]
    assert min(flagged) > 0


def _verify_with_images(monkeypatch, images):
    """reduce_and_verify on n=2, Z2 swap, T = [] with the closure map
    replaced by `images`, from element index to element index (None for the
    top, which the subposet lacks); indices it omits are fixed.  The
    subposet is a tree: atoms 1 and 2 below 3, 4 and 5, 6."""
    elements = build_subposet(2, SWAP2, []).elements
    table = {elements[i]: top_element(2) if j is None else elements[j]
             for i, j in images.items()}
    monkeypatch.setattr(reduction, "closure_f", lambda x, spec, action: table.get(x, x))
    _, _, report = reduction.reduce_and_verify(2, SWAP2, [], reduction.make_spec(SWAP2, [], 0))
    assert report.passed is False
    return report.violations


@pytest.mark.parametrize("images,message", [
    ({4: None}, "f(element 4) left the subposet"),
    ({i: 1 for i in range(7)}, "f(2) = 1 is not <= 2"),
    ({1: 2, 2: 1}, "cover (1,3) maps to incomparable (2,3)"),
    ({3: 1, 1: 0}, "f is not idempotent at 3: f^2 != f"),
    ({i: 0 for i in range(7)}, "f^-1(bottom) = [0, 1, 2, 3, 4, 5, 6], expected only the bottom"),
])
def test_wrong_closure_maps_are_reported(monkeypatch, images, message):
    assert message in _verify_with_images(monkeypatch, images)


def test_image_elements_with_a_removed_color_are_reported(monkeypatch):
    """The identity keeps the removed orbit's colors, which no element of
    the reduced poset has: each such element is a violation, not a crash."""
    monkeypatch.setattr(reduction, "closure_f", lambda x, spec, action: x)
    poset, _, report = reduction.reduce_and_verify(2, SWAP3, [], reduction.make_spec(SWAP3, [], 0))
    assert report.passed is False
    stray = [i for i, el in enumerate(poset.elements) if any(s in (0, 1) for _, s in el.zero)]
    assert stray
    assert [v for v in report.violations if "no counterpart" in v] == [
        f"image element {i} has no counterpart in the reduced poset" for i in stray]


def _without_first_cover(poset, image):
    """The induced rows on the image with the first cover of the first
    nonempty row left out."""
    rows = subposet_rows(poset, image)
    first = next(k for k, ys in enumerate(rows) if ys)
    rows[first] = rows[first][1:]
    return rows


def test_image_covers_that_differ_from_the_reduced_poset_are_reported(monkeypatch):
    monkeypatch.setattr(reduction, "subposet_rows", _without_first_cover)
    _, _, report = reduction.reduce_and_verify(2, SWAP2, [], reduction.make_spec(SWAP2, [], 0))
    assert report.passed is False
    assert report.violations == [
        "induced covers on the image differ from the reduced poset",
        "image is not isomorphic to the independently built reduced poset",
    ]


def _closure_failures_with(monkeypatch, before, after):
    """Criterion 8's check of its first configuration (n=2, Z2 swap, T = [],
    dimension 0) when the reduction returns `before` and `after` and
    passes its closure check."""
    key, *config = next(acceptance._closure_configs())
    monkeypatch.setattr(reduction, "reduce_and_verify",
                        lambda *_: (before, after, reduction.ClosureReport(passed=True)))
    return key, acceptance._closure_failures(key, *config)


def test_closure_failures_reject_a_reduction_that_changes_homology(monkeypatch):
    # the Z4 counterexample has homology in two dimensions
    z4 = build_subposet(2, groups.action_from_permutations(Z4, [[0, 1], [1, 0]] * 2), [])
    key, failures = _closure_failures_with(monkeypatch, build_subposet(2, SWAP2, []), z4)
    assert failures == [f"{key}: betti [1, 0] -> [1, 2] not both a wedge of 1 spheres "
                        "in dimension 0"]


@pytest.mark.parametrize("empty_first", [True, False])
def test_closure_failures_tell_an_empty_proper_part_from_a_contractible_one(monkeypatch,
                                                                           empty_first):
    """The empty complex is one (-1)-sphere, not a contractible space."""
    empty = adjoin_top(build_dowling(1, groups.trivial_action(groups.trivial_group(), 0)))
    chain = RankedPoset([0, 1, 2], [(0, 1), (1, 2)], [0, 1, 2], bottom=0)
    pair = (empty, chain) if empty_first else (chain, empty)
    key, failures = _closure_failures_with(monkeypatch, *pair)
    betti = "[] -> [0, 0]" if empty_first else "[0, 0] -> []"
    assert failures == [f"{key}: betti {betti} not both a wedge of 0 spheres in dimension 0"]


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
    _, reduced, report = reduction.reduce_and_verify(3, SWAP3, [2], spec)
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
    walked = {(x, y) for x, ys in zip(image, subposet_rows(poset, image)) for y in ys}
    assert walked == expected
    assert rep.isomorphic and rep.image_size == len(image)
    assert len(expected) == len(list(reduced.cover_edges()))
