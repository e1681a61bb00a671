import dataclasses
import itertools

import pytest

import element_oracle
from element_oracle import decode, elements_of, make_element, poset_from_edges
from sdowling import acceptance, catalog, dowling, groups, reduction, topology
from sdowling.dowling import adjoin_top, build_dowling, build_subposet
from sdowling.errors import InvalidSpec, NotACover
from sdowling.poset import subposet_rows
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


def _code(n, action, element):
    """The code the build gives the element."""
    full = build_dowling(n, action)
    return full.elements[elements_of(full).index(element)]


def test_closure_f_reattaches_orbit_colors():
    spec = reduction.make_spec(SWAP2, [], 0)
    x = _code(2, SWAP2, make_element(Z2, 2, [], [(1, 0), (2, 1)]))
    fx = reduction.closure_f(x, spec, SWAP2, 2)
    assert fx == _code(2, SWAP2, make_element(Z2, 2, [((1, 2), (0, 1))], []))
    # elements not using the orbit are fixed
    y = _code(2, SWAP2, make_element(Z2, 2, [((1, 2), (0, 1))], []))
    assert reduction.closure_f(y, spec, SWAP2, 2) == y


def test_closure_f_is_base_point_independent():
    x = _code(3, SWAP2, make_element(Z2, 3, [((3,), (0,))], [(1, 0), (2, 1)]))
    out = {
        reduction.closure_f(x, reduction.make_spec(SWAP2, [], 0, base=b), SWAP2, 3)
        for b in (0, 1)
    }
    assert len(out) == 1


def _free_orbit_configs():
    """(key, n, action, T, spec) for every point of the n <= 4 grid, every
    invariant T and every free orbit outside T, with every base point."""
    for key, n, action in catalog.dowling_grid(ns=(1, 2, 3, 4)):
        colors = range(action.set_size)
        for T in itertools.chain.from_iterable(
                itertools.combinations(colors, k) for k in range(action.set_size + 1)):
            if not groups.is_invariant(action, T):
                continue
            for orbit in groups.orbits(action):
                if len(orbit) == action.group.order and not set(orbit) & set(T):
                    for base in orbit:
                        yield (f"{key},T={list(T)},base={base}", n, action, list(T),
                               reduction.make_spec(action, T, orbit[0], base))


def _closure_mismatches(closure):
    """The keys and element indices, over `_free_orbit_configs`, where
    `closure` on an element's code is not the code the build gives the
    element-level closure of the element; and the number compared.  Codes
    are compared, not decoded elements: decoding reads only which positions
    share a block, not the minimum a block is written at."""
    mismatches, compared = [], 0
    for key, n, action, T, spec in _free_orbit_configs():
        poset = build_subposet(n, action, T)
        code_of = dict(zip(elements_of(poset), poset.elements))
        for i, (x, code) in enumerate(code_of.items()):
            if closure(code, spec, action, n) != code_of.get(element_oracle.closure_f(x, spec, action)):
                mismatches.append((key, i))
        compared += len(poset)
    return mismatches, compared


def test_closure_on_codes_matches_the_element_closure():
    assert _closure_mismatches(reduction.closure_f) == ([], 6208)


def _untranslated(code, spec, action, n):
    """closure_f without the translation by phi^-1(s_p0)^-1: every inverse
    is read as the identity."""
    group = dataclasses.replace(action.group, inverse=(0,) * action.group.order)
    return reduction.closure_f(code, spec, dataclasses.replace(action, group=group), n)


def _block_at_greatest(code, spec, action, n):
    """closure_f with the new block kept at its greatest position, not its
    least."""
    fx = reduction.closure_f(code, spec, action, n)
    moved = [p for p, (a, b) in enumerate(zip(code, fx)) if a != b]
    shift = (moved[-1] - moved[0]) * action.group.order if moved else 0
    return type(fx)(v + shift if p in moved else v for p, v in enumerate(fx))


@pytest.mark.parametrize("mutant", [_untranslated, _block_at_greatest])
def test_closure_oracle_rejects_a_wrong_code_closure(mutant):
    mismatches, _ = _closure_mismatches(mutant)
    assert mismatches


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


def test_edge_analysis_refuses_a_cover_that_records_no_move(monkeypatch):
    """With the rank-1 elements filtered out, the bottom of the subposet is
    covered by rank-2 elements, covers that record no move: the edge
    analysis reads the bottom's row through the row accessor, which raises."""
    monkeypatch.setattr(dowling, "_passes_filter",
                        lambda code, *_: decode(code, 2).rank != 1)
    with pytest.raises(NotACover, match="is not a single-move cover edge") as raised:
        reduction.reduce_and_verify(2, SWAP2, [], reduction.make_spec(SWAP2, [], 0))
    assert raised.traceback[-1].name == "recorded_row"


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
    monkeypatch.setattr(reduction, "closure_f",
                        lambda code, _, action, n: closure_f(code, removed, action, n))
    monkeypatch.setattr(reduction, "_relabel_zero", lambda *_: bytes(range(256)))
    poset, _, report = reduction.reduce_and_verify(n, two_orbits, [],
                                                   reduction.make_spec(two_orbits, [], 2))
    colors = [move.color for moves in poset.moves for move in moves]
    flagged = [sum("of kind colored" in v for v in report.violations),
               sum(v.startswith("orbit-colored") for v in report.violations)]
    assert flagged == [sum(c in (0, 1) for c in colors), sum(c in (2, 3) for c in colors)]
    assert min(flagged) > 0


def _verify_with_images(monkeypatch, images):
    """reduce_and_verify on n=2, Z2 swap, T = [] with the closure map
    replaced by `images`, from element index to element index (None for a
    code that no element has); indices it omits are fixed.  The subposet
    is a tree: atoms 1 and 2 below 3, 4 and 5, 6."""
    codes = build_subposet(2, SWAP2, []).codes.codes
    table = {codes[i]: bytes([255, 255]) if j is None else codes[j] for i, j in images.items()}
    monkeypatch.setattr(reduction, "closure_f", lambda code, spec, action, n: table.get(code, code))
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
    monkeypatch.setattr(reduction, "closure_f", lambda code, spec, action, n: code)
    poset, _, report = reduction.reduce_and_verify(2, SWAP3, [], reduction.make_spec(SWAP3, [], 0))
    assert report.passed is False
    stray = [i for i, el in enumerate(elements_of(poset)) if any(s in (0, 1) for _, s in el.zero)]
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
    chain = poset_from_edges([0, 1, 2], [(0, 1), (1, 2)], [0, 1, 2], bottom=0)
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
    codes = poset.codes.codes
    index = {code: i for i, code in enumerate(codes)}
    image = sorted({index[reduction.closure_f(code, spec, action, n)] for code in codes})
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


@pytest.mark.parametrize("m", [255, 256])
def test_closure_across_the_byte_boundary(m):
    """Z2 swapping colors 0 and 1 of m at n=1, with T the m - 2 fixed
    colors: the full codes are tuples (width m + 2 > 256), the reduced ones
    bytes (width m), and the image, the whole subposet as n=1 leaves no
    element with an orbit color, still matches the reduced poset."""
    swap = groups.action_from_permutations(Z2, [list(range(m)), [1, 0, *range(2, m)]])
    T = list(range(2, m))
    poset, reduced, report = reduction.reduce_and_verify(1, swap, T, reduction.make_spec(swap, T, 0))
    assert (type(poset.codes.codes[0]), type(reduced.codes.codes[0])) == (tuple, bytes)
    assert report.passed, report.violations[:5]
    assert report.isomorphic and report.image_size == len(reduced) == len(poset)
