import gc
import inspect
import random
import warnings
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from element_oracle import poset_from_edges
from sdowling import catalog, groups, topology
from sdowling.dowling import adjoin_top, build_dowling, build_subposet
from sdowling.errors import SizeLimitExceeded
from sdowling.poset import bits, moebius
from sdowling.topology import (
    HomologyProfile,
    SimplicialComplex,
    certify_wedge,
    coreduction,
    homology,
    order_complex,
    smith_invariants,
)

Z2 = groups.cyclic_group(2)
Z4 = groups.cyclic_group(4)
SWAP4 = groups.action_from_permutations(Z4, [[0, 1], [1, 0], [0, 1], [1, 0]])

# minimal 6-vertex triangulation of RP^2
RP2_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]


def _rp2():
    tris = RP2_TRIANGLES
    verts = sorted({(v,) for t in tris for v in t})
    edges = sorted({(t[i], t[j]) for t in tris for i in range(3) for j in range(i + 1, 3)})
    return _from_faces(list(range(6)), [verts, edges, list(tris)])


def _from_faces(vertices, faces):
    """The complex whose faces[d] lists its d-faces as sorted (d+1)-tuples,
    in lexicographic order; every facet of a listed face must be listed."""
    facets = [[[0] * len(faces[0])]] if faces else []
    for d in range(1, len(faces)):
        index = {f: j for j, f in enumerate(faces[d - 1])}
        facets.append([[index[f[:i] + f[i + 1 :]] for f in faces[d]] for i in range(d + 1)])
    return SimplicialComplex(vertices=vertices, last=[[f[-1] for f in fs] for fs in faces],
                             facets=facets)


def _face_tuples(cx):
    """The faces of each dimension as vertex tuples, in id order, read off
    the last vertices and the parent column (the facet without the last
    vertex)."""
    out, prev = [], [()]
    for last, cols in zip(cx.last, cx.facets):
        prev = [prev[p] + (w,) for p, w in zip(cols[-1], last)]
        out.append(prev)
    return out


def test_order_complex_of_a_chain_is_a_simplex():
    p = poset_from_edges(list("abcd"), [(0, 1), (1, 2), (2, 3)], [0, 1, 2, 3],
                         bottom=0, top=3)
    cx = order_complex(p)
    assert cx.face_counts() == [2, 1]
    assert sum((-1) ** d * count for d, count in enumerate(cx.face_counts())) == 1


def test_order_complex_empty_is_silent():
    p = poset_from_edges(["a", "b"], [(0, 1)], [0, 1], bottom=0, top=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cx = order_complex(p)
    assert cx.vertices == [] and cx.last == [] and cx.facets == []


def test_order_complex_face_cap():
    action = groups.trivial_action(Z2, 2)
    poset = build_dowling(3, action)
    with pytest.raises(SizeLimitExceeded):
        order_complex(poset, max_faces=5)


def test_order_complex_face_cap_boundary(monkeypatch):
    """The cap is the largest face count that passes, and a level that
    would cross it is refused before it is built: the positions that level
    2 needs are never listed when level 2 crosses the cap."""
    poset = build_dowling(3, groups.trivial_action(Z2, 2))
    counts = order_complex(poset).face_counts()
    assert order_complex(poset, max_faces=sum(counts)).face_counts() == counts
    with pytest.raises(SizeLimitExceeded, match=f"face count exceeded the cap of {sum(counts) - 1}$"):
        order_complex(poset, max_faces=sum(counts) - 1)
    listed = []
    original = topology._positions

    def spy(up):
        listed.append(len(up))
        return original(up)

    monkeypatch.setattr(topology, "_positions", spy)
    with pytest.raises(SizeLimitExceeded):
        order_complex(poset, max_faces=sum(counts[:3]) - 1)
    assert listed == [counts[0]]  # the positions among all vertices, for level 1 only


def test_smith_invariants_known_matrices():
    # diag(2, 6) stays put
    assert smith_invariants({(0, 0): 2, (1, 1): 6}) == [2, 6]
    # a unimodular 2x2
    assert smith_invariants({(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}) == [1, 1]
    # [[2,0],[0,3]] has SNF diag(1,6)
    assert smith_invariants({(0, 0): 2, (1, 1): 3}) == [1, 6]
    assert smith_invariants({}) == []
    # no unit entry anywhere
    assert smith_invariants({(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}) == [2, 4]
    assert smith_invariants({(0, 0): -4, (1, 1): 6, (2, 2): 10}) == [2, 2, 60]


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * v * _det([row[:j] + row[j + 1 :] for row in m[1:]])
               for j, v in enumerate(m[0]) if v)


def _invariant_factors_by_minors(m):
    """d_k = D_k / D_(k-1), where D_k is the gcd of the k-by-k minors."""
    out, prev = [], 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        dk = 0
        for rs in combinations(range(len(m)), k):
            for cs in combinations(range(len(m[0])), k):
                dk = gcd(dk, _det([[m[i][j] for j in cs] for i in rs]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def _rank(m, ncols, p=None):
    """Rank over Q, or over GF(p) when p is given."""
    rows = [[Fraction(v) if p is None else v % p for v in row] for row in m]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c] if p is None else pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            if p is not None:
                rows[i] = [a % p for a in rows[i]]
        rank += 1
    return rank


# one pool with units, one without, so both pivot choices are exercised
VALUE_POOLS = ([0, 0, 1, -1, 2, -3, 5], [0, 0, 2, -2, 3, 4, 6])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_smith_invariants_match_determinantal_divisors(data):
    pool = data.draw(st.sampled_from(VALUE_POOLS))
    nr, nc = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=nc, max_size=nc),
                           min_size=nr, max_size=nr))
    entries = {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row)}
    assert smith_invariants(entries) == _invariant_factors_by_minors(m)


@pytest.mark.parametrize("seed", range(40))
def test_smith_invariants_ranks_over_q_and_mod_p(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 25), rng.randint(1, 25)
    values = [v for v in range(-12, 13) if v] if seed % 2 else [-6, -4, -2, 2, 3, 4, 6, 9]
    m = [[rng.choice(values) if rng.random() < 0.25 else 0 for _ in range(nc)]
         for _ in range(nr)]
    entries = {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row) if v}
    inv = smith_invariants(entries)
    assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
    assert len(inv) == _rank(m, nc)
    for p in (2, 3, 5, 7):
        assert sum(1 for f in inv if f % p) == _rank(m, nc, p)


def test_homology_circle_and_sphere():
    # triangle boundary = S^1
    circle = _from_faces([0, 1, 2], [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]])
    prof = homology(circle)
    assert prof.reduced_betti == [0, 1]
    assert prof.torsion == [[], []]
    # boundary of a tetrahedron = S^2
    verts = [(i,) for i in range(4)]
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    tris = [(i, j, k) for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)]
    sphere = _from_faces(list(range(4)), [verts, edges, tris])
    prof = homology(sphere)
    assert prof.reduced_betti == [0, 0, 1]


def test_homology_projective_plane_torsion():
    cx = _rp2()
    assert sum((-1) ** d * count for d, count in enumerate(cx.face_counts())) == 1
    prof = homology(cx)
    assert prof.reduced_betti == [0, 0, 0]
    assert prof.torsion[1] == [2]


def test_counterexample_homology_profiles():
    swap2 = groups.action_from_permutations(Z2, [[0, 1], [1, 0]])
    h2 = homology(order_complex(build_subposet(2, swap2, [])))
    assert h2.reduced_betti == [1, 0]
    h4 = homology(order_complex(build_subposet(2, SWAP4, [])))
    assert h4.reduced_betti == [1, 2]


def test_certify_wedge_verdicts():
    action = groups.trivial_action(Z2, 2)
    poset = build_dowling(2, action)
    good = certify_wedge(poset, 1, 3)
    assert good.passed
    assert good.to_json()["verdict"] == "homology-consistent"
    bad = certify_wedge(poset, 1, 4)
    assert not bad.passed
    assert bad.to_json()["verdict"] == "mismatch"
    cert = certify_wedge(build_subposet(2, SWAP4, []), 0, 1)
    assert not cert.passed
    # the right sphere count in the wrong dimension
    assert not certify_wedge(poset, 0, 3).passed
    # a chain's proper part is contractible: no spheres in any dimension
    chain = poset_from_edges([0, 1, 2], [(0, 1), (1, 2)], [0, 1, 2], bottom=0)
    for dim, count, passed in ((5, 0, True), (1, 0, True), (5, 1, False), (0, 1, False)):
        assert certify_wedge(chain, dim, count).passed is passed, (dim, count)


def test_certify_wedge_empty_proper_part():
    # the empty complex is one sphere of dimension -1
    trivial = groups.trivial_action(groups.trivial_group(), 0)
    phat = adjoin_top(build_dowling(1, trivial))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify_wedge(phat, -1, 1)
    assert cert.profile.empty
    assert cert.passed
    assert cert.to_json()["note"] == "empty complex"
    assert not certify_wedge(phat, 0, 0).passed


def test_is_wedge_rule():
    two_circles = HomologyProfile([0, 2], [[], []], [4, 5])
    assert two_circles.is_wedge(1, 2)
    for dim, count in ((1, 1), (0, 2), (2, 2), (-1, 1)):
        assert not two_circles.is_wedge(dim, count), (dim, count)
    # torsion is never a wedge of spheres, not even of none
    rp2 = homology(_rp2())
    assert rp2.reduced_betti == [0, 0, 0]
    assert not any(rp2.is_wedge(dim, 0) for dim in range(-1, 5))
    # the empty complex is one (-1)-sphere and nothing else
    empty = HomologyProfile([], [], [])
    assert empty.is_wedge(-1, 1)
    for dim, count in ((-1, 0), (-1, 2), (0, 0), (0, 1), (3, 0)):
        assert not empty.is_wedge(dim, count), (dim, count)
    # past the top dimension only the wedge of no spheres fits
    segment = HomologyProfile([0, 0], [[], []], [2, 1])
    assert segment.is_wedge(1, 0) and segment.is_wedge(2, 0) and segment.is_wedge(7, 0)
    assert not segment.is_wedge(2, 1) and not segment.is_wedge(7, 3)


def test_certify_wedge_at_n4_z3_three_colors():
    # 45,291 faces: about 1 s when each pivot search is cheap, minutes when it
    # rescans the whole matrix
    poset = build_dowling(4, groups.trivial_action(groups.cyclic_group(3), 3))
    cert = certify_wedge(poset, 3, 880)
    assert cert.passed
    assert cert.profile.reduced_betti == [0, 0, 0, 880]
    assert not any(cert.profile.torsion)
    assert cert.profile.face_counts == [741, 8505, 21465, 14580]


@pytest.mark.parametrize("seed", range(3))
def test_smith_invariants_do_not_depend_on_pivot_order(seed):
    """Unit pivots are swept by row length and row order, so relabel the
    rows and columns of boundary matrices and shuffle their entries."""
    rng = random.Random(seed)
    complexes = [
        order_complex(build_dowling(3, groups.trivial_action(Z2, 2))),
        order_complex(build_subposet(2, SWAP4, [])),
        _rp2(),
    ]
    for cx in complexes:
        counts = cx.face_counts()
        for d in range(1, len(counts)):
            entries = _boundary_entries(cx.facets[d])
            row_perm = rng.sample(range(counts[d - 1]), counts[d - 1])
            col_perm = rng.sample(range(counts[d]), counts[d])
            items = list(entries.items())
            rng.shuffle(items)
            relabelled = {(row_perm[r], col_perm[c]): v for (r, c), v in items}
            assert smith_invariants(relabelled) == smith_invariants(entries)


def _grid_posets(n):
    """The full posets of the battery's grid at n, and the subposets of
    every invariant T it checks plus T = [], which for a non-trivial action
    gives the non-shellable counterexamples."""
    for key, _, action in catalog.dowling_grid(ns=(n,)):
        yield key, build_dowling(n, action)
        for T in sorted({(), *catalog.invariant_subsets(action)}):
            yield f"{key},T={list(T)}", build_subposet(n, action, list(T))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hall_and_euler_poincare_on_the_grid(n):
    """Reduced Euler characteristic of the proper part = mu(0, 1) of the
    bounded poset (Hall) = alternating sum of the reduced Betti numbers."""
    spread = 0
    for key, poset in _grid_posets(n):
        cx = order_complex(poset)
        chi = -1 + sum((-1) ** d * count for d, count in enumerate(cx.face_counts()))
        phat = adjoin_top(poset)
        assert chi == moebius(phat, phat.bottom, phat.top), key
        prof = homology(cx)
        # the empty complex has only reduced H_(-1) = Z
        betti = [(-1) ** d * b for d, b in enumerate(prof.reduced_betti)]
        assert (-1 if prof.empty else sum(betti)) == chi, key
        spread += sum(1 for b in prof.reduced_betti if b) > 1
    # from n = 2 on, the swap actions with T = [] have homology in two degrees
    assert n == 1 or spread


# The Smith normal form of the whole complex, which the Morse complex
# replaced, kept as the oracle.


def _boundary_entries(cols):
    """Sparse boundary matrix taking dimension-d faces to dimension d-1,
    from the d+1 facet columns of dimension d: column i puts (-1)^i at
    (cols[i][j], j)."""
    signs = [(-1) ** i for i in range(len(cols))]
    return {(k, j): s for j, ks in enumerate(zip(*cols)) for k, s in zip(ks, signs)}


def _smith_homology(complex_):
    """Reduced integer homology from Smith normal forms of boundary matrices.

    factors[d] lists the invariant factors of the boundary map from dimension
    d to d-1, in divisibility order; factors[0] = [1] is the augmentation,
    which maps every vertex to the single (-1)-simplex.
    """
    counts = complex_.face_counts()
    factors = [[1]] + [smith_invariants(_boundary_entries(cols))
                       for cols in complex_.facets[1:]] + [[]]
    return HomologyProfile(
        reduced_betti=[k - len(factors[d]) - len(factors[d + 1]) for d, k in enumerate(counts)],
        torsion=[[v for v in factors[d + 1] if v > 1] for d in range(len(counts))],
        face_counts=counts,
    )


def _swap_counterexamples_n4():
    """n=4 with the swap actions of Z4 and Z2xZ2 on two colors and T = []:
    Betti [0, 0, 15, 240], homology in two degrees."""
    for g in ("Z4", "Z2xZ2"):
        swap = dict(catalog.actions_for(g, 2))["swap"]
        yield f"n=4,{g}:2:swap,T=[]", build_subposet(4, swap, [])


def test_matching_first_homology_matches_the_smith_oracle():
    """On the n <= 3 grid with its invariant subposets, on the three
    homology-n4 benchmark points and on the two n=4 swap counterexamples,
    the Morse complex profile is the Smith profile of the whole complex."""
    for key, poset in [*_oracle_posets(), *_swap_counterexamples_n4()]:
        cx = order_complex(poset)
        assert homology(cx) == _smith_homology(cx), key
    assert homology(_rp2()) == _smith_homology(_rp2())


# The tuple order complex and the dict-based coreduction that the int cells
# replaced, kept as the oracle: faces are sorted vertex tuples, and each
# facet is found by slicing a tuple and looking it up in a dict.


def _tuple_order_complex(poset):
    skip = {poset.bottom, poset.top}
    vertices = [i for i in range(len(poset.elements)) if i not in skip]
    above = poset.above
    kept_mask = 0
    for v in vertices:
        kept_mask |= 1 << v
    faces = []
    stack = [((v,), (above[v] & kept_mask) & ~(1 << v)) for v in reversed(vertices)]
    while stack:
        chain, mask = stack.pop()
        if len(chain) > len(faces):
            faces.append([])
        faces[len(chain) - 1].append(chain)
        for w in bits(mask):
            stack.append((chain + (w,), (mask & above[w]) & ~(1 << w)))
    for fs in faces:
        fs.sort()
    return faces


def _dict_coreduction(faces):
    start = [1]
    for fs in faces:
        start.append(start[-1] + len(fs))
    total = start[-1]
    count = [0] + [d + 1 for d, fs in enumerate(faces) for _ in fs]
    rest = [0] * total
    cofaces = [list(range(1, start[1]))] + [[] for _ in range(1, total)]
    for d in range(1, len(faces)):
        lower = {f: i for i, f in enumerate(faces[d - 1], start[d - 1])}
        for j, f in enumerate(faces[d], start[d]):
            for i in range(d + 1):
                k = lower[f[:i] + f[i + 1 :]]
                cofaces[k].append(j)
                rest[j] += k
    mate = [None] * total
    lowers = []
    queue = deque()

    def remove(c):
        count[c] = -1
        for b in cofaces[c]:
            k = count[b]
            if k > 0:
                count[b] = k - 1
                rest[b] -= c
                if k == 2:
                    queue.append(b)

    def pair(f, c):
        mate[f], mate[c] = c, f
        lowers.append(f)
        remove(c)
        remove(f)

    pair(0, 1)
    low = 1
    while True:
        while queue:
            c = queue.popleft()
            if count[c] == 1:
                pair(rest[c], c)
        while low < total and count[low] < 0:
            low += 1
        if low == total:
            return mate, lowers
        remove(low)


def _oracle_problems(poset):
    """Where the int-cell complex of `poset` and its coreduction differ from
    the tuple oracle: the faces of each dimension, each facet column, then
    the matching and its pair order, which are compared only when the
    columns agree."""
    faces = _tuple_order_complex(poset)
    try:
        cx = order_complex(poset)
    except IndexError as exc:  # a column that points past the end of its level
        return [f"order_complex raised {exc!r}"]
    if _face_tuples(cx) != faces:
        return ["faces differ"]
    problems = []
    for d in range(1, len(faces)):
        index = {f: j for j, f in enumerate(faces[d - 1])}
        for i, col in enumerate(cx.facets[d]):
            if list(col) != [index[f[:i] + f[i + 1 :]] for f in faces[d]]:
                problems.append(f"dimension {d}: column {i} differs")
    if faces and not problems and coreduction(cx) != _dict_coreduction(faces):
        problems.append("matching differs")
    return problems


def _oracle_posets():
    """The n <= 3 grid with its invariant subposets, and the three
    homology-n4 benchmark points."""
    posets = [kp for n in (1, 2, 3) for kp in _grid_posets(n)]
    swap2 = dict(catalog.actions_for("Z2", 2))["swap"]
    posets += [("n=4,Z2:1", build_dowling(4, groups.trivial_action(Z2, 1))),
               ("n=4,Z2:2", build_dowling(4, groups.trivial_action(Z2, 2))),
               ("n=4,Z2:2:swap,T=[]", build_subposet(4, swap2, []))]
    return posets


def test_int_cells_match_the_tuple_oracle():
    for key, poset in _oracle_posets():
        assert _oracle_problems(poset) == [], key


@pytest.mark.parametrize("slip", [1, -1])
def test_an_off_by_one_second_to_last_vertex_lookup_is_caught(monkeypatch, slip):
    original = topology._positions

    def slipped(up):
        return {w: i + slip for w, i in original(up).items()}

    monkeypatch.setattr(topology, "_positions", slipped)
    # dimension 1 reads the positions among all vertices, and the last
    # column of dimension 2 those in a vertex's up-set
    assert _oracle_problems(build_dowling(2, groups.trivial_action(Z2, 2))) == [
        "dimension 1: column 0 differs"]
    assert _oracle_problems(build_dowling(3, groups.trivial_action(Z2, 2))) != []


def _matching_problems(cx, mate):
    """What makes `mate` not an acyclic matching on the complex `cx` (cell
    ids: 0 the empty face, then the 0-faces, the 1-faces, ... in order),
    checked on vertex tuples, without the facet columns or the
    coreduction's removal order: pairs must be symmetric codimension-one
    (facet, face) pairs, and the Hasse diagram with every matched edge
    turned upward must have a topological order."""
    cells = [()] + [f for fs in _face_tuples(cx) for f in fs]
    if len(mate) != len(cells):
        return [f"{len(mate)} mates for {len(cells)} cells"]
    problems = []
    for c, m in enumerate(mate):
        if m is None:
            continue
        if mate[m] != c:
            problems.append(f"cell {c} pairs with {m}, which pairs with {mate[m]}")
        lo, hi = sorted((cells[c], cells[m]), key=len)
        if len(hi) != len(lo) + 1 or not set(lo) < set(hi):
            problems.append(f"pair {lo} {hi} is not a facet and a face")
    # modified Hasse diagram: facet -> face when matched, face -> facet otherwise
    index = {f: i for i, f in enumerate(cells)}
    succ = [[] for _ in cells]
    indeg = [0] * len(cells)
    for b, face in enumerate(cells):
        for i in range(len(face)):
            a = index[face[:i] + face[i + 1 :]]
            u, v = (a, b) if mate[a] == b else (b, a)
            succ[u].append(v)
            indeg[v] += 1
    ready = [c for c, k in enumerate(indeg) if k == 0]
    ordered = 0
    while ready:
        u = ready.pop()
        ordered += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if ordered < len(cells):
        problems.append(f"{len(cells) - ordered} cells lie on or behind a directed cycle")
    return problems


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coreduction_is_an_acyclic_matching_on_the_grid(n):
    for key, poset in _grid_posets(n):
        cx = order_complex(poset)
        if cx.last:
            assert _matching_problems(cx, coreduction(cx)[0]) == [], key


def test_coreduction_pauses_the_collector_and_restores_its_state(monkeypatch):
    cx = order_complex(build_dowling(3, groups.trivial_action(Z2, 2)))
    expected = coreduction(cx)
    assert gc.isenabled()
    states = []
    real_reduce = topology.reduce

    def recording_reduce(*args):
        states.append(gc.isenabled())
        return real_reduce(*args)

    monkeypatch.setattr(topology, "reduce", recording_reduce)
    assert coreduction(cx) == expected
    assert states and not any(states) and gc.isenabled()

    def failing_reduce(*args):
        raise RuntimeError("monkeypatched failure")

    monkeypatch.setattr(topology, "reduce", failing_reduce)
    with pytest.raises(RuntimeError):
        coreduction(cx)
    assert gc.isenabled()
    monkeypatch.setattr(topology, "reduce", real_reduce)
    gc.disable()
    try:
        assert coreduction(cx) == expected
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_matching_checker_rejects_a_non_face_pair(monkeypatch):
    def cross_paired(cx):
        # swap the lower cells of two edge-triangle pairs whose lower cell
        # is not an edge of the other triangle
        mate, lowers = coreduction(cx)
        cells = [()] + [f for fs in _face_tuples(cx) for f in fs]
        pairs = [(mate[c], c) for c, face in enumerate(cells)
                 if len(face) == 3 and mate[c] is not None and len(cells[mate[c]]) == 2]
        (f1, c1), (f2, c2) = next(
            (p, q) for p in pairs for q in pairs
            if not set(cells[q[0]]) < set(cells[p[1]]))
        mate[c1], mate[f2], mate[c2], mate[f1] = f2, c1, f1, c2
        return mate, lowers

    monkeypatch.setattr(topology, "coreduction", cross_paired)
    cx = order_complex(build_dowling(3, groups.trivial_action(Z2, 2)))
    problems = _matching_problems(cx, topology.coreduction(cx)[0])
    assert any("not a facet and a face" in p for p in problems), problems


def test_matching_checker_rejects_a_cycle():
    # the triangle boundary with each vertex paired to the next edge around
    # it is a closed gradient path
    cx = _from_faces([0, 1, 2], [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]])
    # ids: 0 empty, 1-3 vertices, 4 = (0,1), 5 = (0,2), 6 = (1,2)
    mate = [None, 4, 6, 5, 1, 3, 2]
    assert _matching_problems(cx, mate) == ["7 cells lie on or behind a directed cycle"]


def _smith_spy(monkeypatch):
    calls = []
    original = topology.smith_invariants

    def spy(entries):
        calls.append(dict(entries))
        return original(entries)

    monkeypatch.setattr(topology, "smith_invariants", spy)
    return calls


def test_homology_runs_smith_on_critical_cells_only(monkeypatch):
    """One Smith call per boundary map d = 1..top, each on a matrix whose
    rows and columns are critical cells."""
    calls = _smith_spy(monkeypatch)
    cases = [
        # criterion 7's counterexample: critical cells in two dimensions
        (order_complex(build_subposet(2, SWAP4, [])), [1, 2], [[], []]),
        # RP^2: Z/2 torsion in dimension 1, which no critical count shows
        (_rp2(), [0, 0, 0], [[], [2], []]),
        # critical cells [0, 0, 17, 242], so a non-zero Morse map d = 3
        (order_complex(next(_swap_counterexamples_n4())[1]), [0, 0, 15, 240], [[]] * 4),
    ]
    nonzero = 0
    for cx, betti, torsion in cases:
        calls.clear()
        prof = homology(cx)
        assert (prof.reduced_betti, prof.torsion) == (betti, torsion)
        assert len(calls) == len(cx.face_counts()) - 1
        mate = coreduction(cx)[0]
        cells = {i for entries in calls for ij in entries for i in ij}
        assert all(mate[c] is None for c in cells)
        nonzero += any(calls)
    assert nonzero == 2


def test_homology_gives_smith_empty_matrices_on_a_perfect_matching(monkeypatch):
    calls = _smith_spy(monkeypatch)
    prof = homology(order_complex(build_dowling(3, groups.trivial_action(Z2, 2))))
    assert calls == [{}, {}]
    assert prof.reduced_betti == [0, 0, 15] and prof.torsion == [[], [], []]


def test_a_flipped_sign_in_the_flow_is_caught(monkeypatch):
    """φ(f) = -[c:f]·Σ [c:t]·φ(t); without the minus the n=4 swap
    counterexample loses its 15 spheres in dimension 2 to Z/2 torsion."""
    source = inspect.getsource(topology.homology)
    assert source.count("-sf * v") == 1
    namespace = dict(vars(topology))
    exec(source.replace("-sf * v", "sf * v"), namespace)
    monkeypatch.setattr(topology, "homology", namespace["homology"])
    _, poset = next(_swap_counterexamples_n4())
    cx = order_complex(poset)
    assert homology(cx).reduced_betti == [0, 0, 15, 240]
    assert topology.homology(cx) != _smith_homology(cx)
