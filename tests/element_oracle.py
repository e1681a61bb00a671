"""The independent canonicalizer of elements, the element-level closure
operator, and posets built from edge lists: the oracles for the build's
codes, for `reduction.closure_f` on codes, and small hand-made posets."""

import functools
import itertools

from sdowling.elements import DowlingElement
from sdowling.poset import RankedPoset


def normalize_block(group, support, colors):
    """Sort a block by position and translate its coloring so min maps to e."""
    pairs = sorted(zip(support, colors))
    support = tuple(i for i, _ in pairs)
    colors = tuple(c for _, c in pairs)
    g0inv = group.inv(colors[0])
    colors = tuple(group.mul(c, g0inv) for c in colors)
    return support, colors


def make_element(group, n, blocks, zero):
    """Build a canonical element from possibly unnormalized data."""
    norm = sorted(normalize_block(group, s, c) for s, c in blocks)
    return DowlingElement(n=n, blocks=tuple(norm), zero=tuple(sorted(zero)))


@functools.cache
def bottom_element(n):
    """All singleton blocks colored by the identity, empty zero block; one
    object per n, as elements are frozen."""
    return DowlingElement(
        n=n, blocks=tuple(((i,), (0,)) for i in range(1, n + 1)), zero=()
    )


def closure_f(x, spec, action):
    """Re-attach the orbit-colored part of the zero block as a group-colored
    block; identity when no zero position uses the orbit."""
    if x.is_top:
        return x
    group = action.group
    orbit = set(spec.orbit)
    in_orbit = [(p, s) for p, s in x.zero if s in orbit]
    if not in_orbit:
        return x
    # phi(g) = g . base is a bijection G -> orbit; pull colors back through it
    phi_inv = {action.apply(g, spec.base): g for g in range(group.order)}
    support = tuple(p for p, _ in in_orbit)
    colors = tuple(phi_inv[s] for _, s in in_orbit)
    rest = tuple((p, s) for p, s in x.zero if s not in orbit)
    return make_element(group, x.n, x.blocks + ((support, colors),), rest)


def poset_from_edges(elements, cover_edges, ranks, bottom, top=None, moves=None):
    """The poset with the given elements, their covers as (x, y) index pairs
    in any order and, parallel to them, their moves (None where absent):
    the edges are sorted into Hasse rows, and `elements` is set, as there
    are no codes to decode."""
    elements = list(elements)
    rows = [{} for _ in elements]
    for (x, y), move in zip(cover_edges, moves or itertools.repeat(None)):
        rows[x][y] = move
    up = [tuple(sorted(row)) for row in rows]
    poset = RankedPoset(None, up, [tuple(map(row.__getitem__, ys)) for row, ys in zip(rows, up)],
                        list(ranks), bottom, top)
    poset.elements = elements
    return poset
