"""Construction of the generalized Dowling poset, its bounded extension, and
the invariant subposets cut out by the orbit-count filter."""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import groups
from .elements import (
    DowlingElement,
    bracket_notation,
    element_to_json,
    top_element,
)
from .errors import AlreadyBounded, NonInvariantT, SizeLimitExceeded
from .poset import RankedPoset, induced_covers

DEFAULT_MAX_ELEMENTS = 5_000_000


class EdgeType(NamedTuple):
    kind: str  # "merge" | "colored" | "top"
    min_a: int = -1
    min_b: int = -1
    alpha: int = 0  # the merge's twist; the identity 0 exactly when coherent
    color: int = -1  # color of the freshly colored block minimum


def _move_table(n, action, move):
    """A cover move as a table over code values (see `build_dowling`): a
    merge gives block min_b's positions block min_a's value, twisting their
    color c by alpha; a coloring puts them in the zero block with color
    c . color."""
    order = action.group.order
    table = list(range(n * order + action.set_size))
    b = (move.min_b - 1) * order
    for c in range(order):
        if move.kind == "colored":
            table[b + c] = n * order + action.apply(c, move.color)
        else:
            table[b + c] = (move.min_a - 1) * order + action.group.mul(c, move.alpha)
    return table


@functools.cache
def cover_moves(n, action):
    """Every move on {1..n} as (EdgeType, lookup of its table), one object
    per move: merges[a][b] by twist for block minima a < b counted from 0,
    and colorings[a] by color."""
    def entry(move):
        return move, _move_table(n, action, move).__getitem__

    merges = [[[entry(EdgeType("merge", a + 1, b + 1, g))
                for g in range(action.group.order)] for b in range(n)] for a in range(n)]
    colorings = [[entry(EdgeType("colored", min_b=a + 1, color=action.apply(0, s)))
                  for s in range(action.set_size)] for a in range(n)]
    return merges, colorings


def _decode(code, n, order, shared):
    """The canonical element of a code: positions are read in increasing
    order, so each block first shows up at its minimum and the blocks come
    out sorted by minimum.  Blocks and zero blocks equal to one in `shared`
    reuse its tuples."""
    blocks, zero = {}, ()
    for p, v in enumerate(code, 1):
        if v < n * order:
            a, c = divmod(v, order)
            b = blocks.get(a)
            blocks[a] = ((p,), (c,)) if b is None else (b[0] + (p,), b[1] + (c,))
        else:
            zero += ((p, v - n * order),)
    blocks = tuple([shared.setdefault(b, b) for b in blocks.values()])
    return DowlingElement(n, blocks, shared.setdefault(zero, zero))


@functools.lru_cache(maxsize=1)
def _decoded(n, action):
    """code -> element for the chains `apply_moves` returns, of one (n,
    action) at a time, so each distinct element is decoded once."""
    return {}


def apply_moves(n, moves, action):
    """The elements that entries of `cover_moves(n, action)` make one after
    another from the bottom element of {1..n}; each move must name block
    minima of the element it applies to."""
    order = action.group.order
    decoded = _decoded(n, action)
    code, out = tuple(range(0, n * order, order)), []
    for _, get in moves:
        code = tuple(map(get, code))
        y = decoded.get(code)
        if y is None:
            y = decoded[code] = _decode(code, n, order, {})
        out.append(y)
    return out


def build_dowling(n, action, max_elements=DEFAULT_MAX_ELEMENTS) -> RankedPoset:
    """Full poset on {1..n} for the given action, generated breadth-first
    from the bottom element and deduplicated by canonical element.

    The search runs on codes, tuples of n small ints: position p holds
    (min(block) - 1)*|G| + color in a block, and n*|G| + s in the zero block
    with color s.  A code is canonical as built, since the block minimum
    carries e and a merge keeps the smaller minimum, so equal elements are
    equal tuples with nothing sorted.  A code's covers are merges of its
    block minima a < b by twist, then colorings by minimum and color; each
    distinct code is decoded into a DowlingElement once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = action.group.order
    merges, colorings = cover_moves(n, action)
    codes = [tuple(p * order for p in range(n))]
    index = {codes[0]: 0}
    edges, moves = [], []
    for xi, x in enumerate(codes):  # codes grows behind the cursor: a FIFO queue
        minima = [p for p in range(n) if x[p] == p * order]
        covers = [m for i, a in enumerate(minima) for b in minima[i + 1 :] for m in merges[a][b]]
        for move, get in covers + [m for a in minima for m in colorings[a]]:
            y = tuple(map(get, x))
            yi = index.get(y)
            if yi is None:
                yi = len(codes)
                if yi >= max_elements:
                    raise SizeLimitExceeded(
                        f"element count exceeded the cap of {max_elements}"
                    )
                index[y] = yi
                codes.append(y)
            edges.append((xi, yi))
            moves.append(move)
    shared = {}
    elements = [_decode(x, n, order, shared) for x in codes]
    del codes, index, shared
    ranks = [el.rank for el in elements]
    return RankedPoset(elements, edges, ranks, bottom=0, top=None, moves=moves)


def adjoin_top(poset) -> RankedPoset:
    """Bounded extension: a new maximal element over the previous maxima."""
    if poset.top is not None:
        raise AlreadyBounded("poset already has an adjoined top")
    elements = list(poset.elements)
    ti = len(elements)
    elements.append(top_element(elements[0].n))
    edges = list(poset.cover_edges())
    moves = [move for row in poset.moves for move in row]
    maximal = [i for i in range(len(poset.elements)) if not poset.up[i]]
    edges += [(i, ti) for i in maximal]
    moves += [EdgeType("top")] * len(maximal)
    ranks = list(poset.rank) + [poset.max_rank + 1]
    return RankedPoset(elements, edges, ranks, bottom=poset.bottom, top=ti, moves=moves)


def passes_subposet_filter(element, free):
    """No orbit in `free`, the orbits of the colors outside T, may be used
    exactly once."""
    counts = {}
    for _, s in element.zero:
        counts[s] = counts.get(s, 0) + 1
    return all(sum(counts.get(s, 0) for s in orbit) != 1 for orbit in free)


def build_subposet(n, action, T, max_elements=DEFAULT_MAX_ELEMENTS) -> RankedPoset:
    """Induced subposet on the elements passing the orbit-count filter, with
    covering relations recomputed inside the filtered vertex set.  A cover
    keeps its ambient move; one that is not an ambient cover is no single
    move, and its move is None."""
    if not groups.is_invariant(action, T):
        raise NonInvariantT(f"T = {sorted(set(T))} is not closed under the action")
    ambient = build_dowling(n, action, max_elements=max_elements)
    tset = set(T)
    free = [orbit for orbit in groups.orbits(action) if orbit[0] not in tset]
    kept = [i for i, el in enumerate(ambient.elements) if passes_subposet_filter(el, free)]
    new_index = {old: new for new, old in enumerate(kept)}
    covers = induced_covers(ambient, kept)
    edges = [(new_index[x], new_index[y]) for x, y in covers]
    moves = [ambient.move(x, y) for x, y in covers]
    elements = [ambient.elements[i] for i in kept]
    ranks = [ambient.rank[i] for i in kept]
    bottom = new_index[0]
    return RankedPoset(elements, edges, ranks, bottom=bottom, top=None, moves=moves)


# ---------------------------------------------------------------------------
# Dumps.


def poset_to_json(poset, ascii_only=False):
    return {
        "size": len(poset.elements),
        "bottom": poset.bottom,
        "top": poset.top,
        "elements": [
            {
                "index": i,
                "rank": poset.rank[i],
                "label": bracket_notation(el, ascii_only=ascii_only),
                **element_to_json(el),
            }
            for i, el in enumerate(poset.elements)
        ],
        "covers": sorted(poset.cover_edges()),
    }


def poset_to_dot(poset, ascii_only=True):
    """DOT rendering of the Hasse diagram with rank-based layers."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for i, el in enumerate(poset.elements):
        text = bracket_notation(el, ascii_only=ascii_only).replace('"', '\\"')
        lines.append(f'  n{i} [label="{text}"];')
    by_rank = {}
    for i in range(len(poset.elements)):
        by_rank.setdefault(poset.rank[i], []).append(i)
    for r in sorted(by_rank):
        same = " ".join(f"n{i};" for i in by_rank[r])
        lines.append(f"  {{ rank=same; {same} }}")
    for x, y in sorted(poset.cover_edges()):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
