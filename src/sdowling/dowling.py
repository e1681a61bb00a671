"""Construction of the generalized Dowling poset, its bounded extension, and
the invariant subposets cut out by the orbit-count filter."""

from __future__ import annotations

import functools
from collections import deque

from . import groups
from .elements import (
    DowlingElement,
    bracket_notation,
    bottom_element,
    element_to_json,
    top_element,
)
from .errors import AlreadyBounded, NonInvariantT, SizeLimitExceeded
from .labeling import EdgeType
from .poset import RankedPoset, induced_covers

DEFAULT_MAX_ELEMENTS = 5_000_000


def merge_blocks(element, group, i, j, g):
    """Glue blocks i < j of a canonical element, twisting block j by g.  The
    merged block keeps block i's minimum, colored e, so it is canonical once
    its positions are sorted, and it takes block i's place."""
    blocks = element.blocks
    (sa, ca), (sb, cb) = blocks[i], blocks[j]
    merged = tuple(zip(*sorted(zip(sa + sb, ca + tuple(group.mul(c, g) for c in cb)))))
    rest = blocks[:i] + (merged,) + blocks[i + 1 : j] + blocks[j + 1 :]
    return DowlingElement(element.n, rest, element.zero)


def color_block(element, action, i, s):
    """Move block i into the zero block, coloring a position of group color
    c by c . s, the equivariant coloring through s."""
    sb, cb = element.blocks[i]
    rest = element.blocks[:i] + element.blocks[i + 1 :]
    zero = sorted(element.zero + tuple((p, action.apply(c, s)) for p, c in zip(sb, cb)))
    return DowlingElement(element.n, rest, tuple(zero))


@functools.cache
def _move_tables(n, action):
    """Every move's EdgeType on {1..n}, one object per move: merges by block
    minima a < b and twist, colorings by block minimum and color."""
    merges = [[[EdgeType("noncoherent" if g else "coherent", a, b, g)
                for g in range(action.group.order)] for b in range(n + 1)] for a in range(n + 1)]
    colorings = [[EdgeType("colored", min_b=b, color=action.apply(0, s))
                  for s in range(action.set_size)] for b in range(n + 1)]
    return merges, colorings


def covers_of(element, action):
    """All covers of a canonical element with their moves, as (cover,
    EdgeType) pairs: block merges, then block colorings."""
    blocks, group = element.blocks, action.group
    merge_moves, color_moves = _move_tables(element.n, action)
    minima = [support[0] for support, _ in blocks]
    k = len(blocks)
    merges = [(merge_blocks(element, group, i, j, g), merge_moves[minima[i]][minima[j]][g])
              for i in range(k) for j in range(i + 1, k) for g in range(group.order)]
    colorings = [(color_block(element, action, i, s), color_moves[minima[i]][s])
                 for i in range(k) for s in range(action.set_size)]
    return merges + colorings


def build_dowling(n, action, max_elements=DEFAULT_MAX_ELEMENTS) -> RankedPoset:
    """Full poset on {1..n} for the given action, generated breadth-first
    from the bottom element and deduplicated by canonical element."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bottom = bottom_element(n)
    index = {bottom: 0}
    elements = [bottom]
    edges, moves = [], []
    queue = deque([0])
    while queue:
        xi = queue.popleft()
        for y, move in covers_of(elements[xi], action):
            yi = index.get(y)
            if yi is None:
                yi = len(elements)
                if yi >= max_elements:
                    raise SizeLimitExceeded(
                        f"element count exceeded the cap of {max_elements}"
                    )
                index[y] = yi
                elements.append(y)
                queue.append(yi)
            edges.append((xi, yi))
            moves.append(move)
    ranks = [el.rank for el in elements]
    return RankedPoset(elements, edges, ranks, bottom=0, top=None, moves=moves)


def adjoin_top(poset) -> RankedPoset:
    """Bounded extension: a new maximal element over the previous maxima."""
    if poset.top is not None:
        raise AlreadyBounded("poset already has an adjoined top")
    elements = list(poset.elements)
    first = elements[0] if elements else None
    if isinstance(first, DowlingElement):
        new_top = top_element(first.n)
    else:
        new_top = "1^"
    ti = len(elements)
    elements.append(new_top)
    edges = list(poset.cover_edges())
    moves = [move for row in poset.moves for move in row]
    maximal = [i for i in range(len(poset.elements)) if not poset.up[i]]
    edges += [(i, ti) for i in maximal]
    moves += [EdgeType("top")] * len(maximal)
    ranks = list(poset.rank) + [poset.max_rank + 1]
    return RankedPoset(elements, edges, ranks, bottom=poset.bottom, top=ti, moves=moves)


def passes_subposet_filter(element, action, T):
    """No free-to-vary orbit of colors outside T may be used exactly once."""
    counts = {}
    for _, s in element.zero:
        counts[s] = counts.get(s, 0) + 1
    tset = set(T)
    for orbit in groups.orbits(action):
        if orbit[0] in tset:
            continue
        used = sum(counts.get(s, 0) for s in orbit)
        if used == 1:
            return False
    return True


def build_subposet(n, action, T, max_elements=DEFAULT_MAX_ELEMENTS) -> RankedPoset:
    """Induced subposet on the elements passing the orbit-count filter, with
    covering relations recomputed inside the filtered vertex set.  A cover
    keeps its ambient move; one that is not an ambient cover is no single
    move, and its move is None."""
    if not groups.is_invariant(action, T):
        raise NonInvariantT(f"T = {sorted(set(T))} is not closed under the action")
    ambient = build_dowling(n, action, max_elements=max_elements)
    kept = [
        i
        for i, el in enumerate(ambient.elements)
        if passes_subposet_filter(el, action, T)
    ]
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
                "label": _label(el, ascii_only),
                **(
                    element_to_json(el)
                    if isinstance(el, DowlingElement)
                    else {}
                ),
            }
            for i, el in enumerate(poset.elements)
        ],
        "covers": sorted(poset.cover_edges()),
    }


def _label(el, ascii_only):
    if isinstance(el, DowlingElement):
        return bracket_notation(el, ascii_only=ascii_only)
    return str(el)


def poset_to_dot(poset, ascii_only=True):
    """DOT rendering of the Hasse diagram with rank-based layers."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for i, el in enumerate(poset.elements):
        text = _label(el, ascii_only).replace('"', '\\"')
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
