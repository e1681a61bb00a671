"""Construction of the generalized Dowling poset, its bounded extension, and
the invariant subposets cut out by the orbit-count filter."""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

from . import groups
from .errors import AlreadyBounded, NonInvariantT, SizeLimitExceeded
from .poset import RankedPoset, subposet_rows

DEFAULT_MAX_ELEMENTS = 5_000_000


class EdgeType(NamedTuple):
    kind: str  # "merge" | "colored" | "top"
    min_a: int = -1
    min_b: int = -1
    alpha: int = 0  # the merge's twist; the identity 0 exactly when coherent
    color: int = -1  # color of the freshly colored block minimum


TOP_MOVE = EdgeType("top")  # the move of every cover of the adjoined top


def _move_table(n, action, move, size):
    """A cover move as a table of `size` entries over code values (see
    `build_dowling`): a merge gives block min_b's positions block min_a's
    value, twisting their color c by alpha; a coloring puts them in the
    zero block with color c . color.  Every other value maps to itself."""
    order = action.group.order
    table = list(range(size))
    b = (move.min_b - 1) * order
    for c in range(order):
        if move.kind == "colored":
            table[b + c] = n * order + action.apply(c, move.color)
        else:
            table[b + c] = (move.min_a - 1) * order + action.group.mul(c, move.alpha)
    return table


class CoverMoves(NamedTuple):
    merges: list  # merges[a][b][g]: (EdgeType, table) for block minima a < b from 0
    colorings: list  # colorings[a][s]: (EdgeType, table)
    bottom: object  # the code of the bottom element
    step: object  # step(code, table): the code a move makes of code


def _tuple_step(code, table):
    return tuple(map(table.__getitem__, code))


@functools.cache
def cover_moves(n, action) -> CoverMoves:
    """Every move on {1..n} as (EdgeType, table), one object per move:
    merges[a][b] by twist for block minima a < b counted from 0, and
    colorings[a] by color.

    The code type is chosen here, once.  When every code value fits in a
    byte (n*|G| + |S| <= 256, as at every catalog point), codes are
    `bytes`, a table is a 256-byte translation and a move is
    `bytes.translate`; wider alphabets, possible only through action
    files, keep codes as tuples of ints, read through a tuple table."""
    order = action.group.order
    width = n * order + action.set_size
    pack, size, step = (bytes, 256, bytes.translate) if width <= 256 else (tuple, width, _tuple_step)

    def entry(move):
        return move, pack(_move_table(n, action, move, size))

    merges = [[[entry(EdgeType("merge", a + 1, b + 1, g)) for g in range(order)] if a < b else []
               for b in range(n)] for a in range(n)]
    colorings = [[entry(EdgeType("colored", min_b=a + 1, color=action.apply(0, s)))
                  for s in range(action.set_size)] for a in range(n)]
    return CoverMoves(merges, colorings, pack(range(0, n * order, order)), step)


class Codes(NamedTuple):
    """A poset's element codes by index (see `build_dowling`), None for an
    adjoined top, and the n and |G| that lay them out."""

    n: int
    order: int
    codes: list


class _CodeIndex(dict):
    """Code -> index: a code looked up first is appended to `codes` and gets
    the next index, and one past `cap` codes raises."""

    def __init__(self, codes, cap):
        super().__init__(zip(codes, range(len(codes))))
        self.codes, self.cap = codes, cap

    def __missing__(self, code):
        if len(self.codes) >= self.cap:
            raise SizeLimitExceeded(f"element count exceeded the cap of {self.cap}")
        i = self[code] = len(self.codes)
        self.codes.append(code)
        return i


def build_dowling(n, action, max_elements=DEFAULT_MAX_ELEMENTS) -> RankedPoset:
    """Full poset on {1..n} for the given action, generated breadth-first
    from the bottom element and deduplicated by canonical element.

    The search runs on codes, one value per position (bytes, or tuples of
    ints past a byte; see `cover_moves`): position p holds
    (min(block) - 1)*|G| + color in a block, and n*|G| + s in the zero
    block with color s.  A code is canonical as built, since the block
    minimum carries e and a merge keeps the smaller minimum, so equal
    elements are equal codes with nothing sorted.  A code's covers are
    merges of its block minima a < b by twist, then colorings by minimum
    and color; the tables and moves of each set of minima are listed once.
    Each code's covers become one Hasse row, sorted by index with its moves
    parallel, and its rank is n minus its number of block minima; the codes
    are the poset's `elements`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = action.group.order
    merges, colorings, bottom, step = cover_moves(n, action)
    codes = [bottom]
    index = _CodeIndex(codes, max_elements)
    up, moves, ranks, by_minima = [], [], [], {}
    for x in codes:  # codes grows behind the cursor: a FIFO queue
        key = tuple(map(operator.eq, x, bottom))  # which positions are block minima
        row = by_minima.get(key)
        if row is None:
            minima = list(itertools.compress(range(n), key))
            entries = [m for i, a in enumerate(minima) for b in minima[i + 1 :] for m in merges[a][b]]
            entries += [m for a in minima for m in colorings[a]]
            row = by_minima[key] = ([t for _, t in entries], [m for m, _ in entries], n - len(minima))
        tables, row_moves, rank = row
        ranks.append(rank)
        yis = list(map(index.__getitem__, map(step, itertools.repeat(x), tables)))
        by_index = sorted(range(len(yis)), key=yis.__getitem__)
        up.append(tuple(map(yis.__getitem__, by_index)))
        moves.append(tuple(map(row_moves.__getitem__, by_index)))
    del index
    return RankedPoset(Codes(n, order, codes), up, moves, ranks, bottom=0)


def adjoin_top(poset) -> RankedPoset:
    """Bounded extension: a new maximal element over the previous maxima.
    The result shares the input's rows; each maximal element gets the one
    row (top,) with one shared top move, and the input is left as it was."""
    if poset.top is not None:
        raise AlreadyBounded("poset already has an adjoined top")
    ti = len(poset)
    top_row, top_moves = (ti,), (TOP_MOVE,)
    up = [ys or top_row for ys in poset.up] + [()]
    moves = [ms if ys else top_moves for ys, ms in zip(poset.up, poset.moves)] + [()]
    codes = poset.codes._replace(codes=poset.codes.codes + [None])
    ranks = poset.rank + [poset.max_rank + 1]
    return RankedPoset(codes, up, moves, ranks, bottom=poset.bottom, top=ti)


def _passes_filter(code, free):
    """No orbit in `free`, given by its zero-block code values, is used once."""
    return all(sum(map(code.count, values)) != 1 for values in free)


def cut_subposet(ambient, action, T) -> RankedPoset:
    """The invariant subposet for T of `ambient`, the full poset built for
    the action: the elements whose codes pass the orbit-count filter, with
    the induced covers (`poset.subposet_rows`), each with its ambient move,
    or None where it is no ambient cover and so no single move."""
    if not groups.is_invariant(action, T):
        raise NonInvariantT(f"T = {sorted(set(T))} is not closed under the action")
    tset, base = set(T), ambient.codes.n * action.group.order
    free = [[base + s for s in orbit] for orbit in groups.orbits(action) if orbit[0] not in tset]
    kept = [i for i, code in enumerate(ambient.codes.codes) if _passes_filter(code, free)]
    new_index = {old: new for new, old in enumerate(kept)}
    up, moves = [], []
    for x, ys in zip(kept, subposet_rows(ambient, kept)):
        up.append(tuple(map(new_index.__getitem__, ys)))
        moves.append(ambient.moves[x] if ys is ambient.up[x]
                     else tuple(map(ambient.move, itertools.repeat(x), ys)))
    codes = ambient.codes._replace(codes=list(map(ambient.codes.codes.__getitem__, kept)))
    return RankedPoset(codes, up, moves, [ambient.rank[i] for i in kept], bottom=0)


def build_subposet(n, action, T, max_elements=DEFAULT_MAX_ELEMENTS) -> RankedPoset:
    """`cut_subposet` of the full poset on {1..n}, built here."""
    return cut_subposet(build_dowling(n, action, max_elements=max_elements), action, T)


# ---------------------------------------------------------------------------
# Dumps.


def _blocks_and_zero(code, order):
    """A code's blocks, each its (position, color) pairs, in order of their
    minima (a block first shows up at its minimum), and the (position,
    color) pairs of its zero block."""
    base, blocks, zero = len(code) * order, {}, []
    for p, v in enumerate(code, 1):
        if v < base:
            blocks.setdefault(v // order, []).append((p, v % order))
        else:
            zero.append((p, v - base))
    return blocks.values(), zero


def _group_name(g):
    return "e" if g == 0 else f"g{g}" if g > 1 else "g"


def bracket_notation(code, order, ascii_only=False):
    """Render an element's code, for a group of the given order, in the
    bracket syntax, e.g. ``[1_e 2_g ∥ ∅]``; None, the adjoined top, is 1^."""
    if code is None:
        return "1^"
    empty = "0" if ascii_only else "∅"
    blocks, zero = _blocks_and_zero(code, order)
    left = " | ".join(" ".join(f"{p}_{_group_name(c)}" for p, c in b) for b in blocks)
    right = " ".join(f"{p}_s{s + 1}" for p, s in zero)
    return f"[{left or empty} {'||' if ascii_only else '∥'} {right or empty}]"


def element_to_json(code, order):
    if code is None:
        return {"top": True}
    blocks, zero = _blocks_and_zero(code, order)
    return {"blocks": [{"support": [p for p, _ in b], "colors": [c for _, c in b]} for b in blocks],
            "zero": {str(p): s for p, s in zero}}


def poset_to_json(poset, ascii_only=False):
    order = poset.codes.order
    return {
        "size": len(poset),
        "bottom": poset.bottom,
        "top": poset.top,
        "elements": [
            {
                "index": i,
                "rank": poset.rank[i],
                "label": bracket_notation(code, order, ascii_only=ascii_only),
                **element_to_json(code, order),
            }
            for i, code in enumerate(poset.elements)
        ],
        "covers": sorted(poset.cover_edges()),
    }


def poset_to_dot(poset, ascii_only=True):
    """DOT rendering of the Hasse diagram with rank-based layers."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for i, code in enumerate(poset.elements):
        text = bracket_notation(code, poset.codes.order, ascii_only=ascii_only).replace('"', '\\"')
        lines.append(f'  n{i} [label="{text}"];')
    for r in sorted(set(poset.rank)):
        same = " ".join(f"n{i};" for i, ri in enumerate(poset.rank) if ri == r)
        lines.append(f"  {{ rank=same; {same} }}")
    for x, y in sorted(poset.cover_edges()):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
