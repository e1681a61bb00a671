"""The colored-partition element, its independent canonicalizer, its
decoding from a code and its rendering, the element-level closure operator,
and posets built from edge lists: the oracles for the build's codes, for
the renderers that read codes, for `reduction.closure_f` on codes, and
small hand-made posets.

An element is a partial group-colored partition of {1..n} plus a color map
on the leftover "zero block".  Block colorings are stored in the canonical
form where the minimum of each block is colored by the identity, which
quotients out the right-translation equivalence on colorings.
"""

import functools
import itertools
from dataclasses import dataclass

from sdowling.dowling import Codes
from sdowling.poset import RankedPoset


@dataclass(frozen=True)
class DowlingElement:
    n: int
    blocks: tuple  # tuple of (support tuple, colors tuple), canonical
    zero: tuple  # tuple of (position, color), sorted by position
    is_top: bool = False

    @property
    def rank(self):
        if self.is_top:
            raise ValueError("the adjoined top has no partition rank")
        return self.n - len(self.blocks)


@functools.cache
def top_element(n):
    return DowlingElement(n=n, blocks=(), zero=(), is_top=True)


def decode(code, order):
    """The canonical element of a code (see `dowling.build_dowling`), n =
    len(code).  Positions are read in increasing order, so each block first
    shows up at its minimum and the blocks come out sorted by minimum."""
    n = len(code)
    blocks, zero = {}, ()
    for p, v in enumerate(code, 1):
        if v < n * order:
            a, c = divmod(v, order)
            b = blocks.get(a, ((), ()))
            blocks[a] = (b[0] + (p,), b[1] + (c,))
        else:
            zero += ((p, v - n * order),)
    return DowlingElement(n, tuple(blocks.values()), zero)


def decode_all(n, order, codes):
    """Codes on {1..n} decoded, None, the adjoined top, to `top_element`."""
    return [top_element(n) if code is None else decode(code, order) for code in codes]


def elements_of(poset):
    """A built poset's codes decoded."""
    return decode_all(*poset.codes)


def _group_name(g):
    return "e" if g == 0 else f"g{g}" if g > 1 else "g"


def _color_name(s):
    return f"s{s + 1}"


def bracket_notation(element, ascii_only=False):
    """Render an element in the bracket syntax, e.g. ``[1_e 2_g ∥ ∅]``."""
    sep = "||" if ascii_only else "∥"
    if element.is_top:
        return "1^"
    parts = []
    for support, colors in element.blocks:
        parts.append(
            " ".join(f"{i}_{_group_name(c)}" for i, c in zip(support, colors))
        )
    left = " | ".join(parts) if parts else ("0" if ascii_only else "∅")
    zero = " ".join(f"{i}_{_color_name(s)}" for i, s in element.zero)
    if not zero:
        zero = "0" if ascii_only else "∅"
    return f"[{left} {sep} {zero}]"


def element_to_json(element):
    if element.is_top:
        return {"top": True}
    return {
        "blocks": [
            {"support": list(s), "colors": list(c)} for s, c in element.blocks
        ],
        "zero": {str(i): s for i, s in element.zero},
    }


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
    the edges are sorted into Hasse rows, and `elements` are the given
    objects, with no code layout."""
    elements = list(elements)
    rows = [{} for _ in elements]
    for (x, y), move in zip(cover_edges, moves or itertools.repeat(None)):
        rows[x][y] = move
    up = [tuple(sorted(row)) for row in rows]
    return RankedPoset(Codes(None, None, elements), up,
                       [tuple(map(row.__getitem__, ys)) for row, ys in zip(rows, up)],
                       list(ranks), bottom, top)
