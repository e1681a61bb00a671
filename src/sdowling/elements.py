"""Canonical representation of elements of the generalized Dowling posets.

An element is a partial group-colored partition of {1..n} plus a color map on
the leftover "zero block".  Block colorings are stored in the canonical form
where the minimum of each block is colored by the identity, which quotients
out the right-translation equivalence on colorings.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    def zero_image(self):
        """Set of colors used on the zero block."""
        return {s for _, s in self.zero}


def normalize_block(group, support, colors):
    """Sort a block by position and translate its coloring so min maps to e."""
    pairs = sorted(zip(support, colors))
    support = tuple(i for i, _ in pairs)
    colors = tuple(c for _, c in pairs)
    g0inv = group.inv(colors[0])
    colors = tuple(group.mul(c, g0inv) for c in colors)
    return support, colors


def make_element(group, n, blocks, zero, is_top=False):
    """Build a canonical element from possibly unnormalized data."""
    if is_top:
        return DowlingElement(n=n, blocks=(), zero=(), is_top=True)
    norm = sorted(normalize_block(group, s, c) for s, c in blocks)
    return DowlingElement(n=n, blocks=tuple(norm), zero=tuple(sorted(zero)))


def top_element(n):
    return DowlingElement(n=n, blocks=(), zero=(), is_top=True)


def bottom_element(n):
    """All singleton blocks colored by the identity, empty zero block."""
    return DowlingElement(
        n=n, blocks=tuple(((i,), (0,)) for i in range(1, n + 1)), zero=()
    )


# ---------------------------------------------------------------------------
# Rendering and JSON round-trip.


def _group_name(g, names=None):
    if names:
        return names[g]
    return "e" if g == 0 else f"g{g}" if g > 1 else "g"


def _color_name(s, names=None):
    if names:
        return names[s]
    return f"s{s + 1}"


def bracket_notation(element, ascii_only=False, group_names=None, color_names=None):
    """Render an element in the bracket syntax, e.g. ``[1_e 2_g ∥ ∅]``."""
    sep = "||" if ascii_only else "∥"
    if element.is_top:
        return "1^"
    parts = []
    for support, colors in element.blocks:
        parts.append(
            " ".join(f"{i}_{_group_name(c, group_names)}" for i, c in zip(support, colors))
        )
    left = " | ".join(parts) if parts else ("0" if ascii_only else "∅")
    zero = " ".join(f"{i}_{_color_name(s, color_names)}" for i, s in element.zero)
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


def element_from_json(group, n, data):
    if data.get("top"):
        return top_element(n)
    blocks = [
        (tuple(b["support"]), tuple(b["colors"])) for b in data.get("blocks", [])
    ]
    zero = [(int(i), s) for i, s in data.get("zero", {}).items()]
    return make_element(group, n, blocks, zero)
