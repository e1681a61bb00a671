"""Canonical representation of elements of the generalized Dowling posets.

An element is a partial group-colored partition of {1..n} plus a color map on
the leftover "zero block".  Block colorings are stored in the canonical form
where the minimum of each block is colored by the identity, which quotients
out the right-translation equivalence on colorings.
"""

from __future__ import annotations

import functools
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


@functools.cache
def top_element(n):
    return DowlingElement(n=n, blocks=(), zero=(), is_top=True)


# ---------------------------------------------------------------------------
# Rendering and JSON.


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
