"""A cover's move read off its two elements: the oracle for the moves the
build records.  It does not see the action, so it also reads as a cover a
pair that differs from one only in the colors the move gives the moved
positions."""

from sdowling.dowling import EdgeType
from sdowling.errors import NotACover


def _first_difference(xs, ys, i=0):
    """The first index from i on where the tuples xs and ys differ, or len(ys)."""
    while i < len(ys) and xs[i] == ys[i]:
        i += 1
    return i


def classify_cover(x, y) -> EdgeType:
    """Classify a covering pair of canonical elements by its move type.

    Blocks are sorted by minimum, so the first block A where x and y differ
    is the one the move touches, and x's other blocks must be in y whole.
    A merge unites A with a later block B and keeps A's colors; a coloring
    adds exactly A's positions to the zero block.  The colors that B's, or
    A's, positions get depend on the action and are not checked."""
    if y.is_top:
        return EdgeType("top")
    xb, yb = x.blocks, y.blocks
    if len(yb) != len(xb) - 1:
        raise NotACover("elements do not differ by one block")
    i = _first_difference(xb, yb)
    if y.zero == x.zero:
        j = _first_difference(xb, yb, i + 1)  # B's index in x
        if i == len(yb) or xb[j + 1 :] != yb[j:]:
            raise NotACover("elements do not differ by a single merge")
        (sa, ca), (sb, _), (support, colors) = xb[i], xb[j], yb[i]
        cmap = dict(zip(support, colors))
        if support != tuple(sorted(sa + sb)) or tuple(map(cmap.get, sa)) != ca:
            raise NotACover("merged block is not the union of two blocks of x")
        # canonical form colors min C = min_a by the identity
        return EdgeType("merge", min_a=sa[0], min_b=sb[0], alpha=cmap[sb[0]])
    # color: y moved block A of x into the zero block, which keeps x's
    sa, zx, zy = xb[i][0], x.zero, y.zero
    new = [pc for pc in zy if pc not in zx]
    if xb[i + 1 :] != yb[i:] or len(zy) - len(new) != len(zx) or tuple(p for p, _ in new) != sa:
        raise NotACover("elements do not differ by a single coloring")
    return EdgeType("colored", min_b=sa[0], color=new[0][1])
