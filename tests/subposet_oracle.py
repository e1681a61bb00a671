"""The table-based oracles for invariant subposets: the element-level
orbit-count filter, and the covers of an induced subposet read off the
up-set table `above`."""

from sdowling.poset import bits


def passes_subposet_filter(element, free):
    """No orbit in `free`, the orbits of the colors outside T, may be used
    exactly once."""
    counts = {}
    for _, s in element.zero:
        counts[s] = counts.get(s, 0) + 1
    return all(sum(counts.get(s, 0) for s in orbit) != 1 for orbit in free)


def induced_rows(poset, kept):
    """The cover rows of the subposet induced on the indices in `kept`, one
    per kept x in its order: the kept y > x, ascending, that lie in the
    strict up-set of no other kept element above x."""
    above = poset.above
    kept_mask = 0
    for i in kept:
        kept_mask |= 1 << i
    rows = []
    for x in kept:
        strictly_above = above[x] & kept_mask & ~(1 << x)
        shadowed = 0
        for z in bits(strictly_above):
            shadowed |= above[z] ^ (1 << z)
        rows.append(tuple(bits(strictly_above & ~shadowed)))
    return rows


def induced_covers(poset, kept):
    """Cover pairs (x, y) of the subposet induced on the indices in `kept`,
    row by row as `induced_rows` gives them."""
    return [(x, y) for x, ys in zip(kept, induced_rows(poset, kept)) for y in ys]
