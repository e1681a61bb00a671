"""Generic ranked posets: Hasse diagrams, chains, Möbius, characteristic polynomial."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotComparable, NotGraded


class RankedPoset:
    """Explicit Hasse diagram with a rank function.

    Elements are opaque objects indexed 0..size-1.  `up[i]` / `down[i]` list
    the covers of / covered-by indices.  Immutable after construction; all
    derived data (reachability bitmasks, Möbius memo) is cached lazily.
    """

    def __init__(self, elements, cover_edges, ranks, bottom, top=None):
        self.elements = list(elements)
        self.rank = list(ranks)
        self.bottom = bottom
        self.top = top
        n = len(self.elements)
        up = [[] for _ in range(n)]
        down = [[] for _ in range(n)]
        for x, y in cover_edges:
            up[x].append(y)
            down[y].append(x)
        self.up = [tuple(sorted(s)) for s in up]
        self.down = [tuple(sorted(s)) for s in down]
        self._above = None
        self._below = None
        self._moebius = {}

    def __len__(self):
        return len(self.elements)

    def cover_edges(self):
        for x, ys in enumerate(self.up):
            for y in ys:
                yield (x, y)

    @property
    def max_rank(self):
        return max(self.rank) if self.rank else 0

    def _reach(self):
        # Bitmask reachability: above[x] has bit y set iff x <= y.
        if self._above is None:
            n = len(self.elements)
            order = sorted(range(n), key=lambda i: -self.rank[i])
            above = [0] * n
            for x in order:
                m = 1 << x
                for y in self.up[x]:
                    m |= above[y]
                above[x] = m
            below = [0] * n
            for x in sorted(range(n), key=lambda i: self.rank[i]):
                m = 1 << x
                for y in self.down[x]:
                    m |= below[y]
                below[x] = m
            self._above = above
            self._below = below
        return self._above, self._below

    def leq(self, x, y):
        above, _ = self._reach()
        return bool(above[x] >> y & 1)

    def interval_mask(self, x, y):
        """Bitmask of all z with x <= z <= y."""
        above, below = self._reach()
        return above[x] & below[y]


def is_graded(poset):
    """Every cover edge increments rank by exactly one, from a rank-0 bottom."""
    if poset.bottom is None or poset.rank[poset.bottom] != 0:
        return False
    return all(poset.rank[y] == poset.rank[x] + 1 for x, y in poset.cover_edges())


def bits(mask):
    """Indices of the set bits of a nonnegative integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def induced_covers(poset, kept):
    """Cover pairs (x, y) of the subposet induced on the indices in `kept`:
    x < y in the poset and no other kept element lies between them."""
    above, below = poset._reach()
    kept_mask = 0
    for i in kept:
        kept_mask |= 1 << i
    covers = []
    for x in kept:
        strictly_above = above[x] & kept_mask & ~(1 << x)
        for y in bits(strictly_above):
            if not strictly_above & below[y] & ~(1 << y):
                covers.append((x, y))
    return covers


def saturated_chains(poset, x, y, labels=None, decreasing=False):
    """Yield (chain, word) for every saturated chain from x to y, in
    lexicographic order of the index sequences.

    `chain` is the index sequence (x, ..., y) and `word` the labels of its
    cover edges, looked up in `labels` (empty words when labels is None).
    With `decreasing`, only chains whose word is weakly decreasing are
    walked: a step whose label exceeds the previous one is pruned.
    """
    mask = poset.interval_mask(x, y)
    stack = [(x, (x,), ())]
    while stack:
        node, chain, word = stack.pop()
        if node == y:
            yield chain, word
            continue
        for nxt in reversed(poset.up[node]):
            if not mask >> nxt & 1:
                continue
            step = () if labels is None else (labels[(node, nxt)],)
            if decreasing and word and step[0] > word[-1]:
                continue
            stack.append((nxt, chain + (nxt,), word + step))


def maximal_chains(poset, x, y):
    """All saturated chains from x to y, in lexicographic order of indices.

    A chain is the full index sequence (x, ..., y); x == y yields one
    single-element chain.
    """
    if not poset.leq(x, y):
        raise NotComparable(f"elements {x} and {y} are not comparable")
    return [chain for chain, _ in saturated_chains(poset, x, y)]


def moebius(poset, x, y):
    """Möbius function value, memoized on the poset."""
    if not poset.leq(x, y):
        raise NotComparable(f"elements {x} and {y} are not comparable")
    memo = poset._moebius
    key = (x, y)
    if key in memo:
        return memo[key]
    if x == y:
        memo[key] = 1
        return 1
    total = 0
    for z in bits(poset.interval_mask(x, y)):
        if z != y:
            total += moebius(poset, x, z)
    memo[key] = -total
    return -total


# ---------------------------------------------------------------------------
# Integer polynomials (dense, ascending coefficients).


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple  # ascending by degree, no trailing zeros

    @staticmethod
    def make(coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return Polynomial(tuple(coeffs))

    @staticmethod
    def from_roots(roots):
        """Product of (t - r) over the given roots."""
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return Polynomial.make(coeffs)


def characteristic_polynomial(poset):
    """chi(t) = sum_x mu(0, x) t^(rk P - rk x); poset must be graded with bottom."""
    if not is_graded(poset):
        raise NotGraded("characteristic polynomial requires a graded poset with bottom")
    r = poset.max_rank
    coeffs = [0] * (r + 1)
    for x in range(len(poset.elements)):
        coeffs[r - poset.rank[x]] += moebius(poset, poset.bottom, x)
    return Polynomial.make(coeffs)


def sphere_product(n, size_g, size_s):
    """Closed-form number of top-dimensional spheres for the full poset
    family: at the degenerate n=1, trivial group, no colors it is 1, the
    chain bottom < top."""
    if n < 1 or size_g < 1 or size_s < 0:
        raise ValueError("need n >= 1, size_g >= 1, size_s >= 0")
    eps = 1 if size_s == 0 else 0
    prod = 1
    for i in range(n):
        prod *= size_s - 1 + size_g * i
    return (-1) ** eps * prod
