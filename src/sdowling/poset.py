"""Generic ranked posets: Hasse diagrams, chains, Möbius, characteristic polynomial."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .errors import NotComparable, NotGraded


class RankedPoset:
    """Explicit Hasse diagram with a rank function.

    Elements are indexed 0..size-1; `up[i]` lists the indices that cover i
    in increasing order, and `moves[i]`, parallel to it, the move that
    makes each cover (None where it is no single move); a cover raises the
    rank.  The rows are written once and kept as given, not copied, with
    `codes` (`dowling.Codes`), whose list of codes is `elements` itself,
    None for an adjoined top.  The order is stored once, as up-sets: bit y of
    `above[x]` is set iff x <= y, built lazily on first use.  Möbius values
    and the characteristic polynomial never build it.  Its readers are
    `topology.order_complex`, `saturated_chains` to a bound other than the
    top, `labeling.verify_el` only to break a tie between least label words
    or to walk a failing interval for its witnesses, and
    `reduction.reduce_and_verify`.  Immutable after construction; posets
    may share rows, as `dowling.adjoin_top` does with its input.
    """

    def __init__(self, codes, up, moves, ranks, bottom, top=None):
        self.codes, self.up, self.moves = codes, up, moves
        self.rank, self.bottom, self.top = ranks, bottom, top

    def __len__(self):
        return len(self.up)

    @property
    def elements(self):
        return self.codes.codes

    def cover_edges(self):
        for x, ys in enumerate(self.up):
            for y in ys:
                yield (x, y)

    @property
    def max_rank(self):
        return max(self.rank) if self.rank else 0

    @functools.cached_property
    def above(self):
        """Bitmask up-sets, built in order of decreasing rank: a cover
        raises the rank, so every up[x] is done before x."""
        above = [0] * len(self.up)
        for x in sorted(range(len(above)), key=lambda i: -self.rank[i]):
            m = 1 << x
            for y in self.up[x]:
                m |= above[y]
            above[x] = m
        return above

    def leq(self, x, y):
        return bool(self.above[x] >> y & 1)

    def move(self, x, y):
        """The move of the cover (x, y), by one scan of x's row; None when y
        does not cover x."""
        try:
            return self.moves[x][self.up[x].index(y)]
        except ValueError:
            return None


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


def subposet_rows(poset, kept):
    """The cover rows of the subposet induced on the indices in `kept`, one
    per kept x in its order, ascending, without `above`: x's own row if its
    covers are all kept; else the kept y that a walk up from x reaches
    through elements not kept, less those that a walk up from the lower of
    them to the highest rank among them finds strictly above another."""
    up, rank = poset.up, poset.rank
    is_kept, rows = set(kept), []
    for x in kept:
        row = up[x]  # when every cover of x is kept: covers, none above another
        if not all(map(is_kept.__contains__, row)):
            found, seen, stack = [], {x}, [x]
            while stack:
                for y in up[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        (found if y in is_kept else stack).append(y)
            top = max(map(rank.__getitem__, found), default=0)
            above, stack = set(), [c for c in found if rank[c] < top]
            while stack:
                for y in up[stack.pop()]:
                    if y not in above:
                        above.add(y)
                        if rank[y] < top:
                            stack.append(y)
            row = tuple(sorted(c for c in found if c not in above))
        rows.append(row)
    return rows


def saturated_chains(poset, x, y, rows=None, decreasing=False):
    """Yield (chain, word) for every saturated chain from x to y, in
    lexicographic order of the index sequences.

    `chain` is the index sequence (x, ..., y) and `word` the labels of its
    cover edges, the label of the step to `up[node][j]` read as
    `rows[node][j]` (empty words when rows is None).  With `decreasing`,
    only chains whose word is weakly decreasing are walked: a step whose
    label exceeds the previous one is pruned.  A step that cannot reach y
    is pruned by `poset.above`, except on a walk to the top, which every
    element lies below.
    """
    up = poset.up
    above = None if y == poset.top else poset.above
    stack = [(x, (x,), ())]
    while stack:
        node, chain, word = stack.pop()
        if node == y:
            yield chain, word
            continue
        for j in reversed(range(len(up[node]))):
            nxt = up[node][j]
            if above is not None and not above[nxt] >> y & 1:
                continue
            step = () if rows is None else (rows[node][j],)
            if decreasing and word and step[0] > word[-1]:
                continue
            stack.append((nxt, chain + (nxt,), word + step))


def moebius(poset, x, y):
    """Möbius function value mu(x, y)."""
    row = moebius_row(poset, x)
    if y not in row:
        raise NotComparable(f"elements {x} and {y} are not comparable")
    return row[y]


def moebius_row(poset, x):
    """mu(x, z) for every z >= x, as a dict keyed by z, by one upward sweep
    in rank order that never reads `poset.above`.

    Each z >= x gets a bit, in the order the sweep reaches it, and a
    down-set mask of [x, z]: down(z) = {z} together with down(c) for every
    lower cover c >= x.  An element joins the layer of its rank when a
    lower cover first reaches it; covers raise the rank, so its down-set
    is complete when its layer comes.  A finished z ORs its down-set into
    each of its upper covers at once and keeps none, so only the partial
    down-sets of elements not yet swept stay alive: two adjacent ranks in
    a graded poset, more where a cover skips a rank.  With one mask per
    distinct nonzero value v holding the elements w with mu(x, w) = v,
    mu(x, z) = -sum of v * |strict down(z) & mask_v|, over the masks as
    they stand when z's layer starts: z's strict down-set lies lower.
    """
    up, rank = poset.up, poset.rank
    layers = [[] for _ in range(poset.max_rank + 1)]
    layers[rank[x]].append(x)
    down = {x: 0}  # the strict down-set of each reached element, so far
    row, masks = {}, {}
    for layer in layers[rank[x]:]:
        values, below = list(masks), list(masks.values())
        for z in layer:
            strict = down.pop(z)
            counts = map(int.bit_count, map(strict.__and__, below))
            mu = row[z] = 1 if z == x else -sum(map(operator.mul, values, counts))
            bit = 1 << len(row) - 1
            if mu:
                masks[mu] = masks.get(mu, 0) | bit
            full = strict | bit
            for y in up[z]:
                if y in down:
                    down[y] |= full
                else:
                    down[y] = full
                    layers[rank[y]].append(y)
    return row


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
    for x, mu in moebius_row(poset, poset.bottom).items():
        coeffs[r - poset.rank[x]] += mu
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
