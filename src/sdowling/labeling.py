"""Edge classification, the two edge labelings, and the exhaustive
lexicographic-shellability verifier."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import NotACover, NotBounded
from .poset import bits, saturated_chains

NO_THIRD = -1


class EdgeLabel(NamedTuple):
    """Three-field label, compared lexicographically; b is -1 when absent."""

    tag: int
    a: int
    b: int = NO_THIRD


class EdgeType(NamedTuple):
    kind: str  # "coherent" | "noncoherent" | "colored" | "top"
    min_a: int = -1
    min_b: int = -1
    alpha: int = 0  # discrepancy in G \ {e} for non-coherent merges
    color: int = -1  # color of the freshly colored block minimum

    @property
    def move(self):
        """The cover move: "merge" (coherent or not), "colored" or "top"."""
        return "merge" if self.kind in ("coherent", "noncoherent") else self.kind


def classify_cover(x, y) -> EdgeType:
    """Classify a covering pair of canonical elements by its move type."""
    if y.is_top:
        return EdgeType("top")
    if y.zero == x.zero:
        # merge: y has one block that unites two blocks of x
        supports_x = {s for s, _ in x.blocks}
        merged = [(s, c) for s, c in y.blocks if s not in supports_x]
        if len(merged) != 1:
            raise NotACover("elements do not differ by a single merge")
        support, colors = merged[0]
        pieces = [s for s, _ in x.blocks if set(s) <= set(support)]
        if len(pieces) != 2:
            raise NotACover("merged block does not split into two blocks of x")
        min_a, min_b = sorted(p[0] for p in pieces)
        cmap = dict(zip(support, colors))
        # canonical form colors min C = min_a by the identity
        alpha = cmap[min_b]
        if alpha == 0:
            return EdgeType("coherent", min_a=min_a, min_b=min_b)
        return EdgeType("noncoherent", min_a=min_a, min_b=min_b, alpha=alpha)
    # color: y moved one block of x into the zero block
    supports_y = {s for s, _ in y.blocks}
    gone = [s for s, _ in x.blocks if s not in supports_y]
    if len(gone) != 1:
        raise NotACover("elements do not differ by a single coloring")
    min_b = gone[0][0]
    color = dict(y.zero)[min_b]
    return EdgeType("colored", min_b=min_b, color=color)


def lambda_of_move(et) -> EdgeLabel:
    """The label of the full bounded poset on a cover with move `et`."""
    if et.kind == "top":
        return EdgeLabel(1, 2)
    if et.kind == "coherent":
        return EdgeLabel(0, max(et.min_a, et.min_b))
    if et.kind == "noncoherent":
        # order on G \ {e} is the index order, so position == element index
        return EdgeLabel(2, min(et.min_a, et.min_b), et.alpha)
    return EdgeLabel(1, et.color + 1)


def _mu_of_move(et, x) -> EdgeLabel:
    """Subposet labeling: favors zero-block colors already present in x."""
    if et.kind != "colored":
        return lambda_of_move(et)
    s = et.color
    used = {c for _, c in x.zero}
    if s in used:
        return EdgeLabel(1, sum(1 for r in used if r <= s))
    return EdgeLabel(1, (s + 1) + sum(1 for r in used if r > s))


def label_lambda_elements(x, y) -> EdgeLabel:
    return lambda_of_move(classify_cover(x, y))


def label_mu_elements(x, y) -> EdgeLabel:
    return _mu_of_move(classify_cover(x, y), x)


def recorded_move(poset, xi, yi) -> EdgeType:
    """The move the build recorded for the cover (xi, yi)."""
    et = poset.move(xi, yi)
    if et is None:
        raise NotACover(f"({xi}, {yi}) is not a single-move cover edge")
    return et


def label_lambda(poset, xi, yi) -> EdgeLabel:
    return lambda_of_move(recorded_move(poset, xi, yi))


def label_mu(poset, xi, yi) -> EdgeLabel:
    return _mu_of_move(recorded_move(poset, xi, yi), poset.elements[xi])


# ---------------------------------------------------------------------------
# EL verification.


@dataclass
class IntervalFailure:
    x: int
    y: int
    reason: str  # NoIncreasing | MultipleIncreasing | NotLexFirst
    witnesses: list = field(default_factory=list)


@dataclass
class ELReport:
    passed: bool
    failures: list
    decreasing_chain_count: int


def edge_labels(poset, labeling):
    """The label of every cover edge. Equal labels share one object: a large
    poset has thousands of covers but a few dozen distinct labels."""
    shared = {}
    return {(x, y): shared.setdefault(lab := labeling(poset, x, y), lab)
            for x, y in poset.cover_edges()}


def _ranked_labels(poset, labeling):
    """The cover labels of each node, parallel to `up`, as their ranks k among
    the distinct labels, and the width of a count vector over them: slot
    k + 1 counts chains ending in label k, slot 0 and the last slot the
    empty chain, below or above every label."""
    rows = [tuple(labeling(poset, x, y) for y in ys) for x, ys in enumerate(poset.up)]
    order = {lab: k for k, lab in enumerate(sorted(set(itertools.chain.from_iterable(rows))))}
    return len(order) + 2, [tuple(order[lab] for lab in row) for row in rows]


def _is_strictly_increasing(word):
    return all(word[i] < word[i + 1] for i in range(len(word) - 1))


def check_interval(poset, labels, x, y):
    """Check the EL condition on one closed interval; None if it holds."""
    inc = []
    min_word = None
    min_count = 0
    min_chain = None
    for chain, word in saturated_chains(poset, x, y, labels):
        if _is_strictly_increasing(word):
            if len(inc) < 2:
                inc.append(chain)
            else:
                inc.append(None)
        if min_word is None or word < min_word:
            min_word, min_count, min_chain = word, 1, chain
        elif word == min_word:
            min_count += 1
    if not inc:
        return IntervalFailure(x, y, "NoIncreasing")
    if len(inc) > 1:
        return IntervalFailure(x, y, "MultipleIncreasing", [c for c in inc if c])
    if min_count != 1 or min_chain != inc[0]:
        return IntervalFailure(x, y, "NotLexFirst", [inc[0], min_chain])
    return None


def decreasing_chains(poset, labeling):
    """Maximal bottom-to-top chains with weakly decreasing label words, as
    index tuples in lexicographic order, yielded one at a time.  The bounds
    are checked at the call, not at the first step of the iteration."""
    if poset.bottom is None or poset.top is None:
        raise NotBounded("decreasing chains require a bounded poset")
    labels = edge_labels(poset, labeling)
    walk = saturated_chains(poset, poset.bottom, poset.top, labels, decreasing=True)
    return (chain for chain, _ in walk)


def count_decreasing_chains(poset, labeling):
    """The number of chains `decreasing_chains` yields, without walking them."""
    if poset.bottom is None or poset.top is None:
        raise NotBounded("decreasing chains require a bounded poset")
    return _count_decreasing(poset, *_ranked_labels(poset, labeling))


def _count_decreasing(poset, width, ints):
    """One forward pass in rank order carries to each node the number of
    weakly decreasing chains from the bottom to it, by last label."""
    rank, up, zeros = poset.rank, poset.up, [0] * width
    live = {poset.bottom: zeros[:-1] + [1]}
    for z in sorted(range(len(rank)), key=rank.__getitem__):
        below = list(itertools.accumulate(live.pop(z, zeros)))
        if z == poset.top:
            return below[-1]
        for w, lab in zip(up[z], ints[z]):
            if count := below[-1] - below[lab]:
                live.setdefault(w, [0] * width)[lab + 1] += count


def verify_el(poset, labeling, with_witness_chains=True) -> ELReport:
    """Exhaustive EL-labeling check over every closed interval.

    An interval passes when it has exactly one maximal chain with strictly
    increasing label word, and that chain is the strict lexicographic minimum
    among all of its maximal chains.

    No chain is walked for an interval that passes. One forward pass over
    the up-set of each x, in rank order and on integer labels, carries to
    every z the number of strictly increasing chains x -> z by last label,
    and the least label word of the chains x -> z of each length, with
    whether it increases strictly. Words are keyed by length because a
    prefix sorts first: where chains of different lengths meet, the least
    word of z extended by one label need not be the least word above z.
    [x, y] passes exactly when it has one increasing chain and its least
    word is strictly increasing; the chains carrying the least word need no
    count, as each of them is then an increasing chain. A node's state is
    dropped once it has reached its covers. Each failing interval is walked
    again by `check_interval`, which gives the reason and the witnesses.
    """
    if poset.bottom is None or poset.top is None:
        raise NotBounded("EL verification requires a bounded poset")
    width, ints = _ranked_labels(poset, labeling)
    rank, up, above = poset.rank, poset.up, poset.above
    failures = []
    labels = {}  # edge_labels, for check_interval; filled at the first failure
    for x in range(len(poset.elements)):
        # z -> (increasing chains by last label, (least word, increasing) by length)
        live = {x: ([1] + [0] * (width - 1), {0: ((), True)})}
        for z in sorted(bits(above[x]), key=rank.__getitem__):
            inc, least = live.pop(z)
            below = list(itertools.accumulate(inc))
            if rank[z] - rank[x] >= 2 and (below[-1] != 1 or not min(least.values())[1]):
                labels = labels or edge_labels(poset, labeling)
                fail = check_interval(poset, labels, x, z)
                if not with_witness_chains:
                    fail.witnesses = []
                failures.append(fail)
            for w, lab in zip(up[z], ints[z]):
                state = live.get(w)
                if state is None:
                    state = live[w] = ([0] * width, {})
                inc_w, least_w = state
                inc_w[lab + 1] += below[lab]
                for length, (word, increasing) in least.items():
                    new = word + (lab,)
                    old = least_w.get(length + 1)
                    if old is None or new < old[0]:
                        least_w[length + 1] = new, increasing and (not word or word[-1] < lab)
    failures.sort(key=lambda f: (f.x, f.y))
    return ELReport(
        passed=not failures,
        failures=failures,
        decreasing_chain_count=_count_decreasing(poset, width, ints),
    )
