"""Edge classification, the two edge labelings, and the exhaustive
lexicographic-shellability verifier."""

from __future__ import annotations

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


def label_lambda_elements(x, y) -> EdgeLabel:
    """The labeling of the full bounded poset."""
    et = classify_cover(x, y)
    if et.kind == "top":
        return EdgeLabel(1, 2)
    if et.kind == "coherent":
        return EdgeLabel(0, max(et.min_a, et.min_b))
    if et.kind == "noncoherent":
        # order on G \ {e} is the index order, so position == element index
        return EdgeLabel(2, min(et.min_a, et.min_b), et.alpha)
    return EdgeLabel(1, et.color + 1)


def label_mu_elements(x, y) -> EdgeLabel:
    """Subposet labeling: favors zero-block colors already present in x."""
    et = classify_cover(x, y)
    if et.kind != "colored":
        return label_lambda_elements(x, y)
    s = et.color
    used = x.zero_image()
    if s in used:
        return EdgeLabel(1, sum(1 for r in used if r <= s))
    return EdgeLabel(1, (s + 1) + sum(1 for r in used if r > s))


def _check_cover(poset, xi, yi):
    if yi not in poset.up[xi]:
        raise NotACover(f"({xi}, {yi}) is not a cover edge")


def classify_edge(poset, xi, yi) -> EdgeType:
    _check_cover(poset, xi, yi)
    return classify_cover(poset.elements[xi], poset.elements[yi])


def label_lambda(poset, xi, yi) -> EdgeLabel:
    _check_cover(poset, xi, yi)
    return label_lambda_elements(poset.elements[xi], poset.elements[yi])


def label_mu(poset, xi, yi) -> EdgeLabel:
    _check_cover(poset, xi, yi)
    return label_mu_elements(poset.elements[xi], poset.elements[yi])


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
    decreasing_chains: list = field(default_factory=list)


def edge_labels(poset, labeling):
    return {(x, y): labeling(poset, x, y) for x, y in poset.cover_edges()}


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


def decreasing_chains(poset, labeling, labels=None):
    """Maximal bottom-to-top chains with weakly decreasing label words."""
    if poset.bottom is None or poset.top is None:
        raise NotBounded("decreasing chains require a bounded poset")
    if labels is None:
        labels = edge_labels(poset, labeling)
    walk = saturated_chains(poset, poset.bottom, poset.top, labels, decreasing=True)
    return [chain for chain, _ in walk]


def verify_el(poset, labeling, with_witness_chains=True) -> ELReport:
    """Exhaustive EL-labeling check over every closed interval.

    An interval passes when it has exactly one maximal chain with strictly
    increasing label word, and that chain is the strict lexicographic minimum
    among all of its maximal chains.
    """
    if poset.bottom is None or poset.top is None:
        raise NotBounded("EL verification requires a bounded poset")
    labels = edge_labels(poset, labeling)
    failures = []
    above, _ = poset._reach()
    n = len(poset.elements)
    for x in range(n):
        for y in bits(above[x]):
            if poset.rank[y] - poset.rank[x] >= 2:
                fail = check_interval(poset, labels, x, y)
                if fail is not None:
                    if not with_witness_chains:
                        fail.witnesses = []
                    failures.append(fail)
    failures.sort(key=lambda f: (f.x, f.y))
    dec = decreasing_chains(poset, labeling, labels=labels)
    return ELReport(
        passed=not failures,
        failures=failures,
        decreasing_chain_count=len(dec),
        decreasing_chains=dec,
    )
