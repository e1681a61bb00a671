"""The two edge labelings, one rule on the moves the build records, and the
exhaustive lexicographic-shellability verifier.  λ labels the full poset and
μ its invariant subposets; on a coloring cover μ ranks the lower element's
zero-block colors first, so λ is μ with no color ranked first.

A labeling `labeling(poset, x)` returns the labels of x's covers as a tuple
parallel to `poset.up[x]`, and is called once per node."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import lt
from typing import NamedTuple

from .errors import MalformedLabeling, NotACover, NotBounded
from .poset import bits, saturated_chains

NO_THIRD = -1


class EdgeLabel(NamedTuple):
    """Three-field label, compared lexicographically; b is -1 when absent."""

    tag: int
    a: int
    b: int = NO_THIRD


_label = functools.cache(EdgeLabel)  # one object per label; b is passed only when present


@functools.cache
def move_label(et, first=frozenset()) -> EdgeLabel:
    """The label of a cover with move `et` when the colors in `first` are
    ranked before the others, each part in index order: λ ranks none first,
    μ the zero-block colors of the cover's lower element.  Cached per
    (move, first), and equal labels are one object."""
    if et.kind == "top":
        return _label(1, 2)
    if et.kind == "colored":
        s = et.color
        if s in first:
            return _label(1, sum(1 for r in first if r <= s))
        return _label(1, (s + 1) + sum(1 for r in first if r > s))
    if et.alpha == 0:  # a coherent merge
        return _label(0, max(et.min_a, et.min_b))
    # order on G \ {e} is the index order, so position == element index
    return _label(2, min(et.min_a, et.min_b), et.alpha)


def recorded_row(poset, xi):
    """The moves the build recorded for x's covers, parallel to `up[x]`;
    NotACover when a cover records none."""
    row = poset.moves[xi]
    if None in row:
        y = poset.up[xi][row.index(None)]
        raise NotACover(f"({xi}, {y}) is not a single-move cover edge")
    return row


def label_lambda(poset, xi):
    """The labels of x's covers in the full bounded poset, parallel to `up[x]`."""
    return tuple(map(move_label, recorded_row(poset, xi)))


def label_mu(poset, xi):
    """The subposet labels of x's covers, parallel to `up[x]`; x's zero-block
    colors are read off its code, where a value v >= n*|G| has color v - n*|G|."""
    base = poset.codes.n * poset.codes.order
    first = frozenset(v - base for v in poset.codes.codes[xi] or () if v >= base)
    return tuple(move_label(et, first) for et in recorded_row(poset, xi))


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


def _label_rows(poset, labeling):
    """The labeling's row of each node, one call per node; NotBounded on a
    poset without both bounds, MalformedLabeling where a row is not parallel
    to the node's covers."""
    if poset.bottom is None or poset.top is None:
        raise NotBounded("decreasing chains and EL verification require a bounded poset")
    rows = [labeling(poset, x) for x in range(len(poset))]
    covers = list(map(len, poset.up))
    if list(map(len, rows)) != covers:
        x = next(x for x, row in enumerate(rows) if len(row) != covers[x])
        raise MalformedLabeling(f"node {x} has {covers[x]} covers but {len(rows[x])} labels")
    return rows


def _ranked_labels(poset, labeling):
    """The cover labels of each node, parallel to `up`, as their ranks k among
    the distinct labels, and the width of a count vector over them: slot
    k + 1 counts chains ending in label k, slot 0 and the last slot the
    empty chain, below or above every label."""
    rows = _label_rows(poset, labeling)
    order = {lab: k for k, lab in enumerate(sorted(set(itertools.chain.from_iterable(rows))))}
    return len(order) + 2, [tuple(map(order.__getitem__, row)) for row in rows]


def check_interval(poset, rows, x, y):
    """Check the EL condition on one closed interval, on cover labels in rows
    parallel to `up`; None if it holds."""
    inc = []
    min_word = None
    min_count = 0
    min_chain = None
    for chain, word in saturated_chains(poset, x, y, rows):
        if all(map(lt, word, word[1:])):  # strictly increasing
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
    rows = _label_rows(poset, labeling)
    walk = saturated_chains(poset, poset.bottom, poset.top, rows, decreasing=True)
    return (chain for chain, _ in walk)


def count_decreasing_chains(poset, labeling):
    """The number of chains `decreasing_chains` yields, without walking them."""
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


def verify_el(poset, labeling, with_witness_chains=False) -> ELReport:
    """Exhaustive EL-labeling check over every closed interval.

    An interval passes when it has exactly one maximal chain with strictly
    increasing label word, and that chain is the strict lexicographic minimum
    among all of its maximal chains.

    No chain is walked for an interval that passes. One pass over the
    elements in decreasing rank, on integer labels, gives each x three
    bitmasks over the y > x per label l of its covers, each a suffix over
    the labels >= l: `one`, the y reached by a strictly increasing chain
    that starts with such a label; `two`, those reached by two or more;
    `inc`, those whose least label word starts with such a label and
    increases strictly. x's covers are grouped by label in one pass; a
    cover b with label l adds b and b's masks past l. A label on one cover
    takes that cover's masks; where two covers with the least label below
    y tie, their least words decide, by a memoized recursion through
    `poset.leq`. [x, y] passes exactly when y is in `one` and `inc` but not
    in `two` at x's least label. Bit p is the p-th element processed, the
    top bit 0. A finished x keeps, in per-element lists, its strict up-set
    and a dict from each label its lower covers carry to the masks past
    that label, which a lower cover reads by its own label; both are freed
    once its last lower cover is done, and equal masks are one object. A
    failing interval's reason comes from the masks: y not in `one` has no
    increasing chain, y in `two` more than one, and otherwise the
    increasing chain is not the least word. Only `with_witness_chains`
    walks it again, by `check_interval`, which gives the reason and the
    witnesses; `poset.above` is built only for that or for a tie.
    """
    width, ints = _ranked_labels(poset, labeling)
    up = poset.up
    order = sorted(range(len(up)), key=poset.rank.__getitem__, reverse=True)
    pos = sorted(range(len(up)), key=order.__getitem__)  # the inverse of order
    waiting = [[] for _ in up]  # the labels of the covers into each node
    for a, ys in enumerate(up):
        for y, lab in zip(ys, ints[a]):
            waiting[y].append(lab)

    @functools.cache
    def least_word(b, y):
        return () if b == y else min(
            (lab,) + least_word(c, y) for c, lab in zip(up[b], ints[b]) if poset.leq(c, y))

    # per element, once processed: label -> (one, two, inc) past it, for
    # each label into it; its strict up-set; its lower covers not yet done
    past, ups, left = [None] * len(up), [None] * len(up), [0] * len(up)
    failures = []
    for x in order:
        groups = {}
        for b, lab in zip(up[x], ints[x]):
            groups.setdefault(lab, []).append(b)
        slots, reached = [], 0
        for lab in sorted(groups):
            group = groups[lab]
            if len(group) == 1:
                b = group[0]
                one, two, inc = past[b][lab]
                bit = 1 << pos[b]
                slots.append((lab, one | bit, two, (inc | bit) & ~reached))
                reached |= ups[b] | bit
                continue
            one = two = inc = reach = tie = 0
            covers = []
            for b in group:
                one_b, two_b, inc_b = past[b][lab]
                bit = 1 << pos[b]
                one_b, inc_b, reach_b = one_b | bit, inc_b | bit, ups[b] | bit
                two |= two_b | one & one_b
                one |= one_b
                inc |= inc_b
                tie |= reach & reach_b
                reach |= reach_b
                covers.append((b, reach_b, inc_b))
            fresh = reach & ~reached  # the y whose least word starts with lab
            reached |= reach
            inc &= fresh & ~tie
            for p in bits(fresh & tie):
                y = order[p]
                _, _, inc_b = min((c for c in covers if c[1] >> p & 1),
                                  key=lambda c: least_word(c[0], y))
                inc |= inc_b & 1 << p
            slots.append((lab, one, two, inc))
        # the suffix masks from the last label down, each handed to the
        # labels into x that lie at or past its label
        need = sorted(set(waiting[x]))
        row, masks = {}, (0, 0, 0)
        one = two = inc = 0
        for lab, one_l, two_l, inc_l in reversed(slots):
            while need and need[-1] >= lab:
                row[need.pop()] = masks
            two |= two_l | one & one_l
            one |= one_l
            inc |= inc_l
            masks = one, two, one if inc == one else inc
        row.update(dict.fromkeys(need, masks))
        one, two, inc = masks
        for p in bits(reached & ~(one & inc) | two):
            reason = ("NoIncreasing" if not one >> p & 1
                      else "MultipleIncreasing" if two >> p & 1 else "NotLexFirst")
            failures.append(check_interval(poset, ints, x, order[p]) if with_witness_chains
                            else IntervalFailure(x, order[p], reason))
        past[x], ups[x], left[x] = row, one if reached == one else reached, len(waiting[x])
        waiting[x] = None
        for b in up[x]:
            left[b] -= 1
            if not left[b]:
                past[b] = ups[b] = None
    failures.sort(key=lambda f: (f.x, f.y))
    # least_word refers to itself through its closure cell, a cycle that
    # would keep the poset alive until the cyclic collector runs
    del least_word
    return ELReport(
        passed=not failures,
        failures=failures,
        decreasing_chain_count=_count_decreasing(poset, width, ints),
    )
