"""Increasing ordered trees with bloom separators, and the bijection between
decreasing maximal chains and blooming trees, run on index chains of the
built bounded poset through the moves the build recorded on its covers.

A tree is a nested tuple (label, children) where children mixes subtrees and
the bloom marker "*".  The child tuple is the only ordering data, so the
nested lists json.dumps writes for a tree lose nothing.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import ge, itemgetter

from .dowling import TOP_MOVE, adjoin_top, build_dowling, cover_moves
from .errors import MalformedTree, NotACover, NotDecreasing, NotMaximal, UnsupportedCase
from .labeling import count_decreasing_chains, label_lambda, move_label

BLOOM = "*"
DEFAULT_MAX_TREES = 1_000_000


def count_blooming(nodes, q, r):
    """Number of blooming trees on the given node count: the insertion count."""
    if nodes < 1 or q < 0 or r < 0:
        raise ValueError("need at least one node and non-negative bloom counts q, r")
    prod = 1
    for i in range(nodes - 1):
        prod *= q + 1 + (r + 2) * i
    return prod


class _Inserter:
    """Attaches the node in the 1-tuple `single` at one child-gap of any
    labeled node of a tree, each exactly once: the root's gaps first, then
    each labeled child's own insertions, in child order.  Consecutive trees
    of a level differ along one insertion path, so a child's list is looked
    up by value among the subtrees of the tree before, and built if absent."""

    def __init__(self, single):
        self.single, self.met, self.before = single, {}, {}

    def __call__(self, tree):
        self.before, self.met = self.met, {}
        return self.insertions(tree)

    def insertions(self, tree):
        label, children = tree
        out = [(label, children[:i] + self.single + children[i:]) for i in range(len(children) + 1)]
        for i, ch in enumerate(children):
            if ch is not BLOOM:
                subs = self.met[ch] = self.before.get(ch) or self.insertions(ch)
                head, tail = children[:i], children[i + 1 :]
                out += [(label, head + (sub,) + tail) for sub in subs]
        return out


def enumerate_blooming(nodes, q, r, labels=None):
    """Iterate over every blooming tree on the given labels, duplicate-free.

    Follows the incremental insertion argument: node k is attached, together
    with its r blooms, at every legal position of every tree on k-1 nodes.
    Each level maps an _Inserter lazily over the one before, so the trees
    stream depth-first, and its memo holds the subtrees of two trees only.
    """
    if nodes < 1 or q < 0 or r < 0:
        raise ValueError("need at least one node and non-negative bloom counts q, r")
    labels = sorted(range(nodes) if labels is None else labels)
    if len(labels) != nodes or len(set(labels)) != nodes:
        raise ValueError("need one distinct label per node")

    level = iter([(labels[0], (BLOOM,) * q)])
    for label in labels[1:]:
        level = itertools.chain.from_iterable(map(_Inserter(((label, (BLOOM,) * r),)), level))
    return level


def validate_blooming(tree, q, r, labels):
    """Check bloom counts, label set, and the increasing-path property in
    one walk over an explicit stack, so a tree of any depth passes, and
    return the tree's (parent, child, blooms before the child) couples in
    preorder, each parent's children in order."""
    seen, couples = [], []
    stack = [(tree, None, q, 0)]
    while stack:
        node, parent_label, want, before = stack.pop()
        if not (isinstance(node, tuple) and len(node) == 2 and isinstance(node[1], tuple)):
            raise MalformedTree(f"bad node {node!r}")
        label, children = node
        if type(label) is not int:
            raise MalformedTree(f"label {label!r} is not an int")
        if parent_label is not None:
            if label <= parent_label:
                raise MalformedTree(f"label {label} does not increase below {parent_label}")
            couples.append((parent_label, label, before))
        seen.append(label)
        # children are pushed last to first, so they pop in order, each
        # after want - (the blooms after it) blooms, as checked below
        after = 0
        for c in reversed(children):
            if c == BLOOM:
                after += 1
            else:
                stack.append((c, label, r, want - after))
        if after != want:
            raise MalformedTree(f"node {label} has {after} blooms, expected {want}")
    if sorted(seen) != sorted(labels):
        raise MalformedTree(f"labels {sorted(seen)} != expected {sorted(labels)}")
    return couples


# ---------------------------------------------------------------------------
# The chain <-> tree bijection.


def _tree_family(n, action):
    """(q, r, labels) of the blooming trees that the decreasing chains of the
    rank-n poset biject with: q blooms at the root, r at every other node.
    With |S| >= 2 the root 0 stands for the zero block; with |S| = 0 the
    root is node 1."""
    m = action.set_size
    g = action.group.order
    if g == 1 or m == 1:
        raise UnsupportedCase(
            "the bijection covers |G| >= 2 with |S| = 0 or |S| >= 2; "
            "the remaining cases are counted directly"
        )
    if m >= 2:
        return m - 2, g - 2, range(n + 1)
    return g - 2, g - 2, range(1, n + 1)


@lru_cache(maxsize=1)
def _bounded(n, action):
    """The bounded poset on {1..n} that `psi` and `psi_inv` look chains up
    in, its element -> index map and its tree family, of one (n, action) at
    a time; an unsupported case raises before the build."""
    family = _tree_family(n, action)
    poset = adjoin_top(build_dowling(n, action))
    return poset, {el: i for i, el in enumerate(poset.elements)}, family


def psi(chain, action):
    """Blooming tree of a decreasing maximal chain (bottom to adjoined top),
    a list of canonical elements looked up in the bounded poset; NotACover
    where one is not there or does not cover the one before."""
    if not chain:
        raise NotMaximal("the empty chain is not maximal")
    n = chain[0].n
    poset, index, family = _bounded(n, action)
    index_chain = [index.get(el) for el in chain]
    if None in index_chain:
        raise NotACover("an element of the chain is not in the poset")
    if index_chain[0] != poset.bottom:
        raise NotMaximal("the chain does not start at the bottom")
    return _psi(poset, index_chain, n, action, family)


def _psi(poset, chain, n, action, family):
    """Blooming tree of an index chain of the bounded poset, from the moves
    the build recorded on its covers, in the tree family `_tree_family`
    gives.  Once the label word is known to decrease, the moves hang
    children below parents in descending label order, so a node's child
    tuple is built once, when the node is hung."""
    moves = list(map(poset.move, chain, chain[1:]))
    if None in moves:
        i = moves.index(None)
        raise NotACover(f"({chain[i]}, {chain[i + 1]}) is not a single-move cover edge")
    q, r, labels = family
    m = action.set_size
    k = action.group.order - 1  # size of G minus identity
    words = list(map(move_label, moves))
    if not all(map(ge, words, words[1:])):
        raise NotDecreasing("label word is not weakly decreasing")
    # every cover below the top attaches one label; a chain from the bottom
    # to the top attaches each label but the root's
    if not moves or moves[-1].kind != "top" or len(moves) != len(labels):
        raise NotMaximal("the chain does not run from the bottom to the top")
    root = labels[0]
    children = [[] for _ in range(n + 1)]  # by label
    bloomed = [0] * (n + 1)  # the blooms among each node's children
    # each edge hangs a child below a parent after as many of the parent's
    # blooms as its move leaves: a coloring hangs the block minimum below
    # the root after m - 1 - (its color), a non-coherent merge the larger
    # minimum below the smaller after k - (its twist).  The word check keeps
    # each count within q and r, which pad the rest, and keeps it from
    # falling: coloring labels (1, s+1) and merge labels (2, u, α) of one u
    # do not increase, and a coherent merge's tag-0 label cannot precede the
    # top's (1, 2)
    for et in moves[:-1]:
        if et.kind == "colored":
            u, blooms = root, m - 1 - et.color
        else:
            u, blooms = et.min_a, k - et.alpha
        v = et.min_b
        children[u] += [BLOOM] * (blooms - bloomed[u])
        children[u].append((v, tuple(children[v]) + (BLOOM,) * (r - bloomed[v])))
        bloomed[u] = blooms
    return (root, tuple(children[root]) + (BLOOM,) * (q - bloomed[root]))


def _psi_inv(poset, tree, n, action, family):
    """Index chain of a blooming tree of the family `_tree_family` gives, in
    the bounded poset.  The tree's
    couples, sorted by parent in descending label order by a stable sort
    that keeps each parent's children in order, are the chain's moves, the
    build's own objects, walked up the Hasse rows from the bottom to the
    top move; NotACover when a move has no cover."""
    couples = validate_blooming(tree, *family)
    couples.sort(key=itemgetter(0), reverse=True)
    m = action.set_size
    k = action.group.order - 1
    merges, colorings, _, _ = cover_moves(n, action)
    # a valid tree makes u and v block minima at their turn: the blocks are
    # its subtrees, a node's children join it before it joins its parent
    moves = [
        # color the block whose minimum is v with the (m-i)-th color; only
        # the |S| >= 2 family has a node 0, the zero block
        colorings[v - 1][m - i - 1][0] if u == 0
        # merge the blocks at minima u < v with discrepancy g_(k-i)
        else merges[u - 1][v - 1][k - i][0]
        for u, v, i in couples
    ]
    chain = [poset.bottom]
    for move in moves + [TOP_MOVE]:
        x = chain[-1]
        try:
            chain.append(poset.up[x][poset.moves[x].index(move)])
        except ValueError:
            raise NotACover(f"no cover of {x} makes {move}") from None
    return chain


def psi_inv(tree, n, action):
    """Decreasing chain of a blooming tree; inverse of psi.

    Returns the element list from the bottom to the adjoined top.
    """
    poset, _, family = _bounded(n, action)
    return [poset.elements[x] for x in _psi_inv(poset, tree, n, action, family)]


def bijection_failures(poset, n, action):
    """Check psi against the blooming trees of the family `_tree_family`
    gives: the decreasing maximal chains of the bounded poset, bottom to
    adjoined top, are counted by the forward pass, and every tree walks
    down by psi_inv and back by psi as an index chain; no element is read,
    nothing is stored, and a tree whose moves leave the covers is reported.
    psi(psi_inv(tree)) == tree makes psi_inv injective on the trees, and psi
    accepts only decreasing maximal chains, so psi_inv lands in them; equal
    counts make psi_inv onto, so psi_inv(psi(chain)) == chain on every chain.

    Returns (chain_count, tree_count, messages); no messages means psi is a
    bijection and psi_inv its inverse.
    """
    family = q, r, labels = _tree_family(n, action)
    chain_count = count_decreasing_chains(poset, label_lambda)
    tree_count, walked, trees_trip = 0, True, True
    for t in enumerate_blooming(len(labels), q, r, labels=labels):
        tree_count += 1
        try:
            trees_trip = trees_trip and _psi(poset, _psi_inv(poset, t, n, action, family),
                                             n, action, family) == t
        except NotACover:
            walked = False
        except (NotDecreasing, NotMaximal):  # psi rejects the chain psi_inv walked
            trees_trip = False
    checks = ((chain_count == tree_count, "psi's images are not the blooming trees, each once"),
              (walked, "a move of psi_inv(tree) has no cover in the poset"),
              (trees_trip, "psi(psi_inv(tree)) != tree"))
    return chain_count, tree_count, [message for ok, message in checks if not ok]
