"""Increasing ordered trees with bloom separators, and the bijection between
decreasing maximal chains and blooming trees.

A tree is a nested tuple (label, children) where children mixes subtrees and
the bloom marker "*".  The child tuple is the only ordering data, so the
nested lists json.dumps writes for a tree lose nothing.
"""

from __future__ import annotations

import itertools
from functools import partial

from .dowling import apply_moves, cover_moves
from .elements import bottom_element, top_element
from .errors import MalformedTree, NotDecreasing, NotMaximal, UnsupportedCase
from .labeling import classify_cover, decreasing_chains, label_lambda, lambda_of_move, recorded_move

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


def _insertions(tree, new_node):
    """All trees obtained by attaching new_node at one child-gap of any
    labeled node, each exactly once: the root's gaps first, then each
    labeled child's own insertions, in child order."""
    label, children = tree
    out = [(label, children[:i] + (new_node,) + children[i:]) for i in range(len(children) + 1)]
    for i, ch in enumerate(children):
        if ch != BLOOM:
            head, tail = children[:i], children[i + 1 :]
            out += [(label, head + (sub,) + tail) for sub in _insertions(ch, new_node)]
    return out


def enumerate_blooming(nodes, q, r, labels=None):
    """Iterate over every blooming tree on the given labels, duplicate-free.

    Follows the incremental insertion argument: node k is attached, together
    with its r blooms, at every legal position of every tree on k-1 nodes.
    Each level maps _insertions lazily over the one before, so the trees
    stream depth-first with one insertion list alive per level.
    """
    if nodes < 1 or q < 0 or r < 0:
        raise ValueError("need at least one node and non-negative bloom counts q, r")
    labels = sorted(range(nodes) if labels is None else labels)
    if len(labels) != nodes or len(set(labels)) != nodes:
        raise ValueError("need one distinct label per node")

    level = iter([(labels[0], (BLOOM,) * q)])
    for label in labels[1:]:
        insert = partial(_insertions, new_node=(label, (BLOOM,) * r))
        level = itertools.chain.from_iterable(map(insert, level))
    return level


def validate_blooming(tree, q, r, labels):
    """Check bloom counts, label set, and the increasing-path property in
    one walk, and return the tree's (parent, child, blooms before the
    child) couples, each parent's children in order."""
    seen, couples = [], []

    def walk(node, parent_label, want):
        if not (isinstance(node, tuple) and len(node) == 2 and isinstance(node[1], tuple)):
            raise MalformedTree(f"bad node {node!r}")
        label, children = node
        if type(label) is not int:
            raise MalformedTree(f"label {label!r} is not an int")
        if parent_label is not None and label <= parent_label:
            raise MalformedTree(f"label {label} does not increase below {parent_label}")
        seen.append(label)
        blooms = 0
        for c in children:
            if c == BLOOM:
                blooms += 1
            else:
                couples.append((label, walk(c, label, r), blooms))
        if blooms != want:
            raise MalformedTree(f"node {label} has {blooms} blooms, expected {want}")
        return label

    walk(tree, None, q)
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


def psi(chain, action):
    """Blooming tree of a decreasing maximal chain (bottom to adjoined top).

    `chain` is a list of canonical elements ending at the top sentinel.
    """
    if not chain:
        raise NotMaximal("the empty chain is not maximal")
    return _tree_of_moves([classify_cover(x, y) for x, y in zip(chain, chain[1:])],
                          chain[0].n, action)


def _tree_of_moves(moves, n, action):
    """Blooming tree of the chain that makes the given cover moves."""
    q, r, labels = _tree_family(n, action)
    m = action.set_size
    k = action.group.order - 1  # size of G minus identity
    words = [lambda_of_move(et) for et in moves]
    if not all(words[i + 1] <= words[i] for i in range(len(words) - 1)):
        raise NotDecreasing("label word is not weakly decreasing")
    # every cover below the top attaches one label; a chain from the bottom
    # to the top attaches each label but the root's
    if not moves or moves[-1].kind != "top" or len(moves) != len(labels):
        raise NotMaximal("the chain does not run from the bottom to the top")
    root = labels[0]
    children = {u: [] for u in labels}
    bloomed = dict.fromkeys(labels, 0)  # the blooms among each node's children

    def pad_to(u, count):
        if count < bloomed[u]:
            raise NotDecreasing("bloom requirement decreased along the chain")
        children[u] += [BLOOM] * (count - bloomed[u])
        bloomed[u] = count

    # each edge hangs a child below a parent after as many of the parent's
    # blooms as its label leaves: a coloring hangs the block minimum below
    # the root, a non-coherent merge the larger minimum below the smaller
    for et, lab in zip(moves[:-1], words):
        if et.kind == "colored":
            u, blooms = root, m - lab.a
        elif et.kind == "merge" and et.alpha:
            u, blooms = et.min_a, k - lab.b
        else:
            raise NotDecreasing("decreasing chains contain no coherent merges")
        pad_to(u, blooms)
        children[u].append(et.min_b)
    for u in labels:
        pad_to(u, q if u == root else r)

    def build(u):
        return (u, tuple(BLOOM if c == BLOOM else build(c) for c in children[u]))

    return build(root)


def psi_inv(tree, n, action):
    """Decreasing chain of a blooming tree; inverse of psi.

    Returns the element list from the bottom to the adjoined top.
    """
    couples = validate_blooming(tree, *_tree_family(n, action))
    # parents in descending label order; within one parent keep child order
    couples.sort(key=lambda t: -t[0])
    m = action.set_size
    k = action.group.order - 1
    merges, colorings, _, _ = cover_moves(n, action)
    # a valid tree makes u and v block minima at their turn: the blocks are
    # its subtrees, a node's children join it before it joins its parent
    moves = [
        # color the block whose minimum is v with the (m-i)-th color; only
        # the |S| >= 2 family has a node 0, the zero block
        colorings[v - 1][m - i - 1] if u == 0
        # merge the blocks at minima u < v with discrepancy g_(k-i)
        else merges[u - 1][v - 1][k - i]
        for u, v, i in couples
    ]
    return [bottom_element(n), *apply_moves(n, moves, action), top_element(n)]


def bijection_failures(poset, n, action):
    """Round-trip psi and psi_inv both ways between the decreasing maximal
    chains of the bounded poset, taken from the bottom to the adjoined top
    as elements, and the blooming trees they should biject with.  Nothing
    is stored: psi_inv(psi(chain)) == chain makes psi injective, and
    psi_inv accepts only blooming trees, so psi's images are the blooming
    trees, each once, when the chains and the duplicate-free enumeration
    of the trees count the same.

    Returns (chain_count, tree_count, messages); no messages means psi is a
    bijection and psi_inv its inverse.
    """
    q, r, labels = _tree_family(n, action)
    chain_count, chains_trip = 0, True
    for index_chain in decreasing_chains(poset, label_lambda):
        chain_count += 1
        moves = [recorded_move(poset, x, y) for x, y in zip(index_chain, index_chain[1:])]
        chain = [poset.elements[i] for i in index_chain]
        chains_trip = chains_trip and psi_inv(_tree_of_moves(moves, n, action), n, action) == chain
    tree_count, trees_trip = 0, True
    for t in enumerate_blooming(len(labels), q, r, labels=labels):
        tree_count += 1
        trees_trip = trees_trip and psi(psi_inv(t, n, action), action) == t
    checks = ((chains_trip, "psi_inv(psi(chain)) != chain"),
              (chain_count == tree_count, "psi's images are not the blooming trees, each once"),
              (trees_trip, "psi(psi_inv(tree)) != tree"))
    return chain_count, tree_count, [message for ok, message in checks if not ok]
