"""Increasing ordered trees with bloom separators, and the bijection between
decreasing maximal chains and blooming trees.

A tree is a nested tuple (label, children) where children mixes subtrees and
the bloom marker "*".  The child tuple is the only ordering data, so the
nested lists json.dumps writes for a tree lose nothing.
"""

from __future__ import annotations

from .dowling import apply_moves
from .elements import bottom_element, top_element
from .errors import MalformedTree, NotDecreasing, UnsupportedCase
from .labeling import EdgeType, classify_cover, decreasing_chains, label_lambda, lambda_of_move

BLOOM = "*"
DEFAULT_MAX_TREES = 1_000_000


def count_blooming(nodes, q, r):
    """Number of blooming trees on the given node count: the insertion count."""
    if nodes < 1:
        raise ValueError("need at least one node")
    prod = 1
    for i in range(nodes - 1):
        prod *= q + 1 + (r + 2) * i
    return prod


def _insertions(tree, new_node):
    """All trees obtained by attaching new_node at one child-gap of any
    labeled node.  Each result is produced exactly once."""
    label, children = tree
    for i in range(len(children) + 1):
        yield (label, children[:i] + (new_node,) + children[i:])
    for i, ch in enumerate(children):
        if ch != BLOOM:
            for sub in _insertions(ch, new_node):
                yield (label, children[:i] + (sub,) + children[i + 1 :])


def enumerate_blooming(nodes, q, r, labels=None):
    """Generate every blooming tree on the given labels, duplicate-free.

    Follows the incremental insertion argument: node k is attached, together
    with its r blooms, at every legal position of every tree on k-1 nodes.
    """
    labels = sorted(range(nodes) if labels is None else labels)
    if nodes < 1:
        raise ValueError("need at least one node")
    if len(labels) != nodes:
        raise ValueError("label count does not match node count")

    root = (labels[0], (BLOOM,) * q)

    def recurse(tree, remaining):
        if not remaining:
            yield tree
            return
        new_node = (remaining[0], (BLOOM,) * r)
        for t in _insertions(tree, new_node):
            yield from recurse(t, remaining[1:])

    yield from recurse(root, labels[1:])


def validate_blooming(tree, q, r, labels):
    """Check bloom counts, label set, and the increasing-path property."""
    labels = sorted(labels)
    seen = []

    def walk(node, parent_label, at_root):
        if not (isinstance(node, tuple) and len(node) == 2):
            raise MalformedTree(f"bad node {node!r}")
        label, children = node
        if parent_label is not None and label <= parent_label:
            raise MalformedTree(f"label {label} does not increase below {parent_label}")
        seen.append(label)
        blooms = sum(1 for c in children if c == BLOOM)
        want = q if at_root else r
        if blooms != want:
            raise MalformedTree(f"node {label} has {blooms} blooms, expected {want}")
        for c in children:
            if c != BLOOM:
                walk(c, label, False)

    walk(tree, None, True)
    if sorted(seen) != labels:
        raise MalformedTree(f"labels {sorted(seen)} != expected {labels}")


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
    q, r, labels = _tree_family(chain[0].n, action)
    m = action.set_size
    k = action.group.order - 1  # size of G minus identity
    moves = [classify_cover(x, y) for x, y in zip(chain, chain[1:])]
    words = [lambda_of_move(et) for et in moves]
    if not all(words[i + 1] <= words[i] for i in range(len(words) - 1)):
        raise NotDecreasing("label word is not weakly decreasing")
    root = labels[0]
    children = {u: [] for u in labels}

    def pad_to(u, count):
        missing = count - children[u].count(BLOOM)
        if missing < 0:
            raise NotDecreasing("bloom requirement decreased along the chain")
        children[u] += [BLOOM] * missing

    # each edge hangs a child below a parent after as many of the parent's
    # blooms as its label leaves: a coloring hangs the block minimum below
    # the root, a non-coherent merge the larger minimum below the smaller
    for et, lab in zip(moves, words):
        if et.kind == "top":
            continue
        if et.kind == "colored":
            u, blooms = root, m - lab.a
        elif et.kind == "noncoherent":
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
    validate_blooming(tree, *_tree_family(n, action))
    m = action.set_size
    k = action.group.order - 1

    couples = []

    def walk(node):
        u, ch = node
        blooms = 0
        for c in ch:
            if c == BLOOM:
                blooms += 1
            else:
                couples.append((u, c[0], blooms))
                walk(c)

    walk(tree)
    # parents in descending label order; within one parent keep child order
    couples.sort(key=lambda t: -t[0])

    # a valid tree makes u and v block minima at their turn: the blocks are
    # its subtrees, a node's children join it before it joins its parent
    moves = [
        # color the block whose minimum is v with the (m-i)-th color; only
        # the |S| >= 2 family has a node 0, the zero block
        EdgeType("colored", min_b=v, color=m - i - 1) if u == 0
        # merge the blocks at minima u < v with discrepancy g_(k-i)
        else EdgeType("noncoherent", min_a=u, min_b=v, alpha=k - i)
        for u, v, i in couples
    ]
    bottom = bottom_element(n)
    return [bottom, *apply_moves(bottom, moves, action), top_element(n)]


def bijection_failures(poset, n, action):
    """Round-trip psi and psi_inv both ways between the decreasing maximal
    chains of the bounded poset, taken from the bottom to the adjoined top
    as elements, and the blooming trees they should biject with.

    Returns (chain_count, tree_count, messages); no messages means psi is a
    bijection and psi_inv its inverse.
    """
    q, r, labels = _tree_family(n, action)
    messages = []
    images = set()
    chain_count = 0
    for index_chain in decreasing_chains(poset, label_lambda):
        chain = [poset.elements[i] for i in index_chain]
        chain_count += 1
        t = psi(chain, action)
        images.add(t)
        if psi_inv(t, n, action) != chain:
            messages.append("psi_inv(psi(chain)) != chain")
    all_trees = set(enumerate_blooming(len(labels), q, r, labels=labels))
    if images != all_trees:
        messages.append("psi is not onto the blooming trees")
    for t in all_trees:
        if psi(psi_inv(t, n, action), action) != t:
            messages.append("psi(psi_inv(tree)) != tree")
            break
    return chain_count, len(all_trees), messages
