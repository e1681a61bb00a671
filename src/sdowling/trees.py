"""Increasing ordered trees with bloom separators, and the bijection between
decreasing maximal chains and blooming trees.

A tree is a nested tuple (label, children) where children mixes subtrees and
the bloom marker "*".  The child tuple is the only ordering data, so trees
round-trip losslessly through JSON as nested lists.
"""

from __future__ import annotations

from .elements import bottom_element, make_element, top_element
from .errors import (
    MalformedTree,
    NotDecreasing,
    SizeLimitExceeded,
    UnsupportedCase,
)
from .labeling import classify_cover, label_lambda_elements

BLOOM = "*"


def is_bloom(entry):
    return entry == BLOOM


def tree_label(tree):
    return tree[0]


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
        if not is_bloom(ch):
            for sub in _insertions(ch, new_node):
                yield (label, children[:i] + (sub,) + children[i + 1 :])


def enumerate_blooming(nodes, q, r, labels=None, max_trees=None):
    """Generate every blooming tree on the given labels, duplicate-free.

    Follows the incremental insertion argument: node k is attached, together
    with its r blooms, at every legal position of every tree on k-1 nodes.
    """
    if labels is None:
        labels = list(range(nodes))
    else:
        labels = sorted(labels)
        if len(labels) != nodes:
            raise ValueError("label count does not match node count")
    if nodes < 1:
        raise ValueError("need at least one node")

    produced = 0
    root = (labels[0], (BLOOM,) * q)

    def recurse(tree, remaining):
        nonlocal produced
        if not remaining:
            produced += 1
            if max_trees is not None and produced > max_trees:
                raise SizeLimitExceeded(f"tree count exceeded the cap of {max_trees}")
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
        blooms = sum(1 for c in children if is_bloom(c))
        want = q if at_root else r
        if blooms != want:
            raise MalformedTree(f"node {label} has {blooms} blooms, expected {want}")
        for c in children:
            if not is_bloom(c):
                walk(c, label, False)

    walk(tree, None, True)
    if sorted(seen) != labels:
        raise MalformedTree(f"labels {sorted(seen)} != expected {labels}")


def tree_to_json(tree):
    if is_bloom(tree):
        return BLOOM
    label, children = tree
    return [label, [tree_to_json(c) for c in children]]


def tree_from_json(data):
    if data == BLOOM:
        return BLOOM
    if not (isinstance(data, list) and len(data) == 2 and isinstance(data[0], int)):
        raise MalformedTree(f"bad tree node {data!r}")
    return (data[0], tuple(tree_from_json(c) for c in data[1]))


# ---------------------------------------------------------------------------
# The chain <-> tree bijection.


def _chain_labels(chain):
    return [
        label_lambda_elements(chain[i], chain[i + 1])
        for i in range(len(chain) - 1)
    ]


def _check_params(action):
    m = action.set_size
    k = action.group.order
    if k == 1 or m == 1:
        raise UnsupportedCase(
            "the bijection covers |G| >= 2 with |S| = 0 or |S| >= 2; "
            "the remaining cases are counted directly"
        )
    return m, k - 1  # color count, size of G minus identity


def psi(chain, action):
    """Blooming tree of a decreasing maximal chain (bottom to adjoined top).

    `chain` is a list of canonical elements ending at the top sentinel.
    """
    m, k = _check_params(action)
    words = _chain_labels(chain)
    if not all(words[i + 1] <= words[i] for i in range(len(words) - 1)):
        raise NotDecreasing("label word is not weakly decreasing")
    n = chain[0].n
    root = 0 if m >= 2 else 1
    children = {root: []}

    def blooms_of(u):
        return sum(1 for c in children[u] if is_bloom(c))

    def pad_to(u, count):
        if blooms_of(u) > count:
            raise NotDecreasing("bloom requirement decreased along the chain")
        while blooms_of(u) < count:
            children[u].append(BLOOM)

    colored = []
    noncoherent = []
    for (x, y), lab in zip(zip(chain, chain[1:]), words):
        if y.is_top:
            continue
        et = classify_cover(x, y)
        if et.kind == "colored":
            colored.append((lab, et))
        elif et.kind == "noncoherent":
            noncoherent.append((lab, et))
        else:
            raise NotDecreasing("decreasing chains contain no coherent merges")
    for lab, et in colored:
        pad_to(root, m - lab.a)
        children[et.min_b] = []
        children[root].append(et.min_b)
    for lab, et in noncoherent:
        u = min(et.min_a, et.min_b)
        v = max(et.min_a, et.min_b)
        if u not in children:
            children[u] = []
        pad_to(u, k - lab.b)
        children[v] = children.get(v, [])
        children[u].append(v)
    for u in range(root, n + 1):
        children.setdefault(u, [])
        pad_to(u, (m - 2 if u == root and m >= 2 else action.group.order - 2))

    def build(u):
        return (u, tuple(BLOOM if is_bloom(c) else build(c) for c in children[u]))

    return build(root)


def psi_inv(tree, n, action):
    """Decreasing chain of a blooming tree; inverse of psi.

    Returns the element list from the bottom to the adjoined top.
    """
    m, k = _check_params(action)
    group = action.group
    if m >= 2:
        validate_blooming(tree, m - 2, group.order - 2, range(n + 1))
    else:
        validate_blooming(tree, group.order - 2, group.order - 2, range(1, n + 1))

    couples = []

    def walk(node):
        u, ch = node
        blooms = 0
        for c in ch:
            if is_bloom(c):
                blooms += 1
            else:
                couples.append((u, tree_label(c), blooms))
                walk(c)

    walk(tree)
    # parents in descending label order; within one parent keep child order
    couples.sort(key=lambda t: -t[0])

    chain = [bottom_element(n)]
    for u, v, i in couples:
        x = chain[-1]
        if u == 0 and m >= 2:
            # color the block whose minimum is v with the (m-i)-th color
            s = m - i - 1
            blocks = []
            zero = list(x.zero)
            for support, colors in x.blocks:
                if support[0] == v:
                    zero += [(p, action.apply(c, s)) for p, c in zip(support, colors)]
                else:
                    blocks.append((support, colors))
            if len(blocks) == len(x.blocks):
                raise MalformedTree(f"node {v} is not a block minimum at its turn")
            y = make_element(group, n, blocks, zero)
        else:
            # merge the blocks at minima u and v with discrepancy g_(k-i)
            g = k - i
            bu = bv = None
            rest = []
            for support, colors in x.blocks:
                if support[0] == u:
                    bu = (support, colors)
                elif support[0] == v:
                    bv = (support, colors)
                else:
                    rest.append((support, colors))
            if bu is None or bv is None:
                raise MalformedTree(f"nodes {u}, {v} are not block minima at their turn")
            support = bu[0] + bv[0]
            colors = bu[1] + tuple(group.mul(c, g) for c in bv[1])
            y = make_element(group, n, rest + [(support, colors)], x.zero)
        chain.append(y)
    chain.append(top_element(n))
    return chain


def bijection_failures(chains, n, action):
    """Round-trip psi and psi_inv both ways between the decreasing maximal
    chains and the blooming trees they should biject with.

    `chains` lists every decreasing chain of the bounded poset as elements
    from the bottom to the adjoined top.  Returns (tree_count, messages);
    no messages means psi is a bijection and psi_inv its inverse.
    """
    m, _ = _check_params(action)
    messages = []
    images = set()
    for chain in chains:
        t = psi(chain, action)
        images.add(t)
        if psi_inv(t, n, action) != chain:
            messages.append("psi_inv(psi(chain)) != chain")
    g = action.group.order
    if m >= 2:
        all_trees = set(enumerate_blooming(n + 1, m - 2, g - 2))
    else:
        all_trees = set(enumerate_blooming(n, g - 2, g - 2, labels=range(1, n + 1)))
    if images != all_trees:
        messages.append("psi is not onto the blooming trees")
    for t in all_trees:
        if psi(psi_inv(t, n, action), action) != t:
            messages.append("psi(psi_inv(tree)) != tree")
            break
    return len(all_trees), messages
