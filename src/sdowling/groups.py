"""Finite groups given by Cayley tables, and their actions on finite color sets.

Conventions fixed once and for all:
  - group elements are 0..order-1 with the identity at index 0;
  - the total order on G \\ {e} is the index order 1 < 2 < ...;
  - colors are 0..set_size-1 with the index order s_0 < s_1 < ...
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    IndexOutOfRange,
    InputFormatError,
    NoIdentity,
    NoInverse,
    NonAssociative,
)


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mult: tuple  # order x order tuple of tuples
    inverse: tuple = field(compare=False)

    def mul(self, g, h):
        return self.mult[g][h]

    def inv(self, g):
        return self.inverse[g]


def validate_group(table) -> FiniteGroup:
    """Check the group axioms on a multiplication table.

    Raises NonAssociative / NoIdentity / NoInverse naming the first
    violated axiom; InputFormatError for shape problems.
    """
    k = len(table)
    if k == 0:
        raise InputFormatError("empty multiplication table")
    for i, row in enumerate(table):
        if len(row) != k:
            raise InputFormatError(f"row {i} has length {len(row)}, expected {k}")
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < k:
                raise InputFormatError(f"entry mult[{i}][{j}] = {v!r} out of range 0..{k - 1}")
    for i in range(k):
        if table[0][i] != i or table[i][0] != i:
            raise NoIdentity()
    inverse = [None] * k
    for i in range(k):
        for j in range(k):
            if table[i][j] == 0 and table[j][i] == 0:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise NoInverse(i)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if table[table[i][j]][l] != table[i][table[j][l]]:
                    raise NonAssociative(i, j, l)
    mult = tuple(tuple(row) for row in table)
    return FiniteGroup(order=k, mult=mult, inverse=tuple(inverse))


@dataclass(frozen=True)
class GroupAction:
    group: FiniteGroup
    set_size: int
    act: tuple  # order x set_size tuple of tuples

    def apply(self, g, s):
        return self.act[g][s]


def validate_action(group, act) -> GroupAction:
    """Check that `act` is a left action of `group` on 0..set_size-1."""
    if len(act) != group.order:
        raise InputFormatError(f"action table has {len(act)} rows, expected {group.order}")
    m = len(act[0]) if act else 0
    for g, row in enumerate(act):
        if len(row) != m:
            raise InputFormatError(f"action row {g} has length {len(row)}, expected {m}")
        for s, v in enumerate(row):
            if type(v) is not int or not 0 <= v < m:
                raise InputFormatError(f"entry act[{g}][{s}] = {v!r} out of range 0..{m - 1}")
    for s in range(m):
        if act[0][s] != s:
            raise InputFormatError(f"identity does not fix color {s}")
    for g in range(group.order):
        for h in range(group.order):
            for s in range(m):
                if act[g][act[h][s]] != act[group.mul(g, h)][s]:
                    raise InputFormatError(
                        f"act[{g}][act[{h}][{s}]] != act[{g}*{h}][{s}]: not a group action"
                    )
    return GroupAction(group=group, set_size=m, act=tuple(tuple(row) for row in act))


def trivial_action(group, set_size) -> GroupAction:
    act = tuple(tuple(range(set_size)) for _ in range(group.order))
    return GroupAction(group=group, set_size=set_size, act=act)


def orbits(action):
    """Orbit partition of the color set, each orbit sorted, sorted by minimum:
    the orbit of each color that is its orbit's minimum."""
    return [orb for s in range(action.set_size) if (orb := orbit_of(action, s))[0] == s]


def orbit_of(action, s):
    if not 0 <= s < action.set_size:
        raise IndexOutOfRange(f"color {s} not in 0..{action.set_size - 1}")
    return sorted({action.apply(g, s) for g in range(action.group.order)})


def is_invariant(action, T):
    """Is the color subset T closed under the action?  A color outside the
    color set raises IndexOutOfRange."""
    T = set(T)
    return all(set(orbit_of(action, t)) <= T for t in T)


def restrict_action(action, keep):
    """Action induced on an invariant color subset.

    Returns (new_action, index_map) where index_map[old] = new for kept colors.
    """
    keep = sorted(set(keep))
    index_map = {s: i for i, s in enumerate(keep)}
    act = tuple(
        tuple(index_map[action.apply(g, s)] for s in keep) for g in range(action.group.order)
    )
    return GroupAction(group=action.group, set_size=len(keep), act=act), index_map


# ---------------------------------------------------------------------------
# Standard groups used throughout the test battery.


def trivial_group():
    return validate_group([[0]])


def cyclic_group(k):
    return validate_group([[(i + j) % k for j in range(k)] for i in range(k)])


def direct_product(g1, g2):
    """Direct product with elements enumerated as i1 * |G2| + i2."""
    n1, n2 = g1.order, g2.order
    table = [
        [g1.mul(a1, b1) * n2 + g2.mul(a2, b2) for b1 in range(n1) for b2 in range(n2)]
        for a1 in range(n1)
        for a2 in range(n2)
    ]
    return validate_group(table)


def klein_four_group():
    z2 = cyclic_group(2)
    return direct_product(z2, z2)


def action_from_permutations(group, perms) -> GroupAction:
    """Action defined by one permutation of the color set per group element."""
    act = [list(p) for p in perms]
    return validate_action(group, act)


# ---------------------------------------------------------------------------
# JSON interface.


def load_action_json(data) -> GroupAction:
    """Parse {"order": k, "mult": [[...]], "set_size": m, "act": [[...]]}."""
    if not isinstance(data, dict):
        raise InputFormatError("group-action spec must be a JSON object")
    for key in ("order", "mult", "set_size", "act"):
        if key not in data:
            raise InputFormatError(f"missing key {key!r} in group-action spec")
    order = data["order"]
    set_size = data["set_size"]
    if type(order) is not int or order < 1:
        raise InputFormatError(f"'order' must be a positive integer, got {order!r}")
    if type(set_size) is not int or set_size < 0:
        raise InputFormatError(f"'set_size' must be a non-negative integer, got {set_size!r}")
    # both tables have one row per group element
    for key, width in (("mult", order), ("act", set_size)):
        rows = data[key]
        if not (isinstance(rows, list) and len(rows) == order
                and all(isinstance(row, list) and len(row) == width for row in rows)):
            raise InputFormatError(f"{key!r} must be a list of {order} lists of {width} entries")
    return validate_action(validate_group(data["mult"]), data["act"])


def load_action_file(path) -> GroupAction:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise InputFormatError(f"{path}: {exc}") from exc
    return load_action_json(data)
