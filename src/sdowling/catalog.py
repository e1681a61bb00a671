"""Named groups, actions, and parameter grids for batch verification runs."""

from __future__ import annotations

from functools import lru_cache

from . import groups


_GROUPS = {
    "trivial": groups.trivial_group,
    "Z2": lambda: groups.cyclic_group(2),
    "Z3": lambda: groups.cyclic_group(3),
    "Z4": lambda: groups.cyclic_group(4),
    "Z2xZ2": groups.klein_four_group,
}
GROUP_NAMES = tuple(_GROUPS)


@lru_cache(maxsize=None)
def group_by_name(name):
    """The named group; KeyError for an unknown name."""
    return _GROUPS[name]()


def _swap_first_two(m):
    perm = list(range(m))
    perm[0], perm[1] = 1, 0
    return perm


def actions_for(group_name, m):
    """Named actions of the group on m colors: the trivial one, plus one
    canonical nontrivial action where the group admits any.  ValueError for
    a negative m."""
    if m < 0:
        raise ValueError(f"color count must be at least 0, got {m}")
    group = group_by_name(group_name)
    ident = list(range(m))
    out = [("trivial", groups.trivial_action(group, m))]
    if m >= 2:
        swap = _swap_first_two(m)
        if group_name == "Z2":
            out.append(("swap", groups.action_from_permutations(group, [ident, swap])))
        elif group_name == "Z4":
            # the generator acts with order two (through the quotient)
            out.append(
                ("swap", groups.action_from_permutations(group, [ident, swap, ident, swap]))
            )
        elif group_name == "Z2xZ2":
            out.append(
                ("swap", groups.action_from_permutations(group, [ident, ident, swap, swap]))
            )
        elif group_name == "Z3" and m >= 3:
            cyc = list(range(m))
            cyc[0], cyc[1], cyc[2] = 1, 2, 0
            cyc_inv = list(range(m))
            cyc_inv[0], cyc_inv[1], cyc_inv[2] = 2, 0, 1
            out.append(("cycle", groups.action_from_permutations(group, [ident, cyc, cyc_inv])))
    return out


def dowling_grid(ns=(1, 2, 3), group_names=GROUP_NAMES, set_sizes=(0, 1, 2, 3)):
    """Grid points (key, n, action) for the full-poset battery."""
    for n in ns:
        for gname in group_names:
            for m in set_sizes:
                for aname, action in actions_for(gname, m):
                    key = f"n={n},G={gname},m={m},act={aname}"
                    yield key, n, action


def invariant_subsets(action):
    """Representative invariant color subsets T with the action trivial on
    the complement, smallest first."""
    orbs = groups.orbits(action)
    nontrivial = [o for o in orbs if len(o) > 1]
    forced = sorted(s for o in nontrivial for s in o)
    full = sorted(range(action.set_size))
    candidates = [tuple(forced), tuple(full)]
    if forced != full:
        # one intermediate choice: forced part plus the smallest fixed color
        fixed = [s for s in full if s not in forced]
        candidates.insert(1, tuple(sorted(forced + fixed[:1])))
    seen = []
    for T in candidates:
        if T not in seen:
            seen.append(T)
    return seen
