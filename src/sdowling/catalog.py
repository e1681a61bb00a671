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


# the nontrivial action of each group that admits one: its name, a cycle
# on the first colors, and the power of that cycle by which each group
# element acts; Z4 acts through its quotient Z2
_ACTIONS = {
    "Z2": ("swap", 2, (0, 1)),
    "Z4": ("swap", 2, (0, 1, 0, 1)),
    "Z2xZ2": ("swap", 2, (0, 0, 1, 1)),
    "Z3": ("cycle", 3, (0, 1, 2)),
}


def actions_for(group_name, m):
    """Named actions of the group on m colors: the trivial one, plus one
    canonical nontrivial action where the group admits any.  ValueError for
    a negative m."""
    if m < 0:
        raise ValueError(f"color count must be at least 0, got {m}")
    group = group_by_name(group_name)
    out = [("trivial", groups.trivial_action(group, m))]
    if group_name in _ACTIONS:
        name, length, powers = _ACTIONS[group_name]
        if m >= length:
            perms = [[(s + k) % length if s < length else s for s in range(m)] for k in powers]
            out.append((name, groups.action_from_permutations(group, perms)))
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
    return list(dict.fromkeys(candidates))
