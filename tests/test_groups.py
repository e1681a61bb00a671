import pytest
from hypothesis import given, strategies as st

from sdowling import catalog, groups
from sdowling.errors import (
    IndexOutOfRange,
    InputFormatError,
    NoIdentity,
    NoInverse,
    NonAssociative,
)


def test_cyclic_group_axioms():
    for k in (1, 2, 3, 4, 5):
        g = groups.cyclic_group(k)
        assert g.order == k
        assert g.mul(0, 1 % k) == 1 % k
        for a in range(k):
            assert g.mul(a, g.inv(a)) == 0


def test_klein_four_is_not_cyclic():
    g = groups.klein_four_group()
    assert g.order == 4
    assert all(g.mul(a, a) == 0 for a in range(4))


def test_direct_product_order():
    g = groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(3))
    assert g.order == 6


def test_validate_group_rejects_non_associative():
    # an identity and an inverse for each element, so only associativity
    # fails: (1 * 1) * 2 = 2 but 1 * (1 * 2) = 0
    table = [[0, 1, 2], [1, 0, 1], [2, 2, 0]]
    with pytest.raises(NonAssociative) as exc:
        groups.validate_group(table)
    assert exc.value.triple == (1, 1, 2)


def test_validate_group_rejects_missing_inverse():
    table = [[0, 1, 2], [1, 1, 1], [2, 1, 0]]
    with pytest.raises(NoInverse) as exc:
        groups.validate_group(table)
    assert exc.value.element == 1


@pytest.mark.parametrize("table,message", [
    ([], "empty multiplication table"),
    ([[0, 1], [1]], "row 1 has length 1, expected 2"),
])
def test_validate_group_rejects_malformed_tables(table, message):
    with pytest.raises(InputFormatError, match=f"^{message}$"):
        groups.validate_group(table)


def test_validate_group_rejects_missing_identity():
    table = [[1, 0], [0, 1]]
    with pytest.raises(NoIdentity):
        groups.validate_group(table)


@given(st.integers(min_value=1, max_value=5), st.data())
def test_random_tables_agree_with_brute_force_axioms(k, data):
    table = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=k - 1), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
    def brute_ok():
        if any(table[0][b] != b or table[a][0] != a for a in range(k) for b in range(k)):
            return False
        for a in range(k):
            if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(k)):
                return False
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        return False
        return True

    try:
        groups.validate_group(table)
        valid = True
    except (NonAssociative, NoIdentity, NoInverse, InputFormatError):
        valid = False
    assert valid == brute_ok()


def test_action_orbits_and_stabilizers():
    z2 = groups.cyclic_group(2)
    act = groups.action_from_permutations(z2, [[0, 1, 2], [1, 0, 2]])
    assert groups.orbits(act) == [[0, 1], [2]]
    assert groups.orbit_of(act, 1) == [0, 1]
    with pytest.raises(IndexOutOfRange):
        groups.orbit_of(act, 5)


def test_invariance_and_restriction():
    z2 = groups.cyclic_group(2)
    act = groups.action_from_permutations(z2, [[0, 1, 2], [1, 0, 2]])
    assert groups.is_invariant(act, [0, 1])
    assert groups.is_invariant(act, [2])
    assert not groups.is_invariant(act, [0])
    with pytest.raises(IndexOutOfRange):
        groups.is_invariant(act, [3])
    small, index_map = groups.restrict_action(act, [2])
    assert small.set_size == 1
    assert index_map == {2: 0}
    assert small.apply(1, 0) == 0


def test_validate_action_rejects_non_action():
    z2 = groups.cyclic_group(2)
    with pytest.raises(InputFormatError):
        groups.validate_action(z2, [[0, 1], [1, 1]])


@pytest.mark.parametrize("act,message", [
    ([[0, 1]], "action table has 1 rows, expected 2"),
    ([[0, 1], [1]], "action row 1 has length 1, expected 2"),
    ([[1, 0], [0, 1]], "identity does not fix color 0"),
])
def test_validate_action_rejects_malformed_tables(act, message):
    with pytest.raises(InputFormatError, match=f"^{message}$"):
        groups.validate_action(groups.cyclic_group(2), act)


def test_action_json_round_trip(tmp_path):
    z2 = groups.cyclic_group(2)
    act = groups.action_from_permutations(z2, [[0, 1], [1, 0]])
    data = {"order": 2, "mult": [[0, 1], [1, 0]], "set_size": 2, "act": [[0, 1], [1, 0]]}
    back = groups.load_action_json(data)
    assert back.act == act.act
    assert back.group.mult == act.group.mult
    path = tmp_path / "act.json"
    import json

    path.write_text(json.dumps(data))
    assert groups.load_action_file(str(path)).act == act.act


def test_load_action_json_reports_bad_entries():
    data = {"order": 2, "mult": [[0, 1], [1, 0]], "set_size": 1, "act": [[0], [5]]}
    with pytest.raises(InputFormatError):
        groups.load_action_json(data)


@pytest.mark.parametrize("data", [[], "Z2", None])
def test_load_action_json_requires_an_object(data):
    with pytest.raises(InputFormatError, match="^group-action spec must be a JSON object$"):
        groups.load_action_json(data)


@st.composite
def _cycle_actions(draw):
    """A random action of Z_k, k in {2, 3}, on m <= 5 colors: a permutation
    made of disjoint k-cycles, with the generator acting by it.  Returns
    the action and its orbits read off the cycles."""
    k = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(min_value=0, max_value=5))
    shuffled = draw(st.permutations(range(m)))
    c = draw(st.integers(min_value=0, max_value=m // k))
    cycles = [shuffled[i * k : (i + 1) * k] for i in range(c)]
    perm = list(range(m))
    for cyc in cycles:
        for j, s in enumerate(cyc):
            perm[s] = cyc[(j + 1) % k]
    perms = [list(range(m))]
    for _ in range(k - 1):
        perms.append([perm[s] for s in perms[-1]])
    action = groups.action_from_permutations(groups.cyclic_group(k), perms)
    expected = sorted([sorted(cyc) for cyc in cycles] + [[s] for s in shuffled[c * k :]])
    return action, expected


@given(_cycle_actions())
def test_orbits_match_the_drawn_cycles(drawn):
    action, expected = drawn
    assert groups.orbits(action) == expected


# The catalog tables as they were first written out by hand, the oracle
# for the action table and the orbit filter.


def _swap_first_two(m):
    perm = list(range(m))
    perm[0], perm[1] = 1, 0
    return perm


def _actions_for_by_hand(group_name, m):
    if m < 0:
        raise ValueError(f"color count must be at least 0, got {m}")
    group = catalog.group_by_name(group_name)
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


def _orbits_by_hand(action):
    seen = set()
    out = []
    for s in range(action.set_size):
        if s in seen:
            continue
        orb = {action.apply(g, s) for g in range(action.group.order)}
        seen |= orb
        out.append(sorted(orb))
    return out


def _invariant_subsets_by_hand(action):
    orbs = _orbits_by_hand(action)
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


@pytest.mark.parametrize("group_name", catalog.GROUP_NAMES)
def test_catalog_tables_match_the_hand_written_ones(group_name):
    """Same action names, equal actions with equal hashes (the battery's
    cached builds key on the action), and the same orbits and invariant
    subsets, for every catalog group on m <= 6 colors."""
    for m in range(7):
        got, want = catalog.actions_for(group_name, m), _actions_for_by_hand(group_name, m)
        assert [name for name, _ in got] == [name for name, _ in want], m
        for (_, a), (_, b) in zip(got, want):
            assert a == b and hash(a) == hash(b), m
            assert groups.orbits(a) == _orbits_by_hand(b), m
            assert catalog.invariant_subsets(a) == _invariant_subsets_by_hand(b), m
