import pytest
from hypothesis import given, strategies as st

from sdowling import groups
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
    # a quasigroup table that breaks associativity
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises((NonAssociative, NoInverse)):
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
