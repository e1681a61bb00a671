"""The acceptance battery: one test per criterion, one pass/fail line each.

Criterion 2 is expected to fail on exactly one grid point: with the cyclic
group of order three permuting all three colors and T equal to the whole
color set, the subposet labeling admits closed intervals with no strictly
increasing maximal chain (and others with several).  The labeling genuinely
is not an EL-labeling there; see tests/test_labeling.py for the focused
counterexample.  The criterion is asserted as stated rather than weakened.
"""

import dataclasses
import functools

from sdowling import acceptance, catalog


def _check(criterion_fn):
    result = criterion_fn()
    print()
    print(result.line())
    for failure in result.failures[:10]:
        print(f"    {failure}")
    assert result.passed, result.line()


def test_criterion_1_el_labeling_full_posets():
    _check(acceptance.criterion_1)


def test_criterion_2_el_labeling_subposets():
    _check(acceptance.criterion_2)


def test_criterion_3_sphere_counts():
    _check(acceptance.criterion_3)


def test_criterion_4_tree_counts():
    _check(acceptance.criterion_4)


def test_criterion_5_bijection_round_trips():
    _check(acceptance.criterion_5)


def test_criterion_6_homology_wedge_profiles():
    _check(acceptance.criterion_6)


def test_criterion_7_counterexample_homology():
    _check(acceptance.criterion_7)


def test_criterion_8_closure_operator_reduction():
    _check(acceptance.criterion_8)


def test_criterion_9_characteristic_polynomial():
    _check(acceptance.criterion_9)


def test_criterion_10_moebius_chain_duality():
    _check(acceptance.criterion_10)


def test_registered_criteria_keep_their_names_and_order():
    # perfbench wraps each registered criterion and names its span after it
    names = [fn.__name__ for fn in acceptance.ALL_CRITERIA]
    assert names == [f"criterion_{k}" for k in range(1, 11)]


def test_criteria_9_and_10_build_no_up_sets(monkeypatch):
    """chi and mu over the grid read no up-set table: fresh caches, so every
    cached poset below was built by these two criteria."""
    for name in ("_d", "_dhat", "_el_lambda"):
        monkeypatch.setattr(acceptance, name,
                            functools.cache(getattr(acceptance, name).__wrapped__))
    assert acceptance.criterion_9().passed and acceptance.criterion_10().passed
    for _, n, action in catalog.dowling_grid():
        assert "above" not in acceptance._d(n, action).__dict__
        assert "above" not in acceptance._dhat(n, action).__dict__


def test_criteria_6_and_10_report_a_point_where_lambda_is_not_el(monkeypatch):
    """Where lambda is not EL its decreasing chains predict no sphere count:
    criteria 6 and 10 report the point by its key instead of passing it by."""
    key, n, action = next(p for p in catalog.dowling_grid() if p[0] == "n=3,G=Z3,m=3,act=cycle")
    el_lambda = acceptance._el_lambda

    def failing_at_key(m, act):
        rep = el_lambda(m, act)
        return dataclasses.replace(rep, passed=False) if (m, act) == (n, action) else rep

    monkeypatch.setattr(acceptance, "_el_lambda", failing_at_key)
    for criterion in (acceptance.criterion_6, acceptance.criterion_10):
        result = criterion()
        assert (result.checked, result.failures) == (
            81, [f"{key}: lambda is not EL; no sphere count is predicted"]), criterion.__name__
