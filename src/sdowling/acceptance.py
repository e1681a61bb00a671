"""The reproduction battery: every headline claim checked exhaustively at
desk scale.  Used by the `certify --paper-suite` subcommand and mirrored by
the acceptance test module."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import catalog, labeling, reduction, topology, trees
from .dowling import adjoin_top, bracket_notation, build_dowling, build_subposet, cut_subposet
from .poset import characteristic_polynomial, moebius, Polynomial, sphere_product


@dataclass
class CriterionResult:
    number: int
    name: str
    checked: int
    failures: list

    @property
    def passed(self):
        return not self.failures

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({len(self.failures)} failures)" if self.failures else ""
        return f"[{status}] criterion {self.number}: {self.name} [{self.checked} checks]{extra}"

    def to_json(self):
        return {
            "criterion": self.number,
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failures": self.failures[:20],
        }


# the criteria in registration order; run_suite reads this module global
ALL_CRITERIA = []


def _criterion(number, name):
    """Register a criterion.  The decorated generator yields one list of
    failure messages per check it makes; the registered function runs it to
    the end and tallies the checks and failures into a CriterionResult."""

    def register(checks):
        @functools.wraps(checks)
        def run():
            checked, failures = 0, []
            for messages in checks():
                checked += 1
                failures += messages
            return CriterionResult(number, name, checked, failures)

        ALL_CRITERIA.append(run)
        return run

    return register


def _unless(ok, message):
    """The failure messages of one check: none when it holds."""
    return [] if ok else [message]


# ---------------------------------------------------------------------------
# Shared cached builds, one per grid point.


@functools.cache
def _d(n, action):
    return build_dowling(n, action)


@functools.cache
def _dhat(n, action):
    return adjoin_top(_d(n, action))


@functools.cache
def _el_lambda(n, action):
    return labeling.verify_el(_dhat(n, action), labeling.label_lambda)


# ---------------------------------------------------------------------------
# Criteria.


@_criterion(1, "lambda is an EL-labeling of the full bounded poset")
def criterion_1():
    for key, n, action in catalog.dowling_grid():
        yield _unless(_el_lambda(n, action).passed, key)


@_criterion(2, "mu is an EL-labeling of subposets with trivial action off T")
def criterion_2():
    for key, n, action in catalog.dowling_grid():
        for T in catalog.invariant_subsets(action):
            phat = adjoin_top(cut_subposet(_d(n, action), action, list(T)))
            rep = labeling.verify_el(phat, labeling.label_mu)
            yield _unless(rep.passed, f"{key},T={list(T)}")


@_criterion(3, "decreasing chain counts match the closed-form product")
def criterion_3():
    for key, n, action in catalog.dowling_grid():
        dec = _el_lambda(n, action).decreasing_chain_count
        expected = sphere_product(n, action.group.order, action.set_size)
        yield _unless(dec == expected, f"{key}: {dec} != {expected}")


@_criterion(4, "blooming tree enumeration matches the product formula")
def criterion_4():
    figure_counts = {(3, 2, 1): 18, (3, 0, 0): 3}  # the trees drawn in the paper's figures
    for k in range(1, 7):
        for q in range(4):
            for r in range(4):
                count = sum(1 for _ in trees.enumerate_blooming(k, q, r))
                expected = trees.count_blooming(k, q, r)
                figure = figure_counts.get((k, q, r), expected)
                yield (_unless(count == expected, f"k={k},q={q},r={r}: {count} != {expected}")
                       + _unless(expected == figure, "figure counts 18 / 3 do not match"))


# the decreasing chain of the worked figure, in ASCII bracket notation
FIGURE_CHAIN = [
    "[1_e | 2_e | 3_e | 4_e || 0]",
    "[1_e 2_g2 | 3_e | 4_e || 0]",
    "[1_e 2_g2 4_g | 3_e || 0]",
    "[1_e 2_g2 4_g || 3_s3]",
    "[0 || 1_s2 2_s2 3_s3 4_s2]",
    "1^",
]


@_criterion(5, "the chain/tree bijection round-trips both ways")
def criterion_5():
    for key, n, action in catalog.dowling_grid(group_names=("Z2", "Z3"), set_sizes=(0, 2, 3)):
        _, _, messages = trees.bijection_failures(_dhat(n, action), n, action)
        yield [f"{key}: {msg}" for msg in messages]
    # the worked figure instance: n=4, |G|=3, |S|=5
    act = dict(catalog.actions_for("Z3", 5))["trivial"]
    figure_tree = (
        0,
        ("*", "*", (3, ("*",)), "*", (1, ((2, ("*",)), "*", (4, ("*",))))),
    )
    chain = trees.psi_inv(figure_tree, 4, act)
    rendered = [bracket_notation(code, act.group.order, ascii_only=True) for code in chain]
    yield _unless(rendered == FIGURE_CHAIN and trees.psi(chain, act) == figure_tree,
                  "worked figure instance does not round-trip")


@_criterion(6, "homology of the proper part is a free wedge profile")
def criterion_6():
    for key, n, action in catalog.dowling_grid():
        rep = _el_lambda(n, action)
        if not rep.passed:
            yield [f"{key}: lambda is not EL; no sphere count is predicted"]
            continue
        eps = 1 if action.set_size == 0 else 0
        dim = n - 1 - eps
        count = rep.decreasing_chain_count
        cert = topology.certify_wedge(_d(n, action), dim, count)
        yield _unless(cert.passed, f"{key}: betti {cert.profile.reduced_betti} "
                          f"torsion {cert.profile.torsion} expected {count} in dim {dim}")


@_criterion(7, "non-shellable counterexamples have the predicted homology")
def criterion_7():
    swap2 = dict(catalog.actions_for("Z2", 2))["swap"]
    swap4 = dict(catalog.actions_for("Z4", 2))["swap"]
    h2 = topology.homology(topology.order_complex(build_subposet(2, swap2, [])))
    yield _unless(h2.reduced_betti == [1, 0] and not any(h2.torsion),
                  f"Z2 counterexample betti {h2.reduced_betti}")
    cert4 = topology.certify_wedge(build_subposet(2, swap4, []), 0, 1)
    h4 = cert4.profile
    yield _unless(h4.reduced_betti == [1, 2] and not any(h4.torsion),
                  f"Z4 counterexample betti {h4.reduced_betti}")
    yield _unless(not cert4.passed,
                  "Z4 counterexample unexpectedly certifies as a wedge")


def _closure_configs():
    swap2 = dict(catalog.actions_for("Z2", 2))["swap"]
    swap3 = dict(catalog.actions_for("Z2", 3))["swap"]
    cyc3 = dict(catalog.actions_for("Z3", 3))["cycle"]
    for n in (2, 3):
        yield f"n={n},Z2-swap,m=2,T=[]", n, swap2, [], 0, n - 2
        yield f"n={n},Z2-swap,m=3,T=[2]", n, swap3, [2], 0, n - 1
        yield f"n={n},Z2-swap,m=3,T=[]", n, swap3, [], 0, n - 1
        yield f"n={n},Z3-cycle,m=3,T=[]", n, cyc3, [], 0, n - 2


def _closure_failures(key, n, action, T, orbit_min, dim):
    """The first failure of one closure configuration: its closure check,
    then the same wedge in dimension dim before and after the reduction."""
    spec = reduction.make_spec(action, T, orbit_min)
    poset, reduced, rep = reduction.reduce_and_verify(n, action, T, spec)
    if not rep.passed:
        return [f"{key}: closure violations {rep.violations[:3]}"]
    before = topology.homology(topology.order_complex(poset))
    after = topology.homology(topology.order_complex(reduced))
    # a wedge of zero spheres (contractible) is legitimate
    count = before.reduced_betti[dim] if dim < len(before.reduced_betti) else 0
    return _unless(before.is_wedge(dim, count) and after.is_wedge(dim, count),
                   f"{key}: betti {before.reduced_betti} -> {after.reduced_betti} "
                   f"not both a wedge of {count} spheres in dimension {dim}")


@_criterion(8, "closure operator verified; reduction preserves homology")
def criterion_8():
    for config in _closure_configs():
        yield _closure_failures(*config)


@_criterion(9, "characteristic polynomial matches the closed form")
def criterion_9():
    for key, n, action in catalog.dowling_grid():
        chi = characteristic_polynomial(_d(n, action))
        m, g = action.set_size, action.group.order
        if m > 0:
            expected = Polynomial.from_roots([m + g * i for i in range(n)])
        else:
            expected = Polynomial.from_roots([g * i for i in range(1, n)])
        yield _unless(chi == expected, f"{key}: {chi.coeffs} != {expected.coeffs}")


@_criterion(10, "Moebius / decreasing-chain duality")
def criterion_10():
    for key, n, action in catalog.dowling_grid():
        rep = _el_lambda(n, action)
        if not rep.passed:
            yield [f"{key}: lambda is not EL; no sphere count is predicted"]
            continue
        dhat = _dhat(n, action)
        mu = moebius(dhat, dhat.bottom, dhat.top)
        rk = dhat.max_rank
        yield _unless((-1) ** rk * mu == rep.decreasing_chain_count,
                      f"{key}: (-1)^{rk} * {mu} != {rep.decreasing_chain_count}")


def run_suite(progress=None):
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if progress:
            progress(res.line())
    return results
