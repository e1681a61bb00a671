"""The reproduction battery: every headline claim checked exhaustively at
desk scale.  Used by the `certify --paper-suite` subcommand and mirrored by
the acceptance test module."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import catalog, groups, labeling, reduction, topology, trees
from .dowling import adjoin_top, build_dowling, build_subposet
from .poset import characteristic_polynomial, moebius, Polynomial, sphere_product


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)

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


# ---------------------------------------------------------------------------
# Shared cached builds.

_CACHE = {}


def _grid():
    return list(catalog.dowling_grid())


def _dhat(key, n, action):
    ck = ("dhat", key)
    if ck not in _CACHE:
        _CACHE[ck] = adjoin_top(_d(key, n, action))
    return _CACHE[ck]


def _d(key, n, action):
    ck = ("d", key)
    if ck not in _CACHE:
        _CACHE[ck] = build_dowling(n, action)
    return _CACHE[ck]


def _el_lambda(key, n, action):
    ck = ("el", key)
    if ck not in _CACHE:
        _CACHE[ck] = labeling.verify_el(
            _dhat(key, n, action), labeling.label_lambda, with_witness_chains=False
        )
    return _CACHE[ck]


# ---------------------------------------------------------------------------
# Criteria.


def criterion_1():
    failures = []
    checked = 0
    for key, n, action in _grid():
        checked += 1
        if not _el_lambda(key, n, action).passed:
            failures.append(key)
    return CriterionResult(1, "lambda is an EL-labeling of the full bounded poset",
                           not failures, checked, failures)


def criterion_2():
    failures = []
    checked = 0
    for key, n, action in _grid():
        for T in catalog.invariant_subsets(action):
            checked += 1
            phat = adjoin_top(build_subposet(n, action, list(T)))
            rep = labeling.verify_el(phat, labeling.label_mu, with_witness_chains=False)
            if not rep.passed:
                failures.append(f"{key},T={list(T)}")
    return CriterionResult(2, "mu is an EL-labeling of subposets with trivial action off T",
                           not failures, checked, failures)


def criterion_3():
    failures = []
    checked = 0
    for key, n, action in _grid():
        checked += 1
        dec = _el_lambda(key, n, action).decreasing_chain_count
        expected = sphere_product(n, action.group.order, action.set_size)
        if dec != expected:
            failures.append(f"{key}: {dec} != {expected}")
            continue
        if action.group.order == 1 and action.set_size >= 2:
            direct = math.factorial(n) * math.comb(n + action.set_size - 2, n)
            if dec != direct:
                failures.append(f"{key}: {dec} != direct count {direct}")
    return CriterionResult(3, "decreasing chain counts match the closed-form product",
                           not failures, checked, failures)


def criterion_4():
    failures = []
    checked = 0
    for k in range(1, 7):
        for q in range(4):
            for r in range(4):
                checked += 1
                count = sum(1 for _ in trees.enumerate_blooming(k, q, r))
                expected = trees.count_blooming(k, q, r)
                if count != expected:
                    failures.append(f"k={k},q={q},r={r}: {count} != {expected}")
    if trees.count_blooming(3, 2, 1) != 18 or trees.count_blooming(3, 0, 0) != 3:
        failures.append("figure counts 18 / 3 do not match")
    return CriterionResult(4, "blooming tree enumeration matches the product formula",
                           not failures, checked, failures)


def _bijection_points():
    for n in (1, 2, 3):
        for gname in ("Z2", "Z3"):
            for m in (0, 2, 3):
                for aname, action in catalog.actions_for(gname, m):
                    yield f"n={n},G={gname},m={m},act={aname}", n, action


def criterion_5():
    failures = []
    checked = 0
    for key, n, action in _bijection_points():
        checked += 1
        dhat = _dhat(key, n, action)
        chains = [
            [dhat.elements[i] for i in c]
            for c in _el_lambda(key, n, action).decreasing_chains
        ]
        _, messages = trees.bijection_failures(chains, n, action)
        failures += [f"{key}: {msg}" for msg in messages]
    # the worked figure instance: n=4, |G|=3, |S|=5
    checked += 1
    z3 = catalog.group_by_name("Z3")
    act = groups.trivial_action(z3, 5)
    from .elements import bottom_element, make_element, top_element

    chain = [
        bottom_element(4),
        make_element(z3, 4, [((1, 2), (0, 2)), ((3,), (0,)), ((4,), (0,))], []),
        make_element(z3, 4, [((1, 2, 4), (0, 2, 1)), ((3,), (0,))], []),
        make_element(z3, 4, [((1, 2, 4), (0, 2, 1))], [(3, 2)]),
        make_element(z3, 4, [], [(3, 2), (1, 1), (2, 1), (4, 1)]),
        top_element(4),
    ]
    figure_tree = (
        0,
        ("*", "*", (3, ("*",)), "*", (1, ((2, ("*",)), "*", (4, ("*",))))),
    )
    if trees.psi(chain, act) != figure_tree or trees.psi_inv(figure_tree, 4, act) != chain:
        failures.append("worked figure instance does not round-trip")
    return CriterionResult(5, "the chain/tree bijection round-trips both ways",
                           not failures, checked, failures)


def criterion_6():
    failures = []
    checked = 0
    for key, n, action in _grid():
        rep = _el_lambda(key, n, action)
        if not rep.passed:
            continue
        checked += 1
        d = _d(key, n, action)
        eps = 1 if action.set_size == 0 else 0
        dim = n - 1 - eps
        count = rep.decreasing_chain_count
        cert = topology.certify_wedge(d, dim, count)
        if dim < 0:
            # proper part empty; reduced homology lives in degree -1
            ok = cert.profile.empty and count == 1
        else:
            ok = cert.passed
        if not ok:
            failures.append(f"{key}: betti {cert.profile.reduced_betti} "
                            f"torsion {cert.profile.torsion} expected {count} in dim {dim}")
    return CriterionResult(6, "homology of the proper part is a free wedge profile",
                           not failures, checked, failures)


def criterion_7():
    failures = []
    z2 = catalog.group_by_name("Z2")
    z4 = catalog.group_by_name("Z4")
    swap2 = groups.action_from_permutations(z2, [[0, 1], [1, 0]])
    swap4 = groups.action_from_permutations(z4, [[0, 1], [1, 0], [0, 1], [1, 0]])
    p2 = build_subposet(2, swap2, [])
    h2 = topology.homology(topology.order_complex(p2))
    if h2.reduced_betti != [1, 0] or any(h2.torsion):
        failures.append(f"Z2 counterexample betti {h2.reduced_betti}")
    p4 = build_subposet(2, swap4, [])
    h4 = topology.homology(topology.order_complex(p4))
    if h4.reduced_betti != [1, 2] or any(h4.torsion):
        failures.append(f"Z4 counterexample betti {h4.reduced_betti}")
    cert = topology.certify_wedge(p4, 0, 1)
    if cert.passed:
        failures.append("Z4 counterexample unexpectedly certifies as a wedge")
    return CriterionResult(7, "non-shellable counterexamples have the predicted homology",
                           not failures, 3, failures)


def _closure_configs():
    z2 = catalog.group_by_name("Z2")
    z3 = catalog.group_by_name("Z3")
    swap2 = groups.action_from_permutations(z2, [[0, 1], [1, 0]])
    swap3 = groups.action_from_permutations(z2, [[0, 1, 2], [1, 0, 2]])
    cyc3 = groups.action_from_permutations(z3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    for n in (2, 3):
        yield f"n={n},Z2-swap,m=2,T=[]", n, swap2, [], 0, n - 2
        yield f"n={n},Z2-swap,m=3,T=[2]", n, swap3, [2], 0, n - 1
        yield f"n={n},Z2-swap,m=3,T=[]", n, swap3, [], 0, n - 1
        yield f"n={n},Z3-cycle,m=3,T=[]", n, cyc3, [], 0, n - 2


def criterion_8():
    failures = []
    checked = 0
    for key, n, action, T, orbit_min, dim in _closure_configs():
        checked += 1
        spec = reduction.make_spec(action, T, orbit_min)
        poset, reduced, rep = reduction.reduce_and_verify(n, action, T, spec)
        if not rep.passed:
            failures.append(f"{key}: closure violations {rep.violations[:3]}")
            continue
        before = topology.homology(topology.order_complex(poset))
        after = topology.homology(topology.order_complex(reduced))
        pad = max(len(before.reduced_betti), len(after.reduced_betti))
        b = before.reduced_betti + [0] * (pad - len(before.reduced_betti))
        a = after.reduced_betti + [0] * (pad - len(after.reduced_betti))
        if b != a or any(before.torsion) or any(after.torsion):
            failures.append(f"{key}: betti changed {b} -> {a}")
            continue
        # a wedge of zero spheres (contractible) is legitimate
        expected = [b[d] if d == dim else 0 for d in range(pad)]
        if b != expected:
            failures.append(f"{key}: betti {b} not a wedge in dimension {dim}")
    return CriterionResult(8, "closure operator verified; reduction preserves homology",
                           not failures, checked, failures)


def criterion_9():
    failures = []
    checked = 0
    for key, n, action in _grid():
        checked += 1
        d = _d(key, n, action)
        chi = characteristic_polynomial(d)
        m, g = action.set_size, action.group.order
        if m > 0:
            expected = Polynomial.from_roots([m + g * i for i in range(n)])
        else:
            expected = Polynomial.from_roots([g * i for i in range(1, n)])
        if chi != expected:
            failures.append(f"{key}: {chi.coeffs} != {expected.coeffs}")
    return CriterionResult(9, "characteristic polynomial matches the closed form",
                           not failures, checked, failures)


def criterion_10():
    failures = []
    checked = 0
    for key, n, action in _grid():
        rep = _el_lambda(key, n, action)
        if not rep.passed:
            continue
        checked += 1
        dhat = _dhat(key, n, action)
        mu = moebius(dhat, dhat.bottom, dhat.top)
        rk = dhat.max_rank
        if (-1) ** rk * mu != rep.decreasing_chain_count:
            failures.append(f"{key}: (-1)^{rk} * {mu} != {rep.decreasing_chain_count}")
    return CriterionResult(10, "Moebius / decreasing-chain duality",
                           not failures, checked, failures)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_suite(progress=None):
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if progress:
            progress(res.line())
    return results
