"""Orbit reduction: the descending closure operator that removes a free color
orbit, and exhaustive verification of its closure properties."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import groups
from .dowling import build_subposet
from .elements import make_element
from .errors import InvalidSpec
from .labeling import classify_cover
from .poset import induced_covers


@dataclass(frozen=True)
class OrbitReductionSpec:
    orbit: tuple  # sorted color indices, one free orbit outside T
    base: int  # chosen base color in the orbit


def make_spec(action, T, orbit_min, base=None) -> OrbitReductionSpec:
    """Validate and build a reduction spec for the orbit containing orbit_min."""
    orbit = tuple(groups.orbit_of(action, orbit_min))
    tset = set(T)
    if set(orbit) & tset:
        raise InvalidSpec(f"orbit {orbit} meets T = {sorted(tset)}")
    if len(orbit) != action.group.order:
        raise InvalidSpec(
            f"orbit {orbit} has stabilizer of order "
            f"{action.group.order // len(orbit)}, expected 1"
        )
    if base is None:
        base = orbit[0]
    if base not in orbit:
        raise InvalidSpec(f"base color {base} is not in orbit {orbit}")
    return OrbitReductionSpec(orbit=orbit, base=base)


def closure_f(x, spec, action):
    """Re-attach the orbit-colored part of the zero block as a group-colored
    block; identity when no zero position uses the orbit."""
    if x.is_top:
        return x
    group = action.group
    orbit = set(spec.orbit)
    in_orbit = [(p, s) for p, s in x.zero if s in orbit]
    if not in_orbit:
        return x
    # phi(g) = g . base is a bijection G -> orbit; pull colors back through it
    phi_inv = {action.apply(g, spec.base): g for g in range(group.order)}
    support = tuple(p for p, _ in in_orbit)
    colors = tuple(phi_inv[s] for _, s in in_orbit)
    rest = tuple((p, s) for p, s in x.zero if s not in orbit)
    return make_element(group, x.n, x.blocks + ((support, colors),), rest)


def reduce_poset(n, action, T, spec, max_elements=None):
    """Poset of the closure operator's image, together with the closure report.

    The image is rebuilt as the independently constructed subposet on the
    surviving colors.  Raises InvalidSpec when the image is not isomorphic to
    that subposet.
    """
    poset, reduced, report = reduce_and_verify(n, action, T, spec, max_elements)
    if not report.isomorphic:
        raise InvalidSpec("closure image is not isomorphic to the reduced subposet")
    return reduced, report


def _relabel_zero(element, color_map, group):
    zero = tuple((p, color_map[s]) for p, s in element.zero)
    return make_element(group, element.n, element.blocks, zero)


@dataclass
class ClosureReport:
    passed: bool
    violations: list = field(default_factory=list)
    image_size: int = 0
    isomorphic: bool = False

    def to_json(self):
        return {
            "passed": self.passed,
            "violations": self.violations,
            "image_size": self.image_size,
            "isomorphic_to_reduced": self.isomorphic,
        }


def reduce_and_verify(n, action, T, spec, max_elements=None):
    """Build the subposet, apply the closure operator, and check everything.

    Returns (poset, reduced_poset, report) where `reduced_poset` is built
    independently from the action restricted to the surviving colors.
    """
    kwargs = {} if max_elements is None else {"max_elements": max_elements}
    poset = build_subposet(n, action, T, **kwargs)
    group = action.group
    index = {el: i for i, el in enumerate(poset.elements)}
    violations = []

    f_of = []
    for i, el in enumerate(poset.elements):
        fx = closure_f(el, spec, action)
        j = index.get(fx)
        if j is None:
            violations.append(f"f(element {i}) left the subposet")
            j = i
        f_of.append(j)

    # f(x) <= x
    for i, j in enumerate(f_of):
        if not poset.leq(j, i):
            violations.append(f"f({i}) = {j} is not <= {i}")
    # order preservation suffices to check on cover edges
    for x, y in poset.cover_edges():
        if not poset.leq(f_of[x], f_of[y]):
            violations.append(f"cover ({x},{y}) maps to incomparable ({f_of[x]},{f_of[y]})")
    # idempotence
    for i, j in enumerate(f_of):
        if f_of[j] != j:
            violations.append(f"f is not idempotent at {i}: f^2 != f")
    # only the bottom maps to the bottom
    preimage_bottom = [i for i, j in enumerate(f_of) if j == poset.bottom]
    if preimage_bottom != [poset.bottom]:
        violations.append(f"f^-1(bottom) = {preimage_bottom}, expected only the bottom")

    image = sorted(set(f_of))

    # edge-by-edge case analysis from the orbit-reduction argument
    orbit = set(spec.orbit)
    for x, y in poset.cover_edges():
        fx, fy = f_of[x], f_of[y]
        et = classify_cover(poset.elements[x], poset.elements[y])
        if et.kind == "colored" and et.color in orbit:
            if not (fx == fy or _is_cover_kind(poset, fx, fy, "merge")):
                violations.append(
                    f"orbit-colored edge ({x},{y}) maps to neither a fixed pair nor a merge"
                )
        else:
            if fx == fy or not _is_cover_kind(poset, fx, fy, et.kind):
                violations.append(
                    f"edge ({x},{y}) of kind {et.kind} does not map to an edge of the same kind"
                )

    # independent reconstruction on the surviving colors
    keep = [s for s in range(action.set_size) if s not in orbit]
    small_action, color_map = groups.restrict_action(action, keep)
    small_T = sorted(color_map[t] for t in T)
    reduced = build_subposet(n, small_action, small_T, **kwargs)
    reduced_index = {el: i for i, el in enumerate(reduced.elements)}

    iso = len(image) == len(reduced.elements)
    image_map = {}
    for i in image:
        relabeled = _relabel_zero(poset.elements[i], color_map, group)
        j = reduced_index.get(relabeled)
        if j is None:
            iso = False
            violations.append(f"image element {i} has no counterpart in the reduced poset")
        else:
            image_map[i] = j
    if iso:
        # compare induced cover relations on the image with the reduced poset
        induced = {(image_map[x], image_map[y]) for x, y in induced_covers(poset, image)}
        if induced != set(reduced.cover_edges()):
            iso = False
            violations.append("induced covers on the image differ from the reduced poset")
    if not iso:
        violations.append("image is not isomorphic to the independently built reduced poset")

    report = ClosureReport(
        passed=not violations,
        violations=violations,
        image_size=len(image),
        isomorphic=iso,
    )
    return poset, reduced, report


def _is_cover_kind(poset, x, y, kind):
    if y not in poset.up[x]:
        return False
    et = classify_cover(poset.elements[x], poset.elements[y])
    if kind == "merge":
        return et.kind in ("coherent", "noncoherent")
    if kind in ("coherent", "noncoherent"):
        return et.kind in ("coherent", "noncoherent")
    return et.kind == kind
