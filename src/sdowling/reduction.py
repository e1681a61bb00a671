"""Orbit reduction: the descending closure operator that removes a free color
orbit, and exhaustive verification of its closure properties."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import groups
from .dowling import DEFAULT_MAX_ELEMENTS, build_subposet, cover_moves
from .errors import InvalidSpec
from .labeling import recorded_row
from .poset import subposet_rows


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


def closure_f(code, spec, action, n):
    """Re-attach the orbit-colored part of the zero block as a group-colored
    block, on codes (see `dowling.build_dowling`): the positions holding
    n*|G| + s with s in the orbit form one block at their least position
    p0, each with color phi^-1(s) . phi^-1(s_p0)^-1, where phi(g) = g . base,
    so that p0 gets e; identity when no zero position uses the orbit."""
    group = action.group
    order = group.order
    phi_inv = {n * order + action.apply(g, spec.base): g for g in range(order)}
    moved = [p for p, v in enumerate(code) if v in phi_inv]
    if not moved:
        return code
    p0 = moved[0]
    shift = group.inv(phi_inv[code[p0]])
    values = list(code)
    for p in moved:
        values[p] = p0 * order + group.mul(phi_inv[code[p]], shift)
    return type(code)(values)


def _relabel_zero(n, action, color_map):
    """The translation table, for `cover_moves(n, action).step`, that
    renames each zero-block color s by color_map[s]; a removed color maps
    to n*|G| + len(color_map), a value no reduced code holds."""
    base = n * action.group.order
    table = list(range(max(base + action.set_size, 256)))  # as long as a move table
    for s in range(action.set_size):
        table[base + s] = base + color_map.get(s, len(color_map))
    return type(cover_moves(n, action).bottom)(table)


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


def reduce_and_verify(n, action, T, spec, max_elements=DEFAULT_MAX_ELEMENTS):
    """Build the subposet, apply the closure operator, and check everything.

    Returns (poset, reduced_poset, report) where `reduced_poset` is built
    independently from the action restricted to the surviving colors.
    """
    poset = build_subposet(n, action, T, max_elements=max_elements)
    codes = poset.codes.codes
    index = {code: i for i, code in enumerate(codes)}
    violations = []

    f_of = []
    for i, code in enumerate(codes):
        j = index.get(closure_f(code, spec, action, n))
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
    for x in range(len(poset)):
        for y, et in zip(poset.up[x], recorded_row(poset, x)):
            fx, fy = f_of[x], f_of[y]
            f_et = poset.move(fx, fy)
            image_kind = f_et.kind if f_et else None
            if et.kind == "colored" and et.color in orbit:
                if fx != fy and image_kind != "merge":
                    violations.append(
                        f"orbit-colored edge ({x},{y}) maps to neither a fixed pair nor a merge"
                    )
            elif image_kind != et.kind:
                violations.append(
                    f"edge ({x},{y}) of kind {et.kind} does not map to an edge of the same kind"
                )

    # independent reconstruction on the surviving colors
    keep = [s for s in range(action.set_size) if s not in orbit]
    small_action, color_map = groups.restrict_action(action, keep)
    small_T = sorted(color_map[t] for t in T)
    reduced = build_subposet(n, small_action, small_T, max_elements=max_elements)
    step, table = cover_moves(n, action).step, _relabel_zero(n, action, color_map)
    # keyed in the type of the full codes: tuples past a byte, where the
    # reduced codes may be bytes
    reduced_index = {type(table)(code): i for i, code in enumerate(reduced.codes.codes)}

    iso = len(image) == len(reduced)
    image_map = {}
    for i in image:
        j = reduced_index.get(step(codes[i], table))
        if j is None:
            iso = False
            violations.append(f"image element {i} has no counterpart in the reduced poset")
        else:
            image_map[i] = j
    if iso:
        # compare induced cover relations on the image with the reduced poset
        induced = {(image_map[x], image_map[y])
                   for x, ys in zip(image, subposet_rows(poset, image)) for y in ys}
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
