"""Spans around the package's public functions, for the traced run.

The benchmark never edits src/: it replaces module attributes in the child
interpreter with wrappers that record a span (name, start, end, parent span,
repetition id) and keep a reference to what the call returned.  Each name
is patched where its caller looks it up, because `from .x import f` copies
the function into the importing module:

- acceptance, reduction and cli import build_dowling / build_subposet by
  name, and build_subposet calls the dowling module's build_dowling;
- acceptance and cli import moebius and characteristic_polynomial by name,
  and moebius recurses through the poset module's global, so only the
  outermost moebius call opens a span;
- run_suite iterates acceptance.ALL_CRITERIA, which is replaced by a tuple
  of wrapped criteria;
- homology calls topology.smith_invariants once per dimension, in order,
  so the n-th smith span under one homology span is the boundary map d_n.

Spans are timed on the child's probe-corrected clock, so the speed probe's
slices are not counted in them.  They stay in memory and are written out
once, after the timed region.  The counts are computed then too, from the
kept results.
"""

from __future__ import annotations

import json
import time

# (module, attribute, span name); one wrapper per span name is shared by
# every module that holds the function
TARGETS = (
    ("sdowling.dowling", "build_dowling", "dowling.build_dowling"),
    ("sdowling.acceptance", "build_dowling", "dowling.build_dowling"),
    ("sdowling.cli", "build_dowling", "dowling.build_dowling"),
    ("sdowling.dowling", "build_subposet", "dowling.build_subposet"),
    ("sdowling.acceptance", "build_subposet", "dowling.build_subposet"),
    ("sdowling.reduction", "build_subposet", "dowling.build_subposet"),
    ("sdowling.cli", "build_subposet", "dowling.build_subposet"),
    ("sdowling.poset", "moebius", "poset.moebius"),
    ("sdowling.acceptance", "moebius", "poset.moebius"),
    ("sdowling.cli", "moebius", "poset.moebius"),
    ("sdowling.poset", "characteristic_polynomial", "poset.charpoly"),
    ("sdowling.acceptance", "characteristic_polynomial", "poset.charpoly"),
    ("sdowling.cli", "characteristic_polynomial", "poset.charpoly"),
    ("sdowling.labeling", "verify_el", "labeling.verify_el"),
    ("sdowling.topology", "order_complex", "topology.order_complex"),
    ("sdowling.topology", "homology", "topology.homology"),
    ("sdowling.topology", "smith_invariants", "topology.smith"),
    ("sdowling.trees", "psi", "trees.psi"),
    ("sdowling.trees", "psi_inv", "trees.psi_inv"),
    ("sdowling.reduction", "reduce_and_verify", "reduction.reduce_and_verify"),
)
GENERATORS = (("sdowling.trees", "enumerate_blooming", "trees.enumerate_blooming"),)
OUTERMOST_ONLY = {"poset.moebius"}
SMITH_DIMS = (1, 2, 3)
LAYERS = ("dowling", "poset", "labeling", "topology", "trees", "reduction", "acceptance")

# per-layer metric -> span names whose inclusive time it sums
TIMES = {
    "dowling.build_dowling_s": ("dowling.build_dowling",),
    "dowling.build_subposet_s": ("dowling.build_subposet",),
    "poset.moebius_s": ("poset.moebius",),
    "poset.charpoly_s": ("poset.charpoly",),
    "labeling.verify_el_s": ("labeling.verify_el",),
    "topology.order_complex_s": ("topology.order_complex",),
    "topology.homology_s": ("topology.homology",),
    "topology.smith_s": ("topology.smith",),
    "trees.enumerate_blooming_s": ("trees.enumerate_blooming",),
    "trees.round_trip_s": ("trees.psi", "trees.psi_inv"),
    "reduction.reduce_and_verify_s": ("reduction.reduce_and_verify",),
    **{f"acceptance.criterion_{k}_s": (f"acceptance.criterion_{k}",) for k in range(1, 11)},
}


class Tracer:
    def __init__(self, rep, clock=time.perf_counter):
        self.rep = rep
        self.clock = clock
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.kept = []  # (name, span index, args, result)
        self.yielded = 0

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self.stack[-1] if self.stack else -1])
        return index

    def wrap(self, name, fn):
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth and name in OUTERMOST_ONLY:
                return fn(*args, **kwargs)
            index = self._open(name)
            self.stack.append(index)
            depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth -= 1
                self.stack.pop()
                self.spans[index][2] = self.clock()
            self.kept.append((name, index, args, result))
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        # The span covers the whole iteration but is never pushed on the
        # stack: while the generator is suspended the caller runs, and no
        # span it opens belongs under this one.
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                for item in fn(*args, **kwargs):
                    self.yielded += 1
                    yield item
            finally:
                self.spans[index][2] = self.clock()

        return wrapper

    def install(self, modules):
        wrapped = {}
        for module, attr, name in TARGETS:
            if name not in wrapped:
                wrapped[name] = self.wrap(name, getattr(modules[module], attr))
            setattr(modules[module], attr, wrapped[name])
        for module, attr, name in GENERATORS:
            setattr(modules[module], attr, self.wrap_generator(name, getattr(modules[module], attr)))
        acc = modules["sdowling.acceptance"]
        acc.ALL_CRITERIA = tuple(
            self.wrap(f"acceptance.{fn.__name__}", fn) for fn in acc.ALL_CRITERIA
        )

    # -----------------------------------------------------------------------
    # After the timed region.

    def summarize(self):
        """Per-layer metrics of this repetition: inclusive time per public
        function, self time per layer, and exact work counts."""
        durations = [end - begin for _, begin, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[i]
        out = {metric: 0.0 for metric in TIMES}
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        out.update({f"topology.smith_s.d{d}": 0.0 for d in SMITH_DIMS})
        name_of = {name: metric for metric, names in TIMES.items() for name in names}
        smith_seen = {}
        for i, (name, _, _, parent) in enumerate(self.spans):
            out[name_of[name]] += durations[i]
            out[name.split(".")[0] + ".self_s"] += durations[i] - child_time[i]
            if name == "topology.smith":
                d = smith_seen[parent] = smith_seen.get(parent, 0) + 1
                out[f"topology.smith_s.d{d}"] += durations[i]
        out.update(self.counts())
        out["trace.spans"] = len(self.spans)
        return out

    def counts(self):
        c = dict.fromkeys(
            ("dowling.elements", "dowling.covers", "labeling.intervals_checked",
             "labeling.chains_walked", "labeling.decreasing_chains",
             "labeling.interval_failures", "topology.faces", "topology.boundary_nnz",
             "trees.round_trips", "reduction.image_size"), 0)
        ambient = {}  # build_subposet span -> elements of its ambient build
        kept = ambient_total = 0
        for name, index, args, result in self.kept:
            if name == "dowling.build_dowling":
                c["dowling.elements"] += len(result)
                c["dowling.covers"] += sum(len(ys) for ys in result.up)
                ambient[self.spans[index][3]] = len(result)
            elif name == "dowling.build_subposet":
                kept += len(result)
                ambient_total += ambient[index]
            elif name == "labeling.verify_el":
                intervals, chains = interval_chain_counts(args[0])
                c["labeling.intervals_checked"] += intervals
                c["labeling.chains_walked"] += chains
                c["labeling.decreasing_chains"] += result.decreasing_chain_count
                c["labeling.interval_failures"] += len(result.failures)
            elif name == "topology.order_complex":
                c["topology.faces"] += sum(result.face_counts())
            elif name == "topology.smith":
                c["topology.boundary_nnz"] += len(args[0])
            elif name == "trees.psi_inv":
                c["trees.round_trips"] += 1
            elif name == "reduction.reduce_and_verify":
                c["reduction.image_size"] += result[2].image_size
        c["trees.trees_enumerated"] = self.yielded
        c["dowling.subposet_kept_ratio"] = kept / ambient_total if ambient_total else 0.0
        c["labeling.useful_ratio"] = (
            c["labeling.intervals_checked"] / c["labeling.chains_walked"]
            if c["labeling.chains_walked"] else 0.0
        )
        return c

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"rep": self.rep, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def interval_chain_counts(p):
    """Intervals [x, y] with rk y - rk x >= 2, and the maximal chains in all
    of them: exactly what the brute-force EL check visits.  One pass per x
    over its up-set, in rank order, counts the saturated chains x -> y.  The
    adjoined top may cover elements of several ranks, so chains are grouped
    by rank, not by length."""
    rank, up, top = p.rank, p.up, max(p.rank)
    intervals = chains = 0
    for x in range(len(p.elements)):
        ways = {x: 1}
        by_rank = {rank[x]: [x]}
        for r in range(rank[x], top + 1):
            for z in by_rank.get(r, ()):
                w = ways[z]
                if r - rank[x] >= 2:
                    intervals += 1
                    chains += w
                for y in up[z]:
                    if y not in ways:
                        ways[y] = 0
                        by_rank.setdefault(rank[y], []).append(y)
                    ways[y] += w
    return intervals, chains
