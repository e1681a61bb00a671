"""Order complexes and integer simplicial homology on the Morse complex of a
greedy coreduction.

Cells are ints.  The d-faces of an order complex are the chains of d+1
vertices, numbered 0, 1, ... in lexicographic order of their index
sequences, and a level stores for each d-face its last vertex and its d+1
facet columns: column i holds the number of the (d-1)-face left when the
i-th vertex is dropped.  `order_complex` fills the columns by arithmetic on
child ranges.  The Morse boundary maps read only the columns, and so does
the coreduction: it keeps no facet-id sums and no row for a top cell, and
finds a cell's one remaining facet by scanning its columns.

`homology` runs a greedy coreduction of the complex, an acyclic (discrete
Morse) matching, and takes the Smith normal forms of the boundary maps of
its Morse complex, which has one generator per critical cell.  When the
critical cells lie in one dimension those maps are empty.  Homology
certifies wedge-of-spheres claims at the level of reduced Betti numbers and
torsion; the reports deliberately say "homology-consistent", never
"homotopy equivalent".
"""

from __future__ import annotations

import gc
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from math import gcd
from operator import add, is_

from .errors import SizeLimitExceeded
from .poset import bits

DEFAULT_MAX_FACES = 5_200_000


@dataclass
class SimplicialComplex:
    """A simplicial complex with int cells, one level per dimension.

    `last[d][j]` is the last vertex of d-face j, and `facets[d]` its d+1
    columns: `facets[d][i][j]` is the number, among the (d-1)-faces, of
    d-face j without its i-th vertex.  The one column of dimension 0 holds
    the empty face, 0.
    """

    vertices: list  # poset indices in use
    last: list
    facets: list

    def face_counts(self):
        return [len(ls) for ls in self.last]


def _positions(up):
    """Where each vertex of an up-set sits in it."""
    return dict(zip(up, range(len(up))))


def order_complex(poset, max_faces=DEFAULT_MAX_FACES):
    """Simplicial complex whose faces are the chains of the proper part: the
    poset without its bottom element and an adjoined top.

    The d-faces are built from the (d-1)-faces, one level at a time: the
    children p + w of a face p, w in the strict up-set of p's last vertex
    (ascending), are numbered in one run, and the runs follow p's order.
    For a child c = p + w, column d is p.  Column i < d-1 drops a vertex
    before p's last one, so it is the child, with the same offset as c, of
    p's own column i, which ends in the same vertex and so has the same
    children.  Column d-1 drops p's last vertex: it is the child of p's
    parent g (p's column d-1) at the position of w in the up-set of g's
    last vertex, and those positions are listed once per vertex, so once
    per comparable pair.  A level's size is the sum of its parents' up-set
    sizes, so the face cap is checked before the level is built.
    """
    skip = {poset.bottom, poset.top}
    vertices = [i for i in range(len(poset)) if i not in skip]
    above = poset.above
    kept_mask = sum(1 << v for v in vertices)
    # ups[v]: the kept w > v, ascending; the extra root below every vertex
    # is the last vertex of the empty face
    root = len(poset)
    ups = [()] * root + [vertices]
    for v in vertices:
        ups[v] = list(bits(above[v] & kept_mask & ~(1 << v)))
    sizes = list(map(len, ups))
    where = {}  # u -> _positions(ups[u]), once u is a grandparent's last vertex
    last, facets = [], []
    # the parents' level (last vertices, columns) and the grandparents'
    # (last vertices, numbers of children), starting from the empty face
    plast, pcols = [root], []
    glast = gcounts = None
    total = 0
    while True:
        counts = list(map(sizes.__getitem__, plast))
        size = sum(counts)
        if not size:
            return SimplicialComplex(vertices=vertices, last=last, facets=facets)
        total += size
        if total > max_faces:
            raise SizeLimitExceeded(f"face count exceeded the cap of {max_faces}")
        parents = array("I", chain.from_iterable(map(repeat, range(len(plast)), counts)))
        level = array("I", chain.from_iterable(map(ups.__getitem__, plast)))
        cols = []
        if pcols:
            # the grandparents' child ranges
            starts = [0, *accumulate(gcounts)]
            runs = list(map(range, starts, starts[1:]))
            cols = [array("I", chain.from_iterable(map(runs.__getitem__, col))) for col in pcols[:-1]]
            us = list(map(glast.__getitem__, pcols[-1]))
            for u in set(us).difference(where):
                where[u] = _positions(ups[u])
            # per parent: its parent's first child, and the positions among
            # that parent's children
            bases = list(map(starts.__getitem__, pcols[-1]))
            lookups = list(map(where.__getitem__, us))
            positions = map(dict.__getitem__, map(lookups.__getitem__, parents), level)
            cols.append(array("I", map(add, map(bases.__getitem__, parents), positions)))
        cols.append(parents)
        last.append(level)
        facets.append(cols)
        glast, gcounts = plast, counts
        plast, pcols = level, cols


# ---------------------------------------------------------------------------
# Integer Smith normal form: one sparse elimination, unit pivots first.


def _eliminate(rows, cols, r, c):
    """Clear column c outside the pivot row r by row operations with the
    floor quotient (exact for a unit pivot)."""
    prow = rows[r]
    pv = prow[c]
    for rr in list(cols[c]):
        if rr == r:
            continue
        row = rows[rr]
        factor = row[c] // pv
        for cc, v in prow.items():
            nv = row.get(cc, 0) - factor * v
            if nv:
                row[cc] = nv
                cols[cc].add(rr)
            elif cc in row:
                del row[cc]
                cols[cc].discard(rr)
        if not row:
            del rows[rr]


def smith_invariants(entries):
    """Invariant factors of a sparse integer matrix, in divisibility order.

    `entries` is a dict {(row, col): value}.  Unit pivots come first, in
    sweeps over the rows in ascending order of length: each row's unit entry
    with the shortest column is the pivot, row operations clear its column,
    and the row and column are dropped with a factor 1.  Elimination can
    create new units, so the sweeps repeat until one finds none.  On what is
    left, each step takes an entry of least absolute value; row operations
    reduce its column and column operations reduce its row modulo the pivot.
    A nonzero remainder is smaller than the pivot and starts the next step,
    and a pivot left alone in its row and column is a diagonal entry.
    """
    rows = {}
    cols = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    diag = []
    found = True
    while found:
        found = False
        for r in sorted(rows, key=lambda r: len(rows[r])):
            units = [c for c, v in rows.get(r, {}).items() if v in (1, -1)]
            if not units:
                continue
            c = min(units, key=lambda c: len(cols[c]))
            _eliminate(rows, cols, r, c)
            # the column is clear, so column operations clear the row
            for cc in rows.pop(r):
                cols[cc].discard(r)
            del cols[c]
            diag.append(1)
            found = True
    while rows:
        _, (r, c) = min((abs(v), (r, c)) for r, row in rows.items() for c, v in row.items())
        _eliminate(rows, cols, r, c)
        if len(cols[c]) > 1:
            continue
        # the column is clear, so column operations change only the pivot row
        prow = rows[r]
        pv = prow[c]
        for cc in list(prow):
            if cc != c:
                nv = prow[cc] % pv
                if nv:
                    prow[cc] = nv
                else:
                    del prow[cc]
                    cols[cc].discard(r)
        if len(prow) > 1:
            continue
        del rows[r]
        del cols[c]
        diag.append(abs(pv))
    # diag(a, b) is equivalent to diag(gcd, lcm); this puts the factors in
    # divisibility order, which for positive integers is ascending order
    diag.sort()
    for i in range(diag.count(1), len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


# ---------------------------------------------------------------------------
# Homology.


@dataclass
class HomologyProfile:
    reduced_betti: list  # by dimension 0..dim
    torsion: list  # invariant factors > 1, by dimension
    face_counts: list = field(default_factory=list)

    @property
    def empty(self):  # empty complex: only reduced H_(-1) = Z survives
        return not self.face_counts

    def is_wedge(self, dim, count):
        """Is this the homology of a wedge of `count` spheres of dimension `dim`?"""
        if self.empty:
            # the empty complex is one sphere of dimension -1
            return dim == -1 and count == 1
        # free, and `count` in `dim` only; a dimension past the top may expect only 0
        return (
            not any(self.torsion)
            and all(b == (count if d == dim else 0) for d, b in enumerate(self.reduced_betti))
            and (0 <= dim < len(self.reduced_betti) or count == 0)
        )

    def to_json(self):
        return {"betti": self.reduced_betti, "torsion": self.torsion,
                "faceCounts": self.face_counts}


def _remaining_facet(facets, first, count, c):
    """The one facet of cell c that is not removed, found by scanning c's
    facet columns (ids and `count` as in `coreduction`)."""
    level = bisect_right(first, c) - 1  # c is a (level - 1)-face
    j, base = c - first[level], first[level - 1]
    for col in facets[level - 1]:
        f = col[j] + base
        if count[f] >= 0:
            return f


def coreduction(complex_):
    """Greedy coreduction of a non-empty simplicial complex: an acyclic
    matching.

    Cells have int ids: 0 is the empty face, then the 0-faces, the 1-faces,
    ... each dimension in its own order.  The empty face is paired with the
    first vertex.  Then a FIFO queue pops any cell with exactly one
    remaining facet, found by a scan of its facet columns, and removes it
    together with that facet; when the queue is empty, the lowest remaining
    id, which has no remaining facet, is removed as a critical cell.  Per
    cell there is a count of remaining facets and a tuple of cofaces in id
    order, one empty tuple shared by the top cells.  A cell's other facets
    are all gone when it is paired, so each down-step of a gradient path
    goes to an earlier pair and the matching is acyclic (Mrozek & Batko,
    "Coreduction homology algorithm", 2009).  Returns `mate`, where mate[id]
    is the id of the cell paired with it or None for a critical cell, and
    the lower cell of each pair, in pairing order.
    """
    # first[d + 1] is the id of the first d-face; first[0] the empty face's
    first = [0, *accumulate(complex_.face_counts(), initial=1)]
    total = first[-1]
    # every list below lives until mate is returned: a collection only rescans them
    enabled = gc.isenabled()
    gc.disable()
    try:
        # remaining facets per cell; -1 marks a removed cell
        count = [0]
        cofaces = []
        for d, cols in enumerate(complex_.facets):
            # one int object per cell, shared by the coface rows it joins
            ids = list(range(first[d + 1], first[d + 2]))
            count += repeat(d + 1, len(ids))
            # each facet column appends one ascending run to the coface rows
            # of the (d-1)-faces; sorting merges the runs into id order
            lower = [[] for _ in range(first[d], first[d + 1])]
            for col in cols:
                deque(map(list.append, map(lower.__getitem__, col), ids), maxlen=0)
            deque(map(list.sort, lower), maxlen=0)
            # popped from the reversed level, each list is freed once its tuple is made
            lower.reverse()
            cofaces += map(tuple, map(lower.pop, repeat(-1, len(lower))))
        cofaces += repeat((), total - first[-2])
        mate = [None] * total
        lowers = []
        queue = deque()

        def remove(c):
            count[c] = -1
            for b in cofaces[c]:
                k = count[b]
                if k > 0:
                    count[b] = k - 1
                    if k == 2:
                        queue.append(b)

        def pair(f, c):
            mate[f], mate[c] = c, f
            lowers.append(f)
            remove(c)
            remove(f)

        pair(0, 1)
        low = 1
        while True:
            while queue:
                c = queue.popleft()
                if count[c] == 1:
                    pair(_remaining_facet(complex_.facets, first, count, c), c)
            while low < total and count[low] < 0:
                low += 1
            if low == total:
                return mate, lowers
            remove(low)
    finally:
        if enabled:
            gc.enable()


def homology(complex_) -> HomologyProfile:
    """Reduced integer homology from the Morse complex of the coreduction.

    The Morse complex (Forman 1998; Sköldberg 2006) has one generator per
    critical cell, none for the paired empty face, so it gives reduced
    homology.  Its map d takes a critical d-cell c to Σ [c:t]·φ(t) over c's
    facets t.  The flow φ is t on a critical t, 0 on an upper cell, and
    φ(f) = -[c:f]·Σ_{t≠f} [c:t]·φ(t) on the lower cell of a pair (f, c),
    whose other facets go first, so pairing order knows each φ(t) in time.
    φ is computed only where d and d-1 both have critical cells; elsewhere
    the map is zero.  The Smith normal forms of the maps d = 1..top decide.
    """
    counts = complex_.face_counts()
    if not counts:
        return HomologyProfile(reduced_betti=[], torsion=[], face_counts=counts)
    mate, lowers = coreduction(complex_)
    first = list(accumulate(counts, initial=1))  # first[d]: the id of the first d-face
    critical = [list(compress(range(lo, hi), map(is_, mate[lo:hi], repeat(None))))
                for lo, hi in zip(first, first[1:])]
    factors = [[]]
    for d in range(1, len(counts)):
        entries = {}
        if critical[d] and critical[d - 1]:
            cols, lo, hi = complex_.facets[d], first[d - 1], first[d]
            signs = [(-1) ** i for i in range(d + 1)]
            flow = {t: {t: 1} for t in critical[d - 1]}

            def morse(c):  # Σ [c:t]·φ(t), with φ(t) = 0 where `flow` lists no t
                out = {}
                for col, s in zip(cols, signs):
                    for k, v in flow.get(col[c - hi] + lo, {}).items():
                        out[k] = out.get(k, 0) + s * v
                return out

            for f in filter(range(lo, hi).__contains__, lowers):
                # φ(f) is not listed yet, so the sum leaves f out
                c = mate[f]
                sf = next(s for col, s in zip(cols, signs) if col[c - hi] + lo == f)
                phi = {k: -sf * v for k, v in morse(c).items() if v}
                if phi:
                    flow[f] = phi
            for c in critical[d]:
                entries.update(((k, c), v) for k, v in morse(c).items() if v)
        factors.append(smith_invariants(entries))
    factors.append([])
    return HomologyProfile(
        reduced_betti=[len(cs) - len(factors[d]) - len(factors[d + 1])
                       for d, cs in enumerate(critical)],
        torsion=[[v for v in factors[d + 1] if v > 1] for d in range(len(counts))],
        face_counts=counts,
    )


@dataclass
class CertificateReport:
    passed: bool
    expected_dim: int
    expected_count: int
    profile: HomologyProfile

    def to_json(self):
        return {
            "verdict": "homology-consistent" if self.passed else "mismatch",
            "expected_dimension": self.expected_dim,
            "expected_spheres": self.expected_count,
            **self.profile.to_json(),
            "note": "empty complex" if self.profile.empty else "",
        }


def certify_wedge(poset, expected_dim, expected_count, max_faces=DEFAULT_MAX_FACES):
    """Compare the proper part's homology against a predicted single free
    Betti number in a predicted dimension."""
    profile = homology(order_complex(poset, max_faces=max_faces))
    return CertificateReport(
        passed=profile.is_wedge(expected_dim, expected_count),
        expected_dim=expected_dim,
        expected_count=expected_count,
        profile=profile,
    )
