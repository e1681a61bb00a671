"""Order complexes and integer simplicial homology, matching first, Smith
fallback.

`homology` first runs a greedy coreduction of the complex, an acyclic
(discrete Morse) matching.  When the critical cells it leaves lie in one
dimension, they are the reduced Betti numbers and there is no torsion;
otherwise the Smith normal forms of the boundary maps decide.  Homology
certifies wedge-of-spheres claims at the level of reduced Betti numbers and
torsion; the reports deliberately say "homology-consistent", never
"homotopy equivalent", whichever path decided.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import gcd

from .errors import SizeLimitExceeded
from .poset import bits

DEFAULT_MAX_FACES = 2_000_000


@dataclass
class SimplicialComplex:
    vertices: list  # poset indices in use
    faces: list  # faces[d] = sorted list of (d+1)-tuples in chain order

    def face_counts(self):
        return [len(fs) for fs in self.faces]


def order_complex(poset, max_faces=DEFAULT_MAX_FACES):
    """Simplicial complex whose faces are the chains of the proper part: the
    poset without its bottom element and an adjoined top."""
    skip = {poset.bottom, poset.top}
    vertices = [i for i in range(len(poset.elements)) if i not in skip]
    above = poset.above
    kept_mask = 0
    for v in vertices:
        kept_mask |= 1 << v
    faces = []
    total = 0
    # chains are enumerated by extending with strictly greater kept elements;
    # a chain is popped only after its prefix, so faces grows one list at a time
    stack = [((v,), (above[v] & kept_mask) & ~(1 << v)) for v in reversed(vertices)]
    while stack:
        chain, mask = stack.pop()
        total += 1
        if total > max_faces:
            raise SizeLimitExceeded(f"face count exceeded the cap of {max_faces}")
        if len(chain) > len(faces):
            faces.append([])
        faces[len(chain) - 1].append(chain)
        for w in bits(mask):
            stack.append((chain + (w,), (mask & above[w]) & ~(1 << w)))
    for fs in faces:
        fs.sort()
    return SimplicialComplex(vertices=vertices, faces=faces)


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


def _boundary_entries(faces, d):
    """Sparse boundary matrix taking dimension-d faces to dimension d-1."""
    lower = {f: i for i, f in enumerate(faces[d - 1])}
    entries = {}
    for j, f in enumerate(faces[d]):
        for i in range(len(f)):
            sub = f[:i] + f[i + 1 :]
            entries[(lower[sub], j)] = (-1) ** i
    return entries


def coreduction(faces):
    """Greedy coreduction of a non-empty simplicial complex: an acyclic
    matching.

    Cells have int ids: 0 is the empty face, then the faces of `faces[0]`,
    `faces[1]`, ... in list order.  The empty face is paired with the first
    vertex.  Then a FIFO queue pops any cell with exactly one remaining
    facet and removes it together with that facet; when the queue is empty,
    the lowest remaining id, which has no remaining facet, is removed as a
    critical cell.  A cell's other facets are all gone when it is paired, so
    each down-step of a gradient path goes to an earlier pair and the
    matching is acyclic (Mrozek & Batko, "Coreduction homology algorithm",
    2009).  Returns `mate`: mate[id] is the id of the cell paired with it,
    or None for a critical cell.
    """
    start = [1]
    for fs in faces:
        start.append(start[-1] + len(fs))
    total = start[-1]
    # remaining facets per cell, and the sum of their ids, which is the
    # facet itself once one is left; -1 marks a removed cell
    count = [0] + [d + 1 for d, fs in enumerate(faces) for _ in fs]
    rest = [0] * total
    cofaces = [list(range(1, start[1]))] + [[] for _ in range(1, total)]
    for d in range(1, len(faces)):
        lower = {f: i for i, f in enumerate(faces[d - 1], start[d - 1])}
        for j, f in enumerate(faces[d], start[d]):
            for i in range(d + 1):
                k = lower[f[:i] + f[i + 1 :]]
                cofaces[k].append(j)
                rest[j] += k
    mate = [None] * total
    queue = deque()

    def remove(c):
        count[c] = -1
        for b in cofaces[c]:
            k = count[b]
            if k > 0:
                count[b] = k - 1
                rest[b] -= c
                if k == 2:
                    queue.append(b)

    def pair(f, c):
        mate[f], mate[c] = c, f
        remove(c)
        remove(f)

    pair(0, 1)
    low = 1
    while True:
        while queue:
            c = queue.popleft()
            if count[c] == 1:
                pair(rest[c], c)
        while low < total and count[low] < 0:
            low += 1
        if low == total:
            return mate
        remove(low)


def _smith_homology(complex_):
    """Reduced integer homology from Smith normal forms of boundary matrices.

    factors[d] lists the invariant factors of the boundary map from dimension
    d to d-1, in divisibility order; factors[0] = [1] is the augmentation,
    which maps every vertex to the single (-1)-simplex.
    """
    faces = complex_.faces
    factors = [[1]] + [smith_invariants(_boundary_entries(faces, d))
                       for d in range(1, len(faces))] + [[]]
    return HomologyProfile(
        reduced_betti=[len(fs) - len(factors[d]) - len(factors[d + 1])
                       for d, fs in enumerate(faces)],
        torsion=[[v for v in factors[d + 1] if v > 1] for d in range(len(faces))],
        face_counts=complex_.face_counts(),
    )


def homology(complex_) -> HomologyProfile:
    """Reduced integer homology: matching first, Smith normal form fallback.

    The Morse complex of the coreduction has one generator per critical
    cell, the empty face's pair aside.  When those all lie in one dimension
    (or there are none) its boundary maps are zero, so the critical counts
    are the reduced Betti numbers and there is no torsion.  Otherwise, and
    for the empty complex, `_smith_homology` decides on the full complex.
    """
    faces = complex_.faces
    if faces:
        mate = coreduction(faces)
        critical, lo = [], 1
        for fs in faces:
            critical.append(mate[lo : lo + len(fs)].count(None))
            lo += len(fs)
        if sum(1 for k in critical if k) <= 1:
            return HomologyProfile(reduced_betti=critical, torsion=[[] for _ in faces],
                                   face_counts=complex_.face_counts())
    return _smith_homology(complex_)


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
