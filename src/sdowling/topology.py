"""Order complexes and integer simplicial homology via Smith normal form.

Homology certifies wedge-of-spheres claims at the level of reduced Betti
numbers and torsion; the reports deliberately say "homology-consistent",
never "homotopy equivalent".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import EmptyPosetWarning, SizeLimitExceeded
from .poset import bits

DEFAULT_MAX_FACES = 2_000_000


@dataclass
class SimplicialComplex:
    vertices: list  # poset indices in use
    faces: list  # faces[d] = sorted list of (d+1)-tuples in chain order

    @property
    def dimension(self):
        return len(self.faces) - 1

    def face_counts(self):
        return [len(fs) for fs in self.faces]

    def euler_characteristic(self):
        return sum((-1) ** d * len(fs) for d, fs in enumerate(self.faces))


def order_complex(poset, strip_bounds=True, max_faces=DEFAULT_MAX_FACES):
    """Simplicial complex whose faces are the chains of the poset.

    With strip_bounds, the bottom element and an adjoined top are removed
    first (the proper part).
    """
    skip = set()
    if strip_bounds:
        if poset.bottom is not None:
            skip.add(poset.bottom)
        if poset.top is not None:
            skip.add(poset.top)
    vertices = [i for i in range(len(poset.elements)) if i not in skip]
    if not vertices:
        warnings.warn("order complex is empty", EmptyPosetWarning)
        return SimplicialComplex(vertices=[], faces=[])
    above, _ = poset._reach()
    kept_mask = 0
    for v in vertices:
        kept_mask |= 1 << v
    faces = []
    total = 0

    def record(chain):
        nonlocal total
        d = len(chain) - 1
        while len(faces) <= d:
            faces.append([])
        faces[d].append(chain)
        total += 1
        if total > max_faces:
            raise SizeLimitExceeded(f"face count exceeded the cap of {max_faces}")

    # chains are enumerated by extending with strictly greater kept elements
    stack = [((v,), (above[v] & kept_mask) & ~(1 << v)) for v in reversed(vertices)]
    while stack:
        chain, mask = stack.pop()
        record(chain)
        for w in bits(mask):
            stack.append((chain + (w,), (mask & above[w]) & ~(1 << w)))
    for fs in faces:
        fs.sort()
    return SimplicialComplex(vertices=vertices, faces=faces)


# ---------------------------------------------------------------------------
# Integer Smith normal form, sparse with unit pivots first.


def _dense_snf_diagonal(rows):
    """Invariant factors of a small dense integer matrix (classic algorithm)."""
    a = [row[:] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    out = []
    top = 0
    while top < min(m, n):
        # find a nonzero pivot
        pr = pc = -1
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pr, pc = v, i, j
        if best is None:
            break
        a[top], a[pr] = a[pr], a[top]
        for row in a:
            row[top], row[pc] = row[pc], row[top]
        while True:
            # clear column
            again = False
            for i in range(top + 1, m):
                if a[i][top]:
                    qt = a[i][top] // a[top][top]
                    for j in range(top, n):
                        a[i][j] -= qt * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        again = True
            if again:
                continue
            for j in range(top + 1, n):
                if a[top][j]:
                    qt = a[top][j] // a[top][top]
                    for i in range(top, m):
                        a[i][j] -= qt * a[i][top]
                    if a[top][j]:
                        for i in range(top, m):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                        again = True
            if not again:
                break
        # divisibility fix-up: pivot must divide every remaining entry
        piv = a[top][top]
        fixed = True
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % piv:
                    for jj in range(top, n):
                        a[top][jj] += a[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        out.append(abs(piv))
        top += 1
    return out


def smith_invariants(entries, nrows, ncols):
    """Invariant factors of a sparse integer matrix.

    `entries` is a dict {(row, col): value}.  Unit pivots are eliminated
    sparsely; whatever remains (rare for order complexes) goes through the
    dense routine.
    """
    rows = {}
    cols = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    ones = 0
    while True:
        pivot = None
        best_cost = None
        for r, row in rows.items():
            for c, v in row.items():
                if v in (1, -1):
                    cost = (len(row) - 1) * (len(cols[c]) - 1)
                    if best_cost is None or cost < best_cost:
                        best_cost, pivot = cost, (r, c)
                        if cost == 0:
                            break
            if best_cost == 0:
                break
        if pivot is None:
            break
        r, c = pivot
        pv = rows[r][c]
        prow = rows.pop(r)
        for cc in prow:
            cols[cc].discard(r)
        for rr in list(cols.get(c, ())):
            row = rows[rr]
            factor = row[c] * pv  # pv is +-1, so this is row[c]/pv
            for cc, v in prow.items():
                if cc == c:
                    continue
                nv = row.get(cc, 0) - factor * v
                if nv:
                    row[cc] = nv
                    cols.setdefault(cc, set()).add(rr)
                else:
                    if cc in row:
                        del row[cc]
                        cols[cc].discard(rr)
            del row[c]
            cols[c].discard(rr)
            if not row:
                del rows[rr]
        cols.pop(c, None)
        ones += 1
    if not rows:
        return [1] * ones
    # dense fallback on the remaining block
    rindex = {r: i for i, r in enumerate(rows)}
    cset = sorted({c for row in rows.values() for c in row})
    cindex = {c: j for j, c in enumerate(cset)}
    dense = [[0] * len(cset) for _ in rindex]
    for r, row in rows.items():
        for c, v in row.items():
            dense[rindex[r]][cindex[c]] = v
    rest = _dense_snf_diagonal(dense)
    return [1] * ones + sorted(rest)


# ---------------------------------------------------------------------------
# Homology.


@dataclass
class HomologyProfile:
    reduced_betti: list  # by dimension 0..dim
    torsion: list  # invariant factors > 1, by dimension
    face_counts: list = field(default_factory=list)
    empty: bool = False  # empty complex: only reduced H_(-1) = Z survives

    def is_free_single_dimension(self, dim, count):
        if self.empty:
            return False
        if any(t for t in self.torsion):
            return False
        for d, b in enumerate(self.reduced_betti):
            if b != (count if d == dim else 0):
                return False
        return 0 <= dim < len(self.reduced_betti) or count == 0


def _boundary_entries(faces, d):
    """Sparse boundary matrix taking dimension-d faces to dimension d-1."""
    lower = {f: i for i, f in enumerate(faces[d - 1])}
    entries = {}
    for j, f in enumerate(faces[d]):
        for i in range(len(f)):
            sub = f[:i] + f[i + 1 :]
            entries[(lower[sub], j)] = (-1) ** i
    return entries, len(faces[d - 1]), len(faces[d])


def homology(complex_) -> HomologyProfile:
    """Reduced integer homology from Smith normal forms of boundary matrices."""
    faces = complex_.faces
    if not faces:
        return HomologyProfile(reduced_betti=[], torsion=[], face_counts=[], empty=True)
    dim = len(faces) - 1
    ranks = [0] * (dim + 2)
    factors = [[] for _ in range(dim + 2)]
    # augmentation: every vertex maps to the single (-1)-simplex
    ranks[0] = 1 if faces[0] else 0
    factors[0] = [1] * ranks[0]
    for d in range(1, dim + 1):
        entries, nr, nc = _boundary_entries(faces, d)
        inv = smith_invariants(entries, nr, nc)
        ranks[d] = len(inv)
        factors[d] = inv
    betti = []
    torsion = []
    for d in range(dim + 1):
        betti.append(len(faces[d]) - ranks[d] - ranks[d + 1])
        torsion.append(sorted(v for v in factors[d + 1] if v > 1))
    return HomologyProfile(
        reduced_betti=betti,
        torsion=torsion,
        face_counts=complex_.face_counts(),
    )


@dataclass
class CertificateReport:
    passed: bool
    expected_dim: int
    expected_count: int
    profile: HomologyProfile
    note: str = ""

    def to_json(self):
        return {
            "verdict": "homology-consistent" if self.passed else "mismatch",
            "expected_dimension": self.expected_dim,
            "expected_spheres": self.expected_count,
            "betti": self.profile.reduced_betti,
            "torsion": self.profile.torsion,
            "faceCounts": self.profile.face_counts,
            "note": self.note,
        }


def certify_wedge(poset, expected_dim, expected_count, max_faces=DEFAULT_MAX_FACES):
    """Compare the proper part's homology against a predicted single free
    Betti number in a predicted dimension."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyPosetWarning)
        cx = order_complex(poset, strip_bounds=True, max_faces=max_faces)
    profile = homology(cx)
    if profile.empty:
        passed = expected_count == 0
        note = "empty complex"
    else:
        passed = profile.is_free_single_dimension(expected_dim, expected_count)
        note = ""
    return CertificateReport(
        passed=passed,
        expected_dim=expected_dim,
        expected_count=expected_count,
        profile=profile,
        note=note,
    )
