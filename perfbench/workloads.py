"""Workloads, seed draws and output checks of the benchmark.

Nothing here imports sdowling.  The parent process (run.py) only chooses
the jobs of a repetition and checks their outputs; the package itself runs
in a fresh child interpreter for every repetition (child.py).

Every job is one entry of expected.json: an id, a kind, the parameters the
child needs to generate its inputs, and the output recorded at the seed
commit by record.py.  Some entries also carry an `oracle` block of values
the benchmark computed once, outside any timed region, to cross-check the
recorded outputs against closed forms.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("suite-n3", "el-n4", "homology-n4")

# el-n4 draws one mu job from each stratum of this many subposets of
# similar size, so the work of a repetition hardly depends on the seed.
MU_STRATUM = 5

GROUP_ORDER = {"trivial": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z2xZ2": 4}


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)["jobs"]


def jobs_for(workload, seed, expected):
    """The job list of one repetition: which jobs, and in what order."""
    rng = random.Random(f"{workload}:{seed}")
    by_kind = {}
    for job in expected:
        by_kind.setdefault(job["kind"], []).append(job)
    if workload == "suite-n3":
        # the battery's grid is fixed inside the program; the seed has no say
        return list(by_kind["suite"])
    if workload == "homology-n4":
        jobs = by_kind["wedge"] + by_kind["homology"]
    elif workload == "el-n4":
        mu = sorted(by_kind["mu"], key=lambda j: (j["output"]["elements"], j["id"]))
        drawn = [
            rng.choice(mu[i : i + MU_STRATUM]) for i in range(0, len(mu), MU_STRATUM)
        ]
        jobs = by_kind["lambda"] + drawn + by_kind["psi"] + by_kind["reduce"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Closed forms.  These are written out here, independently of the package.


def sphere_count(n, g, m):
    """Number of decreasing maximal chains of the bounded full poset."""
    prod = 1
    for i in range(n):
        prod *= m - 1 + g * i
    return -prod if m == 0 else prod


def chi_coefficients(n, g, m):
    """Ascending coefficients of the characteristic polynomial's closed form."""
    roots = [m + g * i for i in range(n)] if m else [g * i for i in range(1, n)]
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def reduced_euler(faces):
    return sum((-1) ** d * f for d, f in enumerate(faces)) - 1


def cross_check(expected):
    """Check the recorded outputs against closed forms and against each
    other.  Returns a list of problems; empty when every check holds."""
    problems = []
    mu_of = {}

    def bad(job, what):
        problems.append(f"{job['id']}: {what}")

    for job in expected:
        p, out, kind = job["params"], job["output"], job["kind"]
        if kind in ("lambda", "psi", "wedge"):
            g = GROUP_ORDER[p["group"]]
            spheres = sphere_count(p["n"], g, p["m"])
        if kind == "lambda":
            mu_of[(p["n"], p["group"], p["m"], p["act"], None)] = out["mu"]
            if not out["passed"] or out["interval_failures"]:
                bad(job, "lambda is not EL")
            if out["decreasing"] != spheres:
                bad(job, f"{out['decreasing']} decreasing chains, closed form {spheres}")
            if (-1) ** out["rank"] * out["mu"] != out["decreasing"]:
                bad(job, "(-1)^rk mu(0,1) != decreasing chains")
            if out["chi"] != chi_coefficients(p["n"], g, p["m"]):
                bad(job, f"chi {out['chi']} does not have the closed-form roots")
        elif kind == "mu":
            mu_of[(p["n"], p["group"], p["m"], p["act"], tuple(p["T"]))] = job["oracle"]["mu"]
            if out["passed"] and (-1) ** job["oracle"]["rank"] * job["oracle"]["mu"] != out["decreasing"]:
                bad(job, "(-1)^rk mu(0,1) != decreasing chains")
        elif kind == "psi":
            if not (out["bijective"] and out["chains"] == out["trees"] == spheres):
                bad(job, f"psi: {out} against {spheres} spheres")
        elif kind == "reduce":
            if not (out["passed"] and out["isomorphic"] and out["violations"] == 0):
                bad(job, "closure report is not clean")
        elif kind == "wedge":
            if p["count"] != spheres or p["dim"] != p["n"] - 1 - (p["m"] == 0):
                bad(job, "wedge parameters are not the closed form")
            want = [spheres if d == p["dim"] else 0 for d in range(len(out["betti"]))]
            if not out["passed"] or out["betti"] != want or any(out["torsion"]):
                bad(job, f"betti {out['betti']} torsion {out['torsion']}, want {want}")
        elif kind == "suite":
            failed = [c["criterion"] for c in out["criteria"] if not c["passed"]]
            if out["exit"] != 1 or failed != [2]:
                bad(job, f"exit {out['exit']}, failing criteria {failed}")
        if kind in ("wedge", "homology"):
            chi = reduced_euler(out["faces"])
            if sum((-1) ** d * b for d, b in enumerate(out["betti"])) != chi:
                bad(job, "Euler-Poincare: alternating Betti sum != reduced Euler characteristic")
    # Hall's theorem: reduced Euler characteristic of the proper part = mu(0^, 1^)
    for job in expected:
        if job["kind"] in ("wedge", "homology"):
            p = job["params"]
            key = (p["n"], p["group"], p["m"], p["act"], tuple(p["T"]) if "T" in p else None)
            mu = mu_of.get(key, job.get("oracle", {}).get("mu"))
            if mu is None or reduced_euler(job["output"]["faces"]) != mu:
                bad(job, f"Hall's theorem fails or cannot be checked (mu = {mu})")
    return problems
