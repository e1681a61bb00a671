"""Record the expected output of every benchmark job into expected.json.

    python3 perfbench/record.py

It loads the package from the src/ of the checkout it sits in, whose
outputs become the reference (the outputs in expected.json were recorded at
the commit that added the benchmark).  It runs every job once, in this
process, computes the oracle values the cross-checks need, refuses to
write anything if a cross-check fails, and writes expected.json next to
this file.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import child
import workloads

ROOT = Path(__file__).resolve().parent.parent


def point(kind, n, group, m, act, **extra):
    tail = "".join(f",{k}={v}" for k, v in extra.items())
    return {
        "id": f"{kind}:n={n},G={group},m={m},act={act}{tail}",
        "kind": kind,
        "params": {"n": n, "group": group, "m": m, "act": act, **extra},
    }


def all_jobs():
    catalog = child.catalog
    jobs = []
    for group in catalog.GROUP_NAMES:
        for m in (0, 1, 2, 3):
            for act, action in catalog.actions_for(group, m):
                jobs.append(point("lambda", 4, group, m, act))
                for T in catalog.invariant_subsets(action):
                    jobs.append(point("mu", 4, group, m, act, T=list(T)))
                if group in ("Z2", "Z3") and m != 1:
                    jobs.append(point("psi", 4, group, m, act))
    jobs.append(point("lambda", 5, "Z2", 2, "trivial"))
    # the n = 4 closure configurations of criterion 8
    for group, m, act, T in (("Z2", 2, "swap", []), ("Z2", 3, "swap", [2]),
                             ("Z2", 3, "swap", []), ("Z3", 3, "cycle", [])):
        jobs.append(point("reduce", 4, group, m, act, T=T, orbit=0))
    for m in (1, 2):
        jobs.append(point("wedge", 4, "Z2", m, "trivial", dim=3,
                          count=workloads.sphere_count(4, 2, m)))
    jobs.append(point("homology", 4, "Z2", 2, "swap", T=[]))
    jobs.append({"id": "suite:paper-suite", "kind": "suite", "params": {}})
    return jobs


def oracle(job):
    """mu(0^, 1^) and the rank of the bounded subposet, for the cross-checks."""
    p = job["params"]
    action = dict(child.catalog.actions_for(p["group"], p["m"]))[p["act"]]
    phat = child.dowling.adjoin_top(child.dowling.build_subposet(p["n"], action, p["T"]))
    return {"mu": child.poset.moebius(phat, phat.bottom, phat.top), "rank": phat.max_rank}


def main():
    child.load_package(str(ROOT / "src"))
    work_dir = ROOT / ".bench_out"
    work_dir.mkdir(exist_ok=True)
    jobs = all_jobs()
    for job in jobs:
        fn, args = child.prepare(job, str(work_dir))
        job["output"] = fn(*args)
        if job["kind"] in ("mu", "homology"):
            job["oracle"] = oracle(job)
        print(job["id"], file=sys.stderr)
    problems = workloads.cross_check(jobs)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump({"jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
