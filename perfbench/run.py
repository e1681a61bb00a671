"""Benchmark of the sdowling verifier.

    python3 perfbench/run.py --workload el-n4 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --list

Run from anywhere inside a checkout; the package is loaded from its src/.
The load is a closed loop: repetitions run one after another, each in a
fresh child interpreter (child.py), and a new one starts only while it is
expected to end within --seconds.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics.  Every job's output is compared with the one recorded in
expected.json.  The last line of stdout is the result as one JSON object;
the lines before it give the run's context and every metric by name with
its unit, sample count and quartiles.  Trace spans and the full result go
to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}


def per_layer_units():
    from trace_layers import LAYERS, SMITH_DIMS, TIMES

    units = {name: "s" for name in TIMES}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"topology.smith_s.d{d}": "s" for d in SMITH_DIMS})
    units.update({
        "dowling.elements": "count", "dowling.covers": "count",
        "dowling.subposet_kept_ratio": "ratio",
        "labeling.intervals_checked": "count", "labeling.chains_walked": "count",
        "labeling.useful_ratio": "ratio", "labeling.decreasing_chains": "count",
        "labeling.interval_failures": "count",
        "topology.faces": "count", "topology.boundary_nnz": "count",
        "trees.trees_enumerated": "count", "trees.round_trips": "count",
        "reduction.image_size": "count",
        "trace.spans": "count", "trace.wall_s": "s", "trace.verdict_s": "s",
        "trace.untraced_verdict_s": "s", "trace.overhead_s": "s",
    })
    return units


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(mode, jobs, rep, deadline):
    request = {"src": str(SRC), "mode": mode, "rep": rep, "work_dir": str(WORK_DIR),
               "jobs": [{k: job[k] for k in ("id", "kind", "params")} for job in jobs]}
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")], input=json.dumps(request),
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, min(CHILD_TIMEOUT_S, deadline - started)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} repetition {rep} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def summary(values):
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric by name with its unit, and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, unit in {**END_TO_END, **per_layer_units()}.items():
            print(f"{name}\t{unit}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "sdowling" / "__init__.py").is_file():
        print(f"error: no sdowling package under {SRC}", file=sys.stderr)
        return 2

    # a terminated run raises SystemExit, so subprocess.run kills and reaps
    # the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    deadline = start + args.seconds
    expected = workloads.load_expected()
    problems = workloads.cross_check(expected)
    jobs = workloads.jobs_for(args.workload, args.seed, expected)
    by_id = {job["id"]: job for job in expected}
    WORK_DIR.mkdir(exist_ok=True)

    try:
        # compiles the package's bytecode once, so no timed import pays for it
        run_child("setup", jobs, "warmup", start + CHILD_TIMEOUT_S)
        setups = []
        if not args.trace:
            setups = [run_child("setup", jobs, f"setup{i}", start + CHILD_TIMEOUT_S)
                      for i in range(SETUP_PROBES)]
        # untraced and traced repetitions alternate in a traced run
        modes = ("plain", "traced") if args.trace else ("plain",)
        reps = {mode: [] for mode in modes}
        longest = 0.0
        while True:
            mode = modes[sum(map(len, reps.values())) % len(modes)]
            if all(reps.values()) and time.perf_counter() + longest > deadline:
                break
            rep = run_child(mode, jobs, f"{args.workload}-{args.seed}-{mode}{len(reps[mode])}",
                            start + CHILD_TIMEOUT_S)
            longest = max(longest, rep["wall_s"])
            reps[mode].append(rep)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for rep in (r for rs in reps.values() for r in rs):
        for out in rep["outputs"]:
            attempted += 1
            if "error" in out or out["output"] != by_id[out["id"]]["output"]:
                failed += 1
                problems.append(f"{out['id']}: {str(out.get('error') or out['output'])[:300]}")

    plain = reps["plain"]
    stats = {}
    # printed for reference, not part of the result: times before rescaling
    # by the speed probe, and the probe's factor
    raw = {name: summary([r[name] for r in plain])
           for name in ("raw_verdict_s", "raw_cpu_s", "speed")}
    if args.trace:
        traced = reps["traced"]
        for name in per_layer_units():
            if not name.startswith("trace."):
                stats[name] = summary([r["layers"][name] for r in traced])
        stats["trace.spans"] = summary([r["layers"]["trace.spans"] for r in traced])
        stats["trace.wall_s"] = summary([r["raw_verdict_s"] for r in traced])
        stats["trace.verdict_s"] = summary([r["verdict_s"] for r in traced])
        stats["trace.untraced_verdict_s"] = summary([r["verdict_s"] for r in plain])
        overhead = stats["trace.verdict_s"]["median"] - stats["trace.untraced_verdict_s"]["median"]
        stats["trace.overhead_s"] = summary([overhead])
        units = per_layer_units()
    else:
        stats["setup_s"] = summary([r["setup_s"] for r in setups])
        raw["raw_setup_s"] = summary([r["raw_setup_s"] for r in setups])
        for name in ("verdict_s", "cpu_s", "peak_rss_mb"):
            stats[name] = summary([r[name] for r in plain])
        stats["pass_rate"] = summary([(attempted - failed) / attempted])
        units = END_TO_END

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "jobs_per_repetition": len(jobs),
        "repetitions": {mode: len(rs) for mode, rs in reps.items()},
        "elapsed_s": time.perf_counter() - start,
    }
    print(json.dumps(context, sort_keys=True))
    for problem in problems[:20]:
        print(f"mismatch: {problem}")
    for name, s in {**stats, **raw}.items():
        print(f"{name:34s} {s['median']:14.6g} {units.get(name, ''):6s} "
              f"n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": units[name]}
                    for name, s in stats.items()},
    }
    with open(WORK_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"context": context, "stats": {**stats, **raw}, "problems": problems,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
