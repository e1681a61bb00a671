"""One repetition of a benchmark workload, in a fresh interpreter.

Reads one JSON request on stdin:

    {"src": ..., "mode": "setup" | "plain" | "traced", "rep": id,
     "work_dir": ..., "jobs": [{"id", "kind", "params"}, ...]}

and prints one JSON line on stdout.  A fresh interpreter per repetition
keeps the package's process-wide memos (acceptance._CACHE, the Moebius and
reachability memos on each poset) from turning later repetitions into cache
hits, and gives every repetition its own peak resident memory.

The timed region runs from the first call into the package until the last
job has returned its verdict.  Comparing the outputs with the recorded ones
happens in the parent, and the traced mode's counts are taken after the
timed region, so neither is timed.

The machine the benchmark runs on is shared, and its speed drifts by tens
of percent within a minute.  A SpeedProbe therefore times a fixed slice of
work every SLICE_EVERY_S of wall time during the timed region.  The slices'
own time is taken out of the repetition's wall and CPU time, and
`verdict_s` and `cpu_s` are rescaled by REF_SLICE_S / (mean slice time):
they are seconds at the speed the machine has when a slice takes
REF_SLICE_S, about the quiet speed of the 2-vCPU sandbox the benchmark was
defined on.  `setup_s` is rescaled the same way, from slices just before
and just after the set-up.  The raw times are reported too.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time

# filled in by load_package(); module objects of the package under test
acceptance = catalog = cli = dowling = labeling = poset = reduction = topology = trees = None


def load_package(src):
    global acceptance, catalog, cli, dowling, labeling, poset, reduction, topology, trees
    sys.path.insert(0, src)
    from sdowling import (
        acceptance,
        catalog,
        cli,
        dowling,
        labeling,
        poset,
        reduction,
        topology,
        trees,
    )


SLICE_EVERY_S = 0.2
REF_SLICE_S = 0.005
SETUP_SLICES = 5  # before and after the set-up, which is too short to interrupt


class SpeedProbe:
    """Times a fixed slice of dict and tuple work, the kind of work the
    package does, from a SIGALRM handler: in the main thread, between two
    bytecodes of the program.  The slice touches only memory allocated
    before the timed region, and runs with the garbage collector off, so
    neither the program's heap nor its peak memory changes the slice."""

    def __init__(self):
        self.keys = [(i % 97, i * 7 % 101, i) for i in range(20000)]
        self.counts = dict.fromkeys(self.keys, 0)
        self.slices = []
        self.sampled = 0
        self.excluded_wall = 0.0  # all time spent in the handler
        self.excluded_cpu = 0.0

    def clock(self):
        """Wall clock that stands still while a slice runs."""
        return time.perf_counter() - self.excluded_wall

    def slice(self, signum=None, frame=None):
        entered = time.perf_counter()
        cpu = time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        counts = self.counts
        for k in self.keys:
            counts[k] = counts[k] + 1
            if k + (1,) < k:
                break
        self.slices.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self.excluded_cpu += time.process_time() - cpu
        self.excluded_wall += time.perf_counter() - entered

    def start(self):
        self.slice()
        signal.signal(signal.SIGALRM, self.slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.slice()
        return self.speed()

    def speed(self):
        """REF_SLICE_S over the mean time of the slices since the last call."""
        factor = REF_SLICE_S * len(self.slices) / sum(self.slices)
        self.sampled = len(self.slices)
        self.slices = []
        return factor


def cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# Jobs.  Each returns the small dict that is compared with expected.json.


def job_lambda(n, action):
    d = dowling.build_dowling(n, action)
    dhat = dowling.adjoin_top(d)
    rep = labeling.verify_el(dhat, labeling.label_lambda, with_witness_chains=False)
    return {
        "passed": rep.passed,
        "interval_failures": len(rep.failures),
        "decreasing": rep.decreasing_chain_count,
        "rank": dhat.max_rank,
        "mu": poset.moebius(dhat, dhat.bottom, dhat.top),
        "chi": list(poset.characteristic_polynomial(d).coeffs),
    }


def job_mu(n, action, T):
    p = dowling.build_subposet(n, action, T)
    rep = labeling.verify_el(dowling.adjoin_top(p), labeling.label_mu,
                             with_witness_chains=False)
    reasons = {}
    for f in rep.failures:
        reasons[f.reason] = reasons.get(f.reason, 0) + 1
    return {
        "elements": len(p),
        "passed": rep.passed,
        "interval_failures": len(rep.failures),
        "failure_reasons": reasons,
        "decreasing": rep.decreasing_chain_count,
    }


def job_psi(n, action):
    """psi and psi^-1 round trips in both directions, as in criterion 5."""
    dhat = dowling.adjoin_top(dowling.build_dowling(n, action))
    chains = [
        [dhat.elements[i] for i in c]
        for c in labeling.decreasing_chains(dhat, labeling.label_lambda)
    ]
    ok = True
    images = set()
    for chain in chains:
        t = trees.psi(chain, action)
        images.add(t)
        ok = ok and trees.psi_inv(t, n, action) == chain
    m, g = action.set_size, action.group.order
    if m >= 2:
        all_trees = set(trees.enumerate_blooming(n + 1, m - 2, g - 2))
    else:
        all_trees = set(trees.enumerate_blooming(n, g - 2, g - 2, labels=range(1, n + 1)))
    for t in all_trees:
        ok = ok and trees.psi(trees.psi_inv(t, n, action), action) == t
    return {"chains": len(chains), "trees": len(all_trees),
            "bijective": ok and images == all_trees}


def job_reduce(n, action, T, orbit):
    spec = reduction.make_spec(action, T, orbit)
    p, reduced, rep = reduction.reduce_and_verify(n, action, T, spec)
    return {
        "passed": rep.passed,
        "violations": len(rep.violations),
        "image_size": rep.image_size,
        "isomorphic": rep.isomorphic,
        "elements": len(p),
        "reduced_elements": len(reduced),
    }


def job_wedge(n, action, dim, count):
    cert = topology.certify_wedge(dowling.build_dowling(n, action), dim, count)
    prof = cert.profile
    return {"passed": cert.passed, "betti": prof.reduced_betti,
            "torsion": prof.torsion, "faces": prof.face_counts}


def job_homology(n, action, T):
    prof = topology.homology(topology.order_complex(dowling.build_subposet(n, action, T)))
    return {"betti": prof.reduced_betti, "torsion": prof.torsion, "faces": prof.face_counts}


def job_suite(out_path):
    code = cli.main(["certify", "--paper-suite", "--out", out_path])
    with open(out_path) as fh:
        criteria = json.load(fh)
    os.remove(out_path)
    return {"exit": code, "criteria": criteria}


# job kind -> (function, parameters it takes after n and the action)
JOBS = {
    "lambda": (job_lambda, ()),
    "mu": (job_mu, ("T",)),
    "psi": (job_psi, ()),
    "reduce": (job_reduce, ("T", "orbit")),
    "wedge": (job_wedge, ("dim", "count")),
    "homology": (job_homology, ("T",)),
}


def prepare(job, work_dir):
    """Generate one job's inputs; returns (function, arguments)."""
    kind, p = job["kind"], job["params"]
    if kind == "suite":
        return job_suite, (os.path.join(work_dir, f"suite-{os.getpid()}.json"),)
    fn, extra = JOBS[kind]
    action = dict(catalog.actions_for(p["group"], p["m"]))[p["act"]]
    return fn, (p["n"], action, *(p[name] for name in extra))


def run_jobs(prepared):
    outputs = []
    for job_id, (fn, args) in prepared:
        try:
            outputs.append({"id": job_id, "output": fn(*args)})
        except Exception as exc:  # a failed job is counted, not fatal
            outputs.append({"id": job_id, "error": f"{type(exc).__name__}: {exc}"})
    return outputs


def main():
    req = json.load(sys.stdin)
    probe = SpeedProbe()
    for _ in range(SETUP_SLICES):
        probe.slice()
    t0 = time.perf_counter()
    load_package(req["src"])
    prepared = [(job["id"], prepare(job, req["work_dir"])) for job in req["jobs"]]
    setup_s = time.perf_counter() - t0
    for _ in range(SETUP_SLICES):
        probe.slice()
    result = {"raw_setup_s": setup_s, "setup_s": setup_s * probe.speed()}
    if req["mode"] != "setup":
        tracer = None
        if req["mode"] == "traced":
            from trace_layers import Tracer

            tracer = Tracer(req["rep"], probe.clock)
            tracer.install(sys.modules)
        probe.start()
        cpu0 = cpu_seconds()
        excluded0 = probe.excluded_wall, probe.excluded_cpu
        start = time.perf_counter()
        outputs = run_jobs(prepared)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        wall -= probe.excluded_wall - excluded0[0]
        cpu -= probe.excluded_cpu - excluded0[1]
        speed = probe.stop()
        result.update({
            "raw_verdict_s": wall,
            "raw_cpu_s": cpu,
            "speed": speed,
            "slices": probe.sampled,
            "verdict_s": wall * speed,
            "cpu_s": cpu * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "outputs": outputs,
        })
        if tracer is not None:
            result["layers"] = tracer.summarize()
            tracer.write(os.path.join(req["work_dir"], f"spans-{req['rep']}.json"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
