"""One measured load run, in the fresh process a ``repro load`` user has.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 wallbench/child.py --workload routing --seed 0 [--trace SPANS] [--canary]

Imports the load package and builds the backend (set-up), then serves
the seeded event log (the timed phase).  Prints one JSON object: the
report digest and outcomes for the correctness gate, the wall times,
every dispatch's wall time, the host-speed samples of each phase (see
``hostspeed.py``) and the peak resident set.  With ``--trace`` the
layer spans are recorded, written to SPANS and reduced into the
object's ``trace`` entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS", default=None)
    parser.add_argument("--canary", action="store_true")
    args = parser.parse_args()

    import workloads
    from hostspeed import SETUP_SAMPLES, Reference

    w = workloads.WORKLOADS[args.workload]
    if args.canary:
        w = workloads.canary(w)
    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    reference = Reference()
    for _ in range(SETUP_SAMPLES):
        reference.sample()
    start = time.perf_counter()
    from repro.crypto.cache import cache_stats
    from repro.load.report import bench_json, validate_bench

    backend_start = time.perf_counter()
    if tracer is not None:
        with tracer.phase("setup"):
            backend = workloads.build(w, args.seed)
    else:
        backend = workloads.build(w, args.seed)
    setup_end = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        reference.sample()
    setup_samples = reference.samples[:]

    cache_before = cache_stats()
    timed = workloads.TimedDispatch(backend, tracer, reference)
    target = workloads.dispatcher(w, timed)
    if tracer is not None and w.cohorts:
        tracer.count_calls(target, "dispatch", "load.cohort.dispatches")
    engine, stream, timed_s = workloads.serve(w, args.seed, backend, target, tracer)
    cache_after = cache_stats()
    if tracer is not None:
        tracer.uninstall()
    timed_samples = reference.samples[len(setup_samples):]

    result = workloads.package(w, args.seed, backend, engine, stream)
    text = bench_json(result)
    doc = json.loads(text)
    out = {
        "bench_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "problems": validate_bench(doc),
        "outcomes": doc["outcomes"],
        "events": doc["throughput"]["events"],
        "crossings_per_event": doc["crossings"]["per_event"],
        "setup_s": setup_end - start,
        "make_backend_s": setup_end - backend_start,
        # The host-speed samples taken during the phase are not its work.
        "timed_s": timed_s - sum(timed_samples),
        "dispatch_s": timed.samples,
        "setup_reference_s": statistics.fmean(setup_samples),
        # A canary's timed phase can end before a sample is due.
        "reference_s": statistics.fmean(timed_samples or setup_samples),
        "peak_rss_mb": _peak_rss_kb() / 1024,
        "cache": _cache_delta(cache_before, cache_after),
        "manifest": workloads.manifest(w, args.seed),
    }
    if tracer is not None:
        out["trace"] = tracer.reduce()
        tracer.dump(args.trace)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


def _peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB.

    ``VmHWM`` where Linux provides it: ``ru_maxrss`` survives ``exec``,
    so it would report the parent's peak whenever the parent was the
    larger process at fork time.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cache_delta(before: dict, after: dict) -> dict:
    hits = misses = 0
    for name, stats in after.items():
        prior = before.get(name, {"hits": 0, "misses": 0})
        hits += stats["hits"] - prior["hits"]
        misses += stats["misses"] - prior["misses"]
    return {"hits": hits, "misses": misses}


if __name__ == "__main__":
    main()
