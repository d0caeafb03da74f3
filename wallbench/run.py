"""Wall-clock benchmark of the load engine: one workload, one seed.

Usage, from the repository root::

    python3 wallbench/run.py --workload routing --seed 0 --seconds 20 --trace 0

Every measurement is a fresh ``child.py`` process that imports the
package, builds the backend and serves the seeded event log, as a
``python -m repro load`` user does; in-process repeats would measure
warm crypto caches no user has.  Children run one at a time until
``--seconds`` have passed (and at least ``workloads.MIN_RUNS``);
the metrics are medians over them.  Every wall time is scaled to the
host's reference speed by the samples the child takes of it (see
``hostspeed.py``); the report keeps the unscaled values.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced children and reports the per-layer
metrics from the traced ones, plus the tracing overhead.  Every child
passes the correctness gate (pinned report digest where one exists,
schema check, no failed event, identical report across children) or
the run exits 1 without a result.  Before measuring, a tenth-size
canary of the workload runs at seed 0 against its pinned digest, so
the gate checks the program's output whatever ``--seed`` is.  The last
stdout line is the result object; the line before it is the full
report (environment, mechanism manifest, raw samples, the per-layer
table).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(HERE, "out")
#: Longest one child may take before the run is abandoned.
CHILD_TIMEOUT_S = 120

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from hostspeed import REFERENCE_S  # noqa: E402
from tracer import APP_LAYER  # noqa: E402


class GateError(Exception):
    """A child's output failed the correctness gate."""


def run_child(w, seed: int, spans_path=None, canary: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", w.name, "--seed", str(seed)]
    if spans_path is not None:
        cmd += ["--trace", spans_path]
    if canary:
        cmd.append("--canary")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise GateError(f"child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def gate(w, seed: int, child: dict, pins: dict, first_sha) -> None:
    """Raise GateError unless the child's report is correct."""
    if child["problems"]:
        raise GateError(f"report fails validate_bench: {child['problems']}")
    if child["outcomes"].get("failed", 0):
        raise GateError(f"{child['outcomes']['failed']} events failed")
    if child["events"] != w.events:
        raise GateError(f"served {child['events']} of {w.events} events")
    sha = child["bench_sha256"]
    pinned = pins.get(w.name, {}).get(str(seed))
    if pinned is not None and sha != pinned:
        raise GateError(f"report sha256 {sha} != pinned {pinned}")
    if first_sha is not None and sha != first_sha:
        raise GateError("report differs between runs of the same seed")


def tail_percentile(n: int) -> float:
    """Highest percentile (one decimal) with at least 10 samples beyond it."""
    return math.floor(1000 * (1 - 10 / n)) / 10


def nearest_rank(sorted_values, p: float) -> float:
    rank = min(max(1, math.ceil(p / 100 * len(sorted_values))), len(sorted_values))
    return sorted_values[rank - 1]


def scale(child: dict) -> float:
    """Factor taking the child's timed-phase wall times to the reference speed."""
    return REFERENCE_S / child["reference_s"]


def setup_scale(child: dict) -> float:
    """The same for its set-up, from the samples taken around set-up."""
    return REFERENCE_S / child["setup_reference_s"]


def end_to_end(children, scaled: bool) -> tuple:
    """The end-to-end metrics, scaled to the reference speed or raw.

    Dispatch percentiles are taken in each child and the median over
    children is reported: a host stall that slows a run of dispatches
    in one child then moves one child's value, not the run's tail.
    """
    timed = scale if scaled else (lambda c: 1.0)
    setup = setup_scale if scaled else (lambda c: 1.0)
    # The tail percentile is fixed by the pool a run is sure to have
    # (every child of a run dispatches alike), so it means the same
    # thing however many children the run fits.
    p = tail_percentile(workloads.MIN_RUNS * len(children[0]["dispatch_s"]))

    def dispatch_ms(q: float) -> float:
        return 1000 * statistics.median(
            nearest_rank(sorted(c["dispatch_s"]), q) * timed(c) for c in children
        )

    metrics = {
        "events_per_s": (statistics.median(c["events"] / (c["timed_s"] * timed(c)) for c in children), "events/s"),
        "dispatch_p50_ms": (dispatch_ms(50), "ms"),
        "dispatch_tail_ms": (dispatch_ms(p), "ms"),
        "setup_s": (statistics.median(c["setup_s"] * setup(c) for c in children), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }
    tail = {"percentile": p, "samples": sum(len(c["dispatch_s"]) for c in children)}
    return metrics, tail


#: (metric, unit): reported for the timed phase as named, and for
#: set-up with a ``setup.`` prefix.
LAYER_METRICS = (
    ("crypto.modexp.calls", "count"), ("crypto.modexp.self_s", "s"),
    ("crypto.schnorr_verify.calls", "count"),
    ("crypto.schnorr_verify.repeat_frac", "ratio"),
    ("crypto.sym.calls", "count"), ("crypto.sym.bytes", "B"),
    ("crypto.sym.self_s", "s"),
    ("wire.calls", "count"), ("wire.self_s", "s"),
    ("net.channel.records", "count"), ("net.channel.bytes", "B"),
    ("net.channel.self_s", "s"),
    ("net.sim.runs", "count"), ("net.sim.spawns", "count"), ("net.sim.self_s", "s"),
    ("sgx.ecalls", "count"), ("sgx.ocalls", "count"), ("sgx.self_s", "s"),
    ("sgx.epc.ewb", "count"), ("sgx.epc.eldu", "count"),
    ("sgx.attestation.runs", "count"), ("sgx.attestation.self_s", "s"),
    ("tls.handshakes", "count"), ("tls.self_s", "s"),
    ("middlebox.dpi.bytes", "B"), ("middlebox.dpi.self_s", "s"),
    ("cost.charges", "count"), ("cost.self_s", "s"),
)
#: Timed-phase-only metrics.
TIMED_ONLY = (
    ("crypto.cache.hit_frac", "ratio"),
    ("sgx.crossings_per_event", "1/event"),
    ("load.dispatch.self_s", "s"),
    ("load.fold.self_s", "s"),
    ("load.cohort.hit_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)
#: Metric -> (how to read it from a phase's reduced trace).
_READ = {
    "crypto.modexp.calls": ("calls", "crypto.modexp"),
    "crypto.schnorr_verify.calls": ("calls", "crypto.schnorr_verify.calls"),
    "crypto.sym.calls": ("calls", "crypto.sym"),
    "crypto.sym.bytes": ("bytes", "crypto.sym"),
    "wire.calls": ("calls", "wire"),
    "net.channel.records": ("items", "net.channel"),
    "net.channel.bytes": ("bytes", "net.channel"),
    "net.sim.runs": ("calls", "net.sim.run"),
    "net.sim.spawns": ("calls", "net.sim.spawn"),
    "sgx.ecalls": ("calls", "sgx.ecall"),
    "sgx.ocalls": ("calls", "sgx.ocall"),
    "sgx.epc.ewb": ("calls", "sgx.epc.ewb"),
    "sgx.epc.eldu": ("calls", "sgx.epc.eldu"),
    "sgx.attestation.runs": ("calls", "sgx.attestation"),
    "tls.handshakes": ("calls", "tls"),
    "middlebox.dpi.bytes": ("bytes", "middlebox.dpi"),
    "cost.charges": ("calls", "cost"),
}


def phase_metrics(phase: dict) -> dict:
    out = {}
    for name, _unit in LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = phase["self_s"].get(name[: -len(".self_s")], 0.0)
        elif name == "crypto.schnorr_verify.repeat_frac":
            calls = phase["calls"].get("crypto.schnorr_verify.calls", 0)
            repeats = phase["calls"].get("crypto.schnorr_verify.repeats", 0)
            out[name] = repeats / calls if calls else 0.0
        else:
            field, key = _READ[name]
            out[name] = phase[field].get(key, 0)
    return out


def app_s(phase: dict, root: str) -> float:
    """Self time of application code: ``root``'s own plus every ecall handler's."""
    return phase["self_s"].get(root, 0.0) + phase["self_s"].get(APP_LAYER, 0.0)


def per_layer(w, traced, untraced) -> dict:
    """Per-layer metrics: the median over traced children of each."""
    rows = []
    for child in traced:
        trace = child["trace"]
        row = phase_metrics(trace["timed"])
        row.update(
            (f"setup.{k}", v) for k, v in phase_metrics(trace["setup"]).items()
        )
        row["setup.load.self_s"] = app_s(trace["setup"], "load.setup")
        cache = child["cache"]
        looked_up = cache["hits"] + cache["misses"]
        row["crypto.cache.hit_frac"] = cache["hits"] / looked_up if looked_up else 0.0
        row["sgx.crossings_per_event"] = child["crossings_per_event"]
        row["load.dispatch.self_s"] = app_s(trace["timed"], "load.dispatch")
        row["load.fold.self_s"] = trace["timed"]["self_s"].get("load.fold", 0.0)
        if w.cohorts:
            dispatches = trace["timed"]["calls"]["load.cohort.dispatches"]
            row["load.cohort.hit_frac"] = 1 - len(child["dispatch_s"]) / dispatches
        else:
            row["load.cohort.hit_frac"] = 0.0
        rows.append(row)
    units = dict(LAYER_METRICS)
    units.update((f"setup.{k}", u) for k, u in LAYER_METRICS)
    units["setup.load.self_s"] = "s"
    units.update(TIMED_ONLY)
    metrics = {
        name: (statistics.median(row[name] for row in rows), units[name])
        for name in rows[0]
    }
    overhead = (
        statistics.median(c["timed_s"] * scale(c) for c in traced)
        / statistics.median(c["timed_s"] * scale(c) for c in untraced) - 1
    )
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once up front: users do not pay compilation per run.
    if not all(compileall.compile_dir(d, quiet=1) for d in (os.path.join(SRC, "repro"), HERE)):
        print("byte-compilation failed", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    pins = load_pins()
    spans_path = None
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        # One file per workload: a later traced run overwrites it.
        spans_path = os.path.join(SPANS_DIR, f"{w.name}.spans")
    load_before = os.getloadavg()
    untraced, traced = [], []
    first_sha = None
    try:
        # The canary's report is pinned, so the program's output is
        # checked on every run, whatever --seed is.
        gate(workloads.canary(w), 0, run_child(w, 0, canary=True), pins, None)
        started = time.perf_counter()
        while (time.perf_counter() - started < args.seconds
               or len(untraced) < (1 if args.trace else workloads.MIN_RUNS)):
            child = run_child(w, args.seed)
            gate(w, args.seed, child, pins, first_sha)
            first_sha = child["bench_sha256"]
            untraced.append(child)
            if args.trace:
                # Tracing must not move a modeled number: same report.
                child = run_child(w, args.seed, spans_path)
                gate(w, args.seed, child, pins, first_sha)
                traced.append(child)
    except (GateError, subprocess.TimeoutExpired) as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1

    children = traced if args.trace else untraced
    attempted = sum(c["events"] for c in children)
    failed = sum(c["outcomes"].get("failed", 0) for c in children)
    raw = end_to_end(untraced, scaled=False)[0]
    if args.trace:
        metrics = per_layer(w, traced, untraced)
        tail = None
    else:
        metrics, tail = end_to_end(untraced, scaled=True)
    report = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "manifest": untraced[0]["manifest"],
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "bench_sha256": first_sha,
        "pinned": str(args.seed) in pins.get(w.name, {}),
        "failed_frac": failed / attempted,
        "runs": {"untraced": len(untraced), "traced": len(traced)},
        "tail": tail,
        "unscaled": {name: value for name, (value, _unit) in raw.items()},
        "samples": {
            key: [c[key] for c in untraced]
            for key in ("setup_s", "make_backend_s", "timed_s", "peak_rss_mb",
                        "setup_reference_s", "reference_s")
        },
        "spans": spans_path and os.path.relpath(spans_path, ROOT),
        "layers": {
            phase: traced[0]["trace"][phase] for phase in ("setup", "timed")
        } if traced else None,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
