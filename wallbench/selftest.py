"""Self-tests of the benchmark itself.

Usage, from the repository root::

    PYTHONPATH=src python3 wallbench/selftest.py [--pin]

Checks, for every workload at each pinned seed, and for its canary
(see ``workloads.canary``) at seed 0:

* the composed pipeline (``build`` -> ``serve`` -> ``package``) writes a
  report byte-identical to the library entry point, and on ``cohorts``
  also to the per-client engine at the same configuration;
* that report's sha256 equals the digest pinned in ``digests.json``
  (``--pin`` rewrites the file from the library entry points instead);
* a traced run writes the same report as an untraced one, and after
  ``uninstall`` no wrapper is left anywhere in ``repro``;
* the span dump reads back column for column;
* every wrapped function recorded at least one call on some workload,
  and every workload ran ecall handlers in app spans;
* the EPC paging hook counts an EWB and an ELDU driven on a small
  page cache (no workload pages: the load middlebox keeps DPI outside
  the EPC).

Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import APP_LAYER, TARGETS, Tracer, read_spans  # noqa: E402

#: Seed 0 and one seed held out while the benchmark was tuned.
PINNED_SEEDS = (0, 97)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def composed(w, seed: int, tracer=None) -> str:
    from repro.load.report import bench_json

    backend = workloads.build(w, seed)
    target = workloads.dispatcher(w, workloads.TimedDispatch(backend, tracer))
    engine, stream, _ = workloads.serve(w, seed, backend, target, tracer)
    return bench_json(workloads.package(w, seed, backend, engine, stream))


def leftover_wrappers(wrappers) -> list:
    ids = {id(f) for f in wrappers}
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if id(value) in ids:
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                found += [
                    f"{name}.{attr}.{m}"
                    for m, f in vars(value).items() if id(f) in ids
                ]
    return found


def paging_counts() -> dict:
    """Counts the tracer takes while one page is evicted and reloaded."""
    from repro.sgx.epc import EnclavePageCache

    tracer = Tracer()
    tracer.install()
    try:
        epc = EnclavePageCache(bytes(16), frames=2, allow_paging=True)
        page = epc.allocate(enclave_id=1)
        epc.pressure_evict(1)
        epc.read(1, page.index)
    finally:
        tracer.uninstall()
    return {key: n for (_phase, key), n in tracer.counts.items()}


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    pins_path = os.path.join(HERE, "digests.json")
    with open(pins_path) as fh:
        pins = json.load(fh)

    pinned = [(w, seed) for w in workloads.WORKLOADS.values() for seed in PINNED_SEEDS]
    pinned += [(workloads.canary(w), 0) for w in workloads.WORKLOADS.values()]
    for w, seed in pinned:
        reference = workloads.reference_json(w, seed)
        if args.pin:
            pins.setdefault(w.name, {})[str(seed)] = sha(reference)
        check(composed(w, seed) == reference,
              f"{w.name} seed {seed}: composed pipeline == library entry point")
        if w.cohorts:
            check(workloads.reference_json(w, seed, per_client=True) == reference,
                  f"{w.name} seed {seed}: cohort tier == per-client engine")
        check(sha(reference) == pins[w.name][str(seed)],
              f"{w.name} seed {seed}: report matches pinned digest")

    from repro.crypto import cache

    calls = {}
    for w in workloads.WORKLOADS.values():
        # Cold caches, as in the fresh process each benchmark run uses.
        cache.clear_all()
        tracer = Tracer()
        tracer.install()
        try:
            traced = composed(w, 0, tracer)
        finally:
            tracer.uninstall()
        check(not leftover_wrappers(tracer.wrappers),
              f"{w.name}: every wrapper removed after uninstall")
        check(traced == composed(w, 0), f"{w.name}: traced report == untraced report")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        dump = os.path.join(HERE, "out", "selftest.spans")
        tracer.dump(dump)
        spans = read_spans(dump)
        os.remove(dump)
        check(
            spans["span_names"] == tracer.span_names
            and all(spans[attr] == getattr(tracer, attr) for attr, _ in Tracer.COLUMNS),
            f"{w.name}: span dump reads back unchanged",
        )
        spans = tracer.reduce()["spans"]
        check(any(span.startswith(f"{APP_LAYER}:") for span in spans),
              f"{w.name}: ecall handlers ran in app spans")
        for span, n in spans.items():
            calls[span] = calls.get(span, 0) + n
        calls.update(
            (key, calls.get(key, 0) + n) for (_phase, key), n in tracer.counts.items()
        )
    silent = [
        f"{mod}.{qualname}" for _l, _g, mod, qualname, _p in TARGETS
        if not calls.get(f"{mod}.{qualname}")
    ]
    check(not silent, "every wrapped function called on some workload"
          + (f"; silent: {silent}" if silent else ""))
    paging = paging_counts()
    check(paging == {"sgx.epc.ewb": 1, "sgx.epc.eldu": 1},
          f"paging hook counts one EWB and one ELDU: {paging}")

    if args.pin:
        with open(pins_path, "w") as fh:
            json.dump(pins, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"pinned {pins_path}")


if __name__ == "__main__":
    main()
