"""The four load workloads and the pipeline that serves them.

Each workload drives one of the existing load backends through the
same public steps a ``python -m repro load`` run takes: build the
backend (set-up), generate the seeded event log, fold it through the
engine (the timed phase), package the result.  The composition is
spelled out here, instead of calling ``run_load_engine`` /
``run_load_cohorts``, so set-up and the timed phase can be clocked
apart and every ``backend.dispatch`` call timed on its own.
``selftest.py`` pins the composed pipeline's report byte-identical to
those library entry points.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List

#: Participant ASes in the routing topology (the CLI default).
N_ASES = 24

#: Fewest child runs per benchmark run: sets the sample pools for the
#: set-up median and the dispatch tail percentile.
MIN_RUNS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    clients: int
    shards: int
    batch: int
    events: int
    cohorts: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "routing", "routing", clients=2000, shards=2, batch=8, events=2000,
            cohorts=False,
            why="sharded routing controller: symmetric crypto, wire codec and "
            "batched ecalls; modexp only in set-up, event kernel never entered",
        ),
        Workload(
            "tor", "tor", clients=1000, shards=2, batch=1, events=12,
            cohorts=False,
            why="phase-2 Tor circuit builds: the modexp-bound load, with "
            "event-kernel rounds and repeated schnorr_verify inputs",
        ),
        Workload(
            "middlebox", "middlebox", clients=1000, shards=1, batch=8, events=384,
            cohorts=False,
            why="one fresh TLS flow per dispatch: handshake, middlebox "
            "attestation, key provisioning and DPI over 8 records",
        ),
        Workload(
            "cohorts", "routing", clients=10000, shards=2, batch=1, events=10000,
            cohorts=True,
            why="routing through the cohort tier at batch 1, where dispatch "
            "signatures repeat and replay replaces crypto",
        ),
    )
}


def canary(w: Workload) -> Workload:
    """A tenth-size copy of ``w``, served at seed 0 before each run.

    Its report has a pinned digest, so every benchmark run checks the
    program's output even when the run's own seed has none.
    """
    return dataclasses.replace(
        w, name=f"{w.name}-canary", events=max(1, w.events // 10)
    )


class TimedDispatch:
    """Backend proxy that clocks every ``dispatch`` call.

    It sits directly around the backend, so on ``cohorts`` only the
    dispatches the cohort cache executes are timed; a replay is not a
    backend dispatch.  With a tracer, each dispatch is also the
    ``load.dispatch`` span that the spans of the layers it calls hang
    under.  With a host-speed reference, a sample is taken before a
    dispatch whenever one is due, outside the dispatch's time.
    """

    def __init__(self, inner, tracer=None, reference=None) -> None:
        self._inner = inner
        self._tracer = tracer
        self._reference = reference
        self.samples: List[float] = []

    def __getattr__(self, name):
        # The cohort cache reads the backend's deployment through us.
        return getattr(self._inner, name)

    def dispatch(self, slot, events, index=0):
        if self._reference is not None and self._reference.due():
            if self._tracer is not None:
                with self._tracer.span("bench.reference"):
                    self._reference.sample()
            else:
                self._reference.sample()
        if self._tracer is not None:
            with self._tracer.dispatch(index):
                return self._timed(slot, events, index)
        return self._timed(slot, events, index)

    def _timed(self, slot, events, index):
        start = time.perf_counter()
        out = self._inner.dispatch(slot, events, index)
        self.samples.append(time.perf_counter() - start)
        return out


def build(w: Workload, seed: int):
    """Set-up: enclave launch, attestation, registration/seal, consensus."""
    from repro.load.engine import make_backend

    return make_backend(w.scenario, w.shards, w.batch, N_ASES, seed)


def serve(w: Workload, seed: int, backend, target, tracer=None):
    """The timed phase.  Returns a finished engine, its input stream and
    the phase's wall seconds.

    ``target`` is what the engine dispatches to (see :func:`dispatcher`).
    """
    if w.cohorts:
        from repro.load.clients import FingerprintTap, iter_events
        from repro.load.cohorts import CohortLoadEngine

        stream = FingerprintTap(
            iter_events(w.scenario, w.clients, w.events, backend.keys(), seed)
        )
        engine = CohortLoadEngine(target, w.shards, w.batch)
        run = engine.run_stream
    else:
        from repro.load.clients import generate_events
        from repro.load.engine import LoadEngine

        stream = generate_events(w.scenario, w.clients, w.events, backend.keys(), seed)
        engine = LoadEngine(target, w.shards, w.batch)
        run = engine.run
    start = time.perf_counter()
    if tracer is not None:
        with tracer.phase("timed"):
            run(stream)
    else:
        run(stream)
    return engine, stream, time.perf_counter() - start


def dispatcher(w: Workload, timed: TimedDispatch):
    """What the engine dispatches to: the cohort cache on ``cohorts``.

    Mirrors ``run_load_cohorts``, which caches only the flat routing
    backend; the self-test holds the two byte-identical.
    """
    if not w.cohorts:
        return timed
    from repro.load.cohorts import _CohortCache

    return _CohortCache(timed)


def package(w: Workload, seed: int, backend, engine, stream):
    """Assemble the ``LoadResult`` exactly as the library entry points do."""
    if not w.cohorts:
        from repro.load.engine import package_result

        return package_result(
            w.scenario, w.clients, w.shards, w.batch, seed, w.events, stream,
            engine, backend.setup_cycles, backend.steady_counters(),
            backend.shard_stats(), False,
        )
    from repro.load.engine import LoadResult

    return LoadResult(
        scenario=w.scenario,
        n_clients=w.clients,
        n_shards=w.shards,
        batch=w.batch,
        seed=seed,
        n_events=w.events,
        events=[],
        event_fingerprint=stream.hexdigest(),
        setup_cycles=backend.setup_cycles,
        makespan_cycles=max(engine.busy_until.values(), default=0.0),
        steady_counters=backend.steady_counters(),
        shard_stats=backend.shard_stats(),
        outcomes=engine.outcomes,
        payloads=None,
        regions=None,
        n_served=engine.n_served,
        latency_samples=sorted(engine.latency_counts.items()),
    )


def reference_json(w: Workload, seed: int, per_client: bool = False) -> str:
    """The same configuration through the library's own entry point."""
    from repro.load.report import bench_json

    if w.cohorts and not per_client:
        from repro.load.cohorts import run_load_cohorts

        run = run_load_cohorts
    else:
        from repro.load.engine import run_load_engine

        run = run_load_engine
    return bench_json(
        run(w.scenario, n_clients=w.clients, n_shards=w.shards, batch=w.batch,
            seed=seed, n_events=w.events, n_ases=N_ASES)
    )


def manifest(w: Workload, seed: int) -> dict:
    """Every optional mechanism, on or off, plus the run's size and seed."""
    from repro.cost import accountant
    from repro.crypto import cache
    from repro.net import sim

    return {
        "workload": w.name,
        "scenario": w.scenario,
        "seed": seed,
        "clients": w.clients,
        "shards": w.shards,
        "batch": w.batch,
        "events": w.events,
        "cohorts": w.cohorts,
        "regions": None,
        "workers": None,
        "crypto_cache": cache.enabled(),
        "fast_aes_kernel": cache.fast_kernels_available(),
        "burst_charge": accountant.burst_enabled(),
        "sim_kernel": sim.current_kernel(),
        # The load backends build their deployments with these off.
        "switchless": False,
        "rings": False,
        "epc_dpi": False,
    }
