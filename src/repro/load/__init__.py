"""Deterministic high-throughput workload engine (``repro.load``).

Everything here is clocked by the cost model's instruction counters —
no wall time anywhere — so a fixed seed produces a byte-identical
``BENCH_load.json`` on every run, on every machine.  The engine drives
a seeded open-loop client population against the case-study
deployments, most ambitiously the inter-domain routing controller
*sharded* across N enclave instances with batched enclave crossings.

Modules:

* :mod:`repro.load.clients` — the seeded open-loop event generator;
* :mod:`repro.load.shards`  — the enclave-hosted sharded controller
  deployment (consistent-hash partitioning, attested inter-shard
  channels, crash failover);
* :mod:`repro.load.engine`  — the modeled-cycle queueing engine
  (per-shard busy clocks, ecall batching, latency percentiles);
* :mod:`repro.load.cohorts` — the cohort tier: statistically identical
  clients fold through a dispatch-replay cache, byte-identical to the
  per-client engine at million-client populations;
* :mod:`repro.load.report`  — the ``BENCH_load.json`` writer/validator.
"""

from repro.load.clients import ClientEvent, generate_events, iter_events
from repro.load.cohorts import run_load_cohorts
from repro.load.engine import LoadEngine, LoadResult, run_load_engine
from repro.load.report import bench_json, validate_bench
from repro.load.shards import ShardedRoutingDeployment

__all__ = [
    "ClientEvent",
    "generate_events",
    "iter_events",
    "LoadEngine",
    "LoadResult",
    "run_load_engine",
    "run_load_cohorts",
    "bench_json",
    "validate_bench",
    "ShardedRoutingDeployment",
]
