"""The cohort <-> per-client equivalence suite (the cohort tier's gate).

The cohort tier (:mod:`repro.load.cohorts`) is only allowed to be an
optimization: for *every* configuration its ``BENCH_load.json`` must
be byte-identical to the per-client engine's — which, because the
document embeds the steady counters, per-shard stats, outcome tallies
and the event-log fingerprint, also pins the accountants
integer-for-integer.  Hypothesis drives randomized configurations
across all three scenarios, flat and two-level shard trees; a pinned
grid covers the seeds/batches CI promises explicitly; a lock-step walk
compares accountant snapshots after every dispatch, not just at the
end.

Budget: ``REPRO_CONFORMANCE_EXAMPLES`` scales the generated-config
count (default 25 for tier-1 speed; nightly raises it).  A falsified
configuration is dumped to ``conformance-failures/`` as JSON — the
config plus both documents — so CI uploads it as an artifact.
"""

import json
import os
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cost.accountant import CostAccountant
from repro.load.clients import generate_events, streaming_fingerprint
from repro.load.cohorts import CohortLoadEngine, _CohortCache, run_load_cohorts
from repro.load.engine import (
    LoadEngine,
    make_backend,
    plan_dispatches,
    run_load_engine,
)
from repro.load.report import bench_json, validate_bench

EXAMPLES = int(os.environ.get("REPRO_CONFORMANCE_EXAMPLES", "25"))
FAILURE_DIR = (
    pathlib.Path(__file__).resolve().parents[2] / "conformance-failures"
)


def _dump_failure(config: dict, cohort_text: str, client_text: str) -> str:
    FAILURE_DIR.mkdir(exist_ok=True)
    slug = "-".join(f"{k}{v}" for k, v in sorted(config.items()))
    path = FAILURE_DIR / f"cohort-equiv-{slug}.json"
    path.write_text(
        json.dumps(
            {
                "config": config,
                "cohort": json.loads(cohort_text),
                "per_client": json.loads(client_text),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return str(path)


def assert_equivalent(
    scenario: str,
    clients: int,
    shards: int,
    batch: int,
    seed: int,
    regions=None,
) -> str:
    """Run both tiers; byte-compare the reports.  Returns the text."""
    cohort = run_load_cohorts(
        scenario, clients, shards, batch, seed, regions=regions
    )
    client = run_load_engine(
        scenario, clients, shards, batch, seed, regions=regions
    )
    cohort_text = bench_json(cohort)
    client_text = bench_json(client)
    if cohort_text != client_text:
        config = {
            "scenario": scenario, "clients": clients, "shards": shards,
            "batch": batch, "seed": seed, "regions": regions,
        }
        path = _dump_failure(config, cohort_text, client_text)
        pytest.fail(
            f"cohort tier diverged from per-client replay for {config}; "
            f"both documents dumped to {path}"
        )
    assert validate_bench(json.loads(cohort_text)) == []
    assert cohort.steady_counters == client.steady_counters
    assert cohort.shard_stats == client.shard_stats
    assert cohort.outcomes == client.outcomes
    return cohort_text


class TestPinnedGrid:
    """The explicit configurations CI promises, beyond the random sweep."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_routing(self, seed, batch):
        assert_equivalent("routing", 40, 3, batch, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tor(self, seed):
        assert_equivalent("tor", 24, 2, 4, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_middlebox(self, seed):
        assert_equivalent("middlebox", 24, 2, 4, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_routing_two_level_tree(self, seed):
        assert_equivalent("routing", 40, 4, 2, seed, regions=2)

    def test_single_shard(self):
        assert_equivalent("routing", 30, 1, 4, 0)

    def test_unbatched_tree(self):
        assert_equivalent("routing", 30, 6, 1, 0, regions=3)


CONFIGS = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(["routing", "tor", "middlebox"]),
        "clients": st.integers(min_value=4, max_value=36),
        "shards": st.integers(min_value=1, max_value=4),
        "batch": st.sampled_from([1, 2, 4, 8]),
        "seed": st.integers(min_value=0, max_value=3),
        "tree": st.booleans(),
    }
)


class TestRandomizedEquivalence:
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=CONFIGS)
    def test_cohort_report_matches_per_client(self, config):
        regions = (
            2
            if config["tree"]
            and config["scenario"] == "routing"
            and config["shards"] >= 2
            else None
        )
        assert_equivalent(
            config["scenario"],
            config["clients"],
            config["shards"],
            config["batch"],
            config["seed"],
            regions=regions,
        )


class TestLockstep:
    """Dispatch-granular equivalence: counters match after *every* step,
    so a cache bug cannot hide behind later compensating errors."""

    def test_counters_integer_equal_after_every_dispatch(self):
        scenario, clients, shards, batch, seed = "routing", 40, 3, 4, 0
        ref = make_backend(scenario, shards, batch, 24, seed)
        coh = make_backend(scenario, shards, batch, 24, seed)
        cached = _CohortCache(coh)
        events = generate_events(scenario, clients, clients, ref.keys(), seed)
        plan = plan_dispatches(events, shards, batch)
        ref_engine = LoadEngine(ref, shards, batch)
        coh_engine = CohortLoadEngine(cached, shards, batch)
        for index, (slot, batch_events) in enumerate(plan):
            ref_engine._flush(slot, list(batch_events), index)
            coh_engine._fold(slot, list(batch_events), index)
            ref_counters = {
                sid: {d: c.as_dict() for d, c in acct.snapshot().items()}
                for sid, acct in ref.dep.accountants().items()
            }
            coh_counters = {
                sid: {d: c.as_dict() for d, c in acct.snapshot().items()}
                for sid, acct in coh.dep.accountants().items()
            }
            assert ref_counters == coh_counters, f"diverged at dispatch {index}"
            assert ref_engine.busy_until == coh_engine.busy_until
        assert len(cached._entries) > 0  # the cache actually engaged


class TestAggregateResult:
    """The cohort tier's LoadResult carries aggregates, not a log."""

    def test_no_materialized_events_but_same_fingerprint(self):
        cohort = run_load_cohorts("routing", 30, 2, 4, 0)
        client = run_load_engine("routing", 30, 2, 4, 0)
        assert cohort.events == []
        assert cohort.event_fingerprint == client.event_fingerprint
        assert cohort.served == client.served == 30
        assert cohort.weighted_latencies() == client.weighted_latencies()

    def test_streaming_fingerprint_matches_materialized(self):
        from repro.load.clients import event_log_fingerprint, iter_events

        keys = make_backend("routing", 1, 1, 24, 7).keys()
        events = generate_events("routing", 20, 20, keys, 7)
        assert streaming_fingerprint(
            iter_events("routing", 20, 20, keys, 7)
        ) == event_log_fingerprint(events)

    def test_cache_hits_counted(self):
        from repro import obs
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(interval=10_000_000)
        tracer = obs.Tracer(metrics=registry)
        with obs.tracing(tracer):
            # batch 1 keeps the signature space small enough that a
            # 200-client population genuinely repeats dispatches
            run_load_cohorts("routing", 200, 2, 1, 0)
        assert registry.total("load_cohort_hits") > 0
        assert registry.total("load_cohort_misses") > 0
