"""The load engine: determinism, report schema, exact reconciliation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.errors import ReproError
from repro.load.clients import event_log_fingerprint, generate_events
from repro.load.engine import (
    LOAD_SCENARIOS,
    default_n_events,
    plan_dispatches,
    run_load_engine,
)
from repro.load.report import SCHEMA, bench_doc, bench_json, validate_bench
from repro.routing.controller import InterDomainController
from repro.routing.deployment import build_policies
from repro.routing.messages import encode_routes_msg


class TestEventGeneration:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_clients=st.integers(min_value=1, max_value=50),
        n_events=st.integers(min_value=1, max_value=80),
    )
    def test_same_seed_same_event_log(self, seed, n_clients, n_events):
        keys = list(range(1, 20))
        first = generate_events("routing", n_clients, n_events, keys, seed)
        second = generate_events("routing", n_clients, n_events, keys, seed)
        assert event_log_fingerprint(first) == event_log_fingerprint(second)
        assert [e.as_dict() for e in first] == [e.as_dict() for e in second]

    def test_different_seeds_differ(self):
        keys = list(range(1, 20))
        a = generate_events("routing", 10, 50, keys, seed=0)
        b = generate_events("routing", 10, 50, keys, seed=1)
        assert event_log_fingerprint(a) != event_log_fingerprint(b)

    def test_arrivals_are_open_loop_and_monotone(self):
        events = generate_events("routing", 5, 60, [1, 2, 3], seed=7)
        arrivals = [e.arrival for e in events]
        assert arrivals == sorted(arrivals)
        assert all(e.seq == i for i, e in enumerate(events))

    def test_bad_arguments_rejected(self):
        with pytest.raises(ReproError):
            generate_events("routing", 0, 1, [1], seed=0)
        with pytest.raises(ReproError):
            generate_events("routing", 1, 0, [1], seed=0)
        with pytest.raises(ReproError):
            generate_events("routing", 1, 1, [], seed=0)
        with pytest.raises(ReproError):
            generate_events("no-such-scenario", 1, 1, [1], seed=0)


class TestDeterminism:
    def test_bench_json_byte_identical_across_runs(self):
        kwargs = dict(n_clients=40, n_shards=2, batch=4, seed=3)
        first = bench_json(run_load_engine("routing", **kwargs))
        second = bench_json(run_load_engine("routing", **kwargs))
        assert first == second

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bench_load_bytes_across_kernels(self, seed):
        """BENCH_load.json is byte-identical under the fast event kernel
        and the frozen reference scheduler."""
        from repro.net.sim import use_kernel

        kwargs = dict(n_clients=30, n_shards=2, batch=4, seed=seed)
        fast = bench_json(run_load_engine("routing", **kwargs))
        with use_kernel("reference"):
            reference = bench_json(run_load_engine("routing", **kwargs))
        assert reference == fast

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            run_load_engine("bogus", n_clients=1, n_shards=1, batch=1, seed=0)


class TestReport:
    def _doc(self):
        result = run_load_engine("routing", n_clients=30, n_shards=2, batch=4, seed=0)
        return bench_doc(result)

    def test_generated_doc_validates(self):
        doc = self._doc()
        assert validate_bench(doc) == []
        assert doc["schema"] == SCHEMA
        # The canonical file form parses back to the same document.
        result = run_load_engine("routing", n_clients=30, n_shards=2, batch=4, seed=0)
        assert json.loads(bench_json(result)) == doc

    def test_validation_catches_missing_and_wrong(self):
        doc = self._doc()
        broken = dict(doc)
        del broken["crossings"]
        assert any("crossings" in p for p in validate_bench(broken))

        wrong_schema = dict(doc, schema="repro.load/99")
        assert any("schema" in p for p in validate_bench(wrong_schema))

        bad_sum = dict(doc, outcomes={"ok": 1})
        assert any("sum" in p for p in validate_bench(bad_sum))

        bad_class = dict(doc, outcomes={"mystery": doc["throughput"]["events"]})
        assert any("mystery" in p for p in validate_bench(bad_class))

        with pytest.raises(ReproError):
            validate_bench([1, 2, 3])


class TestEquivalence:
    def test_served_routes_match_unsharded_controller(self):
        """Every reply the sharded, batched, enclave-hosted deployment
        serves is byte-identical to the plain in-process controller's
        answer for the same AS (ISSUE acceptance gate)."""
        result = run_load_engine(
            "routing", n_clients=12, n_shards=2, batch=4, seed=1,
            n_events=16, keep_payloads=True,
        )
        _topology, policies = build_policies(24, b"load-routing-1")
        reference = InterDomainController()
        for policy in policies.values():
            reference.submit_policy(policy)
        reference.compute_routes()

        checked = 0
        for record in result.events:
            assert record.outcome == "ok"
            payload = result.payloads[record.seq]
            assert payload == encode_routes_msg(reference.routes_for(record.key))
            checked += 1
        assert checked == 16

    def test_reconcile_exact_on_traced_run(self):
        """S=1/K=1 under the tracer reconciles integer-for-integer
        against the cost accountants (obs.reconcile raises otherwise)."""
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            run_load_engine(
                "routing", n_clients=8, n_shards=1, batch=1, seed=0, n_events=8
            )
        assert obs.reconcile(tracer)  # non-empty per-domain breakdown

    def test_traced_fault_run_reconciles(self):
        """A traced routing load under a shard crash serves the same
        report bytes as the untraced run and reconciles exactly."""
        kwargs = dict(n_clients=30, n_shards=2, batch=4, seed=0)
        # Fresh plan per arm: plans consume decisions as they fire.
        with faults.active(faults.matrix_plan("shard_crash", 2)):
            untraced = bench_json(run_load_engine("routing", **kwargs))
        plan = faults.matrix_plan("shard_crash", 2)
        tracer = obs.Tracer()
        with obs.tracing(tracer), faults.active(plan):
            traced = bench_json(run_load_engine("routing", **kwargs))
        assert len(plan.log) >= 1
        assert traced == untraced
        obs.reconcile(tracer)  # raises ReconcileError on any drift


class TestPlanDispatches:
    def test_plan_covers_every_event_once(self):
        events = generate_events(
            "routing", 50, default_n_events("routing", 50),
            list(range(1, 20)), 0,
        )
        plan = plan_dispatches(events, n_slots=3, batch=4)
        dispatched = [e for _, batch_events in plan for e in batch_events]
        assert sorted(id(e) for e in dispatched) == sorted(id(e) for e in events)
        assert all(len(batch_events) <= 4 for _, batch_events in plan)


class TestScenarios:
    def test_scenario_registry(self):
        assert LOAD_SCENARIOS == ("middlebox", "routing", "tor")

    def test_tor_scenario_serves_events(self):
        result = run_load_engine("tor", n_clients=4, n_shards=1, batch=2,
                                 seed=0, n_events=4)
        assert sum(result.outcomes.values()) == 4
        assert result.outcomes.get("ok") == 4

    def test_middlebox_scenario_serves_events(self):
        result = run_load_engine("middlebox", n_clients=3, n_shards=1, batch=2,
                                 seed=0, n_events=3)
        assert sum(result.outcomes.values()) == 3
        assert result.outcomes.get("ok") == 3
