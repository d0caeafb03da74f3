"""BENCH_perf schema, validator and formatter (repro.perfbench).

The heavy cold/warm sweep lives in ``benchmarks/perf.py`` and the
``python -m repro bench`` CLI; this suite keeps tier-1 fast by running
one cheap scenario end-to-end and validating documents by hand.
"""

import json

import pytest

from repro import perfbench
from repro.crypto import cache


@pytest.fixture(scope="module")
def smoke_doc():
    return perfbench.run_perf(smoke=True, repeats=1, scenarios=["record_channel"])


class TestRunPerf:
    def test_smoke_doc_validates(self, smoke_doc):
        assert perfbench.validate_perf(smoke_doc) == []

    def test_doc_shape(self, smoke_doc):
        assert smoke_doc["schema"] == perfbench.SCHEMA
        assert smoke_doc["smoke"] is True
        entry = smoke_doc["scenarios"]["record_channel"]
        assert len(entry["cold_seconds"]) == 1
        assert entry["cold_median_s"] > 0
        assert entry["warm_median_s"] > 0
        assert entry["speedup"] > 0

    def test_env_fingerprint(self, smoke_doc):
        env = smoke_doc["env"]
        assert env["cpu_count"] >= 1
        assert isinstance(env["fast_aes_kernel"], bool)
        assert env["fast_modexp_kernel"] is cache.fast_modexp_available()
        assert env["python"]

    def test_caches_left_enabled(self, smoke_doc):
        # run_perf toggles the caches internally; the ambient state
        # must survive untouched.
        assert cache.enabled()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            perfbench.run_perf(smoke=True, repeats=1, scenarios=["bogus"])

    def test_json_round_trips(self, smoke_doc):
        text = perfbench.perf_json(smoke_doc)
        assert text.endswith("\n")
        assert json.loads(text) == smoke_doc

    def test_format_mentions_every_scenario(self, smoke_doc):
        table = perfbench.format_perf(smoke_doc)
        assert "record_channel" in table
        assert "speedup" in table


class TestValidatePerf:
    def test_catches_wrong_schema(self, smoke_doc):
        doc = dict(smoke_doc, schema="bogus/9")
        assert any("schema" in p for p in perfbench.validate_perf(doc))

    def test_catches_missing_env_field(self, smoke_doc):
        doc = dict(smoke_doc, env={"python": "3"})
        problems = perfbench.validate_perf(doc)
        assert any("cpu_count" in p for p in problems)

    def test_catches_missing_scenarios(self, smoke_doc):
        doc = dict(smoke_doc)
        del doc["scenarios"]
        assert any("scenarios" in p for p in perfbench.validate_perf(doc))

    def test_catches_nonpositive_median(self, smoke_doc):
        entry = dict(smoke_doc["scenarios"]["record_channel"], warm_median_s=0)
        doc = dict(smoke_doc, scenarios={"record_channel": entry})
        assert any("not positive" in p for p in perfbench.validate_perf(doc))

    def test_validates_ablation_cells(self):
        doc = {
            "schema": perfbench.SCHEMA,
            "env": {
                "python": "3",
                "platform": "x",
                "cpu_count": 1,
                "fast_aes_kernel": False,
            },
            "ablation": "A13",
            "cells": [
                {"kernel": "fast", "burst_charging": True, "seconds": 0.5}
            ],
        }
        assert perfbench.validate_perf(doc) == []
        doc["cells"] = [{"kernel": "fast"}]
        problems = perfbench.validate_perf(doc)
        assert any("burst_charging" in p for p in problems)
        assert any("seconds" in p for p in problems)


class TestKernelBench:
    @pytest.fixture(scope="class")
    def kernel_section(self):
        return perfbench.run_kernel_bench(smoke=True, repeats=1)

    def test_covers_all_kernel_scenarios(self, kernel_section):
        assert sorted(kernel_section) == [
            "kernel_events",
            "kernel_queues",
            "kernel_timers",
        ]

    def test_entry_shape(self, kernel_section):
        for entry in kernel_section.values():
            assert entry["n_events"] > 0
            assert entry["fast_median_s"] > 0
            assert entry["reference_median_s"] > 0
            assert entry["fast_events_per_s"] > 0
            assert entry["speedup"] > 0
            assert len(entry["fast_seconds"]) == len(entry["reference_seconds"])

    def test_validate_catches_missing_kernel_section(self):
        doc = perfbench.run_perf(smoke=True, repeats=1, scenarios=["record_channel"])
        del doc["kernel"]
        assert any("kernel" in p for p in perfbench.validate_perf(doc))

    def test_format_prints_kernel_table(self):
        doc = perfbench.run_perf(smoke=True, repeats=1, scenarios=["record_channel"])
        text = perfbench.format_perf(doc)
        for name in ("kernel_events", "kernel_timers", "kernel_queues"):
            assert name in text


class TestRingsSection:
    @pytest.fixture(scope="class")
    def rings_section(self):
        return perfbench.run_rings_section(smoke=True)

    def test_grid_shape(self, rings_section):
        assert rings_section["ablation"] == "A14"
        assert rings_section["n_records"] > 0
        modes = {cell["mode"] for cell in rings_section["grid"]}
        assert modes == {"ecall", "switchless", "rings"}
        depths = [
            cell["depth"]
            for cell in rings_section["grid"]
            if cell["mode"] == "rings"
        ]
        assert depths == list(rings_section["depths"])
        for cell in rings_section["grid"]:
            assert cell["crossings"] >= 0
            assert cell["cycles"] > 0

    def test_deep_rings_halve_crossings_twice(self, rings_section):
        # The acceptance bar: >= 2x crossings/record reduction at
        # depth >= 4 relative to the one-crossing-per-record baseline.
        deep = [
            cell
            for cell in rings_section["grid"]
            if cell["mode"] == "rings" and cell["depth"] >= 4
        ]
        assert deep
        assert all(cell["crossing_reduction"] >= 2 for cell in deep)

    def test_switchless_reduction_is_json_safe(self, rings_section):
        # Zero-crossing cells report None, never Infinity (which would
        # poison the committed BENCH_perf.json).
        for cell in rings_section["grid"]:
            if cell["crossings"] == 0:
                assert cell["crossing_reduction"] is None
        json.dumps(rings_section, allow_nan=False)

    def test_validate_catches_missing_rings_section(self, smoke_doc):
        doc = dict(smoke_doc)
        del doc["rings"]
        assert any("rings" in p for p in perfbench.validate_perf(doc))

    def test_validate_catches_weak_reduction(self, smoke_doc):
        rings = json.loads(json.dumps(smoke_doc["rings"]))
        for cell in rings["grid"]:
            if cell["mode"] == "rings" and cell["depth"] >= 4:
                cell["crossing_reduction"] = 1.5
        doc = dict(smoke_doc, rings=rings)
        problems = perfbench.validate_perf(doc)
        assert any("reduction" in p for p in problems)

    def test_format_prints_rings_table(self, smoke_doc):
        text = perfbench.format_perf(smoke_doc)
        assert "A14" in text
        assert "rings" in text


class TestDpiSection:
    @pytest.fixture(scope="class")
    def dpi_section(self):
        return perfbench.run_dpi_section(smoke=True, repeats=1)

    def test_section_shape(self, dpi_section):
        assert dpi_section["ablation"] == "A17"
        params = dpi_section["params"]
        assert params["rules"] > 0
        assert params["states"] > params["rules"]
        assert dpi_section["compiled_median_s"] > 0
        assert dpi_section["reference_median_s"] > 0
        assert dpi_section["compiled_mb_per_s"] > 0
        assert dpi_section["speedup"] > 0
        assert len(dpi_section["compiled_seconds"]) == len(
            dpi_section["reference_seconds"]
        )

    def test_compiled_engine_is_faster(self, dpi_section):
        # The tentpole claim.  Smoke corpora are small, so the CI gate
        # in validate_perf only demands >= 1.0x; the full-depth run
        # committed in BENCH_perf.json shows ~3x.
        assert dpi_section["speedup"] >= 1.0

    def test_validate_catches_missing_dpi_section(self, smoke_doc):
        doc = dict(smoke_doc)
        del doc["dpi"]
        assert any("dpi" in p for p in perfbench.validate_perf(doc))

    def test_validate_catches_regressed_speedup(self, smoke_doc):
        dpi = dict(smoke_doc["dpi"], speedup=0.8)
        doc = dict(smoke_doc, dpi=dpi)
        problems = perfbench.validate_perf(doc)
        assert any("dpi speedup" in p for p in problems)

    def test_format_prints_dpi_table(self, smoke_doc):
        text = perfbench.format_perf(smoke_doc)
        assert "A17" in text
        assert "DPI bulk scan" in text

    def test_regress_tracker_picks_up_the_speedup(self, smoke_doc):
        from repro.obs import regress

        entry = regress.entry_from_perf(smoke_doc)
        assert entry["metrics"]["dpi:bulk_scan:speedup"] == (
            smoke_doc["dpi"]["speedup"]
        )
        assert regress._direction("dpi:bulk_scan:speedup") == "higher"


class TestKernelAblation:
    def test_a13_grid_shape_and_validation(self):
        doc = perfbench.run_kernel_ablation(smoke=True)
        assert perfbench.validate_perf(doc) == []
        assert doc["ablation"] == "A13"
        grid = {(c["kernel"], c["burst_charging"]) for c in doc["cells"]}
        assert grid == {
            ("reference", False),
            ("reference", True),
            ("fast", False),
            ("fast", True),
        }
        assert all(c["seconds"] > 0 for c in doc["cells"])
        text = perfbench.format_perf(doc)
        assert "reference" in text and "fast" in text

    def test_a13_restores_burst_and_kernel_state(self):
        from repro.cost import accountant as accountant_mod
        from repro.net.sim import current_kernel

        prior = accountant_mod.burst_enabled()
        perfbench.run_kernel_ablation(smoke=True)
        assert accountant_mod.burst_enabled() == prior
        assert current_kernel() == "fast"
