"""The reusable experiment layer and the CLI entry point."""

import json

import pytest

import repro.__main__ as cli
from repro import experiments, obs
from repro.__main__ import main


class TestExperimentLayer:
    def test_table2_runs_and_formats(self):
        results = experiments.run_table2()
        assert set(results) == {(1, False), (1, True), (100, False), (100, True)}
        text = experiments.format_table2(results)
        assert "Table 2" in text
        assert "13K" in text

    def test_table1_roles_present(self):
        results = experiments.run_table1()
        for with_dh in (False, True):
            assert set(results[with_dh]) == {"target", "quoting", "challenger"}
        text = experiments.format_table1(results)
        assert "challenger cycles" in text

    def test_table4_small_scale(self):
        sgx, native = experiments.run_table4(n_ases=5, seed=b"cli-test")
        assert sgx.routes == native.routes
        text = experiments.format_table4(sgx, native)
        assert "Inter-domain" in text and "overhead" in text

    def test_figure3_short_sweep(self):
        series = experiments.run_figure3(sweep=[4, 6], seed=b"cli-fig")
        assert [p["n"] for p in series] == [4, 6]
        assert all(p["sgx"] > p["native"] for p in series)
        assert "Figure 3" in experiments.format_figure3(series)


class TestCli:
    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "regenerated" in out

    def test_table4_with_custom_size(self, capsys):
        assert main(["table4", "--ases", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 ASes" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_failing_scenario_exits_nonzero(self, monkeypatch, capsys):
        def boom():
            raise RuntimeError("scenario exploded")

        monkeypatch.setattr(cli, "_table2", boom)
        assert main(["table2"]) == 1
        err = capsys.readouterr().err
        assert "table2 failed" in err
        assert "scenario exploded" in err

    def test_all_stops_at_first_failure(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "_table1", lambda: ran.append("table1"))
        monkeypatch.setattr(
            cli, "_table2", lambda: (_ for _ in ()).throw(ValueError("nope"))
        )
        monkeypatch.setattr(cli, "_table3", lambda: ran.append("table3"))
        assert main(["all"]) == 1
        assert ran == ["table1"]

    def test_all_honors_ases_and_seed(self, monkeypatch, capsys):
        seen = {}
        monkeypatch.setattr(cli, "_table1", lambda: None)
        monkeypatch.setattr(cli, "_table2", lambda: None)
        monkeypatch.setattr(cli, "_table3", lambda: None)
        monkeypatch.setattr(cli, "_table4", lambda n: seen.setdefault("ases", n))
        monkeypatch.setattr(cli, "_figure3", lambda: None)
        monkeypatch.setattr(cli, "_switchless", lambda: None)
        monkeypatch.setattr(cli, "_rings", lambda: None)
        monkeypatch.setattr(cli, "_faults", lambda s: seen.setdefault("seed", s))
        assert main(["all", "--ases", "7", "--seed", "3"]) == 0
        assert seen == {"ases": 7, "seed": 3}
        out = capsys.readouterr().out
        assert out.count("regenerated") == 8


class TestTraceCli:
    def test_trace_requires_scenario(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_scenario_positional_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            main(["table2", "table3"])

    def test_trace_table2_json_to_stdout(self, capsys):
        assert main(["trace", "table2"]) == 0
        captured = capsys.readouterr()
        # stdout = the JSON payload followed by the "[... regenerated]"
        # status line; parse up to the payload's closing brace.
        payload = json.loads(captured.out[: captured.out.rindex("}") + 1])
        events = obs.validate_trace_events(payload)
        assert events
        assert "top cost sites" in captured.err

    def test_trace_table2_folded(self, capsys):
        assert main(["trace", "table2", "--format", "folded"]) == 0
        out = capsys.readouterr().out
        assert any(
            line.startswith("table2;") for line in out.splitlines() if line
        )

    def test_trace_table2_prom(self, capsys):
        assert main(["trace", "table2", "--format", "prom"]) == 0
        assert "repro_trace_span_count" in capsys.readouterr().out

    def test_trace_out_writes_file(self, tmp_path, capsys):
        assert main(["trace", "table2", "--out", str(tmp_path)]) == 0
        path = tmp_path / "trace-table2.json"
        assert path.exists()
        obs.validate_trace_events(json.loads(path.read_text()))
        assert str(path) in capsys.readouterr().out

    def test_trace_failure_exits_nonzero(self, monkeypatch, capsys):
        def boom(trace=None):
            raise RuntimeError("traced scenario exploded")

        monkeypatch.setattr(experiments, "run_table2", boom)
        assert main(["trace", "table2"]) == 1
        assert "trace failed" in capsys.readouterr().err


class TestLoadCli:
    def test_load_requires_scenario(self):
        with pytest.raises(SystemExit):
            main(["load"])

    def test_load_rejects_table_scenarios(self):
        with pytest.raises(SystemExit):
            main(["load", "table2"])

    def test_load_writes_valid_report(self, tmp_path, capsys, monkeypatch):
        from repro.load.report import validate_bench

        monkeypatch.chdir(tmp_path)
        assert main(
            ["load", "routing", "--clients", "20", "--shards", "2",
             "--batch", "4", "--seed", "0"]
        ) == 0
        captured = capsys.readouterr()
        assert "Load — routing" in captured.out
        assert "BENCH_load.json" in captured.err
        doc = json.loads((tmp_path / "BENCH_load.json").read_text())
        assert validate_bench(doc) == []
        assert doc["config"] == {
            "clients": 20, "shards": 2, "batch": 4, "seed": 0, "events": 20,
            "regions": None,
        }

    def test_load_out_flag_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["load", "routing", "--clients", "15", "--shards", "2",
                "--batch", "2", "--seed", "5"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_load_experiment_layer(self):
        doc = experiments.run_load("routing", clients=10, shards=1, batch=1, seed=0)
        assert doc["schema"] == "repro.load/1"
        text = experiments.format_load(doc)
        assert "Load — routing" in text
        assert "crossings / event" in text

    def test_load_ablation_formats(self):
        grid = experiments.run_load_ablation(
            "routing", clients=8, shard_counts=(1, 2), batch_sizes=(1, 4), seed=0
        )
        assert set(grid) == {(1, 1), (1, 4), (2, 1), (2, 4)}
        text = experiments.format_load_ablation(grid)
        assert "Load ablation" in text
        assert "crossings/event" in text

    def test_load_cohorts_flag_byte_identical(self, tmp_path):
        a, b = tmp_path / "client.json", tmp_path / "cohort.json"
        base = ["load", "routing", "--clients", "30", "--shards", "2",
                "--batch", "2", "--seed", "3"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--cohorts", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_regions_flag_writes_tree_config(self, tmp_path):
        out = tmp_path / "tree.json"
        assert main(
            ["load", "routing", "--clients", "20", "--shards", "4",
             "--regions", "2", "--cohorts", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["regions"] == 2

    def test_cohorts_and_regions_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            main(["table2", "--cohorts"])
        with pytest.raises(SystemExit):
            main(["bench", "--regions", "2"])

    def test_retired_flags_rejected(self):
        # Without prefix matching ``--ablation`` cannot silently run
        # the ``--ablation-kernel`` grid.
        with pytest.raises(SystemExit):
            main(["bench", "--ablation"])

    def test_load_cohort_ablation_formats(self):
        grid = experiments.run_load_cohort_ablation(
            "routing", client_counts=(20,), shards=2, batch=2,
            region_counts=(None, 2),
        )
        assert set(grid) == {
            (20, None, "per-client"), (20, None, "cohort"),
            (20, 2, "per-client"), (20, 2, "cohort"),
        }
        assert all(
            cell["matches_per_client"]
            for key, cell in grid.items() if key[2] == "cohort"
        )
        text = experiments.format_load_cohort_ablation(grid)
        assert "Load cohorts" in text
        assert "== per-client" in text
