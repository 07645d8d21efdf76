"""Benchmark harness: task runs, suite rows, aggregates, CSV."""

import csv
import json

import pytest

from divsim import bench
from divsim.bench import (
    CSV_COLUMNS,
    SuiteResultRow,
    TaskSpec,
    aggregate_rows,
    build_space,
    format_aggregates,
    run_suite,
    run_task,
    write_rows_csv,
)
from divsim.behaviour import CostBound, GoalOrder
from divsim.domains import load_problem
from divsim.errors import LevelInvalid
from divsim.search import NoveltyConfig

from conftest import fixture_path


class TestTaskSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TaskSpec(instance="x.grid", mode="exhaustive")

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k"):
            TaskSpec(instance="x.grid", k=0)

    def test_rejects_empty_features(self):
        with pytest.raises(ValueError, match="feature"):
            TaskSpec(instance="x.grid", features=())

    def test_rejects_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature"):
            TaskSpec(instance="x.grid", features=("go", "entropy"))

    def test_limits_mirror_the_task_fields(self):
        spec = TaskSpec(
            instance="x.grid", cost_bound=7, time_budget_s=2.5, node_budget=99
        )
        assert spec.limits.cost_bound == 7
        assert spec.limits.time_budget_s == 2.5
        assert spec.limits.node_budget == 99


class TestBuildSpace:
    def test_features_map_to_dimensions(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        space = build_space(problem, ("go", "cb"), 42)
        assert isinstance(space.order_feature, GoalOrder)
        assert isinstance(space.cost_feature, CostBound)
        assert space.cost_feature.bound == 42
        assert space.order_feature.goals == problem.goal_predicates

    def test_unknown_feature_rejected(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        with pytest.raises(ValueError, match="unknown feature"):
            build_space(problem, ("cb", "silhouette"), 10)


class TestRunTask:
    def test_single_plan_row_and_document(self):
        spec = TaskSpec(instance=str(fixture_path("corridor3.grid")), k=1)
        result, row, doc = run_task(spec)
        assert row.instance == "corridor3.grid"
        assert row.mode == "fbi"
        assert row.k == 1
        assert row.solved is True
        assert row.outcome == "done"
        assert row.plans_found == 1
        assert row.behaviour_count == 1
        assert doc["instance"].endswith("corridor3.grid")
        assert doc["mode"] == "fbi"
        assert doc["k"] == 1
        assert doc["behaviour_count"] == 1
        assert doc["stats"]["outcome"] == "done"
        (entry,) = doc["plans"]
        assert entry["actions"] == ["right", "right"]
        assert entry["cost"] == 2
        assert entry["behaviour"] == {"cost": 2, "goal_order": [["visited-1-3"]]}

    def test_done_means_k_plans_when_available(self):
        spec = TaskSpec(instance=str(fixture_path("open3x3.grid")), k=2)
        result, row, _ = run_task(spec)
        assert row.outcome == "done"
        assert row.plans_found == 2
        assert row.plans_found >= row.behaviour_count

    def test_exhaustion_below_k_is_reported(self):
        spec = TaskSpec(instance=str(fixture_path("corridor3.grid")), k=5)
        result, row, _ = run_task(spec)
        assert row.outcome == "exhausted"
        assert row.solved is True
        assert row.plans_found >= 1

    def test_naive_mode_runs(self):
        spec = TaskSpec(instance=str(fixture_path("corridor3.grid")), mode="naive", k=1)
        _, row, doc = run_task(spec)
        assert row.outcome == "done"
        assert row.plans_found == 1
        assert doc["mode"] == "naive"

    def test_node_budget_trip_becomes_nodecap_row(self):
        spec = TaskSpec(
            instance=str(fixture_path("open3x3.grid")), k=10, node_budget=2
        )
        _, row, doc = run_task(spec)
        assert row.outcome == "nodecap"
        assert row.solved is False
        assert doc["stats"]["outcome"] == "nodecap"

    def test_plans_path_holds_the_document(self, tmp_path):
        out = tmp_path / "plans.json"
        spec = TaskSpec(instance=str(fixture_path("corridor3.grid")), k=1)
        _, _, doc = run_task(spec, plans_path=out)
        assert json.loads(out.read_text()) == doc

    def test_unreadable_instance_propagates(self):
        spec = TaskSpec(instance=str(fixture_path("suite/broken.grid")), k=1)
        with pytest.raises(LevelInvalid):
            run_task(spec)


class TestRunSuite:
    def test_rows_cover_every_instance_and_bad_files_become_error_rows(
        self, tmp_path, capsys
    ):
        rows, aggregates = run_suite(
            fixture_path("suite"),
            modes=("fbi", "naive"),
            k_list=(2,),
            plans_dir=tmp_path,
        )
        assert len(rows) == 6  # 3 instances x 1 k x 2 modes
        errors = [r for r in rows if r.outcome == "error"]
        assert {r.instance for r in errors} == {"broken.grid"}
        assert len(errors) == 2
        assert all(not r.solved and r.plans_found == 0 for r in errors)
        assert "broken.grid" in capsys.readouterr().err
        # plan documents are written for the tasks that ran
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [
            "alley-fbi-k2.json",
            "alley-naive-k2.json",
            "fork-fbi-k2.json",
            "fork-naive-k2.json",
        ]
        assert aggregates == aggregate_rows(rows)

    def test_unexpected_exception_becomes_an_error_row(self, monkeypatch, capsys):
        def crashing_run_task(spec, plans_path=None):
            if spec.instance.endswith("alley.grid"):
                raise RuntimeError("simulator crashed")
            return run_task(spec, plans_path)

        monkeypatch.setattr(bench, "run_task", crashing_run_task)
        rows, _ = run_suite(fixture_path("suite"), modes=("fbi",), k_list=(2,))
        outcomes = {r.instance: r.outcome for r in rows}
        assert outcomes == {"alley.grid": "error", "broken.grid": "error", "fork.json": "done"}
        err = capsys.readouterr().err
        assert "alley.grid (fbi, k=2): RuntimeError: simulator crashed" in err

    def test_row_invariants(self):
        rows, _ = run_suite(fixture_path("suite"), k_list=(2,))
        for row in rows:
            assert row.plans_found >= row.behaviour_count
            if row.outcome == "done":
                assert row.solved
            if row.outcome == "error":
                assert row.plans_found == 0


class TestAggregates:
    ROWS = [
        SuiteResultRow("a.grid", "fbi", 2, True, 2, 2, 0.5, "done"),
        SuiteResultRow("a.grid", "naive", 2, True, 2, 1, 0.3, "done"),
        SuiteResultRow("b.grid", "fbi", 2, True, 1, 1, 0.2, "exhausted"),
        SuiteResultRow("b.grid", "naive", 2, False, 0, 0, 0.1, "timeout"),
    ]

    def test_summary_over_commonly_solved(self):
        (entry,) = aggregate_rows(self.ROWS)
        assert entry["k"] == 2
        assert entry["coverage"] == {"fbi": 2, "naive": 1}
        assert entry["commonly_solved"] == 1
        assert entry["behaviour_count"] == {"fbi": 2, "naive": 1}
        assert entry["avg_time_solved_s"] == {"fbi": 0.35, "naive": 0.3}
        assert entry["avg_time_all_s"] == {"fbi": 0.35, "naive": 0.2}

    def test_ks_split_into_entries(self):
        rows = self.ROWS + [
            SuiteResultRow("a.grid", "fbi", 5, True, 5, 3, 1.0, "done"),
            SuiteResultRow("a.grid", "naive", 5, True, 5, 2, 1.0, "done"),
        ]
        entries = aggregate_rows(rows)
        assert [e["k"] for e in entries] == [2, 5]
        assert entries[1]["behaviour_count"] == {"fbi": 3, "naive": 2}

    def test_formatting_mentions_each_mode(self):
        text = format_aggregates(aggregate_rows(self.ROWS))
        assert "k=2" in text
        assert "commonly solved: 1" in text
        assert "fbi" in text and "naive" in text
        assert "coverage" in text


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            SuiteResultRow("a.grid", "fbi", 2, True, 2, 2, 0.125, "done"),
            SuiteResultRow("b.json", "naive", 5, False, 0, 0, 0.5, "error"),
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(path, rows)
        with open(path, newline="") as handle:
            records = list(csv.reader(handle))
        assert records[0] == list(CSV_COLUMNS)
        assert records[1] == ["a.grid", "fbi", "2", "true", "2", "2", "0.125", "done"]
        assert records[2] == ["b.json", "naive", "5", "false", "0", "0", "0.5", "error"]
