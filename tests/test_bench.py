"""Benchmark harness: task runs, suite rows, aggregates, CSV."""

import csv
import json
import statistics
from pathlib import Path

import pytest

from divsim import bench
from divsim.bench import (
    CSV_COLUMNS,
    MODES,
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
from divsim.search import NoveltyConfig, NoveltyScope, SearchLimits

from conftest import fixture_path
from test_acceptance import (
    GENERATED_GRIDS,
    GENERATED_PUZZLES,
    GENERATED_STARS,
    grid_text,
    star_scenario,
)


class TestTaskSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TaskSpec(instance="x.grid", mode="exhaustive")

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k"):
            TaskSpec(instance="x.grid", k=0)

    @pytest.mark.parametrize("k", [2.5, True], ids=["float", "bool"])
    def test_rejects_k_of_the_wrong_type(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            TaskSpec(instance="x.grid", k=k)

    def test_rejects_empty_features(self):
        with pytest.raises(ValueError, match="feature"):
            TaskSpec(instance="x.grid", features=())

    def test_rejects_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature"):
            TaskSpec(instance="x.grid", features=("go", "entropy"))

    def test_limit_keywords_override_the_limits(self):
        limits = SearchLimits(node_budget=99)
        spec = TaskSpec(instance="x.grid", limits=limits, cost_bound=7, time_budget_s=2.5)
        assert spec.limits == SearchLimits(7, 2.5, 99)
        assert spec == TaskSpec(instance="x.grid", limits=SearchLimits(7, 2.5, 99))
        assert TaskSpec(instance="x.grid", limits=limits).limits is limits


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
            instance=str(fixture_path("open3x3.grid")), k=10, limits=SearchLimits(node_budget=2)
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
        def crashing_run_task(spec, plans_path=None, *, problem=None):
            if spec.instance.endswith("alley.grid"):
                raise RuntimeError("simulator crashed")
            return run_task(spec, plans_path, problem=problem)

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


def _generated_suite(root):
    """A few of the acceptance suite's grids, stars and puzzles, as files in ``root``."""
    root.mkdir()
    for name, rows, cols, start, targets in GENERATED_GRIDS[::4]:
        (root / f"{name}.grid").write_text(grid_text(rows, cols, start, targets))
    for name, n_lans, sensitive, pads in GENERATED_STARS[::2]:
        (root / f"{name}.json").write_text(star_scenario(n_lans, sensitive, pads))
    for name, text in GENERATED_PUZZLES[:2]:
        (root / f"{name}.puz").write_text(text)
    return root


def _timeless(doc):
    """A plan document without its time values, but with the widths begun."""
    stats = dict(doc["stats"])
    del stats["wall_time_s"]
    stats["wall_time_by_width"] = list(stats["wall_time_by_width"])
    return {**doc, "stats": stats}


def _per_k_reference(suite, modes, k_list, **options):
    """``run_suite``'s rows and plan documents, from one ``run_task`` per
    (instance, mode, k)."""
    rows, docs = [], {}
    for path in sorted(p for p in suite.iterdir() if p.is_file()):
        for k in k_list:
            for mode in modes:
                try:
                    _, row, doc = run_task(TaskSpec(str(path), mode, k, **options))
                except Exception:
                    row = SuiteResultRow(path.name, mode, k, False, 0, 0, 0.0, "error")
                else:
                    docs[f"{path.stem}-{mode}-k{k}.json"] = _timeless(doc)
                rows.append(row._replace(wall_time_s=0.0))
    return rows, docs


class TestSuiteRunsEachModeOnce:
    """Each (instance, mode) runs once, at the largest k; the smaller k's rows
    and documents are those of separate k-runs, time values apart."""

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("suite", ["fixtures", "generated"])
    def test_rows_and_documents_equal_per_k_runs(self, suite, scope, tmp_path):
        root = fixture_path("suite") if suite == "fixtures" else _generated_suite(tmp_path / "in")
        options = dict(
            features=("go", "cb"), novelty=NoveltyConfig(2, scope), limits=SearchLimits(24, 60.0)
        )
        k_list = (2, 5, 10)
        rows, _ = run_suite(root, MODES, k_list, plans_dir=tmp_path / "out", **options)
        got_docs = {
            p.name: _timeless(json.loads(p.read_text())) for p in (tmp_path / "out").iterdir()
        }
        want_rows, want_docs = _per_k_reference(root, MODES, k_list, **options)
        assert [r._replace(wall_time_s=0.0) for r in rows] == want_rows
        assert got_docs == want_docs
        assert {r.outcome for r in rows} >= {"done", "exhausted"}
        assert ("error" in {r.outcome for r in rows}) == (suite == "fixtures")

    def test_budget_trip_after_k_plans_leaves_row_k_done(self, tmp_path):
        # 200 nodes: fbi on open3x3 finds its second plan, then trips.
        options = dict(features=("go",), limits=SearchLimits(6, 60.0, 200))
        root = tmp_path / "in"
        root.mkdir()
        (root / "open3x3.grid").write_text(fixture_path("open3x3.grid").read_text())
        rows, _ = run_suite(root, ("fbi",), (2, 10), plans_dir=tmp_path / "out", **options)
        assert [(r.k, r.outcome) for r in rows] == [(2, "done"), (10, "nodecap")]
        want_rows, want_docs = _per_k_reference(root, ("fbi",), (2, 10), **options)
        assert [r._replace(wall_time_s=0.0) for r in rows] == want_rows
        got = json.loads((tmp_path / "out" / "open3x3-fbi-k2.json").read_text())
        assert _timeless(got) == want_docs["open3x3-fbi-k2.json"]

    def test_a_run_that_raises_makes_every_k_an_error_row(self, monkeypatch, capsys):
        calls = []

        def crashing_run_task(spec, plans_path=None, *, problem=None):
            calls.append((spec.mode, spec.k))
            if spec.instance.endswith("alley.grid") and spec.mode == "naive":
                raise RuntimeError("simulator crashed")
            return run_task(spec, plans_path, problem=problem)

        monkeypatch.setattr(bench, "run_task", crashing_run_task)
        rows, _ = run_suite(fixture_path("suite"), k_list=(2, 5))
        assert calls == [("fbi", 5), ("naive", 5)] * 2  # broken.grid does not load
        errors = [(r.instance, r.k, r.mode, r.outcome == "error") for r in rows[:4]]
        assert errors == [
            ("alley.grid", 2, "fbi", False),
            ("alley.grid", 2, "naive", True),
            ("alley.grid", 5, "fbi", False),
            ("alley.grid", 5, "naive", True),
        ]
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == [
            "warning: alley.grid (naive, k=2): RuntimeError: simulator crashed",
            "warning: alley.grid (naive, k=5): RuntimeError: simulator crashed",
        ]

    def test_each_file_is_loaded_once_even_when_it_fails(self, monkeypatch, capsys):
        loaded = []

        def counting_load_problem(path, domain=None):
            loaded.append(Path(path).name)
            return load_problem(path, domain)

        monkeypatch.setattr(bench, "load_problem", counting_load_problem)
        rows, _ = run_suite(fixture_path("suite"), ("fbi", "naive"), (2, 5))
        assert loaded == ["alley.grid", "broken.grid", "fork.json"]
        broken = [(r.k, r.mode, r.outcome) for r in rows if r.instance == "broken.grid"]
        assert broken == [(k, mode, "error") for k in (2, 5) for mode in ("fbi", "naive")]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: broken.grid ({mode}, k={k}): LevelInvalid: no start cell"
            for k, mode, _ in broken
        ]

    def test_empty_k_list_gives_no_rows(self):
        assert run_suite(fixture_path("suite"), k_list=()) == ([], [])


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

    @staticmethod
    def _fmean_averages(rows):
        """``avg_time_*`` of each k, as ``statistics.fmean`` computes them."""

        def avg(values):
            values = list(values)
            return round(statistics.fmean(values), 6) if values else None

        modes = sorted({r.mode for r in rows})
        return [
            (
                {m: avg(r.wall_time_s for r in rows if (r.k, r.mode, r.solved) == (k, m, True))
                 for m in modes},
                {m: avg(r.wall_time_s for r in rows if (r.k, r.mode) == (k, m)) for m in modes},
            )
            for k in sorted({r.k for r in rows})
        ]

    @pytest.mark.parametrize("source", ["suite", "rounding"])
    def test_averages_equal_statistics_fmean(self, source):
        if source == "suite":
            rows, _ = run_suite(fixture_path("suite"), k_list=(2, 5))
        else:
            # Summed left to right, the tenths vanish into 1e16; fsum keeps them.
            times = [0.1] * 10 + [1e16]
            assert sum(times) / len(times) != statistics.fmean(times)
            rows = [
                SuiteResultRow(f"{i}.grid", "fbi", 2, True, 1, 1, t, "done")
                for i, t in enumerate(times)
            ]
        got = [(e["avg_time_solved_s"], e["avg_time_all_s"]) for e in aggregate_rows(rows)]
        assert got == self._fmean_averages(rows)

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
