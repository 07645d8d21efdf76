"""Command line behaviour: exit codes, output documents, error channels."""

import inspect
import json

import pytest

from divsim.bench import FEATURES, TaskSpec, run_suite
from divsim.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_OK,
    EXIT_UNSOLVED,
    EXIT_USAGE,
    build_parser,
    main,
)
from divsim.domains import load_problem
from divsim.errors import ParseError
from divsim.search import NoveltyConfig, NoveltyScope, SearchLimits

from conftest import fixture_path

# The stats block of every plan set document, in this order.
STATS_KEYS = [
    "nodes_expanded",
    "nodes_generated",
    "pruned_by_novelty",
    "pruned_by_behaviour",
    "pruned_by_visited",
    "pruned_by_cost",
    "simulate_calls",
    "memo_hits",
    "restarts",
    "wall_time_by_width",
    "wall_time_s",
    "outcome",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def deep_json(tmp_path):
    """A JSON file nested deeper than the parser's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000)
    return path


class TestSolve:
    def test_done_prints_plan_set_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(fixture_path("corridor3.grid"))
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["mode"] == "fbi"
        assert doc["behaviour_count"] == 1
        assert doc["plans"][0]["actions"] == ["right", "right"]
        assert doc["stats"]["outcome"] == "done"

    def test_stats_keys_keep_their_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(fixture_path("corridor3.grid")), "--k", "3"
        )
        assert code == EXIT_UNSOLVED
        stats = json.loads(out)["stats"]
        assert list(stats) == STATS_KEYS
        assert list(stats["wall_time_by_width"]) == ["1", "2"]

    def test_out_file_gets_the_json_and_stdout_the_summary(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--instance",
            str(fixture_path("corridor3.grid")),
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["behaviour_count"] == 1
        assert "corridor3.grid: 1 plan(s)" in out

    def test_explicit_domain_and_mode_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--domain",
            "pentest",
            "--instance",
            str(fixture_path("chain3.json")),
            "--mode",
            "naive",
            "--k",
            "1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["mode"] == "naive"

    def test_exhaustion_below_k_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--instance",
            str(fixture_path("corridor3.grid")),
            "--k",
            "5",
        )
        assert code == EXIT_UNSOLVED
        assert json.loads(out)["stats"]["outcome"] == "exhausted"

    def test_unsolvable_instance_exits_2(self, capsys, tmp_path):
        level = tmp_path / "walled.grid"
        level.write_text("#####\n#S#T#\n#####\n")
        code, out, _ = run_cli(capsys, "solve", "--instance", str(level))
        assert code == EXIT_UNSOLVED
        assert json.loads(out)["plans"] == []

    def test_node_limit_trip_exits_3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--instance",
            str(fixture_path("open3x3.grid")),
            "--k",
            "10",
            "--node-limit",
            "2",
        )
        assert code == EXIT_BUDGET
        assert json.loads(out)["stats"]["outcome"] == "nodecap"

    def test_time_limit_trip_exits_3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--instance",
            str(fixture_path("open3x3.grid")),
            "--time-limit",
            "1e-9",
        )
        assert code == EXIT_BUDGET
        assert json.loads(out)["stats"]["outcome"] == "timeout"

    def test_invalid_level_exits_65(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--instance", str(fixture_path("suite/broken.grid"))
        )
        assert code == EXIT_DATA
        assert err.startswith("error:")

    def test_missing_file_exits_65(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--instance", str(tmp_path / "nope.grid")
        )
        assert code == EXIT_DATA
        assert "error:" in err

    def test_non_utf8_instance_exits_65(self, capsys, tmp_path):
        path = tmp_path / "latin.grid"
        path.write_bytes(b"\xff#####\n#S.T#\n#####\n")
        with pytest.raises(ParseError, match="UTF-8"):
            load_problem(path)
        code, _, err = run_cli(capsys, "solve", "--instance", str(path))
        assert code == EXIT_DATA
        assert "UTF-8" in err

    @pytest.mark.parametrize("section", ["subnets", "topology", "hosts", "exploits", "services"])
    def test_scenario_section_that_is_not_a_list_exits_65(self, capsys, tmp_path, section):
        data = json.loads(fixture_path("chain3.json").read_text())
        if section == "services":
            data["hosts"][0]["services"] = 5
        else:
            data[section] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "solve", "--instance", str(path))
        assert code == EXIT_DATA
        assert "must be a list" in err

    def test_deeply_nested_json_exits_65(self, capsys, deep_json):
        with pytest.raises(ParseError, match="bad scenario JSON"):
            load_problem(deep_json)
        code, _, err = run_cli(capsys, "solve", "--instance", str(deep_json))
        assert code == EXIT_DATA
        assert err.startswith("error: ")

    def test_bad_k_value_exits_64(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve",
            "--instance",
            str(fixture_path("corridor3.grid")),
            "--k",
            "0",
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_repeated_feature_exits_64(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--instance", str(fixture_path("pairs.puz")), "--features", "go,go"
        )
        assert code == EXIT_USAGE
        assert "features repeats a value" in err
        assert out == ""

    def test_unknown_flag_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", "x.grid", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE


class TestBench:
    def test_suite_run_writes_csv_and_prints_aggregates(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys,
            "bench",
            "--suite",
            str(fixture_path("suite")),
            "--modes",
            "fbi,naive",
            "--k-list",
            "2",
            "--out",
            str(out_csv),
        )
        assert code == EXIT_OK
        assert "k=2" in out
        assert f"6 rows -> {out_csv}" in out
        assert "broken.grid" in err  # the bad instance warns but does not abort
        header = out_csv.read_text().splitlines()[0]
        assert header.split(",")[0] == "instance"
        assert len(out_csv.read_text().splitlines()) == 7  # header + 6 rows

    def test_plans_dir_collects_documents(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        plans = tmp_path / "plans"
        code, _, _ = run_cli(
            capsys,
            "bench",
            "--suite",
            str(fixture_path("suite")),
            "--modes",
            "fbi",
            "--k-list",
            "2",
            "--plans-dir",
            str(plans),
            "--out",
            str(out_csv),
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in plans.iterdir())
        assert names == ["alley-fbi-k2.json", "fork-fbi-k2.json"]
        doc = json.loads((plans / "alley-fbi-k2.json").read_text())
        assert doc["k"] == 2
        assert list(doc["stats"]) == STATS_KEYS

    def test_bad_k_list_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "x", "--k-list", "2,zero", "--out", "y.csv"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [
            ("--cost-bound", "0"),
            ("--time-limit", "0"),
            ("--time-limit", "-1"),
            ("--node-limit", "0"),
        ],
    )
    def test_invalid_limits_exit_64_before_any_task(self, capsys, tmp_path, flags):
        out_csv = tmp_path / "rows.csv"
        code, _, err = run_cli(
            capsys, "bench", "--suite", str(fixture_path("suite")), "--out", str(out_csv), *flags
        )
        assert code == EXIT_USAGE
        assert "search limits must be positive" in err
        assert "warning:" not in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("flag", ["--modes", "--features"])
    def test_empty_list_exits_64_before_any_task(self, capsys, tmp_path, flag):
        out_csv = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", str(fixture_path("suite")), "--out", str(out_csv), flag, ","])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "empty list" in err
        assert "warning:" not in err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "flags",
        [("--features", "go,go"), ("--modes", "fbi,fbi"), ("--k-list", "2,2"), ("--k-list", "2,02")],
    )
    def test_repeated_value_exits_64_before_any_task(self, capsys, tmp_path, flags):
        out_csv, plans = tmp_path / "rows.csv", tmp_path / "plans"
        code, out, err = run_cli(
            capsys, "bench", "--suite", str(fixture_path("suite")), "--plans-dir", str(plans),
            "--out", str(out_csv), *flags,
        )
        assert code == EXIT_USAGE
        assert "repeats a value" in err
        assert "warning:" not in err
        assert "rows" not in out
        assert not out_csv.exists()
        assert not plans.exists()

    @pytest.mark.parametrize(
        "flags", [("--cost-bound", "0"), ("--features", "xx"), ("--modes", "bogus")]
    )
    def test_bad_settings_exit_64_on_an_empty_suite(self, capsys, tmp_path, flags):
        suite = tmp_path / "suite"
        suite.mkdir()
        out_csv, plans = tmp_path / "rows.csv", tmp_path / "plans"
        code, out, _ = run_cli(
            capsys, "bench", "--suite", str(suite), "--plans-dir", str(plans),
            "--out", str(out_csv), *flags,
        )
        assert code == EXIT_USAGE
        assert "rows" not in out
        assert not out_csv.exists()
        assert not plans.exists()

    def test_deeply_nested_json_becomes_an_error_row(self, capsys, tmp_path, deep_json):
        out_csv = tmp_path / "rows.csv"
        code, _, err = run_cli(
            capsys, "bench", "--suite", str(tmp_path), "--k-list", "1", "--modes", "fbi",
            "--out", str(out_csv),
        )
        assert code == EXIT_OK
        assert "warning: deep.json (fbi, k=1): ParseError" in err
        assert out_csv.read_text().splitlines()[1].endswith(",error")


class TestDefaults:
    @pytest.mark.parametrize(
        "argv", [["solve", "--instance", "x"], ["bench", "--suite", "s", "--out", "o"]]
    )
    def test_solve_and_bench_parse_to_the_library_defaults(self, argv):
        args = build_parser().parse_args(argv)
        limits = SearchLimits(args.cost_bound, args.time_limit, args.node_limit)
        assert limits == SearchLimits()
        assert NoveltyConfig(args.max_width, NoveltyScope(args.novelty)) == NoveltyConfig()
        assert args.features == FEATURES

    def test_task_spec_and_run_suite_default_alike(self):
        spec = TaskSpec("x")
        assert (spec.limits, spec.novelty, spec.features) == (
            SearchLimits(),
            NoveltyConfig(),
            FEATURES,
        )
        suite = {n: p.default for n, p in inspect.signature(run_suite).parameters.items()}
        assert (suite["limits"], suite["novelty"], suite["features"]) == (
            SearchLimits(),
            NoveltyConfig(),
            FEATURES,
        )


class TestRender:
    @pytest.fixture()
    def plan_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--instance",
            str(fixture_path("single_pair.puz")),
            "--out",
            str(path),
        )
        assert code == EXIT_OK
        return path

    def test_playback_prints_frames(self, capsys, plan_file):
        code, out, _ = run_cli(
            capsys,
            "render",
            "--instance",
            str(fixture_path("single_pair.puz")),
            "--plan",
            str(plan_file),
        )
        assert code == EXIT_OK
        assert out.startswith("initial\n")
        assert "score 200" in out
        assert "cleared order: a" in out

    def test_index_out_of_range_exits_65(self, capsys, plan_file):
        code, _, err = run_cli(
            capsys,
            "render",
            "--instance",
            str(fixture_path("single_pair.puz")),
            "--plan",
            str(plan_file),
            "--index",
            "3",
        )
        assert code == EXIT_DATA
        assert "out of range" in err

    def test_garbled_plan_file_exits_65(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys,
            "render",
            "--instance",
            str(fixture_path("single_pair.puz")),
            "--plan",
            str(bad),
        )
        assert code == EXIT_DATA
        assert "error:" in err

    def test_non_utf8_plan_file_exits_65(self, capsys, tmp_path):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xff{}")
        code, _, err = run_cli(
            capsys,
            "render",
            "--instance",
            str(fixture_path("single_pair.puz")),
            "--plan",
            str(bad),
        )
        assert code == EXIT_DATA
        assert "UTF-8" in err

    def test_deeply_nested_plan_file_exits_65(self, capsys, deep_json):
        code, _, err = run_cli(
            capsys,
            "render",
            "--instance",
            str(fixture_path("single_pair.puz")),
            "--plan",
            str(deep_json),
        )
        assert code == EXIT_DATA
        assert "nests JSON too deeply" in err

    @pytest.mark.parametrize(
        "doc",
        [
            [{"actions": ["push-right"]}],
            {"plans": [{"cost": 1}]},
            {"plans": [{"actions": 5}]},
            {"plans": "ab"},
            {"plans": [["push-right"]]},
            {"plans": [{"actions": [["push-right"]]}]},
        ],
        ids=["top-level-list", "no-actions", "actions-int", "plans-str", "plan-list",
             "action-list"],
    )
    def test_malformed_plan_document_exits_65(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys,
            "render",
            "--instance",
            str(fixture_path("single_pair.puz")),
            "--plan",
            str(bad),
        )
        assert code == EXIT_DATA
        assert err.startswith("error: ") and "Traceback" not in err


class TestOracle:
    def test_enumeration_document(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--instance",
            str(fixture_path("corridor3.grid")),
            "--cost-bound",
            "4",
            "--max-len",
            "4",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["max_len"] == 4
        assert doc["behaviour_count"] == 3
        costs = sorted(e["behaviour"]["cost"] for e in doc["behaviours"])
        assert costs == [2, 3, 4]
        assert all(isinstance(e["witness"], list) for e in doc["behaviours"])

    def test_deeply_nested_json_exits_65(self, capsys, deep_json):
        code, _, err = run_cli(
            capsys, "oracle", "--instance", str(deep_json), "--max-len", "2"
        )
        assert code == EXIT_DATA
        assert "bad scenario JSON" in err

    def test_guard_error_is_one_short_line(self, capsys):
        code, out, err = run_cli(
            capsys,
            "oracle",
            "--instance",
            str(fixture_path("diamond.json")),
            "--max-len",
            "20000",
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        assert "max_len 20000" in err

    def test_requires_max_len(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--instance", "x.grid"])
        assert exc.value.code == EXIT_USAGE
