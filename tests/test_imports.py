"""What divsim imports: only the standard library, and in a fresh
interpreter only the modules a run uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divsim
import divsim.domains
import divsim.ltl
import divsim.search

from conftest import fixture_path

# Modules no plan run calls: the LTL evaluator, the t-test and the oracle.
OFF_PATH = ("divsim.ltl", "divsim.stats", "divsim.oracle")

# Imports the command line and the bench harness, plans on a pentest
# scenario, then reads every exported name and builds every domain.
PENTEST_RUN = """
import json, sys
import divsim, divsim.cli, divsim.bench
from divsim.domains import load_problem

problem = load_problem(sys.argv[1])
space = divsim.bench.build_space(problem, ("go", "cb"), 24)
plans = len(divsim.fbi(problem, space, 5).plans)
unused = ("divsim.domains.puzznic", "divsim.domains.grid", "statistics", "csv")
loaded = [name for name in unused if name in sys.modules]

for module in (divsim, divsim.domains):
    for name in module.__all__:
        getattr(module, name)
built = {}
for domain, path in zip(("grid", "puzznic", "pentest"), sys.argv[2:]):
    with open(path, encoding="utf-8") as handle:
        problem = divsim.domains.DOMAINS[domain](handle.read())
    built[domain] = type(problem) is getattr(divsim.domains, type(problem).__name__)
print(json.dumps({"plans": plans, "loaded": loaded, "built": built}))
"""


def run_fresh(code, *argv):
    """Standard output of ``code`` run in a new interpreter that imports this divsim."""
    src = str(Path(divsim.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_a_pentest_run_loads_no_other_domain_nor_statistics_nor_csv():
    files = ("chain3.json", "open3x3.grid", "single_pair.puz", "chain3.json")
    out = json.loads(run_fresh(PENTEST_RUN, *map(fixture_path, files)))
    assert out["plans"] > 0
    assert out["loaded"] == []
    assert out["built"] == {"grid": True, "puzznic": True, "pentest": True}


# Runs the command line in-process on its arguments, then prints every
# module loaded.
COMMAND = """
import contextlib, io, json, sys
from divsim import cli

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_by_command(*argv):
    loaded = json.loads(run_fresh(COMMAND, *argv))
    return [name for name in OFF_PATH if name in loaded]


def test_solve_and_bench_load_neither_ltl_nor_stats_nor_the_oracle(tmp_path):
    assert _loaded_by_command("solve", "--instance", fixture_path("chain3.json")) == []
    suite = fixture_path("suite")
    assert _loaded_by_command("bench", "--suite", suite, "--out", tmp_path / "t.csv") == []


def test_oracle_loads_the_oracle_but_neither_ltl_nor_stats():
    argv = ("oracle", "--instance", fixture_path("chain3.json"), "--max-len", "6")
    assert _loaded_by_command(*argv) == ["divsim.oracle"]


# Prints whether ``sys.argv[1]`` was loaded before and after running ``sys.argv[2]``.
LOADS = """
import json, sys
import divsim
from divsim import bench, domains

before = sys.argv[1] in sys.modules
exec(sys.argv[2])
print(json.dumps([before, sys.argv[1] in sys.modules]))
"""

FORMULA = """
problem = domains.load_problem(sys.argv[3])
space = bench.build_space(problem, ("go", "cb"), 24)
result = divsim.fbi(problem, space, 1)
divsim.behaviour_formula(space, result.behaviours[0])
"""


@pytest.mark.parametrize(
    "module, code",
    [
        ("divsim.ltl", "divsim.parse_formula"),
        ("divsim.stats", "divsim.paired_t_test"),
        ("divsim.ltl", FORMULA),
    ],
    ids=["parse_formula", "paired_t_test", "behaviour_formula"],
)
def test_a_name_loads_its_module_on_first_use(module, code):
    out = run_fresh(LOADS, module, code, fixture_path("chain3.json"))
    assert json.loads(out) == [False, True]


def test_star_import_binds_every_exported_name():
    names = {}
    exec("from divsim import *", names)
    assert sorted(set(names) - {"__builtins__"}) == sorted(divsim.__all__)
    assert all(names[name] is getattr(divsim, name) for name in divsim.__all__)


@pytest.mark.parametrize(
    "module", [divsim, divsim.domains, divsim.search], ids=lambda module: module.__name__
)
def test_unknown_names_are_attribute_errors(module):
    with pytest.raises(AttributeError, match=f"'{module.__name__}' has no attribute 'no_such_name'"):
        module.no_such_name


@pytest.mark.parametrize("name", ["evaluate", "is_latch_monotone"])
def test_search_serves_the_ltl_functions_the_tracer_rebinds(name):
    assert getattr(divsim.search, name) is getattr(divsim.ltl, name)


# Writes a pentest ``fbi`` result, with its behaviours and per-plan stats, to
# the pickle file ``sys.argv[2]``.
PICKLE_RESULT = """
import pickle, sys
from divsim import bench, domains, fbi

problem = domains.load_problem(sys.argv[1])
result = fbi(problem, bench.build_space(problem, ("go", "cb"), 24), 5)
with open(sys.argv[2], "wb") as handle:
    pickle.dump(result, handle)
"""

# Loads that pickle having imported only ``pickle``, then compares it with a
# result computed afresh, time fields aside.
UNPICKLE_RESULT = """
import pickle, sys

with open(sys.argv[2], "rb") as handle:
    loaded = pickle.load(handle)

import json
from divsim import bench, domains, fbi

problem = domains.load_problem(sys.argv[1])
fresh = fbi(problem, bench.build_space(problem, ("go", "cb"), 24), 5)


def timeless(result):
    def untimed(stats):
        return stats._replace(
            wall_time_s=0.0, wall_time_by_width=dict.fromkeys(stats.wall_time_by_width, 0.0)
        )

    return result._replace(
        stats=untimed(result.stats), stats_at=tuple(map(untimed, result.stats_at))
    )


print(json.dumps({
    "plans": len(loaded.plans),
    "stats_at": len(loaded.stats_at),
    "behaviours": [type(b).__name__ for b in loaded.behaviours],
    "equal": timeless(loaded) == timeless(fresh),
}))
"""


def test_a_result_pickled_in_one_interpreter_loads_equal_in_another(tmp_path):
    instance, pickled = fixture_path("diamond.json"), tmp_path / "result.pickle"
    run_fresh(PICKLE_RESULT, instance, pickled)
    out = json.loads(run_fresh(UNPICKLE_RESULT, instance, pickled))
    assert out["plans"] > 1 and out["stats_at"] == out["plans"]
    assert out["behaviours"] == ["Behaviour"] * out["plans"]
    assert out["equal"]


def test_divsim_imports_only_the_standard_library():
    package = Path(divsim.__file__).resolve().parent
    bad = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package.parents[1])
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "divsim" and top not in sys.stdlib_module_names:
                    bad.append(f"{where}:{node.lineno}: import {name}")
    assert not bad, "\n".join(bad)
