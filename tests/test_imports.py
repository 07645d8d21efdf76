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

from conftest import fixture_path

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


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        divsim.domains.no_such_name


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
