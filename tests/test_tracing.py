"""The layer tracer of the benchmark still finds every name it rebinds.

``perfbench/tracing.py`` traces divsim from outside by rebinding module
attributes (``search.latch_groups``, ``search.evaluate``, ...). A
rename in ``src/`` would otherwise break only traced benchmark runs. The
tracer rebinds attributes process-wide, so it runs in a subprocess.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import fixture_path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer

tracer = Tracer("tier-1")
tracer.install()
from divsim import bench, domains, search

problem = domains.load_problem(sys.argv[2])
space = bench.build_space(problem, bench.FEATURES, search.SearchLimits.cost_bound)
search.fbi(problem, space, 4)
search.fbi_naive(problem, 4, space=space)
print(json.dumps({"planner_calls": len(tracer.results), **tracer.layer_metrics()}))
"""


def test_tracer_installs_and_counts_fbi_and_naive():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(fixture_path("diamond.json"))],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["planner_calls"] == 2
    assert metrics["search.nodes_generated"] > 0
    assert metrics["domains.simulate.calls"] > 0


def _tree(relative: str) -> ast.AST:
    return ast.parse((ROOT / relative).read_text(encoding="utf-8"), relative)


def test_search_imports_only_names_it_uses_or_the_tracer_rebinds():
    """``divsim.search`` imports some names only so that the tracer can read
    and rebind them as ``search.<name>``; any other unused import is dead.
    A name the tracer only assigns onto ``search`` needs no import there."""
    search = _tree("src/divsim/search.py")
    imported = set()
    for node in ast.walk(search):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(search) if isinstance(node, ast.Name)}
    read = {
        node.attr
        for node in ast.walk(_tree("perfbench/tracing.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "search"
    }
    assert imported
    assert imported - used <= read, sorted(imported - used - read)
