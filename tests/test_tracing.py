"""The layer tracer of the benchmark still finds every name it rebinds.

``perfbench/tracing.py`` traces divsim from outside by rebinding module
attributes (``search.extract_behaviour``, ``search.latch_groups``, ...). A
rename in ``src/`` would otherwise break only traced benchmark runs. The
tracer rebinds attributes process-wide, so it runs in a subprocess.
"""

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
