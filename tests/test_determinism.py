"""Plan output does not depend on the interpreter's string hash seed.

Atoms are strings, and Python seeds string hashes per process, so the
iteration order of every state differs from one interpreter to the next.
``divsim solve`` must still print the same plan document: only the timing
fields of ``stats`` may differ.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fixture_path

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = ("0", "1", "12345")
TIMING_FIELDS = ("wall_time_by_width", "wall_time_s")


def _solve(seed: str, *argv: str) -> str:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    code = "import sys; from divsim.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "solve", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode in (0, 2), proc.stderr
    doc = json.loads(proc.stdout)
    for name in TIMING_FIELDS:
        del doc["stats"][name]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "instance, flags",
    [
        ("three_targets.grid", ("--k", "6")),
        ("multi_sensitive.json", ("--k", "6", "--novelty", "global")),
        ("pairs.puz", ("--k", "4")),
    ],
)
def test_solve_output_is_the_same_under_every_hash_seed(instance, flags):
    outputs = [_solve(seed, "--instance", str(fixture_path(instance)), *flags) for seed in SEEDS]
    assert json.loads(outputs[0])["plans"]
    assert outputs == [outputs[0]] * len(SEEDS)
