"""Self-test of the benchmark's correctness check.

    python3 perfbench/selftest.py

Runs a few small ``divsim bench`` tasks in-process, checks that they pass
as returned (on seed 0 and on a relabeled seed, against the digests
recorded for seed 0), then that the check fails on a tampered plan, on a
repeated phase-1 behaviour, on a behaviour the oracle does not reach, and
on a wrong recorded digest. Exits 0 when every case comes out as expected.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
from run import EXPECTED, Checker  # noqa: E402
from workloads import SUITE_COST_BOUND, SUITE_FEATURES  # noqa: E402

from divsim.bench import TaskSpec, run_task  # noqa: E402

GRID_TASK = "trace/grid-3x3-diag/fbi/k5"
STAR_TASK = "trace/pentest-3lan-all/fbi/k5"


def returned(seed, task_ids):
    """A checker for ``task_ids`` on ``seed`` and the execution document they make."""
    recorded = json.loads(EXPECTED.read_text())["bench-suite"]["tasks"]
    checker = Checker("bench-suite", seed, {"tasks": {t: recorded[t] for t in task_ids}})
    workdir = ROOT / ".perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = []
    for task_id in task_ids:
        scope, stem, mode, k = task_id.split("/")
        (instance,) = [i for i in checker.instances.values() if i.name == stem]
        path = workdir / instance.filename
        path.write_text(instance.text)
        spec = TaskSpec(str(path), mode, int(k[1:]), features=SUITE_FEATURES,
                        cost_bound=SUITE_COST_BOUND, time_budget_s=20.0)
        _, _, doc = run_task(spec)
        tasks.append(check.task_from_doc(doc, scope))
    return checker, {"tasks": tasks}


def main() -> int:
    failures = []

    def expect(label, faults, wanted):
        hit = [f for found in faults.values() for f in found if wanted in f]
        ok = bool(hit) if wanted else not faults
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {faults or 'no faults'}")
        if not ok:
            failures.append(label)

    tasks = [GRID_TASK, STAR_TASK]
    for seed in (0, 7):
        checker, doc = returned(seed, tasks)
        expect(f"seed {seed} as returned passes", checker.faults(doc), None)

    checker, doc = returned(0, tasks)
    tampered = copy.deepcopy(doc)
    tampered["tasks"][0]["plans"][0] = tampered["tasks"][0]["plans"][0][:-1]
    expect("plan cut short fails", checker.faults(tampered), "does not reach a goal")
    expect("plan cut short changes the digest", checker.faults(tampered), "digest differs")

    repeated = copy.deepcopy(doc)
    grid = repeated["tasks"][0]
    grid["plans"][1], grid["behaviours"][1] = grid["plans"][0], grid["behaviours"][0]
    expect("repeated phase-1 behaviour fails", checker.faults(repeated),
           "not pairwise distinct")

    unreachable = copy.deepcopy(doc)
    unreachable["tasks"][1]["behaviours"][0]["cost"] = 1
    expect("behaviour outside the oracle's set fails", checker.faults(unreachable),
           "oracle does not reach")

    wrong = Checker("bench-suite", 0, {"tasks": {GRID_TASK: "0" * 16,
                                                 STAR_TASK: checker.expected["tasks"][STAR_TASK]}})
    expect("wrong recorded digest fails", wrong.faults(doc), "digest differs")

    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
