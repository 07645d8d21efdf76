"""divsim benchmark: run one workload for a while, check it, report metrics.

    python3 perfbench/run.py --workload puzznic-fbi --seed 0 --seconds 30 --trace 0

Run from the root of a divsim checkout; the package is imported from
``src/``. Each timed execution is a fresh interpreter (``child.py``) with a
fixed ``PYTHONHASHSEED``, started one at a time, closed loop, one client.
Executions repeat until the next one would end after ``--seconds``, with a
floor of three untraced executions. With ``--trace 1`` untraced and traced
executions alternate, and the traced ones give the per-layer numbers.

Every execution's plans are checked (see ``check.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count planner tasks, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer ones (``--trace 1``). The lines before it
give each metric with its unit, sample count and quartiles, the settings
the numbers were taken under, and which instances the oracle covers.

``--record`` (seed 0 only) rewrites this workload's entry in
``expected.json`` from a single execution instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
CLOCK = time.perf_counter

HASH_SEED = "0"
MIN_UNTRACED = 3
# No execution starts after LAST_START_S, and a running one is stopped at
# RUN_LIMIT_S, so a slow or stuck program still ends the run within three
# minutes.
LAST_START_S = 100.0
RUN_LIMIT_S = 170.0
# Reported times are scaled to a machine on which the reference computation
# of ``child.reference_s`` takes this long (an Intel Xeon vCPU at 2.1 GHz
# under Python 3.11.7). Shared machines change speed by tens of percent
# from one minute to the next; the reference, timed right before and after
# the planner, moves with them, so the scaled times repeat where raw ones
# do not. Raw times are printed alongside.
REFERENCE_NOMINAL_S = 0.2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_child(workload, seed, traced, workdir, spans, timeout):
    """One execution; returns its result document or None if it failed."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
    spawned = CLOCK()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--workdir", str(workdir),
           "--spawned", repr(spawned)]
    if traced:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"execution stopped after {timeout:.0f} s", file=sys.stderr)
        return None
    result = workdir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        print(f"execution exited with {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    doc = json.loads(result.read_text())
    doc["traced"] = traced
    scale = REFERENCE_NOMINAL_S / statistics.fmean(doc["reference_s"])
    doc["raw_setup_s"], doc["raw_wall_s"] = doc["setup_s"], doc["wall_s"]
    doc["setup_s"] *= scale
    doc["wall_s"] *= scale
    for name in doc.get("layers", {}):
        if name.endswith(("_s", ".s")):
            doc["layers"][name] *= scale
    shutil.rmtree(workdir, ignore_errors=True)
    return doc


class Checker:
    """Checks executions of one workload and seed against the recorded output."""

    def __init__(self, workload, seed, expected):
        import check

        self.check = check
        self.instances = {i.filename: i for i in workloads.generate(workload, seed)}
        self.problems = check.load_problems(self.instances.values())
        self.expected = expected
        self.oracle = {}
        self.uncovered = {}
        self.verdicts = {}
        if workload == "bench-suite":
            for name, problem in self.problems.items():
                found, reason = check.oracle_behaviours(
                    problem, workloads.SUITE_FEATURES, workloads.SUITE_COST_BOUND
                )
                if found is None:
                    self.uncovered[name] = reason
                else:
                    self.oracle[name] = found

    def digests(self, doc) -> dict:
        return {t["id"]: self.check.task_digest(t, self.instances[t["instance"]].names)
                for t in doc["tasks"]}

    def task_faults(self, task) -> list:
        """Faults of one task. Executions repeat their output, so each
        distinct task output is checked once and the verdict reused."""
        key = json.dumps(task, sort_keys=True)
        if key not in self.verdicts:
            name = task["instance"]
            faults = self.check.check_task(task, self.problems[name], self.oracle.get(name))
            digest = self.check.task_digest(task, self.instances[name].names)
            if digest != self.expected["tasks"].get(task["id"]):
                faults.append("plans digest differs from the recorded one")
            self.verdicts[key] = faults
        return self.verdicts[key]

    def faults(self, doc) -> dict:
        """``{task id: [fault, ...]}`` for every failing task of the execution."""
        out = {t["id"]: f for t in doc["tasks"] if (f := self.task_faults(t))}
        for missing in sorted(set(self.expected["tasks"]) - {t["id"] for t in doc["tasks"]}):
            out[missing] = ["task missing from the output"]
        return out

    def recall(self, doc):
        """Behaviours fbi found over behaviours the oracle reaches, largest k."""
        found = reachable = 0
        for task in doc["tasks"]:
            oracle = self.oracle.get(task["instance"])
            if oracle is not None and task["mode"] == "fbi" and task["k"] == 10:
                found += task["behaviour_count"]
                reachable += len(oracle)
        return found / reachable if reachable else None


def record(args) -> int:
    if args.seed != 0:
        return _fail("--record needs --seed 0")
    doc = run_child(args.workload, 0, False, ROOT / ".perfbench" / "record", None, RUN_LIMIT_S)
    if doc is None:
        return _fail("execution failed")
    checker = Checker(args.workload, 0, {"tasks": {}})
    digests = checker.digests(doc)
    for task in doc["tasks"]:
        faults = checker.check.check_task(task, checker.problems[task["instance"]],
                                          checker.oracle.get(task["instance"]))
        if faults:
            return _fail(f"{task['id']}: {faults}")
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected[args.workload] = {
        "digest": checker.check.workload_digest(digests),
        "behaviours": sum(t["behaviour_count"] for t in doc["tasks"]),
        "tasks": digests,
    }
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: {len(digests)} task(s), digest {expected[args.workload]['digest']}")
    return 0


def measure(args, spec, checker) -> int:
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work = ROOT / ".perfbench"
    span_dir = work / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    rounds = (False, True) if args.trace else (False,)
    executions = []
    started = CLOCK()
    round_times = []
    while True:
        round_started = CLOCK()
        for traced in rounds:
            spans = span_dir / f"{run_id}-{len(executions)}.jsonl"
            timeout = max(1.0, RUN_LIMIT_S - (CLOCK() - started))
            executions.append(run_child(args.workload, args.seed, traced,
                                        work / run_id, spans, timeout))
        round_times.append(CLOCK() - round_started)
        elapsed = CLOCK() - started
        untraced = sum(1 for e in executions if e is not None and not e["traced"])
        if None in executions or elapsed > LAST_START_S:
            break
        if untraced >= MIN_UNTRACED or args.trace:
            if elapsed + statistics.median(round_times) > args.seconds:
                break
    elapsed = CLOCK() - started

    attempted = failed = 0
    ok = [e for e in executions if e is not None]
    per_task = len(checker.expected["tasks"])
    for doc in executions:
        attempted += per_task
        if doc is None:
            failed += per_task
            continue
        faults = checker.faults(doc)
        failed += len(faults)
        for task_id, found in sorted(faults.items())[:5]:
            print(f"FAIL {task_id}: {'; '.join(found)}", file=sys.stderr)

    def series(name, traced=False):
        return [e[name] for e in ok if e["traced"] == traced]

    untraced_wall = series("wall_s")
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "PYTHONHASHSEED": HASH_SEED,
    }
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {len(executions)} "
          f"execution(s) in {elapsed:.1f} s; {json.dumps(env)}")
    print("# wall_s per execution: " + " ".join(
        f"{e['wall_s']:.3f}{'t' if e['traced'] else ''}" for e in ok))
    if checker.uncovered:
        print(f"# oracle covers {len(checker.oracle)} of {len(checker.problems)} instances; "
              f"not covered: " + "; ".join(f"{n} ({r})" for n, r in
                                           sorted(checker.uncovered.items())))

    samples = {}  # metric -> values, one per execution unless noted
    counts = {}  # metric -> sample count where it is not len(values)
    if not args.trace:
        samples["wall_s"] = untraced_wall
        samples["setup_s"] = series("setup_s")
        samples["raw_wall_s"] = series("raw_wall_s")
        samples["raw_setup_s"] = series("raw_setup_s")
        samples["reference_s"] = [statistics.fmean(e["reference_s"]) for e in ok]
        samples["peak_rss_mb"] = series("peak_rss_mb")
        samples["behaviours"] = [sum(t["behaviour_count"] for t in e["tasks"]) for e in ok]
        samples["ok_ratio"] = [(attempted - failed) / attempted]
        samples["failed_ratio"] = [failed / attempted]
        counts["ok_ratio"] = counts["failed_ratio"] = attempted
        samples["recall"] = [r for r in map(checker.recall, ok) if r is not None]
    else:
        layers = [e["layers"] for e in ok if e["traced"]] if untraced_wall else []
        for e in layers:
            e["search.nodes_per_s"] = e["search.nodes_generated"] / statistics.median(
                untraced_wall
            )
        for name in layers[0] if layers else ():
            samples[name] = [e[name] for e in layers]
        traced_wall = series("wall_s", traced=True)
        samples["trace.traced_wall_s"] = traced_wall
        if traced_wall and untraced_wall:
            samples["trace.overhead_s"] = [
                statistics.median(traced_wall) - statistics.median(untraced_wall)
            ]
        print(f"# spans: {span_dir.relative_to(ROOT)}/{run_id}-*.jsonl")

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    extra = {} if args.trace else {"failed_ratio": "ratio", "raw_wall_s": "s",
                                   "raw_setup_s": "s", "reference_s": "s"}
    if checker.oracle and not args.trace:
        extra["recall"] = "ratio"
    metrics = {}
    for name, unit in {**declared, **extra}.items():
        values = samples.get(name)
        if not values:
            print(f"{name:<38} {'-':>14} {unit:<6} n=0")
            continue
        value = statistics.median(values)
        q1, q3 = _quartiles(values)
        print(f"{name:<38} {value:>14.6g} {unit:<6} n={counts.get(name, len(values))} "
              f"q1={q1:.6g} q3={q3:.6g}")
        if name in declared:
            metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0 and bool(ok) and set(metrics) == set(declared)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    if not (ROOT / "src" / "divsim" / "__init__.py").is_file():
        return _fail(f"no divsim sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import divsim

    if not Path(divsim.__file__).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"divsim imported from {divsim.__file__}, not from {ROOT / 'src'}")
    if args.record:
        return record(args)
    expected = json.loads(EXPECTED.read_text()).get(args.workload) if EXPECTED.is_file() else None
    if expected is None:
        return _fail(f"no recorded output for {args.workload} in {EXPECTED.name}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return measure(args, spec, Checker(args.workload, args.seed, expected))


if __name__ == "__main__":
    sys.exit(main())
