"""One execution of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per timed execution. It generates the
workload's input files, times set-up and the planner, and writes what the
planner returned to ``result.json`` in its work directory; ``run.py``
checks it. With ``--trace 1`` the layers are traced (see ``tracing.py``).

Set-up time runs from the moment ``run.py`` started this process (the
monotonic clock is shared between processes) to the end of set-up, so it
covers interpreter start, imports, input generation and problem loading.

Right before and right after the planner the execution times a fixed
reference computation (``reference_s``), which ``run.py`` uses to take the
machine's changing speed out of the reported times.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import time
from pathlib import Path

import check
import workloads
from tracing import Tracer

from divsim import bench, cli, domains, search
from divsim.behaviour import behaviour_to_json
from divsim.errors import BudgetExceeded

CLOCK = time.perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_s(rounds: int = 25_000) -> float:
    """Seconds taken by fixed work of the planner's kind: frozensets and set unions."""
    atoms = [object() for _ in range(16)]
    start = CLOCK()
    seen = {}
    for i in range(rounds):
        state = frozenset(atoms[(i * 7 + j) % 16] for j in range(4 + i % 4))
        tuples = {frozenset(c) for c in itertools.combinations(state, 2)}
        seen[state] = tuples | seen.get(state, frozenset())
    return CLOCK() - start


def timed(setup_end, spawned, tracer, plan):
    """Run ``plan`` between two reference timings; returns ``(result, times)``."""
    before = reference_s()
    started = CLOCK()
    result = tracer.span("workload", plan) if tracer else plan()
    wall_s = CLOCK() - started
    times = {"setup_s": setup_end - spawned, "wall_s": wall_s, "peak_rss_mb": _peak_rss_mb()}
    times["reference_s"] = [before, reference_s()]
    return result, times


# Per-task budgets: a pathological slowdown ends as a failed task instead of
# a run that never returns.
TASK_TIME_LIMIT_S = 60.0
NODE_LIMIT = 10_000_000

SINGLE = {
    # workload: (features, cost bound, k)
    "puzznic-fbi": (("go",), 1000, 7),
    "pentest-fbi": (("go", "cb"), 24, 30),
}

SUITE_ARGS = ("--modes", "fbi,naive", "--k-list", "2,5,10",
              "--cost-bound", str(workloads.SUITE_COST_BOUND),
              "--features", ",".join(workloads.SUITE_FEATURES), "--time-limit", "20")
SUITE_SCOPES = ("trace", "global")


def _outcome(call):
    """``(result, outcome)`` of a planner call, folding a budget trip the way bench does."""
    try:
        result = call()
    except BudgetExceeded as err:
        return err.partial, "timeout" if err.kind == "time" else "nodecap"
    return result, "exhausted" if result.exhausted else "done"


def run_single(workload, seed, workdir, spawned, tracer):
    features, cost_bound, k = SINGLE[workload]
    (instance,) = workloads.generate(workload, seed)
    path = workdir / instance.filename
    path.write_text(instance.text)
    problem = domains.load_problem(path)
    space = bench.build_space(problem, features, cost_bound)
    limits = search.SearchLimits(cost_bound, TASK_TIME_LIMIT_S, NODE_LIMIT)

    def plan():
        return _outcome(lambda: search.fbi(problem, space, k, search.NoveltyConfig(), limits))

    (result, outcome), times = timed(CLOCK(), spawned, tracer, plan)
    task = {
        "id": workload,
        "instance": instance.filename,
        "mode": "fbi",
        "k": k,
        "features": list(features),
        "cost_bound": cost_bound,
        "outcome": outcome,
        "plans": [list(p) for p in result.plans],
        "behaviours": [behaviour_to_json(b) for b in result.behaviours],
        "behaviour_count": result.behaviour_count,
    }
    return times, [task]


def run_bench_suite(workload, seed, workdir, spawned, tracer):
    suite = workdir / "suite"
    suite.mkdir()
    for instance in workloads.generate(workload, seed):
        (suite / instance.filename).write_text(instance.text)

    def bench_all():
        codes = []
        for scope in SUITE_SCOPES:
            argv = ["bench", "--suite", str(suite), *SUITE_ARGS, "--novelty", scope,
                    "--plans-dir", str(workdir / scope), "--out", str(workdir / f"{scope}.csv")]
            codes.append(tracer.span("bench.main", cli.main, argv) if tracer else cli.main(argv))
        return codes

    codes, times = timed(CLOCK(), spawned, tracer, bench_all)
    if any(codes):
        raise SystemExit(f"divsim bench exited with {codes}")
    tasks = [
        check.task_from_doc(json.loads(path.read_text()), scope)
        for scope in SUITE_SCOPES
        for path in sorted((workdir / scope).glob("*.json"))
    ]
    return times, tasks


RUNNERS = {"puzznic-fbi": run_single, "pentest-fbi": run_single,
           "bench-suite": run_bench_suite}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="perf_counter reading taken just before this process started")
    parser.add_argument("--spans", type=Path, help="span file of a traced execution")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer(args.spans.stem if args.spans else "run")
        tracer.install()
    times, tasks = RUNNERS[args.workload](
        args.workload, args.seed, args.workdir, args.spawned, tracer
    )
    out = {**times, "tasks": tasks}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    (args.workdir / "result.json").write_text(json.dumps(out))


if __name__ == "__main__":
    main()
