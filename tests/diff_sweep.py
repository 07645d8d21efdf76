"""Differential sweep: every planner over a grid of small instances, digested.

Run it on a source tree, or on two and compare what they print:

    PYTHONHASHSEED=0 python3 tests/diff_sweep.py SRC OUT.json [record|counters]

SRC is the ``src`` directory of the tree to sweep; the instances and the
restart reference come from this file's own directory. The sweep runs

- ``fbi``, with interior pruning on and off, and ``fbi_naive``;
- a generator chain (``oracles.restart_fbi``: ``behaviour_generator`` and
  then ``plan_generator`` called afresh under every plan found so far),
  at k 8;

on the 13 fixture files, the three toggles, the undo-mark toy, the 3- and
4-spoke stars and ``random_undo_problem`` seeds 0-19, each in the ``go``,
``go,cb`` and ``cb`` spaces, at cost bounds 4, 8 and 12, widths 1-3, both
novelty scopes, node budgets 10^6 and 40, and ``fbi`` and ``fbi_naive`` at
k 3, 8 and 25.

Each run is recorded with its plans, behaviours, ``exhausted`` and every
``SearchStats`` counter but the wall times, at the end and at each plan
(the widths begun are kept, their times dropped). A budget trip records
its kind and the partial result instead. OUT.json holds the records in
run order, so two outputs can be diffed to find the first run that
differs. The script prints the run count, how many runs restart a stream,
reach phase 2 (phase 1 ran dry short of k) and trip a budget, and a
SHA-256 over all records.

``sweep_digests.json`` pins the sweep in two SHA-256 digests, as
``test_golden.py`` pins its rows: ``plans`` over each run's plans,
behaviours, ``exhausted`` and trip kind, and ``counters`` over the rest.
The script exits 1 when either differs from the one it computed. A
change meant to change plan output re-records both with ``record``; one
meant to change only the counters re-records the counter digest with
``counters``, which refuses if the plan digest differs. The digests were
recorded under ``PYTHONHASHSEED=0`` on Python 3.11, and hash seed 1 gave
the same ones there. CI gates on them on 3.11 only; its 3.10, 3.12 and
3.13 jobs run the sweep too and report a mismatch without failing. Not
collected by pytest; it takes about 16 s and writes about 30 MB on a
2020s x86 server core.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
RECORDED = HERE / "sweep_digests.json"


def _load(src: str):
    sys.path[:0] = [str(pathlib.Path(src).resolve()), str(HERE)]
    global BudgetExceeded, NoveltyConfig, NoveltyScope, SearchLimits, fbi, fbi_naive
    global conftest, restart_fbi, star_scenario, PentestProblem, load_problem
    from divsim.domains import PentestProblem, load_problem
    from divsim.errors import BudgetExceeded
    from divsim.search import NoveltyConfig, NoveltyScope, SearchLimits, fbi, fbi_naive

    import conftest
    from oracles import restart_fbi
    from test_acceptance import star_scenario


def instances() -> list:
    """``(name, problem)`` for every instance of the sweep."""
    out = [(name, load_problem(conftest.fixture_path(name))) for name in conftest.FIXTURE_NAMES]
    out += [
        ("toggle", conftest.ToggleProblem()),
        ("undo-toggle", conftest.UndoToggleProblem()),
        ("finish-toggle", conftest.FinishToggleProblem()),
        ("undo-mark", conftest.undo_mark_problem()),
        ("star-3", PentestProblem.from_text(star_scenario(3, {1, 2, 3}, 1))),
        ("star-4", PentestProblem.from_text(star_scenario(4, {1, 3}, 1))),
    ]
    out += [(f"undo-{seed}", conftest.random_undo_problem(seed)) for seed in range(20)]
    return out


def _behaviour(b) -> list:
    order = None if b.goal_order is None else [sorted(group) for group in b.goal_order]
    return [b.cost, order]


def _counters(stats) -> dict:
    out = stats.as_dict()
    del out["wall_time_s"]
    out["wall_time_by_width"] = list(out["wall_time_by_width"])
    return out


def _result(result) -> dict:
    return {
        "plans": [list(plan) for plan in result.plans],
        "behaviours": [_behaviour(b) for b in result.behaviours],
        "exhausted": result.exhausted,
        "stats": _counters(result.stats),
        "stats_at": [_counters(s) for s in result.stats_at],
    }


def _outcome(run) -> dict:
    try:
        return {"result": _result(run())}
    except BudgetExceeded as err:
        return {"trip": err.kind, "partial": _result(err.partial)}


def runs():
    """``(key, thunk, k)`` for every run of the sweep, in a fixed order."""
    for name, problem in instances():
        for features in (("go",), ("go", "cb"), ("cb",)):
            for bound in (4, 8, 12):
                space = conftest.feature_space(problem, features, bound)
                for width in (1, 2, 3):
                    for scope in NoveltyScope:
                        novelty = NoveltyConfig(width, scope)
                        for budget in (10**6, 40):
                            limits = SearchLimits(cost_bound=bound, node_budget=budget)
                            base = [name, ",".join(features), bound, width, scope.value, budget]
                            yield from _planner_runs(problem, space, novelty, limits, base)


def _planner_runs(problem, space, novelty, limits, base):
    for k in (3, 8, 25):
        for pruning in (True, False):
            yield (
                ["fbi" if pruning else "fbi-no-pruning", *base, k],
                lambda k=k, pruning=pruning: fbi(
                    problem, space, k, novelty, limits, interior_pruning=pruning
                ),
                k,
            )
        yield (
            ["naive", *base, k],
            lambda k=k: fbi_naive(problem, k, novelty, limits, space=space),
            k,
        )
    for pruning in (True, False):
        yield (
            ["chain" if pruning else "chain-no-pruning", *base, 8],
            lambda pruning=pruning: restart_fbi(
                problem, space, 8, novelty, limits, interior_pruning=pruning
            ),
            8,
        )


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _digests(records) -> dict:
    """The ``plans`` and ``counters`` digests of the sweep's records."""
    plans, counters = [], []
    for key, outcome in records:
        got = outcome.get("result") or outcome["partial"]
        plans.append([key, outcome.get("trip"), got["plans"], got["behaviours"], got["exhausted"]])
        counters.append([key, got["stats"], got["stats_at"]])
    return {"plans": _sha256(plans), "counters": _sha256(counters)}


def main(argv) -> int:
    if len(argv) < 2 or argv[2:] not in ([], ["record"], ["counters"]):
        print("usage:", __doc__.split("\n\n")[2].strip(), file=sys.stderr)
        return 2
    src, out, *mode = argv
    _load(src)
    records = []
    restarted = phase_two = tripped = 0
    for key, run, k in runs():
        outcome = _outcome(run)
        records.append([key, outcome])
        got = outcome.get("result") or outcome["partial"]
        tripped += "trip" in outcome
        if key[0].startswith("fbi"):
            restarted += got["stats"]["restarts"] > 0
            distinct = {json.dumps(b) for b in got["behaviours"]}
            ran_dry = "result" in outcome and len(distinct) < k
            phase_two += ran_dry or len(got["plans"]) > len(distinct)
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    pathlib.Path(out).write_text(text)
    print(f"runs: {len(records)}")
    print(f"fbi runs that restart: {restarted}, that reach phase 2: {phase_two}")
    print(f"runs that trip a budget: {tripped}")
    print(f"sha256: {hashlib.sha256(text.encode()).hexdigest()}")
    got = _digests(records)
    recorded = json.loads(RECORDED.read_text())
    for part in ("plans", "counters"):
        print(f"{part} digest: {got[part]}")
    if mode == ["counters"] and got["plans"] != recorded["plans"]:
        print(f"plan digest differs, nothing recorded in {RECORDED.name}", file=sys.stderr)
        return 1
    if mode:
        RECORDED.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"recorded in {RECORDED.name}")
        return 0
    moved = [part for part in ("plans", "counters") if got[part] != recorded[part]]
    for part in moved:
        print(f"{part} digest differs from {RECORDED.name}: {recorded[part]}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
