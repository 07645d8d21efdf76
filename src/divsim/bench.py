"""Benchmark harness: run planner tasks over instance files and report.

A task pins down everything one planner run needs (instance, mode, k,
diversity features, novelty and resource limits). Runs produce a JSON plan
document and a result row; suites fan out over a directory x modes x k values
and aggregate behaviour counts over the instances all modes solved.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from .behaviour import BehaviourSpace, CostBound, GoalOrder, behaviour_to_json
from .core import plan_cost
from .domains import EXTENSIONS, load_problem
from .errors import BudgetExceeded
from .record import Record, set_field
from .search import (
    NoveltyConfig,
    PlanSetResult,
    SearchLimits,
    _check_k,
    fbi,
    fbi_naive,
)

MODES = ("fbi", "naive")
FEATURES = ("go", "cb")


def _check_distinct(name: str, values) -> None:
    if len(set(values)) != len(values):
        raise ValueError(f"{name} repeats a value: {', '.join(map(str, values))}")


class TaskSpec(Record):
    """One planner run. The keyword-only ``cost_bound`` and ``time_budget_s``,
    when given, override those fields of ``limits`` and are not kept."""

    instance: str
    mode: str = "fbi"
    k: int = 1
    domain: Optional[str] = None
    features: tuple = FEATURES
    novelty: NoveltyConfig = NoveltyConfig()
    limits: SearchLimits = SearchLimits()

    def __init__(
        self,
        *args,
        cost_bound: Optional[int] = None,
        time_budget_s: Optional[float] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_k(self.k)
        if not self.features:
            raise ValueError("at least one diversity feature is required")
        _check_distinct("features", self.features)
        for f in self.features:
            if f not in FEATURES:
                raise ValueError(f"unknown feature {f!r}; expected a subset of {FEATURES}")
        given = dict(cost_bound=cost_bound, time_budget_s=time_budget_s)
        overrides = {name: value for name, value in given.items() if value is not None}
        if overrides:
            set_field(self, "limits", self.limits._replace(**overrides))


class SuiteResultRow(Record):
    instance: str
    mode: str
    k: int
    solved: bool
    plans_found: int
    behaviour_count: int
    wall_time_s: float
    outcome: str


CSV_COLUMNS = SuiteResultRow._fields


def build_space(problem, features: Sequence[str], cost_bound: int) -> BehaviourSpace:
    parts = []
    for f in features:
        if f == "go":
            parts.append(GoalOrder(tuple(problem.goal_predicates)))
        elif f == "cb":
            parts.append(CostBound(cost_bound))
        else:
            raise ValueError(f"unknown feature {f!r}")
    return BehaviourSpace(tuple(parts))


def plan_set_document(spec: TaskSpec, costs, result: PlanSetResult, outcome: str) -> dict:
    """The JSON-ready plan set of a run; ``costs`` holds the cost of each
    plan of ``result``, in order."""
    plans = [
        {"actions": list(plan), "cost": cost, "behaviour": behaviour_to_json(behaviour)}
        for plan, cost, behaviour in zip(result.plans, costs, result.behaviours)
    ]
    return {
        "instance": str(spec.instance),
        "mode": spec.mode,
        "k": spec.k,
        "plans": plans,
        "behaviour_count": result.behaviour_count,
        "stats": {**result.stats.as_dict(), "outcome": outcome},
    }


def _report(spec: TaskSpec, costs, result: PlanSetResult, outcome: str, plans_path):
    """``(row, document)`` of a run, the document also written to ``plans_path``."""
    row = SuiteResultRow(
        instance=Path(spec.instance).name,
        mode=spec.mode,
        k=spec.k,
        solved=bool(result.plans) and outcome in ("done", "exhausted"),
        plans_found=len(result.plans),
        behaviour_count=result.behaviour_count,
        wall_time_s=round(result.stats.wall_time_s, 6),
        outcome=outcome,
    )
    doc = plan_set_document(spec, costs, result, outcome)
    if plans_path is not None:
        Path(plans_path).write_text(json.dumps(doc) + "\n")
    return row, doc


def run_task(spec: TaskSpec, plans_path=None, *, problem=None):
    """Run one planning task; returns ``(PlanSetResult, SuiteResultRow, document)``.

    The document is the JSON-ready plan set; it is also written to
    ``plans_path`` when one is given. ``problem``, when given, is the
    instance already loaded from ``spec.instance``. A tripped resource
    budget is folded into the row (outcome timeout or nodecap) with
    whatever plans were collected before the trip.
    """
    if problem is None:
        problem = load_problem(spec.instance, spec.domain)
    space = build_space(problem, spec.features, spec.limits.cost_bound)
    try:
        if spec.mode == "fbi":
            result = fbi(problem, space, spec.k, spec.novelty, spec.limits)
        else:
            result = fbi_naive(problem, spec.k, spec.novelty, spec.limits, space=space)
        outcome = "exhausted" if result.exhausted else "done"
    except BudgetExceeded as err:
        result = err.partial
        outcome = "timeout" if err.kind == "time" else "nodecap"
    costs = [plan_cost(problem, plan) for plan in result.plans]
    row, doc = _report(spec, costs, result, outcome, plans_path)
    return result, row, doc


def run_suite(
    suite_dir,
    modes: Sequence[str] = MODES,
    k_list: Sequence[int] = (2, 5, 10),
    *,
    features: tuple = FEATURES,
    novelty: NoveltyConfig = NoveltyConfig(),
    limits: SearchLimits = SearchLimits(),
    plans_dir=None,
):
    """Run every instance in a directory for every mode and k.

    Returns ``(rows, aggregates)``, one row per (instance, k, mode). Each
    instance is loaded once, for all modes; a file that fails to load gives
    each (mode, k) its error row from that one failure. Each (instance,
    mode) runs once, at the largest k, and the rows of the smaller k are
    read off that run (``PlanSetResult.prefix``): the plans a k-run finds,
    its stats, and outcome "done" once k plans were found, even if a budget
    tripped later; their ``wall_time_s`` is the time at the k-th plan. The
    (k, mode) tasks
    are built, and so checked, before the directory is listed or
    ``plans_dir`` made; a mode or k given twice is a ``ValueError``. So is,
    with ``plans_dir``, two instance files of one stem, whose plan files
    would share a name; this is checked before ``plans_dir`` is made. A run
    that raises, whatever the exception (a file that does not load
    included), makes every k of its (instance, mode) a row with outcome
    "error", each with a warning naming the exception type, instead of
    aborting the rest of the suite.
    """
    _check_distinct("modes", modes)
    _check_distinct("k values", k_list)
    tasks = [
        TaskSpec("", mode, k, features=features, novelty=novelty, limits=limits)
        for k in k_list
        for mode in modes
    ]
    top = max(k_list, default=None)
    paths = sorted(
        p
        for p in Path(suite_dir).iterdir()
        if p.is_file() and p.suffix.lower() in EXTENSIONS
    )
    if plans_dir is not None:
        by_stem = {}
        for path in paths:
            other = by_stem.setdefault(path.stem, path)
            if other is not path:
                raise ValueError(
                    f"{other.name} and {path.name} would write the same plan files "
                    f"({path.stem}-<mode>-k<k>.json); rename one"
                )
        Path(plans_dir).mkdir(parents=True, exist_ok=True)

    def plans_path(path, spec):
        name = f"{path.stem}-{spec.mode}-k{spec.k}.json"
        return Path(plans_dir) / name if plans_dir is not None else None

    rows = []
    for path in paths:
        try:
            problem = load_problem(str(path))
        except Exception as err:
            runs = dict.fromkeys(modes, err)
        else:
            runs = {}  # mode -> run_task's (result, row, document) at k = top, or what it raised
            for task in tasks:
                if task.k == top:
                    spec = task._replace(instance=str(path))
                    try:
                        runs[task.mode] = run_task(spec, plans_path(path, spec), problem=problem)
                    except Exception as err:
                        runs[task.mode] = err
        for task in tasks:
            mode, k = task.mode, task.k
            run = runs[mode]
            if isinstance(run, Exception):
                row = SuiteResultRow(path.name, mode, k, False, 0, 0, 0.0, "error")
                print(
                    f"warning: {path.name} ({mode}, k={k}): {type(run).__name__}: {run}",
                    file=sys.stderr,
                )
            elif k == top:
                row = run[1]
            else:
                result, top_row, doc = run
                outcome = "done" if len(result.plans) >= k else top_row.outcome
                costs = [entry["cost"] for entry in doc["plans"]]
                spec = task._replace(instance=str(path))
                row, _ = _report(spec, costs, result.prefix(k), outcome, plans_path(path, spec))
            rows.append(row)
    return rows, aggregate_rows(rows)


def aggregate_rows(rows: Sequence[SuiteResultRow]) -> list:
    """Per-k summary over the instances every mode solved.

    Average times come in two flavours because unsolved runs drag the mean:
    ``avg_time_solved_s`` is over solved rows only, ``avg_time_all_s`` over
    every row of the mode.
    """
    modes = sorted({r.mode for r in rows})
    out = []
    for k in sorted({r.k for r in rows}):
        batch = [r for r in rows if r.k == k]
        by_mode = {m: {r.instance: r for r in batch if r.mode == m} for m in modes}
        solved = {m: {i for i, r in by_mode[m].items() if r.solved} for m in modes}
        common = set.intersection(*solved.values()) if solved else set()

        def _avg(values):
            values = list(values)
            return round(math.fsum(values) / len(values), 6) if values else None

        out.append(
            {
                "k": k,
                "coverage": {m: len(solved[m]) for m in modes},
                "commonly_solved": len(common),
                "behaviour_count": {
                    m: sum(by_mode[m][i].behaviour_count for i in sorted(common))
                    for m in modes
                },
                "avg_time_solved_s": {
                    m: _avg(r.wall_time_s for r in by_mode[m].values() if r.solved)
                    for m in modes
                },
                "avg_time_all_s": {
                    m: _avg(r.wall_time_s for r in by_mode[m].values()) for m in modes
                },
            }
        )
    return out


def format_aggregates(aggregates: Sequence[dict]) -> str:
    lines = []
    for entry in aggregates:
        modes = sorted(entry["coverage"])
        lines.append(f"k={entry['k']}  commonly solved: {entry['commonly_solved']}")
        for m in modes:
            solved_avg = entry["avg_time_solved_s"][m]
            solved_avg = "-" if solved_avg is None else f"{solved_avg:.3f}s"
            lines.append(
                f"  {m:<6} coverage {entry['coverage'][m]:>3}"
                f"  BC {entry['behaviour_count'][m]:>4}"
                f"  avg time (solved) {solved_avg}"
            )
    return "\n".join(lines)


def write_rows_csv(path, rows: Sequence[SuiteResultRow]):
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(str(v).lower() if isinstance(v, bool) else v for v in r._astuple())
