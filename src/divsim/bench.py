"""Benchmark harness: run planner tasks over instance files and report.

A task pins down everything one planner run needs (instance, mode, k,
diversity features, novelty and resource limits). Runs produce a JSON plan
document and a result row; suites fan out over a directory x modes x k values
and aggregate behaviour counts over the instances all modes solved.
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
from dataclasses import KW_ONLY, InitVar, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .behaviour import BehaviourSpace, CostBound, GoalOrder, behaviour_to_json
from .core import plan_cost
from .domains import EXTENSIONS, load_problem
from .errors import BudgetExceeded
from .search import (
    NoveltyConfig,
    PlanSetResult,
    SearchLimits,
    fbi,
    fbi_naive,
)

MODES = ("fbi", "naive")
FEATURES = ("go", "cb")
OUTCOMES = ("done", "exhausted", "timeout", "nodecap", "error")


def _check_distinct(name: str, values) -> None:
    if len(set(values)) != len(values):
        raise ValueError(f"{name} repeats a value: {', '.join(map(str, values))}")


@dataclass(frozen=True)
class TaskSpec:
    """One planner run. ``cost_bound`` and ``time_budget_s``, when given,
    override those fields of ``limits`` and are not kept."""

    instance: str
    mode: str = "fbi"
    k: int = 1
    domain: Optional[str] = None
    features: tuple = FEATURES
    novelty: NoveltyConfig = NoveltyConfig()
    limits: SearchLimits = SearchLimits()
    _: KW_ONLY
    cost_bound: InitVar[Optional[int]] = None
    time_budget_s: InitVar[Optional[float]] = None

    def __post_init__(self, cost_bound, time_budget_s):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.features:
            raise ValueError("at least one diversity feature is required")
        _check_distinct("features", self.features)
        for f in self.features:
            if f not in FEATURES:
                raise ValueError(f"unknown feature {f!r}; expected a subset of {FEATURES}")
        given = dict(cost_bound=cost_bound, time_budget_s=time_budget_s)
        overrides = {name: value for name, value in given.items() if value is not None}
        if overrides:
            object.__setattr__(self, "limits", replace(self.limits, **overrides))


@dataclass(frozen=True)
class SuiteResultRow:
    instance: str
    mode: str
    k: int
    solved: bool
    plans_found: int
    behaviour_count: int
    wall_time_s: float
    outcome: str


CSV_COLUMNS = tuple(f.name for f in fields(SuiteResultRow))


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


def plan_set_document(spec: TaskSpec, problem, result: PlanSetResult, outcome: str) -> dict:
    plans = []
    for i, plan in enumerate(result.plans):
        entry = {"actions": list(plan), "cost": plan_cost(problem, plan)}
        if i < len(result.behaviours):
            entry["behaviour"] = behaviour_to_json(result.behaviours[i])
        plans.append(entry)
    return {
        "instance": str(spec.instance),
        "mode": spec.mode,
        "k": spec.k,
        "plans": plans,
        "behaviour_count": result.behaviour_count,
        "stats": {**result.stats.as_dict(), "outcome": outcome},
    }


def run_task(spec: TaskSpec, plans_path=None):
    """Run one planning task; returns ``(PlanSetResult, SuiteResultRow, document)``.

    The document is the JSON-ready plan set; it is also written to
    ``plans_path`` when one is given. A tripped resource budget is folded
    into the row (outcome timeout or nodecap) with whatever plans were
    collected before the trip.
    """
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
    doc = plan_set_document(spec, problem, result, outcome)
    if plans_path is not None:
        Path(plans_path).write_text(json.dumps(doc, indent=2) + "\n")
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

    Returns ``(rows, aggregates)``. The (k, mode) tasks are built, and so
    checked, before the directory is listed or ``plans_dir`` made; a mode or
    k given twice is a ``ValueError``, as it would run a task twice. A task
    that raises, whatever the exception, becomes a row with outcome "error"
    and a warning naming the exception type, instead of aborting the rest
    of the suite.
    """
    _check_distinct("modes", modes)
    _check_distinct("k values", k_list)
    tasks = [
        TaskSpec("", mode, k, features=features, novelty=novelty, limits=limits)
        for k in k_list
        for mode in modes
    ]
    paths = sorted(
        p
        for p in Path(suite_dir).iterdir()
        if p.is_file() and p.suffix.lower() in EXTENSIONS
    )
    if plans_dir is not None:
        Path(plans_dir).mkdir(parents=True, exist_ok=True)
    rows = []
    for path in paths:
        for task in tasks:
            mode, k = task.mode, task.k
            name = f"{path.stem}-{mode}-k{k}.json"
            plans_path = Path(plans_dir) / name if plans_dir is not None else None
            try:
                _, row, _ = run_task(replace(task, instance=str(path)), plans_path)
            except Exception as err:
                row = SuiteResultRow(path.name, mode, k, False, 0, 0, 0.0, "error")
                print(
                    f"warning: {path.name} ({mode}, k={k}): {type(err).__name__}: {err}",
                    file=sys.stderr,
                )
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
            return round(statistics.fmean(values), 6) if values else None

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
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(str(v).lower() if isinstance(v, bool) else v for v in astuple(r))
