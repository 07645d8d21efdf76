"""Acceptance gate: eight end-to-end checks, one test and one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion result
lines; add ``-s`` to see the printed detail for passing criteria too.
"""

import json
import random
import time
from collections import Counter

import pytest
import scipy.stats

from divsim.behaviour import BehaviourSpace, CostBound, GoalOrder
from divsim.core import replay
from divsim.domains import load_problem
from divsim.domains.grid import GridProblem
from divsim.domains.pentest import PentestProblem
from divsim.domains.puzznic import (
    PuzznicProblem,
    level_goal,
    parse_puzznic,
    puzznic_step,
    settle,
)
from divsim.ltl import (
    Not,
    Release,
    Until,
    canonical,
    evaluate,
    format_formula,
    parse_formula,
)
from divsim.oracle import brute_force_behaviours
from divsim.search import NoveltyConfig, SearchLimits, behaviour_generator, fbi, fbi_naive
from divsim.stats import paired_t_test

from conftest import UndoToggleProblem, fixture_path
from oracles import eval_reference, plain_iw, random_formula, random_view


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print("\n" + line)
    assert ok, line


def _space(problem, features, bound):
    parts = []
    for f in features:
        if f == "go":
            parts.append(GoalOrder(tuple(problem.goal_predicates)))
        else:
            parts.append(CostBound(bound))
    return BehaviourSpace(tuple(parts))


# --- criterion 1 fixture table -------------------------------------------
#
# Micro instances small enough for exhaustive behaviour enumeration: grids
# up to 4x4 with 2-3 targets, Puzznic levels up to 5x5 with at most 6
# blocks, attack scenarios with at most 4 hosts. Each row pins the feature
# set, the cost bound, and the plan length that makes the brute-force
# enumeration complete for that bound.

MICRO = (
    ("open3x3 go+cb", "open3x3.grid", ("go", "cb"), 6, 6),
    ("two_targets_line go", "two_targets_line.grid", ("go",), 7, 7),
    ("three_targets go", "three_targets.grid", ("go",), 8, 8),
    ("single_pair go+cb", "single_pair.puz", ("go", "cb"), 1, 1),
    ("ledge go+cb", "ledge.puz", ("go", "cb"), 2, 2),
    ("cascade go+cb", "cascade.puz", ("go", "cb"), 2, 2),
    ("cascade go", "cascade.puz", ("go",), 8, 8),
    ("pairs go+cb", "pairs.puz", ("go", "cb"), 6, 6),
    ("chain3 go+cb", "chain3.json", ("go", "cb"), 3, 3),
    ("diamond go+cb", "diamond.json", ("go", "cb"), 5, 3),
    ("multi_sensitive go+cb", "multi_sensitive.json", ("go", "cb"), 3, 3),
)


@pytest.fixture(scope="module")
def micro_runs():
    runs = []
    for label, name, features, bound, max_len in MICRO:
        problem = load_problem(fixture_path(name))
        space = _space(problem, features, bound)
        limits = SearchLimits(bound, 60.0, 10_000_000)
        started = time.perf_counter()
        oracle = brute_force_behaviours(problem, space, max_len)
        k = len(oracle) + 5
        result = fbi(problem, space, k, limits=limits)
        elapsed = time.perf_counter() - started
        runs.append(
            {
                "label": label,
                "problem": problem,
                "space": space,
                "limits": limits,
                "k": k,
                "oracle": oracle,
                "result": result,
                "elapsed": elapsed,
            }
        )
    return runs


# --- criterion 2 generated suite -----------------------------------------
#
# Parametric families with more than one reachable goal order: open rooms
# with 2-3 visit targets, star networks with several sensitive spokes (plus
# non-sensitive padding hosts), and two-pair tile levels. Goal order is the
# only diversity dimension, so the behaviour count measures how many
# orders a plan set exhibits.


def grid_text(rows, cols, start, targets):
    lines = []
    for r in range(rows + 2):
        cells = []
        for c in range(cols + 2):
            if r in (0, rows + 1) or c in (0, cols + 1):
                cells.append("#")
            elif (r - 1, c - 1) == start:
                cells.append("S")
            elif (r - 1, c - 1) in targets:
                cells.append("T")
            else:
                cells.append(".")
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def star_scenario(n_lans, sensitive, pads):
    subnets = [{"id": "dmz", "internet": True}]
    topology = []
    hosts = [{"id": "web", "subnet": "dmz", "services": ["http"]}]
    exploits = [{"service": "http", "cost": 1}]
    for i in range(1, n_lans + 1):
        subnets.append({"id": f"lan{i}"})
        topology.append(["dmz", f"lan{i}"])
        hosts.append(
            {
                "id": f"h{i}",
                "subnet": f"lan{i}",
                "services": [f"svc{i}"],
                "sensitive": i in sensitive,
            }
        )
        exploits.append({"service": f"svc{i}", "cost": 1})
    for j in range(pads):
        hosts.append({"id": f"pad{j}", "subnet": "dmz", "services": ["http"]})
    return json.dumps(
        {"subnets": subnets, "topology": topology, "hosts": hosts, "exploits": exploits}
    )


GENERATED_GRIDS = (
    ("grid-3x3-diag", 3, 3, (1, 1), ((0, 0), (2, 2))),
    ("grid-3x3-anti", 3, 3, (1, 1), ((0, 2), (2, 0))),
    ("grid-3x3-top", 3, 3, (2, 1), ((0, 0), (0, 2))),
    ("grid-3x4-far", 3, 4, (1, 1), ((0, 3), (2, 0))),
    ("grid-3x4-mid", 3, 4, (1, 2), ((0, 0), (2, 3))),
    ("grid-4x4-span", 4, 4, (1, 1), ((0, 3), (3, 0))),
    ("grid-4x4-corner", 4, 4, (2, 2), ((0, 0), (3, 3))),
    ("grid-3x3-three", 3, 3, (1, 1), ((0, 0), (0, 2), (2, 1))),
    ("grid-3x4-three", 3, 4, (1, 1), ((0, 0), (0, 3), (2, 2))),
    ("grid-4x4-three", 4, 4, (1, 2), ((0, 0), (2, 3), (3, 1))),
)

GENERATED_STARS = (
    ("pentest-2lan", 2, frozenset({1, 2}), 0),
    ("pentest-2lan-pad", 2, frozenset({1, 2}), 1),
    ("pentest-3lan-12", 3, frozenset({1, 2}), 0),
    ("pentest-3lan-13", 3, frozenset({1, 3}), 1),
    ("pentest-3lan-all", 3, frozenset({1, 2, 3}), 0),
    ("pentest-3lan-23", 3, frozenset({2, 3}), 2),
)

GENERATED_PUZZLES = (
    ("puzznic-ab", "#####\n#a.b#\n##.##\n#a@b#\n#####\n"),
    ("puzznic-cd", "#####\n#c.d#\n##.##\n#c@d#\n#####\n"),
    ("puzznic-ba", "#####\n#b.a#\n##.##\n#b@a#\n#####\n"),
    ("puzznic-top", "#####\n#a@b#\n##.##\n#a.b#\n#####\n"),
    ("puzznic-ef", "#####\n#e@f#\n##.##\n#e.f#\n#####\n"),
    ("puzznic-fe", "#####\n#f.e#\n##.##\n#f@e#\n#####\n"),
)

K_LIST = (2, 5, 10)


def generated_instances():
    out = []
    for name, r, c, s, ts in GENERATED_GRIDS:
        out.append((name, GridProblem.from_text(grid_text(r, c, s, ts))))
    for name, n, sensitive, pads in GENERATED_STARS:
        out.append((name, PentestProblem.from_text(star_scenario(n, sensitive, pads))))
    for name, text in GENERATED_PUZZLES:
        out.append((name, PuzznicProblem.from_text(text)))
    return out


@pytest.fixture(scope="module")
def generated_runs():
    instances = generated_instances()
    limits = SearchLimits(24, 60.0, 2_000_000)
    started = time.perf_counter()
    runs = []
    for name, problem in instances:
        space = BehaviourSpace((GoalOrder(tuple(problem.goal_predicates)),))
        for k in K_LIST:
            runs.append(
                {
                    "instance": name,
                    "k": k,
                    "mode": "fbi",
                    "problem": problem,
                    "limits": limits,
                    "result": fbi(problem, space, k, limits=limits),
                }
            )
            runs.append(
                {
                    "instance": name,
                    "k": k,
                    "mode": "naive",
                    "problem": problem,
                    "limits": limits,
                    "result": fbi_naive(problem, k, limits=limits, space=space),
                }
            )
    return {"runs": runs, "n_instances": len(instances), "elapsed": time.perf_counter() - started}


def test_criterion_1_oracle_equivalence(micro_runs):
    mismatches = []
    slow = []
    for run in micro_runs:
        if set(run["result"].behaviours) != set(run["oracle"]):
            mismatches.append(run["label"])
        if run["elapsed"] >= 60.0:
            slow.append(run["label"])
    files = {name for _, name, _, _, _ in MICRO}
    detail = (
        f"{len(micro_runs)} runs over {len(files)} micro fixtures, "
        f"fbi(k=|B*|+5) behaviour set == brute force"
        + (f"; mismatches: {mismatches}" if mismatches else "")
        + (f"; over a minute: {slow}" if slow else "")
    )
    _verdict(1, not mismatches and not slow and len(files) >= 10, detail)


def test_criterion_2_diversity_dominance(generated_runs):
    runs = generated_runs["runs"]
    problems = []
    failures = []
    summary = []
    for k in K_LIST:
        by_instance = {}
        for run in runs:
            if run["k"] == k:
                by_instance.setdefault(run["instance"], {})[run["mode"]] = run[
                    "result"
                ].behaviour_count
        pairs = [(v["fbi"], v["naive"]) for v in by_instance.values()]
        if not all(f >= n for f, n in pairs):
            failures.append(f"k={k}: some instance has BC(fbi) < BC(naive)")
        agg_f = sum(f for f, _ in pairs)
        agg_n = sum(n for _, n in pairs)
        if not agg_f > agg_n:
            failures.append(f"k={k}: aggregate not strictly greater")
        ttest = paired_t_test(pairs)
        if not ttest.p < 0.05:
            failures.append(f"k={k}: p={ttest.p}")
        summary.append(f"k={k} BC {agg_f}>{agg_n} p={ttest.p:.1e}")
    if generated_runs["n_instances"] < 20:
        failures.append("fewer than 20 instances")
    if generated_runs["elapsed"] >= 900.0:
        failures.append(f"took {generated_runs['elapsed']:.0f}s")
    detail = (
        f"{generated_runs['n_instances']} generated instances, "
        + "; ".join(summary)
        + f"; {generated_runs['elapsed']:.1f}s total"
        + (f"; failures: {failures}" if failures else "")
    )
    _verdict(2, not failures, detail)


def test_criterion_3_plan_validity(micro_runs, generated_runs):
    checked = 0
    bad = []
    fbi_results = []
    for run in micro_runs:
        fbi_results.append((run["label"], run["result"]))
        for plan in run["result"].plans:
            checked += 1
            trace = replay(run["problem"], plan)
            tip = trace.states[-1]
            if not tip.goal_flag or tip.cost_so_far > run["limits"].cost_bound:
                bad.append((run["label"], plan))
    for run in generated_runs["runs"]:
        if run["mode"] == "fbi":
            fbi_results.append((f"{run['instance']} k={run['k']}", run["result"]))
        for plan in run["result"].plans:
            checked += 1
            trace = replay(run["problem"], plan)
            tip = trace.states[-1]
            if not tip.goal_flag or tip.cost_so_far > run["limits"].cost_bound:
                bad.append((run["instance"], plan))
    # phase 1 ends at the first repeated behaviour; before that point every
    # behaviour must be fresh, and nothing new may appear afterwards
    phase_faults = []
    for label, result in fbi_results:
        seen = []
        for b in result.behaviours:
            if b in seen:
                break
            seen.append(b)
        if set(result.behaviours) != set(seen):
            phase_faults.append(label)
    detail = (
        f"{checked} plans replayed to goal within bound"
        + (f"; invalid: {bad[:3]}" if bad else "")
        + (f"; phase-1 distinctness broken on: {phase_faults}" if phase_faults else "")
    )
    _verdict(3, not bad and not phase_faults, detail)


def test_criterion_4_evaluator_against_reference():
    rng = random.Random(20260814)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        f = random_formula(rng, depth=rng.randint(1, 4))
        g = random_formula(rng, depth=rng.randint(1, 4))
        view = random_view(rng, max_len=6)
        if evaluate(f, view) != eval_reference(f, view):
            mismatches += 1
        # release/until duality under the package evaluator
        if evaluate(Release(f, g), view) != evaluate(
            Not(Until(Not(f), Not(g))), view
        ):
            mismatches += 1
        # text round trip preserves the canonical form
        if parse_formula(format_formula(f)) != canonical(f):
            mismatches += 1
    elapsed = time.perf_counter() - started
    detail = (
        f"1000 random formula/trace pairs vs direct-recursion reference, "
        f"plus duality and round-trip; {mismatches} mismatches; {elapsed:.2f}s"
    )
    _verdict(4, mismatches == 0 and elapsed < 10.0, detail)


ALL_FIXTURES = (
    "corridor3.grid",
    "corridor4.grid",
    "corridor_bend.grid",
    "open3x3.grid",
    "two_targets_line.grid",
    "three_targets.grid",
    "single_pair.puz",
    "ledge.puz",
    "cascade.puz",
    "pairs.puz",
    "chain3.json",
    "diamond.json",
    "multi_sensitive.json",
)

CORRIDORS = ("corridor3.grid", "corridor4.grid", "corridor_bend.grid")


def test_criterion_5_reduction_to_plain_iw():
    differing = []
    for name in ALL_FIXTURES:
        problem = load_problem(fixture_path(name))
        space = _space(problem, ("go", "cb"), 1000)
        got = behaviour_generator(
            problem, space, frozenset(), NoveltyConfig(), SearchLimits()
        )
        expected = plain_iw(problem, max_width=2, cost_bound=1000)
        if (got[0] if got is not None else None) != expected:
            differing.append(name)
    unsolved = []
    for name in CORRIDORS:
        problem = load_problem(fixture_path(name))
        got = behaviour_generator(
            problem, _space(problem, ("go", "cb"), 1000), frozenset(),
            NoveltyConfig(max_width=1), SearchLimits(),
        )
        if got is None or got[0] != plain_iw(problem, max_width=1, cost_bound=1000):
            unsolved.append(name)
    detail = (
        f"empty forbidden set matches plain IW on {len(ALL_FIXTURES)} fixtures; "
        f"width 1 solves {len(CORRIDORS)} corridor fixtures"
        + (f"; differing: {differing}" if differing else "")
        + (f"; corridor failures: {unsolved}" if unsolved else "")
    )
    _verdict(5, not differing and not unsolved, detail)


def test_criterion_6_interior_pruning_soundness(micro_runs):
    differing = []
    for run in micro_runs:
        unpruned = fbi(
            run["problem"],
            run["space"],
            run["k"],
            limits=run["limits"],
            interior_pruning=False,
        )
        if set(unpruned.behaviours) != set(run["result"].behaviours):
            differing.append(run["label"])
    # No built-in domain can undo a goal, so their runs never reach a node
    # interior pruning acts on; the undo fixture does.
    problem = UndoToggleProblem()
    space = _space(problem, ("go",), 10)
    limits = SearchLimits(10, 60.0, 1_000_000)
    k = len(brute_force_behaviours(problem, space, 6)) + 5
    extra = []
    for width in (1, 2):
        novelty = NoveltyConfig(max_width=width)
        on = fbi(problem, space, k, novelty, limits)
        off = fbi(problem, space, k, novelty, limits, interior_pruning=False)
        label = f"undo toggle w{width}"
        if set(on.behaviours) != set(off.behaviours) or on.plans != off.plans:
            differing.append(label)
        pruned = (on.stats.pruned_by_behaviour, off.stats.pruned_by_behaviour)
        if pruned[0] <= pruned[1]:
            differing.append(f"{label}: no tier-2 prune")
        extra.append(f"{label} (behaviour prunes on/off {pruned[0]}/{pruned[1]})")
    detail = (
        f"tier-2 pruning on vs off agrees on {len(micro_runs)} micro runs and on "
        + ", ".join(extra)
        + (f"; differing: {differing}" if differing else "")
    )
    _verdict(6, not differing, detail)


def test_criterion_7_puzznic_physics():
    problems = []
    # settle is a fixpoint on every parsed (hence settled) level
    for name in ("single_pair.puz", "ledge.puz", "cascade.puz", "pairs.puz"):
        level = parse_puzznic(fixture_path(name).read_text())
        settled, waves = settle(level.grid)
        problems.append((name, settled == level.grid and waves == ()))
    idempotent = all(ok for _, ok in problems)

    def blocks(grid):
        return Counter(c for row in grid for c in row if c.isalpha() and c.islower())

    # single clear: one push resolves the only pair for exactly 200
    level = parse_puzznic(fixture_path("single_pair.puz").read_text())
    before = blocks(level.grid)
    record = []
    level = puzznic_step(level, "push-right", record=record)
    single_gains = [info[2] for kind, _, info in record if kind == "clear"]
    single_ok = (
        level.score == 200 and level_goal(level) and single_gains == [200]
    )
    cleared = sum(len(info[1]) for kind, _, info in record if kind == "clear")
    conservation_ok = sum(before.values()) == sum(blocks(level.grid).values()) + cleared

    # cascade: the second wave doubles, 200 then 400
    level = parse_puzznic(fixture_path("cascade.puz").read_text())
    cascade_before = blocks(level.grid)
    scores = [level.score]
    gains = []
    for action in ("cursor-right", "push-left"):
        record = []
        level = puzznic_step(level, action, record=record)
        scores.append(level.score)
        gains.extend(info[2] for kind, _, info in record if kind == "clear")
        cleared_here = sum(len(info[1]) for kind, _, info in record if kind == "clear")
        conservation_ok = conservation_ok and (
            sum(cascade_before.values())
            == sum(blocks(level.grid).values()) + cleared_here
        )
        cascade_before = blocks(level.grid)
        for _, grid, _ in record:
            # settling any intermediate snapshot must reach a stable grid
            again, _ = settle(grid)
            idempotent = idempotent and settle(again) == (again, ())
    cascade_ok = gains == [200, 400] and level.score == 600 and level_goal(level)
    monotone = all(a <= b for a, b in zip(scores, scores[1:]))

    faults = []
    if not idempotent:
        faults.append("settle not idempotent")
    if not conservation_ok:
        faults.append("block conservation broken")
    if not monotone:
        faults.append("score decreased")
    if not single_ok:
        faults.append("single clear != 200")
    if not cascade_ok:
        faults.append(f"cascade gains {gains}")
    detail = (
        "settle idempotent, blocks conserved, score monotone, "
        "single clear = 200, cascade = 200 + 400"
        + (f"; faults: {faults}" if faults else "")
    )
    _verdict(7, not faults, detail)


def test_criterion_8_t_test_reference():
    pairs = [(2, 1), (3, 1), (4, 2), (3, 2)]
    got = paired_t_test(pairs)
    ref = scipy.stats.ttest_rel([f for f, _ in pairs], [s for _, s in pairs])
    dt = abs(got.t - float(ref.statistic))
    dp = abs(got.p - float(ref.pvalue))
    detail = (
        f"t={got.t:.6f} (df={got.df}) vs reference {float(ref.statistic):.6f}, "
        f"|dt|={dt:.2e}, |dp|={dp:.2e}"
    )
    _verdict(8, got.df == 3 and dt < 1e-3 and dp < 1e-4, detail)
