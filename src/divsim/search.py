"""Width-based search with behaviour and plan forbidding.

The core loop is a breadth-first search per width i = 1..max_width that keeps
a successor only if

(a) it is novel at width i,
(b) it does not establish a forbidden behaviour (or, in plan-forbidding mode,
    is not itself a known plan),
(c) its visited key (raw truths plus latched goals) is unseen this iteration,
(d) its cost does not exceed the cost bound.

A kept successor that is a goal state ends a generator call. The top-level
planner first forbids behaviours until the space is exhausted, then falls back
to forbidding whole plans to fill the requested count.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Optional

from .behaviour import (
    Behaviour,
    BehaviourSpace,
    behaviour_formula,
    extract_behaviour,
    latch_groups,
)
from .core import (
    LATCH_ATOM_PREFIX,
    AugmentedState,
    Plan,
    SimulatorProblem,
    TransitionMemo,
    augmented_view,
    initial_augmented,
    successor_augmented,
)
from .errors import BudgetExceeded
from .ltl import evaluate, is_latch_monotone


class NoveltyScope(Enum):
    """What "seen before" means for the novelty test.

    TRACE_LOCAL compares a candidate against its own ancestor states only;
    GLOBAL compares against every state generated so far in the current width
    iteration.
    """

    TRACE_LOCAL = "trace"
    GLOBAL = "global"


@dataclass(frozen=True)
class NoveltyConfig:
    max_width: int = 2
    scope: NoveltyScope = NoveltyScope.TRACE_LOCAL

    def __post_init__(self):
        if self.max_width < 1:
            raise ValueError("max_width must be at least 1")


@dataclass(frozen=True)
class SearchLimits:
    cost_bound: int = 1000
    time_budget_s: float = 1800.0
    node_budget: int = 10_000_000

    def __post_init__(self):
        if self.cost_bound < 1 or self.time_budget_s <= 0 or self.node_budget < 1:
            raise ValueError("search limits must be positive")


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    nodes_generated: int = 0
    pruned_by_novelty: int = 0
    pruned_by_behaviour: int = 0
    pruned_by_visited: int = 0
    pruned_by_cost: int = 0
    simulate_calls: int = 0
    memo_hits: int = 0
    wall_time_by_width: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "nodes_expanded": self.nodes_expanded,
            "nodes_generated": self.nodes_generated,
            "pruned_by_novelty": self.pruned_by_novelty,
            "pruned_by_behaviour": self.pruned_by_behaviour,
            "pruned_by_visited": self.pruned_by_visited,
            "pruned_by_cost": self.pruned_by_cost,
            "simulate_calls": self.simulate_calls,
            "memo_hits": self.memo_hits,
            "wall_time_by_width": {str(w): t for w, t in sorted(self.wall_time_by_width.items())},
            "wall_time_s": self.wall_time_s,
        }


@dataclass(frozen=True)
class PlanSetResult:
    """Outcome of a top-k run: plans with their behaviours, side by side.

    ``exhausted`` means the generators ran dry before reaching k; hitting a
    resource budget is not exhaustion and raises ``BudgetExceeded`` instead.
    """

    plans: tuple
    behaviours: tuple
    behaviour_count: int
    stats: SearchStats
    exhausted: bool


class Budget:
    """Shared wall-clock and generated-node budget for one planner run."""

    def __init__(self, limits: SearchLimits):
        self.deadline = time.perf_counter() + limits.time_budget_s
        self.nodes_left = limits.node_budget

    def check_time(self):
        if time.perf_counter() > self.deadline:
            raise BudgetExceeded("time")

    def spend_node(self):
        if self.nodes_left <= 0:
            raise BudgetExceeded("nodes")
        self.nodes_left -= 1


class _Node:
    __slots__ = ("aug", "parent", "action_name", "depth", "summary")

    def __init__(self, aug, parent, action_name, depth, summary):
        self.aug = aug
        self.parent = parent
        self.action_name = action_name
        self.depth = depth
        self.summary = summary  # the novelty summary a child is tested against


def _chain(node: _Node) -> list:
    out = []
    while node is not None:
        out.append(node)
        node = node.parent
    out.reverse()
    return out


def node_plan(node: _Node) -> Plan:
    return tuple(n.action_name for n in _chain(node)[1:])


def node_states(node: _Node) -> list:
    return [n.aug for n in _chain(node)]


def state_tuples(raw: frozenset, width: int) -> frozenset:
    """Predicate combinations of size 1..``width`` of a raw state.

    This is the reference definition of novelty: a state is novel iff one
    of its tuples is not among those recorded before. ``NoveltyTable``
    decides the same on bitmasks, and the tests compare the two.

    Width-1 tuples are the predicates themselves; larger widths add
    frozensets, so membership is order-free. Sizes below the width are
    included: a state whose raw set is smaller than the width must still
    be able to prove novelty through its singletons, otherwise wide
    iterations would prune everything on domains with compact states.
    """
    if width == 1:
        return raw
    tuples = set(raw)
    for size in range(2, width + 1):
        tuples.update(frozenset(c) for c in itertools.combinations(raw, size))
    return frozenset(tuples)


class NoveltyTable:
    """Width-i novelty test on atom bitmasks.

    A candidate is novel iff some predicate combination of size at most i
    of its raw state has never been simultaneously true "before": in its own
    ancestors for TRACE_LOCAL scope, or in any state generated this width
    iteration for GLOBAL scope.

    "Before" is a summary dict. For each atom set K of size below i it maps
    K, as a bitmask (the empty set is 0), to the OR of the masks of every
    recorded state that contains K. A state with mask m is novel iff some
    K within m has ``summary[K] & m != m``: an atom a of m never held
    together with K, so the combination K + {a} is new. That is the
    ``state_tuples`` definition, decided without building any tuple.

    In TRACE_LOCAL scope each kept node carries its own summary, a copy of
    its parent's with the node recorded. In GLOBAL scope one summary serves
    the whole width iteration, and a true result records the candidate in
    it as a side effect. Masks must come from one run's ``TransitionMemo``.
    """

    def __init__(self, width: int, scope: NoveltyScope):
        self.width = width
        self.scope = scope
        self._keys: dict = {}  # mask -> the masks of its atom sets of size below the width

    def _subsets(self, mask: int) -> tuple:
        """The masks of the atom sets of ``mask`` of size below the width."""
        bits = []
        rest = mask
        while rest:
            bit = rest & -rest
            bits.append(bit)
            rest ^= bit
        got = self._keys[mask] = tuple(
            sum(combo) for size in range(self.width) for combo in itertools.combinations(bits, size)
        )
        return got

    def record(self, summary: dict, mask: int) -> dict:
        """Record the state ``mask`` in ``summary``, in place; return it."""
        for key in self._keys.get(mask) or self._subsets(mask):
            summary[key] = summary.get(key, 0) | mask
        return summary

    def is_novel(self, mask: int, summary: dict) -> bool:
        for key in self._keys.get(mask) or self._subsets(mask):
            if summary.get(key, 0) & mask != mask:
                if self.scope is NoveltyScope.GLOBAL:
                    self.record(summary, mask)
                return True
        return False


def _visited_key(aug: AugmentedState) -> frozenset:
    # Latches distinguish same-raw states reached with different goal histories.
    return aug.raw | aug.latched


def _memoised(problem: SimulatorProblem, stats: SearchStats) -> TransitionMemo:
    """``problem`` if it already is a planner run's memo, else a new memo over it."""
    return problem if isinstance(problem, TransitionMemo) else TransitionMemo(problem, stats)


def _iw_goal_stream(
    problem: TransitionMemo,
    novelty: NoveltyConfig,
    limits: SearchLimits,
    budget: Budget,
    stats: SearchStats,
    reject: Callable[[_Node, bool], bool],
) -> Iterator[_Node]:
    """Yield every kept goal node, running widths 1..max_width in turn.

    ``problem`` is the run's memo, whose masks the novelty test reads.
    ``reject`` implements condition (b); rejected goal nodes are pruned
    entirely, leaving their visited keys unrecorded so that other routes to
    the same state stay open.
    """
    trace_local = novelty.scope is NoveltyScope.TRACE_LOCAL
    for width in range(1, novelty.max_width + 1):
        started = time.perf_counter()
        try:
            root_aug = initial_augmented(problem)
            table = NoveltyTable(width, novelty.scope)
            root = _Node(root_aug, None, None, 0, table.record({}, problem.mask(root_aug.raw)))
            visited = {_visited_key(root_aug)}
            queue = deque([root])
            if root_aug.goal_flag and not reject(root, True):
                yield root
            while queue:
                budget.check_time()
                node = queue.popleft()
                stats.nodes_expanded += 1
                for action in problem.applicable(node.aug.raw):
                    budget.spend_node()
                    stats.nodes_generated += 1
                    child_aug = successor_augmented(problem, node.aug, action)
                    mask = problem.mask(child_aug.raw)
                    if not table.is_novel(mask, node.summary):
                        stats.pruned_by_novelty += 1
                        continue
                    child = _Node(child_aug, node, action.name, node.depth + 1, node.summary)
                    goal = child_aug.goal_flag
                    if reject(child, goal):
                        stats.pruned_by_behaviour += 1
                        continue
                    key = _visited_key(child_aug)
                    if key in visited:
                        stats.pruned_by_visited += 1
                        continue
                    if child_aug.cost_so_far > limits.cost_bound:
                        stats.pruned_by_cost += 1
                        continue
                    visited.add(key)
                    if trace_local:
                        child.summary = table.record(dict(node.summary), mask)
                    queue.append(child)
                    if goal:
                        yield child
        finally:
            elapsed = time.perf_counter() - started
            stats.wall_time_by_width[width] = stats.wall_time_by_width.get(width, 0.0) + elapsed


def behaviour_generator(
    problem: SimulatorProblem,
    space: BehaviourSpace,
    forbidden: frozenset,
    novelty: NoveltyConfig,
    limits: SearchLimits,
    *,
    budget: Optional[Budget] = None,
    stats: Optional[SearchStats] = None,
    interior_pruning: bool = True,
) -> Optional[tuple]:
    """One plan whose behaviour is not forbidden, or None when none is reachable.

    Returns ``(plan, behaviour, stats)``. Goal nodes are always checked
    against the forbidden set (tier 1). With ``interior_pruning`` on and no
    cost dimension in the space, an interior node whose latched goals are
    already complete is dropped when its established goal order equals a
    forbidden behaviour whose formula is latch-monotone and holds on the
    node's trace view (tier 2): every goal reachable from such a node would
    repeat that behaviour. ``problem`` may be a run's ``TransitionMemo``;
    any other problem gets a memo of its own.
    """
    budget = budget if budget is not None else Budget(limits)
    stats = stats if stats is not None else SearchStats()
    problem = _memoised(problem, stats)
    forbidden = frozenset(forbidden)
    cost_feature = space.cost_feature
    order_feature = space.order_feature
    goal_set = problem.goal_set
    latch_atoms = (
        {f"{LATCH_ATOM_PREFIX}{g.name}" for g in order_feature.goals}
        if order_feature is not None
        else set()
    )
    monotone_forbidden = []
    if interior_pruning and cost_feature is None:
        for b in forbidden:
            f = behaviour_formula(space, b)
            if is_latch_monotone(f, latch_atoms):
                monotone_forbidden.append((b, f))

    def behaviour_at(node: _Node) -> Behaviour:
        cost = node.aug.cost_so_far if cost_feature is not None else None
        order = (
            latch_groups(node_states(node), order_feature.goals)
            if order_feature is not None
            else None
        )
        return Behaviour(cost, order)

    def reject(node: _Node, goal: bool) -> bool:
        if goal:
            return behaviour_at(node) in forbidden
        if not monotone_forbidden:
            return False
        if node.aug.cost_so_far > limits.cost_bound:
            return False  # condition (d) will drop it anyway
        if not goal_set <= node.aug.latched:
            return False
        states = node_states(node)
        order = latch_groups(states, order_feature.goals)
        view = None
        for b, f in monotone_forbidden:
            if b.goal_order != order:
                continue
            if view is None:
                view = augmented_view(states, limits.cost_bound)
            if evaluate(f, view):
                return True
        return False

    stream = _iw_goal_stream(problem, novelty, limits, budget, stats, reject)
    with closing(stream):
        for node in stream:
            return node_plan(node), behaviour_at(node), stats
    return None


def plan_generator(
    problem: SimulatorProblem,
    known: frozenset,
    novelty: NoveltyConfig,
    limits: SearchLimits,
    *,
    budget: Optional[Budget] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[tuple]:
    """One goal-reaching plan differing as an action sequence from every known plan.

    Returns ``(plan, stats)`` or None. Known plans all end in goal states, so
    by determinism only goal nodes can ever collide with one; interior nodes
    skip the comparison. ``problem`` may be a run's ``TransitionMemo``; any
    other problem gets a memo of its own.
    """
    budget = budget if budget is not None else Budget(limits)
    stats = stats if stats is not None else SearchStats()
    problem = _memoised(problem, stats)
    known = frozenset(tuple(p) for p in known)

    def reject(node: _Node, goal: bool) -> bool:
        return goal and node_plan(node) in known

    stream = _iw_goal_stream(problem, novelty, limits, budget, stats, reject)
    with closing(stream):
        for node in stream:
            return node_plan(node), stats
    return None


def fbi(
    problem: SimulatorProblem,
    space: BehaviourSpace,
    k: int,
    novelty: NoveltyConfig = NoveltyConfig(),
    limits: SearchLimits = SearchLimits(),
    *,
    interior_pruning: bool = True,
) -> PlanSetResult:
    """Iteratively forbid behaviours, then plans, until k plans or exhaustion.

    Phase 1 produces pairwise-distinct behaviours. When the behaviour space
    runs dry with fewer than k plans, phase 2 keeps the forbidden behaviours
    out of play implicitly (every behaviour is already taken) and forbids
    exact plan sequences instead. On a budget trip the partial result rides
    on the raised ``BudgetExceeded``. Every generator call of the run shares
    one ``TransitionMemo``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    budget = Budget(limits)
    stats = SearchStats()
    started = time.perf_counter()
    problem = TransitionMemo(problem, stats)
    plans: list = []
    behaviours: list = []
    forbidden: set = set()
    try:
        while len(plans) < k:
            got = behaviour_generator(
                problem,
                space,
                frozenset(forbidden),
                novelty,
                limits,
                budget=budget,
                stats=stats,
                interior_pruning=interior_pruning,
            )
            if got is None:
                break
            plan, behaviour, _ = got
            plans.append(plan)
            behaviours.append(behaviour)
            forbidden.add(behaviour)
        while len(plans) < k:
            got = plan_generator(
                problem,
                frozenset(plans),
                novelty,
                limits,
                budget=budget,
                stats=stats,
            )
            if got is None:
                break
            plan, _ = got
            plans.append(plan)
            behaviours.append(extract_behaviour(space, problem, plan))
    except BudgetExceeded as err:
        stats.wall_time_s = time.perf_counter() - started
        err.partial = PlanSetResult(
            tuple(plans), tuple(behaviours), len(set(behaviours)), stats, False
        )
        raise
    stats.wall_time_s = time.perf_counter() - started
    return PlanSetResult(
        tuple(plans),
        tuple(behaviours),
        len(set(behaviours)),
        stats,
        exhausted=len(plans) < k,
    )


def fbi_naive(
    problem: SimulatorProblem,
    k: int,
    novelty: NoveltyConfig = NoveltyConfig(),
    limits: SearchLimits = SearchLimits(),
    *,
    space: Optional[BehaviourSpace] = None,
) -> PlanSetResult:
    """Top-k baseline: one width-by-width sweep that keeps the frontier going.

    Every kept goal node contributes its plan (duplicates across width
    iterations are skipped) and the search continues from the same frontier
    until k plans, exhaustion, or a budget trip. ``space`` is only used to
    extract behaviours for reporting; it does not steer the search.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    budget = Budget(limits)
    stats = SearchStats()
    started = time.perf_counter()
    problem = TransitionMemo(problem, stats)
    plans: list = []
    seen: set = set()

    def reject(node: _Node, goal: bool) -> bool:
        return False

    def wrap_up(exhausted: bool) -> PlanSetResult:
        stats.wall_time_s = time.perf_counter() - started
        behaviours = (
            tuple(extract_behaviour(space, problem, p) for p in plans)
            if space is not None
            else ()
        )
        return PlanSetResult(
            tuple(plans), behaviours, len(set(behaviours)), stats, exhausted
        )

    stream = _iw_goal_stream(problem, novelty, limits, budget, stats, reject)
    try:
        with closing(stream):
            for node in stream:
                plan = node_plan(node)
                if plan in seen:
                    continue
                seen.add(plan)
                plans.append(plan)
                if len(plans) == k:
                    break
    except BudgetExceeded as err:
        err.partial = wrap_up(False)
        raise
    return wrap_up(len(plans) < k)
