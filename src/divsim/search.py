"""Width-based search with behaviour and plan forbidding.

The core loop is a breadth-first search per width i = 1..max_width that keeps
a successor only if

(a) it is novel at width i,
(b) it does not establish a forbidden behaviour (or, in plan-forbidding mode,
    is not itself a known plan): a goal node's behaviour is not forbidden,
    and an interior node whose goals have all latched has not already fixed
    a forbidden goal order of two or more groups,
(c) its visited key (raw truths plus latched goals) is unseen this iteration,
(d) its cost does not exceed the cost bound.

Nodes hold the run memo's integers, and both tests above read atom masks;
``AugmentedState``s are built only where a behaviour is read (``node_states``).

A kept successor that is a goal state is yielded to the caller, which may
forbid its behaviour (or plan) before the search resumes. The top-level
planner first forbids behaviours until the space is exhausted, then falls back
to forbidding whole plans to fill the requested count. Each phase resumes one
search rather than restarting it for every plan, and finds the plans, in the
same order, that a restart per plan would find. Every behaviour is read off
the states of the goal node that ends its plan; no plan is replayed. ``fbi``
and ``fbi_naive`` share one run driver, ``_top_k``.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import closing
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Iterator, Optional

from .behaviour import Behaviour, BehaviourSpace, behaviour_of, latch_groups
from .core import AugmentedState, Plan, SimulatorProblem, TransitionMemo
from .errors import BudgetExceeded

# Not called by the search: perfbench/tracing.py rebinds these names to count calls.
from .behaviour import behaviour_formula, extract_behaviour  # noqa: F401
from .core import successor_augmented  # noqa: F401
from .ltl import evaluate, is_latch_monotone  # noqa: F401


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
    restarts: int = 0
    wall_time_by_width: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        out = asdict(self)
        out["wall_time_by_width"] = {str(w): t for w, t in sorted(self.wall_time_by_width.items())}
        return out


@dataclass(frozen=True)
class PlanSetResult:
    """Outcome of a top-k run: plans with their behaviours, side by side.

    ``exhausted`` means the generators ran dry before reaching k; hitting a
    resource budget is not exhaustion and raises ``BudgetExceeded`` instead.
    """

    plans: tuple
    behaviours: tuple
    stats: SearchStats
    exhausted: bool

    @property
    def behaviour_count(self) -> int:
        return len(set(self.behaviours))


class Budget:
    """The live limits of one planner run: the wall-clock deadline, the
    generated nodes left, and ``cost_bound``, capped at the cost bound of
    ``space`` when it has one so that every behaviour lies in the space."""

    def __init__(self, limits: SearchLimits, space: Optional[BehaviourSpace] = None):
        self.deadline = time.perf_counter() + limits.time_budget_s
        self.nodes_left = limits.node_budget
        cf = space.cost_feature if space is not None else None
        self.cost_bound = limits.cost_bound if cf is None else min(limits.cost_bound, cf.bound)

    def check_time(self):
        if time.perf_counter() > self.deadline:
            raise BudgetExceeded("time")

    def spend_node(self):
        if self.nodes_left <= 0:
            raise BudgetExceeded("nodes")
        self.nodes_left -= 1


class _Node:
    """A trace position: the memo's interned ``state``, the path ``cost``, the
    ``goal`` flag and ``latched``, the mask of the goals true here or before."""

    __slots__ = ("state", "cost", "goal", "latched", "parent", "action_name", "summary")

    def __init__(self, state, cost, goal, latched, parent, action_name, summary):
        self.state = state
        self.cost = cost
        self.goal = goal
        self.latched = latched
        self.parent = parent
        self.action_name = action_name
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


def node_states(memo: TransitionMemo, node: _Node) -> list:
    """The node's path as ``AugmentedState``s, initial state first."""
    return [
        AugmentedState(n.state, n.cost, n.goal, memo.goals(n.latched)) for n in _chain(node)
    ]


def state_tuples(raw: frozenset, width: int) -> frozenset:
    """Atom combinations of size 1..``width`` of a raw state.

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
        # Each size-s key is a size-(s-1) key plus one bit above its highest,
        # which lists the keys in the order of ``itertools.combinations``.
        keys, layer = [0], [0]
        for _ in range(1, self.width):
            layer = [key | bit for key in layer for bit in bits if bit > key]
            keys += layer
        got = self._keys[mask] = tuple(keys)
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


def _iw_goal_stream(
    memo: TransitionMemo,
    novelty: NoveltyConfig,
    budget: Budget,
    stats: SearchStats,
    reject: Callable[[_Node], bool],
) -> Iterator[_Node]:
    """Yield every kept goal node, running widths 1..max_width in turn.

    ``memo`` is the run's memo, whose masks the novelty test reads.
    ``reject`` implements condition (b); rejected goal nodes are pruned
    entirely, leaving their visited keys unrecorded so that other routes to
    the same state stay open.

    A goal node is yielded before its visited key, novelty summary and queue
    entry are recorded, and ``reject`` is asked again on resume. A caller
    that has forbidden the node's behaviour (or plan) in between thus sees
    it pruned exactly as a restart under the larger forbidden set would
    prune it, and the stream goes on where a restart would arrive.
    """
    trace_local = novelty.scope is NoveltyScope.TRACE_LOCAL
    goal_bits = memo.goal_bits
    for width in range(1, novelty.max_width + 1):
        started = time.perf_counter()
        try:
            state, goal, mask = memo.initial
            table = NoveltyTable(width, novelty.scope)
            root = _Node(state, 0, goal, mask & goal_bits, None, None, table.record({}, mask))
            visited = {mask | root.latched}
            queue = deque([root])
            if goal and not reject(root):
                yield root
            while queue:
                budget.check_time()
                node = queue.popleft()
                stats.nodes_expanded += 1
                for action in memo.applicable(node.state):
                    budget.spend_node()
                    stats.nodes_generated += 1
                    state, goal, mask = memo.step(node.state, action)
                    if not table.is_novel(mask, node.summary):
                        stats.pruned_by_novelty += 1
                        continue
                    latched = node.latched | (mask & goal_bits)
                    cost = node.cost + action.cost
                    child = _Node(state, cost, goal, latched, node, action.name, node.summary)
                    if reject(child):
                        stats.pruned_by_behaviour += 1
                        continue
                    key = mask | latched  # latches tell same-raw states' goal histories apart
                    if key in visited:
                        stats.pruned_by_visited += 1
                        continue
                    if child.cost > budget.cost_bound:
                        stats.pruned_by_cost += 1
                        continue
                    if goal:
                        yield child
                        if reject(child):
                            stats.pruned_by_behaviour += 1
                            continue
                    visited.add(key)
                    if trace_local:
                        child.summary = table.record(dict(node.summary), mask)
                    queue.append(child)
        finally:
            elapsed = time.perf_counter() - started
            stats.wall_time_by_width[width] = stats.wall_time_by_width.get(width, 0.0) + elapsed


class _BehaviourRule:
    """Condition (b) of phase 1, against a forbidden set that grows.

    Goal nodes are checked against the forbidden set. With interior pruning
    on and no cost dimension in the space, an interior node within the cost
    bound whose goals have all latched is dropped when its goal order is the
    goal order of a forbidden behaviour with at least two groups: latched
    goals stay latched, so every goal reachable from it would repeat that
    order. (The behaviour's formula has this latch-monotone shape exactly
    when it has two or more groups; a one-group behaviour is never pruned
    inside the tree.)

    ``passed`` holds the goal orders of the all-latched interior nodes that
    ``reject`` let through. Forbidding a behaviour whose order is among them
    would have pruned such a node, so only a fresh stream matches a restart.
    """

    def __init__(
        self, memo: TransitionMemo, space: BehaviourSpace, cost_bound: int, interior_pruning: bool
    ):
        self.memo = memo
        self.space = space
        self.order_feature = space.order_feature
        self.interior = (
            interior_pruning and space.cost_feature is None and self.order_feature is not None
        )
        self.cost_bound = cost_bound
        self.forbidden: set = set()
        self.interior_orders: set = set()
        self.passed: set = set()

    def reject(self, node: _Node) -> bool:
        if node.goal:
            return behaviour_of(self.space, node_states(self.memo, node)) in self.forbidden
        if not self.interior:
            return False
        if node.cost > self.cost_bound:
            return False  # condition (d) will drop it anyway
        if node.latched != self.memo.goal_bits:
            return False
        order = latch_groups(node_states(self.memo, node), self.order_feature.goals)
        if order in self.interior_orders:
            return True
        self.passed.add(order)
        return False

    def forbid(self, behaviour: Behaviour) -> bool:
        """Forbid ``behaviour``; True when a stream resumed past it could
        differ from a restart and must be replaced by a fresh one."""
        self.forbidden.add(behaviour)
        order = behaviour.goal_order
        if not self.interior or len(order or ()) < 2:
            return False
        self.interior_orders.add(order)
        return order in self.passed


def _behaviour_stream(
    memo: TransitionMemo,
    space: BehaviourSpace,
    forbidden,
    novelty: NoveltyConfig,
    budget: Budget,
    stats: SearchStats,
    interior_pruning: bool,
) -> Iterator[tuple]:
    """Yield ``(plan, behaviour)`` pairs with behaviours outside ``forbidden``,
    each one forbidden as the caller resumes, until none is reachable.

    One IW stream serves every behaviour. When a forbidden order would have
    pruned an interior node the stream already kept, the stream is closed
    and a fresh one starts under the whole forbidden set
    (``stats.restarts``).
    """
    rule = _BehaviourRule(memo, space, budget.cost_bound, interior_pruning)
    for behaviour in forbidden:
        rule.forbid(behaviour)
    while True:
        stream = _iw_goal_stream(memo, novelty, budget, stats, rule.reject)
        with closing(stream):
            for node in stream:
                behaviour = behaviour_of(space, node_states(memo, node))
                yield node_plan(node), behaviour
                if rule.forbid(behaviour):
                    break
            else:
                return
        stats.restarts += 1
        rule.passed.clear()


def _plan_stream(
    memo: TransitionMemo,
    known,
    novelty: NoveltyConfig,
    budget: Budget,
    stats: SearchStats,
) -> Iterator[_Node]:
    """Yield the goal nodes of plans outside ``known``, each plan known as
    the caller resumes, from one IW stream.

    Known plans all end in goal states, so by determinism only goal nodes
    can ever collide with one; interior nodes skip the comparison.
    """
    known = {tuple(p) for p in known}

    def reject(node: _Node) -> bool:
        return node.goal and node_plan(node) in known

    with closing(_iw_goal_stream(memo, novelty, budget, stats, reject)) as stream:
        for node in stream:
            yield node
            known.add(node_plan(node))


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

    Returns ``(plan, behaviour, stats)``. This is the first pair of the
    phase-1 stream that ``fbi`` runs; ``_BehaviourRule`` says which nodes
    ``interior_pruning`` drops. The call searches over a memo of its own,
    within the cost bound of ``budget``, by default ``Budget(limits, space)``.
    """
    budget = budget if budget is not None else Budget(limits, space)
    stats = stats if stats is not None else SearchStats()
    memo = TransitionMemo(problem, stats)
    stream = _behaviour_stream(memo, space, forbidden, novelty, budget, stats, interior_pruning)
    with closing(stream):
        for plan, behaviour in stream:
            return plan, behaviour, stats
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

    Returns ``(plan, stats)`` or None: the first plan of the phase-2 stream
    that ``fbi`` runs, over a memo of its own.
    """
    budget = budget if budget is not None else Budget(limits)
    stats = stats if stats is not None else SearchStats()
    memo = TransitionMemo(problem, stats)
    with closing(_plan_stream(memo, known, novelty, budget, stats)) as stream:
        for node in stream:
            return node_plan(node), stats
    return None


def _top_k(
    problem: SimulatorProblem,
    space: Optional[BehaviourSpace],
    k: int,
    limits: SearchLimits,
    pairs: Callable[..., Iterator[tuple]],
) -> PlanSetResult:
    """The first ``k`` pairs of ``pairs(memo, budget, stats)`` as a result.

    ``pairs`` yields ``(plan, behaviour)``, with None for no behaviour, over
    the run's ``TransitionMemo``, within ``Budget(limits, space)``. On a
    budget trip the partial result rides on the raised ``BudgetExceeded``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    budget = Budget(limits, space)
    stats = SearchStats()
    started = time.perf_counter()
    memo = TransitionMemo(problem, stats)
    plans: list = []
    behaviours: list = []

    def result(exhausted: bool) -> PlanSetResult:
        stats.wall_time_s = time.perf_counter() - started
        return PlanSetResult(tuple(plans), tuple(behaviours), stats, exhausted)

    try:
        with closing(pairs(memo, budget, stats)) as stream:
            for plan, behaviour in itertools.islice(stream, k):
                plans.append(plan)
                if behaviour is not None:
                    behaviours.append(behaviour)
    except BudgetExceeded as err:
        err.partial = result(False)
        raise
    return result(len(plans) < k)


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
    exact plan sequences instead. Each phase resumes one IW stream after
    every plan rather than restarting the search, with the plans and order
    a restart per plan would give. Every behaviour is read off the states of
    the goal node the stream yields; no plan is replayed. The search runs
    under the smaller of ``limits.cost_bound`` and the space's cost bound.
    On a budget trip the partial result rides on the raised
    ``BudgetExceeded``. Both phases share one ``TransitionMemo``.
    """

    def pairs(memo, budget, stats):
        phase_one = _behaviour_stream(memo, space, (), novelty, budget, stats, interior_pruning)
        plans = []
        with closing(phase_one):
            for plan, behaviour in phase_one:
                plans.append(plan)
                yield plan, behaviour
        with closing(_plan_stream(memo, plans, novelty, budget, stats)) as phase_two:
            for node in phase_two:
                yield node_plan(node), behaviour_of(space, node_states(memo, node))

    return _top_k(problem, space, k, limits, pairs)


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
    until k plans, exhaustion, or a budget trip. ``space``, when given,
    caps the search's cost bound at its own, as in ``fbi``, and gives each
    plan the behaviour read off its goal node; otherwise it does not steer
    the search. Without it the result holds no behaviours.
    """

    def pairs(memo, budget, stats):
        seen = set()
        stream = _iw_goal_stream(memo, novelty, budget, stats, lambda node: False)
        with closing(stream):
            for node in stream:
                plan = node_plan(node)
                if plan in seen:
                    continue
                seen.add(plan)
                behaviour = None if space is None else behaviour_of(space, node_states(memo, node))
                yield plan, behaviour

    return _top_k(problem, space, k, limits, pairs)
