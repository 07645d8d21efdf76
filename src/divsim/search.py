"""Width-based search with behaviour and plan forbidding.

The core loop, ``_iw_goal_stream``, is a breadth-first search per width
i = 1..max_width that keeps a successor only if, tested in this order,

(a) it is novel at width i,
(c) its visited key (raw truths plus latched goals) is unseen this iteration,
(d) its cost does not exceed the cost bound,
(b) its key, its behaviour (or, in plan-forbidding mode, its plan), is not
    forbidden. The stream yields each goal node that passes (a), (c) and
    (d), the planner decides (b) on it, and the stream drops it on resume:
    a goal node is a leaf, save in ``fbi_naive``. With interior pruning on
    and no cost feature, the stream also asks the planner about each
    interior node whose goals have all latched, as every goal node below
    one has its goal order and so its behaviour.

A width whose search pruned no node by (a) ends the sweep; no higher
width can add a plan. This is exact for every caller of the stream:

- At width i+1, a node that passes novelty at width i also passes, given
  the same history: its new tuple of size at most i also counts at width
  i+1. This holds in both scopes.
- So, if width i pruned nothing, width i+1 keeps the same nodes in the
  same order, as long as the answers of (c), (d) and (b) agree. Those of
  (c) and (d) agree because they do not depend on the width.
- Those of (b) agree too. Goal nodes do not shape the tree: ``fbi``
  queues none but the root, whatever its answer, and ``fbi_naive``
  queues every one. An interior node dropped at width i still has a
  forbidden key at width i+1. An interior node let through at width i has
  a key that no later yield forbade, or the stream would have restarted.
- Every goal node of width i+1 was met at width i, so its behaviour or
  plan is already forbidden, and its plan already met: ``fbi`` takes
  nothing from width i+1, and ``fbi_naive`` finds there only plans it
  has.

Nodes hold the run memo's record of their state, and both tests above
read its atom mask. A behaviour is read off the latched goal masks along
its node's path; no ``AugmentedState`` is built (``node_states``, which
the benchmark's tracer rebinds by name, converts a path back). In trace
scope a node's novelty summary is built when the node is expanded and
dropped when the expansion ends; its queued children carry it until they
are expanded in turn.

Each planner filters the one stream itself. ``fbi`` first forbids
behaviours until the space is exhausted, then falls back to forbidding
whole plans to fill the requested count. ``behaviour_generator`` and
``plan_generator`` return the first goal node whose behaviour, or plan, is
new, and ``fbi_naive`` skips plans it has. Each ``fbi`` phase resumes one
search rather than restarting it for every plan, and finds the plans, in
the same order, that a restart per plan would find (``_iw_goal_stream``
gives the argument). Every behaviour is read off the goal node that ends
its plan; no plan is replayed. Unless phase 1 dropped an interior node,
phase 2 reads its plans off phase 1's search instead of searching again
(see ``fbi``). ``fbi`` and ``fbi_naive`` share one top-k runner,
``_top_k``.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import closing
from enum import Enum
from typing import Callable, Iterator, Optional

from .behaviour import Behaviour, BehaviourSpace
from .core import AugmentedState, Plan, SimulatorProblem, TransitionMemo
from .errors import BudgetExceeded
from .record import MutableRecord, Record, check_int, set_field

# Not called by the search: perfbench/tracing.py rebinds these names to count calls.
# ``evaluate`` and ``is_latch_monotone`` are read from ``ltl`` by ``__getattr__``,
# so ``ltl`` loads only when the tracer asks for them.
from .behaviour import behaviour_formula, latch_groups  # noqa: F401


def __getattr__(name):
    if name not in ("evaluate", "is_latch_monotone"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ltl

    return getattr(ltl, name)


class NoveltyScope(Enum):
    """What "seen before" means for the novelty test.

    TRACE_LOCAL compares a candidate against its own ancestor states only;
    GLOBAL compares against every state generated so far in the current width
    iteration.
    """

    TRACE_LOCAL = "trace"
    GLOBAL = "global"


def _check_k(k) -> None:
    check_int("k", k)
    if k < 1:
        raise ValueError("k must be at least 1")


class NoveltyConfig(Record):
    max_width: int = 2
    scope: NoveltyScope = NoveltyScope.TRACE_LOCAL

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        check_int("max_width", self.max_width)
        if self.max_width < 1:
            raise ValueError("max_width must be at least 1")
        if not isinstance(self.scope, NoveltyScope):
            raise ValueError(f"scope must be a NoveltyScope, got {self.scope!r}")


class SearchLimits(Record):
    cost_bound: int = 1000
    time_budget_s: float = 1800.0
    node_budget: int = 10_000_000

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        check_int("cost_bound", self.cost_bound)
        check_int("node_budget", self.node_budget)
        # ``not > 0`` also rejects a NaN budget, whose deadline would never trip.
        if self.cost_bound < 1 or not self.time_budget_s > 0 or self.node_budget < 1:
            raise ValueError("search limits must be positive")


class SearchStats(MutableRecord):
    """A run's counters, which the search updates in place."""

    nodes_expanded: int = 0
    nodes_generated: int = 0
    pruned_by_novelty: int = 0
    pruned_by_behaviour: int = 0
    pruned_by_visited: int = 0
    pruned_by_cost: int = 0
    simulate_calls: int = 0
    memo_hits: int = 0
    restarts: int = 0
    # Width -> seconds spent in it, keyed for every width begun; a width the
    # sweep never began, because a lower one pruned nothing, has no key.
    wall_time_by_width: dict = None  # None gives each instance a dict of its own
    wall_time_s: float = 0.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.wall_time_by_width is None:
            self.wall_time_by_width = {}

    def at(self, wall_time_s: float) -> "SearchStats":
        """A copy of these counts as they stand, with ``wall_time_s`` set.

        The fields are copied one by one, with no constructor run. Reading
        ``self.__dict__`` instead would give the live stats a dict object,
        which slows every counter update the search makes after it."""
        copy = object.__new__(SearchStats)
        for field, value in zip(self._fields, self._values(self)):
            set_field(copy, field, value)
        copy.wall_time_by_width = dict(self.wall_time_by_width)
        copy.wall_time_s = wall_time_s
        return copy

    def as_dict(self) -> dict:
        out = dict(zip(self._fields, self._astuple()))
        out["wall_time_by_width"] = {str(w): t for w, t in sorted(self.wall_time_by_width.items())}
        return out


class PlanSetResult(Record):
    """Outcome of a top-k run: plans with their behaviours, side by side.

    ``exhausted`` means the generators ran dry before reaching k; hitting a
    resource budget is not exhaustion and raises ``BudgetExceeded`` instead.
    ``stats_at[i]`` is the run's stats as they stood when plan i was found,
    its ``wall_time_s`` the time then; ``prefix`` reads smaller runs off them.
    """

    plans: tuple
    behaviours: tuple
    stats: SearchStats
    exhausted: bool
    stats_at: tuple = ()

    @property
    def behaviour_count(self) -> int:
        return len(set(self.behaviours))

    def prefix(self, k: int) -> "PlanSetResult":
        """The result the same run asked for ``k`` plans returns.

        Both planners are streams, so a k-run finds this run's first k
        plans and stops at the k-th; with fewer than k plans found, it ends
        as this run did. Only the time values differ: ``wall_time_s`` is
        the time at the k-th plan, and ``wall_time_by_width`` keys every
        width begun by then but holds the time of the widths ended by then;
        a width never begun has no key.
        A result whose ``stats_at`` lacks the k-th plan raises ValueError.
        """
        _check_k(k)
        if len(self.plans) < k:
            return self
        if len(self.stats_at) < k:
            raise ValueError(f"prefix({k}): this result holds no per-plan stats")
        return PlanSetResult(
            self.plans[:k], self.behaviours[:k], self.stats_at[k - 1], False, self.stats_at[:k]
        )


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
    """A trace position: the memo's ``record`` of its state, the path
    ``cost`` and ``latched``, the mask of the goals true here or before.

    ``summary`` is the novelty summary the node's children are tested
    against while it is expanded; before that it is its parent's, and once
    the expansion ends it is None (see ``NoveltyTable``)."""

    __slots__ = ("record", "cost", "latched", "parent", "action_name", "summary")

    def __init__(self, record, cost, latched, parent, action_name, summary):
        self.record = record
        self.cost = cost
        self.latched = latched
        self.parent = parent
        self.action_name = action_name
        self.summary = summary


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
        AugmentedState(n.record.state, n.cost, n.record.goal, memo.goals(n.latched))
        for n in _chain(node)
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


def _layers(bits, size: int):
    """The masks of the sets of at most ``size`` of the one-bit ints
    ``bits``, each once."""
    if size == 0:
        return (0,)
    keys = [0, *bits]
    if size > 1:
        # A set of the next size is one of this size plus a bit above its
        # highest; for a one-bit ``bit``, ``bit > key`` says exactly that.
        layer = bits = sorted(bits)
        for _ in range(1, size):
            layer = [key | bit for key in layer for bit in bits if bit > key]
            keys += layer
    return keys


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

    Only keys that hold an atom the step added need a look. The parent p of
    a candidate is already recorded in the summary the candidate meets: in
    TRACE_LOCAL scope that summary is p's own, in GLOBAL scope p was
    recorded when it passed the test, and the root is recorded before any
    child is tested. So every combination within p is seen, and a new one
    holds an added atom, one of ``m & ~p``. Take a new combination T and an
    added atom a in it. If T has two or more atoms, K = T minus some atom
    other than a holds a and shows T new. If T = {a}, a was never recorded:
    K = {a} shows it from width 2 on, and K = {} at width 1. So the test
    looks up only the keys within m of size below i that hold an added atom,
    or {} at width 1: one lookup per added atom at width 2, and none for a
    candidate that adds no atom, which is never novel. Keys are built on
    each call from the bits the run's memo keeps per state, so the table
    itself holds nothing per state.

    In TRACE_LOCAL scope a node's summary is a copy of its parent's with
    the node recorded. Only the node's own children are tested against it,
    so the search builds it when the node is popped for expansion and drops
    it when the expansion ends; a queued node carries its parent's. The
    parent is recorded before any child is tested, so the argument above
    holds. In GLOBAL scope one summary serves the whole width iteration,
    and a true result records the candidate in it as a side effect. Masks
    and bits must come from one run's ``TransitionMemo``.
    """

    def __init__(self, width: int, scope: NoveltyScope):
        self.width = width
        self.scope = scope

    def record(self, summary: dict, mask: int, bits: tuple) -> dict:
        """Record the state ``mask``, whose one-bit ints are ``bits``, in
        ``summary``, in place; return it."""
        for key in _layers(bits, self.width - 1):
            summary[key] = summary.get(key, 0) | mask
        return summary

    def is_novel(self, mask: int, bits: tuple, parent_mask: int, summary: dict) -> bool:
        """Whether the state ``mask``, whose one-bit ints are ``bits``, is
        novel as a child of the state ``parent_mask``, which ``summary``
        holds."""
        added = mask & ~parent_mask
        if self.width == 1:
            novel = bool(added) and summary.get(0, 0) & mask != mask
        else:
            # Each key that holds an added atom, once: its lowest added atom
            # ``low`` plus up to width - 2 other atoms of the state, none of
            # them an added atom at or below ``low``.
            others = _layers(bits, self.width - 2)
            novel = False
            done = 0
            while added and not novel:
                low = added & -added
                added ^= low
                done |= low
                for key in others:
                    if not key & done and summary.get(low | key, 0) & mask != mask:
                        novel = True
                        break
        if novel and self.scope is NoveltyScope.GLOBAL:
            self.record(summary, mask, bits)
        return novel


def _iw_goal_stream(
    memo: TransitionMemo,
    novelty: NoveltyConfig,
    budget: Budget,
    stats: SearchStats,
    *,
    drop: Optional[Callable[[_Node], bool]] = None,
    expand_goals: bool = False,
) -> Iterator[_Node]:
    """Yield every kept goal node, running widths 1..max_width in turn.

    ``memo`` is the run's memo, whose masks the novelty test reads. A goal
    node that passed every test but (b) is yielded before its visited key
    and queue entry are recorded. On resume the stream drops it, leaving
    its visited key unrecorded so that other routes to its state stay open
    (``pruned_by_behaviour``); with ``expand_goals`` it queues it instead.
    The root is always queued. ``drop`` is condition (b) on interior
    nodes: it is asked last, of each kept non-goal node whose goals have
    all latched, and a node it drops is pruned as a goal node is.

    A caller decides (b) on each goal node it is yielded: it skips one
    whose behaviour (or plan) it has forbidden, and may forbid that of one
    it takes before it resumes. A goal node is dropped either way, so the
    answer does not shape the tree, and a node ``drop`` dropped stays
    dropped as the forbidden set grows. The stream thus goes on where a
    restart under the larger forbidden set would arrive, and yields the
    same goal nodes in the same order. Only a node ``drop`` let through can
    tell the two apart, once its key is forbidden: ``fbi`` then restarts
    the stream. A node still queued when the stream closes never builds its
    own novelty summary.

    A width in which novelty pruned no node ends the stream: it was a plain
    breadth-first search, so the next width would generate the same nodes
    in the same order and yield no goal node whose key is not already
    forbidden (the module docstring gives the argument).
    """
    trace_local = novelty.scope is NoveltyScope.TRACE_LOCAL
    goal_bits = memo.goal_bits
    widths = stats.wall_time_by_width
    for width in range(1, novelty.max_width + 1):
        started = time.perf_counter()
        # Keyed now, so that stats copied at a plan hold every width begun.
        widths.setdefault(width, 0.0)
        pruned = False
        try:
            record = memo.initial
            table = NoveltyTable(width, novelty.scope)
            summary = {} if trace_local else table.record({}, record.mask, record.bits)
            root = _Node(record, 0, record.mask & goal_bits, None, None, summary)
            visited = {record.mask | root.latched}
            queue = deque([root])
            if record.goal:
                yield root
            while queue:
                budget.check_time()
                node = queue.popleft()
                stats.nodes_expanded += 1
                parent = node.record
                parent_mask = parent.mask
                if trace_local:
                    node.summary = table.record(dict(node.summary), parent_mask, parent.bits)
                summary = node.summary
                for index, action in enumerate(memo.applicable(parent)):
                    budget.spend_node()
                    stats.nodes_generated += 1
                    record = memo.step(parent, index)
                    mask = record.mask
                    if not table.is_novel(mask, record.bits, parent_mask, summary):
                        stats.pruned_by_novelty += 1
                        pruned = True
                        continue
                    latched = node.latched | (mask & goal_bits)
                    key = mask | latched  # latches tell same-raw states' goal histories apart
                    if key in visited:
                        stats.pruned_by_visited += 1
                        continue
                    cost = node.cost + action.cost
                    if cost > budget.cost_bound:
                        stats.pruned_by_cost += 1
                        continue
                    child = _Node(record, cost, latched, node, action.name, summary)
                    if record.goal:
                        yield child
                        if not expand_goals:
                            stats.pruned_by_behaviour += 1
                            continue
                    elif drop is not None and latched == goal_bits and drop(child):
                        stats.pruned_by_behaviour += 1
                        continue
                    visited.add(key)
                    queue.append(child)
                node.summary = None
        finally:
            widths[width] += time.perf_counter() - started
        if not pruned:
            return


def _behaviour_rule(memo: TransitionMemo, space: BehaviourSpace, interior_pruning: bool) -> tuple:
    """Phase 1's ``key_of``, and whether its interior pruning applies.

    A node's key is its behaviour, read off its path's ``latched`` masks
    without building any state: the node's cost, and one group for each
    step that latches order goals, the goals it adds. Each added mask maps
    to its goals through one dict per call. With no cost feature a
    behaviour is its goal order alone, and once every goal has latched
    that order is fixed: latched goals stay latched, so every goal node
    below has it. With ``interior_pruning`` on, such a node, whose latched
    mask is the memo's ``goal_bits``, is settled, and phase 1 drops it when
    its behaviour is forbidden.
    """
    order_feature = space.order_feature
    order_bits = 0 if order_feature is None else memo.goal_mask(order_feature.goals)
    with_cost = space.cost_feature is not None
    groups: dict = {}  # mask of the order goals a step latches -> those goals

    def key_of(node: _Node) -> Behaviour:
        cost = node.cost if with_cost else None
        if order_feature is None:
            return Behaviour(cost)
        order = []
        now = node.latched & order_bits
        while now:  # up the path until nothing is latched
            node = node.parent
            before = 0 if node is None else node.latched & order_bits
            if before != now:
                added = now & ~before
                group = groups.get(added)
                if group is None:
                    group = groups[added] = memo.goals(added)
                order.append(group)
                now = before
        order.reverse()
        return Behaviour(cost, tuple(order))

    return key_of, interior_pruning and not with_cost


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

    Returns ``(plan, behaviour, stats)``: the first goal node of the IW
    stream whose behaviour is not forbidden. With interior pruning
    (``_behaviour_rule``) the stream drops each settled interior node whose
    behaviour is forbidden. The call searches over a memo of its own,
    within the cost bound of ``budget``, by default ``Budget(limits, space)``.
    """
    budget = budget if budget is not None else Budget(limits, space)
    stats = stats if stats is not None else SearchStats()
    memo = TransitionMemo(problem, stats)
    key_of, interior = _behaviour_rule(memo, space, interior_pruning)
    drop = (lambda node: key_of(node) in forbidden) if interior else None
    with closing(_iw_goal_stream(memo, novelty, budget, stats, drop=drop)) as stream:
        for node in stream:
            behaviour = key_of(node)
            if behaviour not in forbidden:
                return node_plan(node), behaviour, stats
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

    Returns ``(plan, stats)`` or None: the first goal node of the IW stream
    whose plan is not known, searched over a memo of its own.
    """
    budget = budget if budget is not None else Budget(limits)
    stats = stats if stats is not None else SearchStats()
    memo = TransitionMemo(problem, stats)
    with closing(_iw_goal_stream(memo, novelty, budget, stats)) as stream:
        for node in stream:
            plan = node_plan(node)
            if plan not in known:
                return plan, stats
    return None


def _top_k(
    problem: SimulatorProblem,
    space: BehaviourSpace,
    k: int,
    limits: SearchLimits,
    pairs: Callable[..., Iterator[tuple]],
) -> PlanSetResult:
    """The first ``k`` pairs of ``pairs(memo, budget, stats)`` as a result.

    ``pairs`` yields ``(plan, behaviour)`` over the run's ``TransitionMemo``,
    within ``Budget(limits, space)``. The stats are copied at every plan
    (``PlanSetResult.stats_at``). On a budget trip the partial result rides
    on the raised ``BudgetExceeded``.
    """
    _check_k(k)
    budget = Budget(limits, space)
    stats = SearchStats()
    started = time.perf_counter()
    memo = TransitionMemo(problem, stats)
    plans: list = []
    behaviours: list = []
    stats_at: list = []

    def result(exhausted: bool) -> PlanSetResult:
        stats.wall_time_s = time.perf_counter() - started
        return PlanSetResult(tuple(plans), tuple(behaviours), stats, exhausted, tuple(stats_at))

    try:
        with closing(pairs(memo, budget, stats)) as stream:
            for plan, behaviour in itertools.islice(stream, k):
                stats_at.append(stats.at(time.perf_counter() - started))
                plans.append(plan)
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
    a restart per plan would give. Every behaviour is read off the goal
    node the stream yields; no plan is replayed. The search runs under the
    smaller of ``limits.cost_bound`` and the space's cost bound. On a budget
    trip the partial result rides on the raised ``BudgetExceeded``. Both
    phases share one ``TransitionMemo``.

    Phase 1 keeps the forbidden behaviours, and with interior pruning
    (``_behaviour_rule``) drops a settled interior node whose behaviour is
    forbidden. When it forbids the behaviour of a settled interior node it
    let through, a restart would have dropped that node, so it closes the
    stream and starts a fresh one (``stats.restarts``).

    While phase 1 drops no interior node, both phases generate the same
    nodes in the same order, as neither queues a goal node but the root.
    Phase 2 would yield the plans of the goal nodes phase 1 met, less the
    plans already held, so it reads them off phase 1. Phase 1 keeps the
    first k plans it meets; with m plans of its own, at least the k - m
    that phase 2 needs are new. Only a run whose phase 1 dropped a settled
    interior node searches again from the root, as a plain search may
    visit that node and so prune a goal node behind it that phase 1 met.
    No built-in domain has a non-goal node with every goal latched. A
    restart needs no check of its own: the restarted stream drops the
    forbidden node, or one before it, so the run dropped an interior node.
    """

    def pairs(memo, budget, stats):
        key_of, interior = _behaviour_rule(memo, space, interior_pruning)
        forbidden = set()
        passed = set()  # behaviours of the settled interior nodes let through
        held = set()  # the plans yielded
        met = {}  # plan -> goal node, for the first k plans phase 1 meets
        dropped = False  # whether phase 1 dropped an interior node

        def drop(node: _Node) -> bool:
            nonlocal dropped
            behaviour = key_of(node)
            if behaviour in forbidden:
                dropped = True
                return True
            passed.add(behaviour)
            return False

        while True:
            one = _iw_goal_stream(memo, novelty, budget, stats, drop=drop if interior else None)
            with closing(one):
                for node in one:
                    if len(met) < k:
                        met.setdefault(node_plan(node), node)
                    behaviour = key_of(node)
                    if behaviour not in forbidden:
                        forbidden.add(behaviour)
                        plan = node_plan(node)
                        held.add(plan)
                        yield plan, behaviour
                        if behaviour in passed:
                            break
                else:
                    break
            stats.restarts += 1
            passed.clear()
        # Phase 2 runs its own stream only if phase 1 dropped an interior node.
        with closing(_iw_goal_stream(memo, novelty, budget, stats)) as two:
            found = ((node_plan(node), node) for node in two) if dropped else met.items()
            for plan, node in found:
                if plan not in held:
                    held.add(plan)
                    yield plan, key_of(node)

    return _top_k(problem, space, k, limits, pairs)


def fbi_naive(
    problem: SimulatorProblem,
    k: int,
    novelty: NoveltyConfig = NoveltyConfig(),
    limits: SearchLimits = SearchLimits(),
    *,
    space: BehaviourSpace,
) -> PlanSetResult:
    """Top-k baseline: one IW stream, resumed after every plan.

    Every kept goal node contributes its plan (duplicates across widths are
    skipped) and is expanded like any other node; the stream resumes where
    it stopped until k plans, exhaustion, or a budget trip. ``space`` caps
    the search's cost bound at its own, as in ``fbi``, and gives each plan
    the behaviour read off its goal node; it does not steer the search.
    """

    def pairs(memo, budget, stats):
        key_of = _behaviour_rule(memo, space, False)[0]
        seen = set()
        with closing(_iw_goal_stream(memo, novelty, budget, stats, expand_goals=True)) as stream:
            for node in stream:
                plan = node_plan(node)
                if plan not in seen:
                    seen.add(plan)
                    yield plan, key_of(node)

    return _top_k(problem, space, k, limits, pairs)
