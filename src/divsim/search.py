"""Width-based search with behaviour and plan forbidding.

The core loop is a breadth-first search per width i = 1..max_width that keeps
a successor only if

(a) it is novel at width i,
(b) its key, its behaviour (or, in plan-forbidding mode, its plan), is not
    forbidden. Goal nodes are checked; with interior pruning on and no cost
    feature, so are interior nodes whose goals have all latched, as every
    goal node below one has its goal order and so its behaviour,
(c) its visited key (raw truths plus latched goals) is unseen this iteration,
(d) its cost does not exceed the cost bound.

Nodes hold the run memo's record of their state, and both tests above
read its atom mask. A behaviour is read off the latched goal masks along
its node's path; no ``AugmentedState`` is built (``node_states``, which
the benchmark's tracer rebinds by name, converts a path back). In trace
scope a node's novelty summary is built when the node is expanded and
dropped when the expansion ends; its queued children carry it until they
are expanded in turn.

A kept successor that is a goal state is yielded to the caller, which may
forbid its behaviour (or plan) before the search resumes. The top-level
planner first forbids behaviours until the space is exhausted, then falls back
to forbidding whole plans to fill the requested count. Both phases run one
forbid-and-resume loop, ``_forbidding_stream``, with the behaviour or the
plan as the key. Each phase resumes one search rather than restarting it for
every plan, and finds the plans, in the same order, that a restart per plan
would find. Every behaviour is read off the goal node that ends its plan;
no plan is replayed. Until a width meets its first keyed child, one that
is novel and is a goal or has every goal latched, no forbidden key can
act, so every stream of an ``fbi`` run searches that stretch alike. The
first stream keeps it as the width's ``_Prefix``, and every later one,
restarts and phase 2 included, starts the width there or skips a width
that met no keyed child. ``fbi`` and ``fbi_naive`` share one top-k runner,
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
from .behaviour import behaviour_formula, latch_groups  # noqa: F401
from .ltl import evaluate, is_latch_monotone  # noqa: F401


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
        width begun by then but holds the time of the widths ended by then.
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


class _Prefix:
    """A width's goal-free prefix: its IW iteration as it stands when the
    iteration first meets a keyed child.

    A child is keyed when it passes the novelty test and is a goal state or
    has every goal latched. Before the first keyed child no ``reject`` of
    ``_forbidding_stream`` can return True or record anything, and the
    visited, novelty and cost tests depend only on the run, so every stream
    of a run reaches this point with the same queue, visited keys and
    summaries. The prefix keeps them, with the node being expanded, the
    index of the action that made the keyed child, and the child itself, so
    that a later stream starts there instead of generating it all again.

    In trace scope a built summary never changes, so the queued nodes'
    summary references and the expansion's own summary are kept as they
    are; the ``summary`` fields that point at them are reassigned and
    cleared as the search goes on, and ``resume`` sets them back. In global
    scope the one summary of the iteration, which then holds the keyed
    child, is copied, and ``resume`` shares one fresh copy of it among every
    restored node. The nodes themselves are reused, so the streams that
    share a prefix must not be alive at once.
    """

    __slots__ = ("queue", "summaries", "visited", "summary", "node", "index", "child")

    def __init__(self, queue, visited, node: _Node, index: int, child: _Node, trace_local: bool):
        self.queue = tuple(queue)
        self.summaries = tuple(n.summary for n in queue) if trace_local else None
        self.visited = set(visited)
        self.summary = node.summary if trace_local else dict(node.summary)
        self.node = node
        self.index = index
        self.child = child

    def resume(self) -> tuple:
        """``(queue, visited, node, index, child)`` for a stream that starts
        here, with every restored node's summary set back."""
        if self.summaries is None:
            summary = dict(self.summary)
            summaries = itertools.repeat(summary)
        else:
            summary = self.summary
            summaries = self.summaries
        for node, own in zip(self.queue, summaries):
            node.summary = own
        self.node.summary = self.child.summary = summary
        return deque(self.queue), set(self.visited), self.node, self.index, self.child


def _iw_goal_stream(
    memo: TransitionMemo,
    novelty: NoveltyConfig,
    budget: Budget,
    stats: SearchStats,
    reject: Callable[[_Node], bool],
    prefixes: Optional[dict] = None,
) -> Iterator[_Node]:
    """Yield every kept goal node, running widths 1..max_width in turn.

    ``memo`` is the run's memo, whose masks the novelty test reads.
    ``reject`` implements condition (b); rejected goal nodes are pruned
    entirely, leaving their visited keys unrecorded so that other routes to
    the same state stay open.

    A goal node is yielded before its visited key and queue entry are
    recorded, and ``reject`` is asked again on resume. A caller that has
    forbidden the node's behaviour (or plan) in between thus sees it pruned
    exactly as a restart under the larger forbidden set would prune it, and
    the stream goes on where a restart would arrive. A node still queued
    when the stream closes never builds its own novelty summary.

    ``prefixes``, when given, holds the ``_Prefix`` of each width that a
    stream of the same run has already searched, or None for a width whose
    whole iteration met no keyed child and so yields nothing to any stream.
    A width starts from its prefix when there is one, is skipped when it is
    None, and otherwise starts from the root and records what it meets. A
    width whose root is a goal state is keyed at once and keeps no prefix.
    Only the nodes a stream generates itself are counted and charged to the
    budget.
    """
    trace_local = novelty.scope is NoveltyScope.TRACE_LOCAL
    goal_bits = memo.goal_bits
    widths = stats.wall_time_by_width
    for width in range(1, novelty.max_width + 1):
        prefix = () if prefixes is None else prefixes.get(width, ())  # () starts at the root
        if prefix is None:
            continue
        started = time.perf_counter()
        # Keyed now, so that stats copied at a plan hold every width begun.
        widths.setdefault(width, 0.0)
        try:
            table = NoveltyTable(width, novelty.scope)
            if prefix:
                queue, visited, node, start, pending = prefix.resume()
                keep = False
            else:
                record = memo.initial
                summary = {} if trace_local else table.record({}, record.mask, record.bits)
                root = _Node(record, 0, record.mask & goal_bits, None, None, summary)
                visited = {record.mask | root.latched}
                queue = deque([root])
                pending = None  # the keyed child a prefix resumes at
                keep = prefixes is not None and not record.goal
                if record.goal and not reject(root):
                    yield root
            while pending is not None or queue:
                if pending is None:
                    budget.check_time()
                    node = queue.popleft()
                    stats.nodes_expanded += 1
                    if trace_local:
                        own = node.record
                        node.summary = table.record(dict(node.summary), own.mask, own.bits)
                    start = 0
                parent = node.record
                parent_mask = parent.mask
                summary = node.summary
                actions = memo.applicable(parent)
                for index in range(start, len(actions)):
                    if pending is None:
                        budget.spend_node()
                        stats.nodes_generated += 1
                        record = memo.step(parent, index)
                        mask = record.mask
                        if not table.is_novel(mask, record.bits, parent_mask, summary):
                            stats.pruned_by_novelty += 1
                            continue
                        action = actions[index]
                        latched = node.latched | (mask & goal_bits)
                        cost = node.cost + action.cost
                        child = _Node(record, cost, latched, node, action.name, summary)
                        if keep and (record.goal or latched == goal_bits):
                            prefixes[width] = _Prefix(
                                queue, visited, node, index, child, trace_local
                            )
                            keep = False
                    else:
                        child, pending = pending, None
                        record, latched, cost = child.record, child.latched, child.cost
                        mask = record.mask
                    if reject(child):
                        stats.pruned_by_behaviour += 1
                        continue
                    key = mask | latched  # latches tell same-raw states' goal histories apart
                    if key in visited:
                        stats.pruned_by_visited += 1
                        continue
                    if cost > budget.cost_bound:
                        stats.pruned_by_cost += 1
                        continue
                    if record.goal:
                        yield child
                        if reject(child):
                            stats.pruned_by_behaviour += 1
                            continue
                    visited.add(key)
                    queue.append(child)
                node.summary = None
            if keep:
                prefixes[width] = None
        finally:
            widths[width] += time.perf_counter() - started


def _forbidding_stream(
    memo: TransitionMemo,
    novelty: NoveltyConfig,
    budget: Budget,
    stats: SearchStats,
    key_of: Callable[[_Node], object],
    forbidden,
    settled: Optional[int] = None,
    prefixes: Optional[dict] = None,
) -> Iterator[tuple]:
    """Yield ``(node, key_of(node))`` for each kept goal node whose key is
    not in ``forbidden``, and forbid the key as the caller resumes.

    Condition (b) drops a goal node whose key is forbidden, and an interior
    node within the cost bound that is settled, its latched goals the mask
    ``settled``, and whose key is forbidden. Every goal node below a
    settled node must have its key. One IW stream serves every key. When a
    newly forbidden key is that of a settled interior node the stream
    already let through, a restart would have dropped that node, so the
    stream is closed and a fresh one starts under the whole forbidden set
    (``stats.restarts``). ``prefixes`` goes to every IW stream started
    (see ``_iw_goal_stream``).
    """
    forbidden = set(forbidden)
    passed: set = set()  # keys of the settled interior nodes let through
    cost_bound = budget.cost_bound

    def reject(node: _Node) -> bool:
        if node.record.goal:
            return key_of(node) in forbidden
        # Over the bound, condition (d) drops the node, so it is not let through.
        if settled is None or node.latched != settled or node.cost > cost_bound:
            return False
        key = key_of(node)
        if key in forbidden:
            return True
        passed.add(key)
        return False

    while True:
        with closing(_iw_goal_stream(memo, novelty, budget, stats, reject, prefixes)) as stream:
            for node in stream:
                key = key_of(node)
                yield node, key
                forbidden.add(key)
                if key in passed:
                    break
            else:
                return
        stats.restarts += 1
        passed.clear()


def _behaviour_rule(memo: TransitionMemo, space: BehaviourSpace, interior_pruning: bool) -> tuple:
    """Phase 1's ``key_of`` and ``settled`` for ``_forbidding_stream``.

    A node's key is its behaviour, read off its path's ``latched`` masks
    without building any state: the node's cost, and one group for each
    step that latches order goals, the goals it adds. Each added mask maps
    to its goals through one dict per call. With no cost feature a
    behaviour is its goal order alone, and once every goal has latched
    that order is fixed: latched goals stay latched, so every goal node
    below has it. With ``interior_pruning`` on, such a node, whose latched
    mask is the memo's ``goal_bits``, is settled.
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

    settled = interior_pruning and space.cost_feature is None
    return key_of, (memo.goal_bits if settled else None)


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
    phase-1 stream that ``fbi`` runs; ``_behaviour_rule`` says which nodes
    ``interior_pruning`` drops. The call searches over a memo of its own,
    within the cost bound of ``budget``, by default ``Budget(limits, space)``.
    """
    budget = budget if budget is not None else Budget(limits, space)
    stats = stats if stats is not None else SearchStats()
    memo = TransitionMemo(problem, stats)
    key_of, settled = _behaviour_rule(memo, space, interior_pruning)
    stream = _forbidding_stream(memo, novelty, budget, stats, key_of, forbidden, settled)
    with closing(stream):
        for node, behaviour in stream:
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

    Returns ``(plan, stats)`` or None: the first plan of the phase-2 stream
    that ``fbi`` runs, over a memo of its own.
    """
    budget = budget if budget is not None else Budget(limits)
    stats = stats if stats is not None else SearchStats()
    memo = TransitionMemo(problem, stats)
    with closing(_forbidding_stream(memo, novelty, budget, stats, node_plan, known)) as stream:
        for _, plan in stream:
            return plan, stats
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
    the run's ``TransitionMemo``, within ``Budget(limits, space)``. The
    stats are copied at every plan (``PlanSetResult.stats_at``). On a
    budget trip the partial result rides on the raised ``BudgetExceeded``.
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
    a restart per plan would give, and every stream after the first starts
    each width from the goal-free prefix the first one kept. Every
    behaviour is read off the goal node the stream yields; no plan is
    replayed. The search runs under the smaller of ``limits.cost_bound``
    and the space's cost bound. On a budget trip the partial result rides
    on the raised ``BudgetExceeded``. Both phases share one
    ``TransitionMemo``.
    """

    def pairs(memo, budget, stats):
        key_of, settled = _behaviour_rule(memo, space, interior_pruning)
        plans = []
        # Every stream of the run, restarts and phase 2 included, starts each
        # width from its goal-free prefix. One stream closes before the next
        # starts, so no two streams share the prefix nodes at once.
        prefixes: dict = {}
        one = _forbidding_stream(memo, novelty, budget, stats, key_of, (), settled, prefixes)
        with closing(one):
            for node, behaviour in one:
                plans.append(node_plan(node))
                yield plans[-1], behaviour
        two = _forbidding_stream(memo, novelty, budget, stats, node_plan, plans, prefixes=prefixes)
        with closing(two):
            for node, plan in two:
                yield plan, key_of(node)

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
        key_of = None if space is None else _behaviour_rule(memo, space, False)[0]
        seen = set()
        stream = _iw_goal_stream(memo, novelty, budget, stats, lambda node: False)
        with closing(stream):
            for node in stream:
                plan = node_plan(node)
                if plan in seen:
                    continue
                seen.add(plan)
                yield plan, None if key_of is None else key_of(node)

    return _top_k(problem, space, k, limits, pairs)
