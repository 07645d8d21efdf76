"""Exhaustive behaviour enumeration for small instances.

The oracle walks action sequences breadth-first up to a length and cost cap,
with no novelty pruning, and collects the behaviour of every goal-reaching
plan. A queued path is its tip (its last augmented state), its goal order
so far and its plan, not its whole trace: the root's order is the
``latch_groups`` of its own latched goals, and a child's order is its
parent's plus one group, the order feature's goals it newly latched, when
there are any. The oracle keeps one run-wide set of the keys it has queued,
where a path's key is its tip's raw state, its cost so far and its goal
order so far. A child whose key is already in the set is skipped. That is
the search over the product of the simulator with a small monitor, the cost
plus the goal order, on which the behaviour of every extension depends.

Skipping a key's later visits loses no behaviour. What a path can still
reach depends only on its key and the length it has left, and breadth-first
order gives a key's first visit the most length left. Nor does it change a
witness: each extension of a skipped path has the same behaviour as the same
extension of the key's first path, which comes earlier in breadth-first
order. The set's size bounds the work, and ``NODE_GUARD`` bounds the set.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from .behaviour import Behaviour, BehaviourSpace, latch_groups
from .core import SimulatorProblem, initial_augmented, successor_augmented
from .errors import OracleTooLarge

NODE_GUARD = 1_000_000


def brute_force_behaviours(
    problem: SimulatorProblem,
    space: BehaviourSpace,
    max_len: int,
    cost_bound: Optional[int] = None,
) -> dict:
    """Every behaviour reachable by a plan of length <= max_len and cost <= bound.

    Returns ``{behaviour: witness_plan}`` with the first witness per
    behaviour in breadth-first order, so a shortest one. The default cost
    bound is the space's cost feature's bound, or none without one. Paths
    are deduplicated on (raw state, cost so far, goal order so far), the
    root's key included. The cost stays in the key without a cost feature,
    as the bound still cuts paths by it. Queuing more than ``NODE_GUARD``
    distinct keys raises OracleTooLarge.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    cf, of = space.cost_feature, space.order_feature
    if cost_bound is None:
        cost_bound = math.inf if cf is None else cf.bound
    goals = frozenset(of.goals) if of is not None else frozenset()

    def key(aug, order):
        return aug.raw, aug.cost_so_far, order

    root = initial_augmented(problem)
    order = latch_groups((root,), goals)
    seen = {key(root, order)}
    found: dict = {}
    queue = deque([(root, order, ())])
    while queue:
        tip, order, plan = queue.popleft()
        if tip.goal_flag:
            behaviour = Behaviour(
                tip.cost_so_far if cf is not None else None, order if of is not None else None
            )
            found.setdefault(behaviour, plan)
        if len(plan) == max_len:
            continue
        for action in problem.applicable(tip.raw):
            child = successor_augmented(problem, tip, action)
            latched = (child.latched - tip.latched) & goals
            child_order = order + (latched,) if latched else order
            child_key = key(child, child_order)
            if child.cost_so_far > cost_bound or child_key in seen:
                continue
            if len(seen) == NODE_GUARD:
                raise OracleTooLarge(len(seen) + 1, NODE_GUARD)
            seen.add(child_key)
            queue.append((child, child_order, plan + (action.name,)))
    return found
