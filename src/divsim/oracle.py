"""Exhaustive behaviour enumeration for small instances.

The oracle walks action sequences breadth-first up to a length and cost cap,
with no novelty pruning, and collects the behaviour of every goal-reaching
plan. It keeps one run-wide set of the keys it has queued, where a path's
key is its last raw state, its cost so far and its goal order so far (the
``latch_groups`` of the order feature's goals). A child whose key is already
in the set is skipped. That is the search over the product of the simulator
with a small monitor, the cost plus the goal order, on which the behaviour
of every extension depends.

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

from .behaviour import BehaviourSpace, behaviour_of, latch_groups
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
    if cost_bound is None:
        cf = space.cost_feature
        cost_bound = math.inf if cf is None else cf.bound
    goals = space.order_feature.goals if space.order_feature is not None else ()

    def key(states):
        return states[-1].raw, states[-1].cost_so_far, latch_groups(states, goals)

    root = (initial_augmented(problem),)
    seen = {key(root)}
    found: dict = {}
    queue = deque([(root, ())])
    while queue:
        states, plan = queue.popleft()
        tip = states[-1]
        if tip.goal_flag:
            behaviour = behaviour_of(space, states)
            if behaviour not in found:
                found[behaviour] = plan
        if len(plan) == max_len:
            continue
        for action in problem.applicable(tip.raw):
            child = states + (successor_augmented(problem, tip, action),)
            child_key = key(child)
            if child[-1].cost_so_far > cost_bound or child_key in seen:
                continue
            if len(seen) == NODE_GUARD:
                raise OracleTooLarge(len(seen) + 1, NODE_GUARD)
            seen.add(child_key)
            queue.append((child, plan + (action.name,)))
    return found
