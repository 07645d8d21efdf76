"""Exhaustive behaviour enumeration for small instances.

The oracle walks every action sequence up to a length and cost cap, with no
novelty pruning, and collects the behaviour of every goal-reaching plan. Its
only shortcut is skipping a child whose (state, cost) a sibling in the same
expansion already reached: the two trajectories are equal, so the second
cannot carry a new behaviour. That skips exactly the trajectories already
enumerated, since queued trajectories are distinct and so only a sibling
can repeat one.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from .behaviour import BehaviourSpace, behaviour_of
from .core import SimulatorProblem, initial_augmented, successor_augmented
from .errors import OracleTooLarge

NODE_GUARD = 10_000_000


def brute_force_behaviours(
    problem: SimulatorProblem,
    space: BehaviourSpace,
    max_len: int,
    cost_bound: Optional[int] = None,
) -> dict:
    """Every behaviour reachable by a plan of length <= max_len and cost <= bound.

    Returns ``{behaviour: witness_plan}`` with the breadth-first-shortest
    witness per behaviour. The default cost bound is the space's cost
    feature's bound, or none without one. Estimated work above
    ``NODE_GUARD`` nodes raises OracleTooLarge before searching.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    branching = len(problem.actions)
    estimate = 1
    # Multiply only until past the guard: the full power can be too large to
    # compute or print. One or no action never grows the estimate.
    for _ in range(max_len if branching > 1 else 0):
        estimate *= branching
        if estimate > NODE_GUARD:
            raise OracleTooLarge(estimate, NODE_GUARD, branching, max_len)
    if cost_bound is None:
        cf = space.cost_feature
        cost_bound = math.inf if cf is None else cf.bound

    found: dict = {}
    queue = deque([((initial_augmented(problem),), ())])
    while queue:
        states, plan = queue.popleft()
        tip = states[-1]
        if tip.goal_flag:
            behaviour = behaviour_of(space, states)
            if behaviour not in found:
                found[behaviour] = plan
        if len(plan) == max_len:
            continue
        reached = set()
        for action in problem.applicable(tip.raw):
            child = successor_augmented(problem, tip, action)
            key = (child.raw, child.cost_so_far)
            if child.cost_so_far > cost_bound or key in reached:
                continue
            reached.add(key)
            queue.append((states + (child,), plan + (action.name,)))
    return found
