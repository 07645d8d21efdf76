"""Exhaustive behaviour enumeration for small instances.

The oracle walks every action sequence up to a length and cost cap, with no
novelty pruning, and collects the behaviour of every goal-reaching plan. Its
only shortcut is dropping a candidate whose whole (state, cost) trajectory
was already enumerated: a duplicate trajectory cannot carry a new behaviour.
"""

from __future__ import annotations

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
    feature's bound, or no effective bound without one. Estimated work above
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
        if cf is not None:
            cost_bound = cf.bound
        else:
            top = max((a.cost for a in problem.actions), default=1)
            cost_bound = max_len * top

    found: dict = {}
    root = initial_augmented(problem)
    root_key = ((root.raw, root.cost_so_far),)
    seen = {root_key}
    queue = deque([((root,), (), root_key)])
    while queue:
        states, plan, key = queue.popleft()
        tip = states[-1]
        if tip.goal_flag:
            behaviour = behaviour_of(space, states)
            if behaviour not in found:
                found[behaviour] = plan
        if len(plan) == max_len:
            continue
        for action in problem.applicable(tip.raw):
            child = successor_augmented(problem, tip, action)
            if child.cost_so_far > cost_bound:
                continue
            child_key = key + ((child.raw, child.cost_so_far),)
            if child_key in seen:
                continue
            seen.add(child_key)
            queue.append((states + (child,), plan + (action.name,), child_key))
    return found
