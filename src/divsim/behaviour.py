"""Behaviour spaces: what makes two plans semantically different.

A behaviour space is a small set of feature dimensions. Two are supported:

* ``CostBound(c)``: plans are distinguished by their final cost (0..c)
* ``GoalOrder(goals)``: plans are distinguished by the order in which goal
  predicates are first achieved, as a sequence of simultaneity groups

A behaviour is the canonical value of a plan in that space, and it renders to
a finite-trace temporal formula that exactly the plans with that behaviour
satisfy (up to simultaneity, see ``behaviour_formula``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import ltl
from .core import (
    GOAL_ATOM,
    COST_ATOM_PREFIX,
    LATCH_ATOM_PREFIX,
    Plan,
    SimulatorProblem,
    replay,
)
from .errors import CostBoundExceeded, NotAGoalPlan


@dataclass(frozen=True)
class CostBound:
    """Cost feature: the space distinguishes final plan costs up to ``bound``."""

    bound: int

    def __post_init__(self):
        if not isinstance(self.bound, int) or self.bound < 1:
            raise ValueError(f"cost bound must be a positive integer, got {self.bound!r}")


@dataclass(frozen=True)
class GoalOrder:
    """Order feature over a non-empty, duplicate-free sequence of goal predicates."""

    goals: tuple

    def __post_init__(self):
        if not self.goals:
            raise ValueError("goal order feature needs at least one goal predicate")
        if len(set(self.goals)) != len(self.goals):
            raise ValueError("goal order feature predicates must be duplicate-free")


@dataclass(frozen=True)
class BehaviourSpace:
    features: tuple

    def __post_init__(self):
        if not self.features:
            raise ValueError("a behaviour space needs at least one feature")
        kinds = [type(f) for f in self.features]
        if len(set(kinds)) != len(kinds):
            raise ValueError("at most one feature of each kind")
        for f in self.features:
            if not isinstance(f, (CostBound, GoalOrder)):
                raise ValueError(f"unknown feature: {f!r}")

    @property
    def cost_feature(self) -> Optional[CostBound]:
        for f in self.features:
            if isinstance(f, CostBound):
                return f
        return None

    @property
    def order_feature(self) -> Optional[GoalOrder]:
        for f in self.features:
            if isinstance(f, GoalOrder):
                return f
        return None


@dataclass(frozen=True)
class Behaviour:
    """Canonical plan value: optional final cost, optional ordered latch groups.

    ``goal_order`` is a tuple of frozensets of predicates in achievement
    order; goals achieved at the same trace position share a group. Equality
    is plain componentwise equality, which is what behaviour counting and
    forbidding rely on.
    """

    cost: Optional[int] = None
    goal_order: Optional[tuple] = None


def latch_groups(states: Sequence, goals: Sequence) -> tuple:
    """Group goal predicates by the trace position where each first latched.

    Goals that never latch are left out. Groups come back in achievement
    order; within a group the set is unordered.
    """
    first = {}
    remaining = set(goals)
    for i, aug in enumerate(states):
        if not remaining:
            break
        hit = remaining & aug.latched
        for g in hit:
            first[g] = i
        remaining -= hit
    by_position: dict = {}
    for g, i in first.items():
        by_position.setdefault(i, set()).add(g)
    return tuple(frozenset(by_position[i]) for i in sorted(by_position))


def extract_behaviour(space: BehaviourSpace, problem: SimulatorProblem, plan: Plan) -> Behaviour:
    """Behaviour of a goal-reaching plan; errors on non-goal or over-budget plans."""
    trace = replay(problem, plan)
    last = trace.states[-1]
    if not last.goal_flag:
        raise NotAGoalPlan(f"plan of length {len(plan)} does not end in a goal state")
    cost = None
    cf = space.cost_feature
    if cf is not None:
        if last.cost_so_far > cf.bound:
            raise CostBoundExceeded(last.cost_so_far, cf.bound)
        cost = last.cost_so_far
    order = None
    of = space.order_feature
    if of is not None:
        order = latch_groups(trace.states, of.goals)
    return Behaviour(cost, order)


def behaviour_formula(space: BehaviourSpace, behaviour: Behaviour) -> ltl.Formula:
    """Finite-trace formula characterizing the behaviour.

    The cost dimension contributes ``F G (cost-X & goal-state)``: once the
    final cost is reached at a goal state, both stay put. Each strictly
    ordered pair of goals contributes ``(!first-b U first-a)``; goals in the
    same group contribute nothing, so the empty conjunction is ``true``.
    """
    parts = []
    if space.cost_feature is not None and behaviour.cost is not None:
        parts.append(
            ltl.Eventually(
                ltl.Always(
                    ltl.conj(
                        [
                            ltl.Atom(f"{COST_ATOM_PREFIX}{behaviour.cost}"),
                            ltl.Atom(GOAL_ATOM),
                        ]
                    )
                )
            )
        )
    if space.order_feature is not None and behaviour.goal_order is not None:
        groups = behaviour.goal_order
        for earlier_at in range(len(groups)):
            for later_at in range(earlier_at + 1, len(groups)):
                for a in groups[earlier_at]:
                    for b in groups[later_at]:
                        parts.append(
                            ltl.Until(
                                ltl.Not(ltl.Atom(f"{LATCH_ATOM_PREFIX}{b.name}")),
                                ltl.Atom(f"{LATCH_ATOM_PREFIX}{a.name}"),
                            )
                        )
    return ltl.conj(parts)


def behaviour_count(space: BehaviourSpace, problem: SimulatorProblem, plans: Sequence) -> int:
    """Number of distinct behaviours among the given goal-reaching plans."""
    return len({extract_behaviour(space, problem, plan) for plan in plans})


def behaviour_to_json(behaviour: Behaviour) -> dict:
    """JSON form; groups are sorted lexicographically to keep output stable."""
    out: dict = {}
    if behaviour.cost is not None:
        out["cost"] = behaviour.cost
    if behaviour.goal_order is not None:
        out["goal_order"] = [sorted(p.name for p in group) for group in behaviour.goal_order]
    return out
