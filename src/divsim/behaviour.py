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

from typing import TYPE_CHECKING, Optional, Sequence

from .core import (
    GOAL_ATOM,
    COST_ATOM_PREFIX,
    LATCH_ATOM_PREFIX,
    Plan,
    SimulatorProblem,
    replay,
)
from .errors import CostBoundExceeded, NotAGoalPlan
from .record import Record, set_field

if TYPE_CHECKING:
    from . import ltl


class CostBound(Record):
    """Cost feature: the space distinguishes final plan costs up to ``bound``."""

    bound: int

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.bound, int) or isinstance(self.bound, bool) or self.bound < 1:
            raise ValueError(f"cost bound must be a positive integer, got {self.bound!r}")


class GoalOrder(Record):
    """Order feature over a non-empty, duplicate-free sequence of goal predicates."""

    goals: tuple

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.goals:
            raise ValueError("goal order feature needs at least one goal predicate")
        if len(set(self.goals)) != len(self.goals):
            raise ValueError("goal order feature predicates must be duplicate-free")


class BehaviourSpace(Record):
    features: tuple

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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


class Behaviour(Record):
    """Canonical plan value: optional final cost, optional ordered latch groups.

    ``goal_order`` is a tuple of frozensets of predicates in achievement
    order; goals achieved at the same trace position share a group. Equality
    is plain componentwise equality, which is what behaviour counting and
    forbidding rely on.
    """

    cost: Optional[int] = None
    goal_order: Optional[tuple] = None

    def __init__(self, cost: Optional[int] = None, goal_order: Optional[tuple] = None):
        # Spelled out, not left to ``Record``: the search builds one per goal node.
        set_field(self, "cost", cost)
        set_field(self, "goal_order", goal_order)


def latch_groups(states: Sequence, goals: Sequence) -> tuple:
    """Group goal predicates by the trace position where each first latched.

    Latched sets must only grow along the trace, as ``replay``, the search's
    ``node_states`` and the oracle build them. So each position's group is
    the goals its latched set adds to the one before it. Goals that never
    latch are left out, and positions that add none give no group. Groups
    come back in achievement order; within a group the set is unordered.
    """
    goals = frozenset(goals)
    groups = []
    before = frozenset()
    for aug in states:
        now = aug.latched & goals
        if now != before:
            groups.append(now - before)
            before = now
    return tuple(groups)


def behaviour_of(space: BehaviourSpace, states: Sequence) -> Behaviour:
    """Behaviour of a trace given as its augmented states, initial state first.

    The cost is the last state's and the order comes from ``latch_groups``.
    Nothing is checked: ``extract_behaviour`` is the checked entry for a plan.
    """
    cost = states[-1].cost_so_far if space.cost_feature is not None else None
    of = space.order_feature
    order = latch_groups(states, of.goals) if of is not None else None
    return Behaviour(cost, order)


def extract_behaviour(space: BehaviourSpace, problem: SimulatorProblem, plan: Plan) -> Behaviour:
    """Behaviour of a goal-reaching plan; errors on non-goal or over-budget plans."""
    trace = replay(problem, plan)
    last = trace.states[-1]
    if not last.goal_flag:
        raise NotAGoalPlan(f"plan of length {len(plan)} does not end in a goal state")
    cf = space.cost_feature
    if cf is not None and last.cost_so_far > cf.bound:
        raise CostBoundExceeded(last.cost_so_far, cf.bound)
    return behaviour_of(space, trace.states)


def behaviour_formula(space: BehaviourSpace, behaviour: Behaviour) -> ltl.Formula:
    """Finite-trace formula characterizing the behaviour.

    The cost dimension contributes ``F G (cost-X & goal-state)``: once the
    final cost is reached at a goal state, both stay put. Each strictly
    ordered pair of goals contributes ``(!first-b U first-a)``; goals in the
    same group contribute nothing, so the empty conjunction is ``true``.
    """
    from . import ltl

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
                                ltl.Not(ltl.Atom(f"{LATCH_ATOM_PREFIX}{b}")),
                                ltl.Atom(f"{LATCH_ATOM_PREFIX}{a}"),
                            )
                        )
    return ltl.conj(parts)


def behaviour_to_json(behaviour: Behaviour) -> dict:
    """JSON form; groups are sorted lexicographically to keep output stable."""
    out: dict = {}
    if behaviour.cost is not None:
        out["cost"] = behaviour.cost
    if behaviour.goal_order is not None:
        out["goal_order"] = [sorted(group) for group in behaviour.goal_order]
    return out
