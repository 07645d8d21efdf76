"""Simulator-facing planning model: predicates, states, actions, plans, traces.

A state is a plain frozenset of interned predicates. Everything the planner
derives from a trajectory (cost so far, goal flag, latched goal predicates)
lives in an augmentation layer on traces and search nodes, never inside the
simulator's raw state, so novelty pruning only ever sees raw predicates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import CostBoundExceeded, InapplicableAction, UnknownAction

GOAL_ATOM = "goal-state"
COST_ATOM_PREFIX = "cost-"
LATCH_ATOM_PREFIX = "first-"


class Predicate:
    """Interned boolean state variable.

    ``Predicate(name)`` always returns the same object for the same name, so
    equality and hashing are identity-based and cheap.
    """

    __slots__ = ("name",)

    _interned: dict[str, "Predicate"] = {}

    def __new__(cls, name: str) -> "Predicate":
        got = cls._interned.get(name)
        if got is None:
            got = super().__new__(cls)
            got.name = name
            cls._interned[name] = got
        return got

    def __reduce__(self):
        # Unpickling goes through __new__, so the copy is the interned object.
        return (Predicate, (self.name,))

    def __repr__(self) -> str:
        return self.name


State = frozenset  # frozenset[Predicate]; two states are equal iff their truth sets are
Plan = tuple  # tuple[str, ...] of action ids, applied left to right


def make_state(names: Iterable[str]) -> State:
    return frozenset(Predicate(n) for n in names)


@dataclass(frozen=True)
class Action:
    """Named action with a positive integer cost."""

    name: str
    cost: int = 1

    def __post_init__(self):
        if not isinstance(self.cost, int) or isinstance(self.cost, bool) or self.cost < 1:
            raise ValueError(f"action cost must be a positive integer, got {self.cost!r}")


@dataclass(frozen=True)
class AugmentedState:
    """One trace position: the raw state plus derived bookkeeping.

    ``latched`` holds every goal predicate that has been true at this position
    or any earlier one; it never shrinks along a trace even when the simulator
    undoes a goal predicate.
    """

    raw: State
    cost_so_far: int
    goal_flag: bool
    latched: frozenset


@dataclass(frozen=True)
class Trace:
    """States visited by a plan; states[0] is the initial state."""

    states: tuple
    plan: Plan


class SimulatorProblem(ABC):
    """Capability contract a domain must provide to the planner.

    ``actions`` is the full declared universe in declaration order, and
    ``applicable`` must preserve that order, which is what makes breadth-first
    tie-breaking reproducible. ``simulate`` must be deterministic and total on
    applicable actions. Planner runs memoise ``applicable``, ``simulate`` and
    ``is_goal`` (see ``TransitionMemo``), so all three must be pure functions
    of the state.
    """

    @property
    @abstractmethod
    def initial(self) -> State: ...

    @property
    @abstractmethod
    def actions(self) -> tuple: ...

    @abstractmethod
    def applicable(self, state: State) -> tuple: ...

    @abstractmethod
    def simulate(self, state: State, action: Action) -> State: ...

    @abstractmethod
    def is_goal(self, state: State) -> bool: ...

    @property
    @abstractmethod
    def goal_predicates(self) -> tuple: ...

    @cached_property
    def goal_set(self) -> frozenset:
        return frozenset(self.goal_predicates)

    @cached_property
    def _actions_by_name(self) -> dict:
        return {a.name: a for a in self.actions}

    def action_named(self, name: str) -> Action:
        try:
            return self._actions_by_name[name]
        except KeyError:
            raise UnknownAction(name) from None

    def step(self, state: State, action: Action) -> tuple:
        """``(successor, its goal flag, the goal predicates true in it)``."""
        raw = self.simulate(state, action)
        return raw, self.is_goal(raw), self.goal_set & raw


def initial_augmented(problem: SimulatorProblem) -> AugmentedState:
    raw = problem.initial
    return AugmentedState(raw, 0, problem.is_goal(raw), problem.goal_set & raw)


def successor_augmented(
    problem: SimulatorProblem, aug: AugmentedState, action: Action
) -> AugmentedState:
    raw, goal, reached = problem.step(aug.raw, action)
    # Reusing the parent's latch set when nothing new latched saves a copy per node.
    latched = aug.latched if reached <= aug.latched else aug.latched | reached
    return AugmentedState(raw, aug.cost_so_far + action.cost, goal, latched)


# Most entries one TransitionMemo holds, over all its tables.
MEMO_CAP = 200_000


class TransitionMemo(SimulatorProblem):
    """A problem whose transitions are memoised for one planner run.

    Answers ``applicable``, ``step``, ``simulate`` and ``is_goal`` from
    tables keyed by state and asks the wrapped problem only on a miss; the
    contract makes those pure functions of the state, so the answers are
    exact. Every state the problem returns is interned: the tables share one
    copy of it, stored with its goal flag, its goal predicates and its atom
    bitmask. Once the tables hold ``MEMO_CAP`` entries, misses are still
    answered but no longer stored.

    The bitmask (``mask``) sets one bit per predicate of the state. Bits are
    dense ids the memo gives predicates in first-seen order, so a mask means
    the same thing for the whole run and nothing outside it. The id table
    has one entry per distinct predicate, which the problem bounds, and is
    not capped: a mask must not change meaning mid-run.

    Each real ``simulate`` call and each memo hit is counted into
    ``stats.simulate_calls`` and ``stats.memo_hits``.
    """

    def __init__(self, problem: SimulatorProblem, stats):
        self.problem = problem
        self.stats = stats
        self._applicable: dict = {}  # state -> applicable actions
        self._steps: dict = {}  # (state, action name) -> step answer of the successor
        # state -> ((interned state, goal flag, goal predicates), mask)
        self._states: dict = {}
        self._bits: dict = {}  # predicate -> its bit in every mask of this run
        self._initial = self._info(problem.initial)[0][0]

    def __len__(self) -> int:
        return len(self._applicable) + len(self._steps) + len(self._states)

    @property
    def initial(self) -> State:
        return self._initial

    @property
    def actions(self) -> tuple:
        return self.problem.actions

    @property
    def goal_predicates(self) -> tuple:
        return self.problem.goal_predicates

    def _info(self, state: State) -> tuple:
        info = self._states.get(state)
        if info is None:
            answer = (state, self.problem.is_goal(state), self.goal_set & state)
            info = (answer, self._mask(state))
            if len(self) < MEMO_CAP:
                self._states[state] = info
        return info

    def _mask(self, state: State) -> int:
        bits = self._bits
        mask = 0
        for pred in state:
            bit = bits.get(pred)
            if bit is None:
                bit = bits[pred] = 1 << len(bits)
            mask |= bit
        return mask

    def mask(self, state: State) -> int:
        """The state's atom bitmask: the OR of the bits of its predicates."""
        info = self._states.get(state)  # one lookup per generated node
        return (info or self._info(state))[1]

    def applicable(self, state: State) -> tuple:
        got = self._applicable.get(state)
        if got is None:
            got = self.problem.applicable(state)
            if len(self) < MEMO_CAP:
                self._applicable[state] = got
        return got

    def step(self, state: State, action: Action) -> tuple:
        key = (state, action.name)
        info = self._steps.get(key)
        if info is not None:
            self.stats.memo_hits += 1
            return info
        self.stats.simulate_calls += 1
        info = self._info(self.problem.simulate(state, action))[0]
        if len(self) < MEMO_CAP:
            self._steps[key] = info
        return info

    def simulate(self, state: State, action: Action) -> State:
        return self.step(state, action)[0]

    def is_goal(self, state: State) -> bool:
        return self._info(state)[0][1]


def replay(problem: SimulatorProblem, plan: Plan) -> Trace:
    """Apply a plan from the initial state, checking applicability at each step."""
    aug = initial_augmented(problem)
    states = [aug]
    for index, name in enumerate(plan):
        action = problem.action_named(name)
        if action not in problem.applicable(aug.raw):
            raise InapplicableAction(f"action {name!r} not applicable", index=index)
        aug = successor_augmented(problem, aug, action)
        states.append(aug)
    return Trace(tuple(states), tuple(plan))


def plan_cost(problem: SimulatorProblem, plan: Plan) -> int:
    return sum(problem.action_named(name).cost for name in plan)


def trace_view(trace: Trace, cost_bound: int) -> tuple:
    """Atom sets the temporal-logic layer evaluates over.

    Each position exposes the raw predicate names plus exactly one ``cost-X``
    atom, ``goal-state`` when the position is a goal, and one ``first-g`` atom
    per latched goal predicate.
    """
    views = []
    for aug in trace.states:
        if aug.cost_so_far > cost_bound:
            raise CostBoundExceeded(aug.cost_so_far, cost_bound)
        atoms = {p.name for p in aug.raw}
        atoms.add(f"{COST_ATOM_PREFIX}{aug.cost_so_far}")
        if aug.goal_flag:
            atoms.add(GOAL_ATOM)
        atoms.update(f"{LATCH_ATOM_PREFIX}{p.name}" for p in aug.latched)
        views.append(frozenset(atoms))
    return tuple(views)
