"""Simulator-facing planning model: atoms, states, actions, plans, traces.

An atom (a boolean state variable, or predicate) is a plain string. A state
is whatever hashable value the simulator keeps, opaque to the planner, and
``SimulatorProblem.atoms`` gives the frozenset of atoms true in it.
Everything the planner derives from a trajectory (cost so far, goal flag,
latched goal predicates) lives beside the simulator's raw state, never
inside it, so novelty pruning only ever sees raw atoms. At the API edge
(``replay``, behaviour extraction, the oracle) a trace position is an
``AugmentedState``. Inside a planner run the search keeps the same facts as
integers: the run's ``TransitionMemo`` interns each state and gives it an
atom bitmask, and latched goals are a mask of goal bits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable
from dataclasses import dataclass
from functools import cached_property

from .errors import CostBoundExceeded, InapplicableAction, UnknownAction

GOAL_ATOM = "goal-state"
COST_ATOM_PREFIX = "cost-"
LATCH_ATOM_PREFIX = "first-"

State = Hashable  # a simulator's own state; SimulatorProblem.atoms gives its true atoms
Plan = tuple  # tuple[str, ...] of action ids, applied left to right


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

    A state is opaque and hashable, and ``atoms`` gives the frozenset of
    atom strings true in it. Two states are equal iff their atoms are, so a
    state serves as a key wherever its atoms would. ``atoms`` must reuse
    one string object per distinct atom of the problem, and is a pure
    function of the state too; the default suits a domain whose states
    are already those frozensets.
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

    def atoms(self, state: State) -> frozenset:
        """The atoms true in ``state``."""
        return state

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


def initial_augmented(problem: SimulatorProblem) -> AugmentedState:
    raw = problem.initial
    return AugmentedState(raw, 0, problem.is_goal(raw), problem.goal_set & problem.atoms(raw))


def successor_augmented(
    problem: SimulatorProblem, aug: AugmentedState, action: Action
) -> AugmentedState:
    raw = problem.simulate(aug.raw, action)
    reached = problem.goal_set & problem.atoms(raw)
    # Reusing the parent's latch set when nothing new latched saves a copy per node.
    latched = aug.latched if reached <= aug.latched else aug.latched | reached
    return AugmentedState(raw, aug.cost_so_far + action.cost, problem.is_goal(raw), latched)


# Most entries one TransitionMemo holds, over all its tables.
MEMO_CAP = 200_000


class TransitionMemo:
    """One planner run's table of transitions, in the integer form the search uses.

    ``step`` answers ``(successor, its goal flag, its atom bitmask)`` and
    ``applicable`` the applicable actions, from tables keyed by state; the
    wrapped problem is asked only on a miss. The contract makes those pure
    functions of the state, so the answers are exact. Every state the
    problem returns is interned: the tables share one copy of it, stored
    with its goal flag and mask, so the problem is asked for a state's goal
    flag and ``atoms`` once, when the memo first meets the state.
    ``initial`` is the same triple for the initial state. Once the tables
    hold ``MEMO_CAP`` entries, misses are still answered but no longer
    stored.

    A mask sets one bit per atom of the state. Bits are dense ids the memo
    gives atoms: the goal predicates first, in declaration order, so that
    ``goal_bits`` is their mask, then every other atom in first-seen order,
    which is set order and follows the string hash seed. A mask means the
    same thing for the whole run and nothing outside it. The id table has
    one entry per distinct atom, which the problem bounds, and is not
    capped: a mask must not change meaning mid-run.

    Each real ``simulate`` call and each memo hit is counted into
    ``stats.simulate_calls`` and ``stats.memo_hits``.
    """

    def __init__(self, problem: SimulatorProblem, stats):
        self.problem = problem
        self.stats = stats
        self._applicable: dict = {}  # state -> applicable actions
        self._steps: dict = {}  # (state, action name) -> (successor, goal flag, mask)
        self._states: dict = {}  # state -> (interned state, goal flag, mask)
        self._bits: dict = {}  # atom -> its bit in every mask of this run
        self._size = 0  # entries stored over the three tables
        self.goal_bits = self._mask(problem.goal_predicates)
        self.initial = self._info(problem.initial)

    def __len__(self) -> int:
        return self._size

    def _info(self, state: State) -> tuple:
        info = self._states.get(state)
        if info is None:
            problem = self.problem
            info = (state, problem.is_goal(state), self._mask(problem.atoms(state)))
            if self._size < MEMO_CAP:
                self._states[state] = info
                self._size += 1
        return info

    def _mask(self, atoms) -> int:
        bits = self._bits
        mask = 0
        for pred in atoms:
            bit = bits.get(pred)
            if bit is None:
                bit = bits[pred] = 1 << len(bits)
            mask |= bit
        return mask

    def goals(self, mask: int) -> frozenset:
        """The goal predicates whose bits ``mask`` sets."""
        bits = self._bits
        return frozenset(g for g in self.problem.goal_set if bits[g] & mask)

    def applicable(self, state: State) -> tuple:
        got = self._applicable.get(state)
        if got is None:
            got = self.problem.applicable(state)
            if self._size < MEMO_CAP:
                self._applicable[state] = got
                self._size += 1
        return got

    def step(self, state: State, action: Action) -> tuple:
        """``(successor, its goal flag, its mask)`` of ``action`` in ``state``."""
        key = (state, action.name)
        info = self._steps.get(key)
        if info is not None:
            self.stats.memo_hits += 1
            return info
        self.stats.simulate_calls += 1
        info = self._info(self.problem.simulate(state, action))
        if self._size < MEMO_CAP:
            self._steps[key] = info
            self._size += 1
        return info


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


def trace_view(problem: SimulatorProblem, trace: Trace, cost_bound: int) -> tuple:
    """Atom sets the temporal-logic layer evaluates over.

    Each position exposes the atoms of its raw state plus exactly one
    ``cost-X`` atom, ``goal-state`` when the position is a goal, and one
    ``first-g`` atom per latched goal predicate.
    """
    views = []
    for aug in trace.states:
        if aug.cost_so_far > cost_bound:
            raise CostBoundExceeded(aug.cost_so_far, cost_bound)
        atoms = set(problem.atoms(aug.raw))
        atoms.add(f"{COST_ATOM_PREFIX}{aug.cost_so_far}")
        if aug.goal_flag:
            atoms.add(GOAL_ATOM)
        atoms.update(f"{LATCH_ATOM_PREFIX}{p}" for p in aug.latched)
        views.append(frozenset(atoms))
    return tuple(views)
