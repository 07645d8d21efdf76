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
from functools import cached_property

from .errors import CostBoundExceeded, InapplicableAction, UnknownAction
from .record import Record, set_field

GOAL_ATOM = "goal-state"
COST_ATOM_PREFIX = "cost-"
LATCH_ATOM_PREFIX = "first-"

State = Hashable  # a simulator's own state; SimulatorProblem.atoms gives its true atoms
Plan = tuple  # tuple[str, ...] of action ids, applied left to right


class Action(Record):
    """Named action with a positive integer cost."""

    name: str
    cost: int = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.cost, int) or isinstance(self.cost, bool) or self.cost < 1:
            raise ValueError(f"action cost must be a positive integer, got {self.cost!r}")


class AugmentedState(Record):
    """One trace position: the raw state plus derived bookkeeping.

    ``latched`` holds every goal predicate that has been true at this position
    or any earlier one; it never shrinks along a trace even when the simulator
    undoes a goal predicate.
    """

    raw: State
    cost_so_far: int
    goal_flag: bool
    latched: frozenset

    def __init__(self, raw: State, cost_so_far: int, goal_flag: bool, latched: frozenset):
        # Spelled out, not left to ``Record``: the search builds one per trace position.
        set_field(self, "raw", raw)
        set_field(self, "cost_so_far", cost_so_far)
        set_field(self, "goal_flag", goal_flag)
        set_field(self, "latched", latched)


class Trace(Record):
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


# Most entries one TransitionMemo holds: its records plus their stored successors.
MEMO_CAP = 200_000


class StateRecord:
    """What one planner run knows of one state: the interned ``state``, its
    ``goal`` flag, its atom ``mask`` and ``bits``, and once it is expanded,
    its ``applicable`` actions and the ``successors`` of a prefix of them."""

    __slots__ = ("state", "goal", "mask", "bits", "applicable", "successors")

    def __init__(self, state: State, goal: bool, mask: int, bits: tuple):
        self.state = state
        self.goal = goal
        self.mask = mask
        self.bits = bits
        self.applicable = None
        self.successors = None


class TransitionMemo:
    """One planner run's table of transitions, in the integer form the search uses.

    The table holds one ``StateRecord`` per state the problem returns, so
    every state is interned: the problem is asked for a state's goal flag
    and ``atoms`` once, when the memo first meets the state, and for its
    ``applicable`` actions once, when it is first expanded. ``initial`` is
    the initial state's record. A record's ``successors`` list holds the
    successor records of its applicable actions in action order, filled as
    the search steps, so ``step(record, i)`` asks the problem to simulate
    only when ``i`` is past the list's end. A search expands a state's
    actions in order, so the list is always a prefix of them; a stream
    closed mid-expansion leaves a shorter prefix, which the next expansion
    extends. The contract makes these pure functions of the state, so the
    answers are exact. ``len(memo)`` counts records plus stored successors;
    once it reaches ``MEMO_CAP``, misses are still answered but no new
    record or successor is stored.

    A mask sets one bit per atom of the state, and the state's bits are
    those one-bit ints, one per atom, which the novelty test builds its keys
    from. Bits are dense ids the memo gives atoms: the goal predicates
    first, in declaration order, so that ``goal_bits`` is their mask, then
    every other atom in first-seen order, which is set order and follows the
    string hash seed. A mask means the same thing for the whole run and
    nothing outside it. The id table has one entry per distinct atom, which
    the problem bounds, and is not capped: a mask must not change meaning
    mid-run.

    Each real ``simulate`` call and each memo hit is counted into
    ``stats.simulate_calls`` and ``stats.memo_hits``.
    """

    def __init__(self, problem: SimulatorProblem, stats):
        self.problem = problem
        self.stats = stats
        self._records: dict = {}  # state -> its StateRecord
        self._ids: dict = {}  # atom -> its bit in every mask of this run
        self._size = 0  # records plus stored successors
        self.goal_bits = self._mask_and_bits(problem.goal_predicates)[0]
        self.initial = self._record(problem.initial)

    def __len__(self) -> int:
        return self._size

    def _record(self, state: State) -> StateRecord:
        record = self._records.get(state)
        if record is None:
            problem = self.problem
            record = StateRecord(
                state, problem.is_goal(state), *self._mask_and_bits(problem.atoms(state))
            )
            if self._size < MEMO_CAP:
                self._records[state] = record
                self._size += 1
        return record

    def _mask_and_bits(self, atoms) -> tuple:
        ids = self._ids
        mask = 0
        bits = []
        for pred in atoms:
            bit = ids.get(pred)
            if bit is None:
                bit = ids[pred] = 1 << len(ids)
            mask |= bit
            bits.append(bit)
        return mask, tuple(bits)

    def goals(self, mask: int) -> frozenset:
        """The goal predicates whose bits ``mask`` sets."""
        ids = self._ids
        return frozenset(g for g in self.problem.goal_set if ids[g] & mask)

    def goal_mask(self, goals) -> int:
        """The mask of those of ``goals`` that are goal predicates."""
        ids = self._ids
        return sum(ids[g] for g in self.problem.goal_set.intersection(goals))

    def applicable(self, record: StateRecord) -> tuple:
        """The actions applicable in ``record``'s state, in declaration order."""
        got = record.applicable
        if got is None:
            got = record.applicable = self.problem.applicable(record.state)
            record.successors = []
        return got

    def step(self, record: StateRecord, index: int) -> StateRecord:
        """The record of the state that action ``index`` of
        ``applicable(record)`` leads to from ``record``'s state."""
        successors = record.successors
        if index < len(successors):
            self.stats.memo_hits += 1
            return successors[index]
        self.stats.simulate_calls += 1
        got = self._record(self.problem.simulate(record.state, record.applicable[index]))
        if index == len(successors) and self._size < MEMO_CAP:
            successors.append(got)
            self._size += 1
        return got


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
