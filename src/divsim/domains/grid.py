"""Grid-world domain: walk a rectangular maze and visit every target cell.

Levels are ASCII: ``#`` wall, ``.`` floor, ``S`` start, ``T`` target. The
agent's position is the ``at-r-c`` predicate; entering a target latches a
``visited-r-c`` predicate that never disappears. All moves cost 1.
"""

from __future__ import annotations

from functools import cached_property

from ..core import Action, SimulatorProblem
from ..errors import InapplicableAction, LevelInvalid
from ..record import Record

_MOVES = (("up", -1, 0), ("down", 1, 0), ("left", 0, -1), ("right", 0, 1))


class GridWorld(Record):
    height: int
    width: int
    walls: frozenset
    start: tuple
    targets: tuple


def parse_grid(text: str) -> GridWorld:
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise LevelInvalid("empty grid")
    height = len(lines)
    width = max(len(line) for line in lines)
    walls = set()
    start = None
    targets = []
    for r, line in enumerate(lines):
        for c in range(width):
            ch = line[c] if c < len(line) else "#"
            if ch == "#" or ch == " ":
                walls.add((r, c))
            elif ch == "S":
                if start is not None:
                    raise LevelInvalid("more than one start cell")
                start = (r, c)
            elif ch == "T":
                targets.append((r, c))
            elif ch != ".":
                raise LevelInvalid(f"unknown grid character {ch!r} at row {r}, column {c}")
    if start is None:
        raise LevelInvalid("no start cell")
    if not targets:
        raise LevelInvalid("no target cells")
    return GridWorld(height, width, frozenset(walls), start, tuple(targets))


class GridProblem(SimulatorProblem):
    """Planner view of a world: a state is the int ``at-bit | visited``, the
    bit of the agent's open cell ORed with one bit per target cell it has
    entered.

    That int is also the state's atom mask. The problem numbers its atoms
    by the one rule of ``SimulatorProblem`` when it is built: target i's
    ``visited-*`` atom, goal predicate i, has bit i, and the open cells'
    ``at-*`` atoms, in row-major order, the bits above the targets'. So
    ``atom_mask`` returns the state itself, and ``atoms`` is
    ``mask_atoms`` of it. A state hashes and compares as one small int. As
    walls never move, the problem works out each open cell's moves once,
    keyed by its at-bit: the tuple of applicable actions, and for each move
    the at-bit of the cell it reaches ORed with that cell's target bit, so
    a step is one lookup and an OR.
    """

    def __init__(self, world: GridWorld):
        self.world = world
        self._target_bit = {(r, c): self.atom_bit(f"visited-{r}-{c}") for r, c in world.targets}
        self._all_visited = (1 << len(world.targets)) - 1
        self._at_bit = {  # open cell -> the bit of its at-* atom
            (r, c): self.atom_bit(f"at-{r}-{c}")
            for r in range(world.height)
            for c in range(world.width)
            if (r, c) not in world.walls
        }
        self._at_mask = sum(self._at_bit.values())
        self._cell_of = {bit: cell for cell, bit in self._at_bit.items()}
        self._applicable = {}  # at-bit -> the actions applicable there
        self._moves = {}  # at-bit -> {action name -> the bits its move sets}
        for (r, c), bit in self._at_bit.items():
            moves = {}
            for name, dr, dc in _MOVES:
                dest = r + dr, c + dc
                if dest in self._at_bit:
                    moves[name] = self._at_bit[dest] | self._target_bit.get(dest, 0)
            self._moves[bit] = moves
            self._applicable[bit] = tuple(a for a in self.actions if a.name in moves)

    @classmethod
    def from_text(cls, text: str) -> "GridProblem":
        return cls(parse_grid(text))

    @cached_property
    def initial(self) -> int:
        start = self.world.start
        return self._at_bit[start] | self._target_bit.get(start, 0)

    @cached_property
    def actions(self) -> tuple:
        return tuple(Action(name) for name, _, _ in _MOVES)

    @cached_property
    def goal_predicates(self) -> tuple:
        return tuple(f"visited-{r}-{c}" for r, c in self.world.targets)

    def applicable(self, state: int) -> tuple:
        return self._applicable[state & self._at_mask]

    def simulate(self, state: int, action: Action) -> int:
        at = state & self._at_mask
        sets = self._moves[at].get(action.name)
        if sets is None:
            raise InapplicableAction(f"cannot move {action.name} from {self._cell_of[at]}")
        return state & self._all_visited | sets

    def is_goal(self, state: int) -> bool:
        return state & self._all_visited == self._all_visited

    def atoms(self, state: int) -> frozenset:
        return self.mask_atoms(state)

    def atom_mask(self, state: int) -> int:
        return state
