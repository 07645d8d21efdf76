"""Grid-world domain: walk a rectangular maze and visit every target cell.

Levels are ASCII: ``#`` wall, ``.`` floor, ``S`` start, ``T`` target. The
agent's position is the ``at-r-c`` predicate; entering a target latches a
``visited-r-c`` predicate that never disappears. All moves cost 1.
"""

from __future__ import annotations

from functools import cached_property

from ..core import Action, SimulatorProblem, mask_bits
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
    """Planner view of a world: a state is ``(cell, visited)``, the agent's
    cell and an int with one bit per target cell it has entered, in target
    order.

    ``applicable`` and ``simulate`` look moves up in one table, made once,
    of the open cell each move reaches from each open cell. Target i's
    ``visited-*`` atom has bit i of an atom mask, and the open cells'
    ``at-*`` atoms the bits above the targets', so ``atom_mask`` is the
    cell's bit ORed with ``visited``; ``atoms`` reads the mask's bits off a
    table of atom strings the problem makes once.
    """

    def __init__(self, world: GridWorld):
        self.world = world
        self._target_bit = {cell: 1 << i for i, cell in enumerate(world.targets)}
        self._all_visited = (1 << len(world.targets)) - 1
        self._atom = {  # bit of an atom mask -> its atom
            bit: f"visited-{r}-{c}" for (r, c), bit in self._target_bit.items()
        }
        self._at_bit = {}  # open cell -> the bit of its at-* atom
        for r in range(world.height):
            for c in range(world.width):
                if (r, c) not in world.walls:
                    bit = self._at_bit[r, c] = 1 << len(self._atom)
                    self._atom[bit] = f"at-{r}-{c}"
        self._bit_of_atom = {atom: bit for bit, atom in self._atom.items()}
        self._moves = {  # (cell, action name) -> the open cell the move reaches
            ((r, c), name): (r + dr, c + dc)
            for r, c in self._at_bit
            for name, dr, dc in _MOVES
            if (r + dr, c + dc) in self._at_bit
        }

    @classmethod
    def from_text(cls, text: str) -> "GridProblem":
        return cls(parse_grid(text))

    @cached_property
    def initial(self) -> tuple:
        start = self.world.start
        return start, self._target_bit.get(start, 0)

    @cached_property
    def actions(self) -> tuple:
        return tuple(Action(name) for name, _, _ in _MOVES)

    @cached_property
    def goal_predicates(self) -> tuple:
        return tuple(self._atom[self._target_bit[cell]] for cell in self.world.targets)

    def applicable(self, state: tuple) -> tuple:
        cell = state[0]
        return tuple(a for a in self.actions if (cell, a.name) in self._moves)

    def simulate(self, state: tuple, action: Action) -> tuple:
        cell, visited = state
        dest = self._moves.get((cell, action.name))
        if dest is None:
            raise InapplicableAction(f"cannot move {action.name} from {cell}")
        return dest, visited | self._target_bit.get(dest, 0)

    def is_goal(self, state: tuple) -> bool:
        return state[1] == self._all_visited

    def atoms(self, state: tuple) -> frozenset:
        return frozenset(map(self._atom.__getitem__, mask_bits(self.atom_mask(state))))

    def atom_bit(self, atom: str) -> int:
        return self._bit_of_atom[atom]

    def atom_mask(self, state: tuple) -> int:
        return self._at_bit[state[0]] | state[1]
