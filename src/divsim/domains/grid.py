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
    """Planner view of a world: a state is ``(cell, visited)``, the agent's
    cell and the frozenset of target cells it has entered.

    ``applicable`` and ``simulate`` look moves up in one table, made once,
    of the open cell each move reaches from each open cell. ``atoms`` gives
    ``at-*`` for the cell and ``visited-*`` per visited target, from tables
    of atom strings the problem makes once.
    """

    def __init__(self, world: GridWorld):
        self.world = world
        self._at_atom = {
            (r, c): f"at-{r}-{c}"
            for r in range(world.height)
            for c in range(world.width)
            if (r, c) not in world.walls
        }
        self._visited = {cell: f"visited-{cell[0]}-{cell[1]}" for cell in world.targets}
        self._moves = {  # (cell, action name) -> the open cell the move reaches
            ((r, c), name): (r + dr, c + dc)
            for r, c in self._at_atom
            for name, dr, dc in _MOVES
            if (r + dr, c + dc) in self._at_atom
        }

    @classmethod
    def from_text(cls, text: str) -> "GridProblem":
        return cls(parse_grid(text))

    @cached_property
    def initial(self) -> tuple:
        start = self.world.start
        return start, frozenset([start]) if start in self._visited else frozenset()

    @cached_property
    def actions(self) -> tuple:
        return tuple(Action(name) for name, _, _ in _MOVES)

    @cached_property
    def goal_predicates(self) -> tuple:
        return tuple(self._visited[cell] for cell in self.world.targets)

    def applicable(self, state: tuple) -> tuple:
        cell = state[0]
        return tuple(a for a in self.actions if (cell, a.name) in self._moves)

    def simulate(self, state: tuple, action: Action) -> tuple:
        cell, visited = state
        dest = self._moves.get((cell, action.name))
        if dest is None:
            raise InapplicableAction(f"cannot move {action.name} from {cell}")
        if dest in self._visited and dest not in visited:
            visited = visited | {dest}
        return dest, visited

    def is_goal(self, state: tuple) -> bool:
        return len(state[1]) == len(self._visited)

    def atoms(self, state: tuple) -> frozenset:
        cell, visited = state
        return frozenset([self._at_atom[cell], *(self._visited[t] for t in visited)])
