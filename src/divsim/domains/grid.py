"""Grid-world domain: walk a rectangular maze and visit every target cell.

Levels are ASCII: ``#`` wall, ``.`` floor, ``S`` start, ``T`` target. The
agent's position is the ``at-r-c`` predicate; entering a target latches a
``visited-r-c`` predicate that never disappears. All moves cost 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..core import Action, SimulatorProblem, State
from ..errors import InapplicableAction, LevelInvalid

_MOVES = (("up", -1, 0), ("down", 1, 0), ("left", 0, -1), ("right", 0, 1))


@dataclass(frozen=True)
class GridWorld:
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
    def __init__(self, world: GridWorld):
        self.world = world
        self._at_atom = {
            (r, c): f"at-{r}-{c}"
            for r in range(world.height)
            for c in range(world.width)
            if (r, c) not in world.walls
        }
        self._at = {atom: cell for cell, atom in self._at_atom.items()}
        self._visited = {cell: f"visited-{cell[0]}-{cell[1]}" for cell in world.targets}

    @classmethod
    def from_text(cls, text: str) -> "GridProblem":
        return cls(parse_grid(text))

    @cached_property
    def initial(self) -> State:
        start = self.world.start
        atoms = [self._at_atom[start]]
        if start in self._visited:
            atoms.append(self._visited[start])
        return frozenset(atoms)

    @cached_property
    def actions(self) -> tuple:
        return tuple(Action(name) for name, _, _ in _MOVES)

    @cached_property
    def goal_predicates(self) -> tuple:
        return tuple(self._visited[cell] for cell in self.world.targets)

    def _position(self, state: State) -> tuple:
        for p in state:
            cell = self._at.get(p)
            if cell is not None:
                return cell
        raise InapplicableAction("no agent position in state")

    def _destination(self, state: State, action_name: str):
        r, c = self._position(state)
        for name, dr, dc in _MOVES:
            if name == action_name:
                dest = (r + dr, c + dc)
                break
        else:
            return None
        if not (0 <= dest[0] < self.world.height and 0 <= dest[1] < self.world.width):
            return None
        if dest in self.world.walls:
            return None
        return dest

    def applicable(self, state: State) -> tuple:
        return tuple(
            a for a in self.actions if self._destination(state, a.name) is not None
        )

    def simulate(self, state: State, action: Action) -> State:
        dest = self._destination(state, action.name)
        if dest is None:
            raise InapplicableAction(f"cannot move {action.name} from {self._position(state)}")
        here = self._position(state)
        out = set(state)
        out.discard(self._at_atom[here])
        out.add(self._at_atom[dest])
        visited = self._visited.get(dest)
        if visited is not None:
            out.add(visited)
        return frozenset(out)

    def is_goal(self, state: State) -> bool:
        return self.goal_set <= state
