"""Puzznic-style tile matching domain.

A level is a rectangular grid of walls, empty cells, and lettered blocks,
plus a free-floating cursor. Pushing a block one cell sideways triggers the
settle fixpoint: gravity drops blocks, orthogonally adjacent same-letter
groups of two or more clear, and each cascade wave scores
100 x blocks-cleared x wave-index. The goal is an empty grid.

Level files are ASCII with optional ``; key: value`` directive lines:

    ; name: two pairs
    ; band-width: 100
    ; move-cost: 1
    ; push-cost: 1
    #####
    #a@.#
    #.#a#
    #####

``@`` is the cursor on an empty cell; an uppercase letter is the cursor
sitting on a block of the lowercase pattern.
"""

from __future__ import annotations

import warnings
from collections import Counter, deque
from functools import cached_property
from typing import Sequence

from .. import core
from ..core import Action, SimulatorProblem
from ..errors import InapplicableAction, LevelInvalid, ParseError, UnknownAction
from ..record import Record

WALL = "#"
EMPTY = "."

CURSOR_MOVES = (
    ("cursor-up", -1, 0),
    ("cursor-down", 1, 0),
    ("cursor-left", 0, -1),
    ("cursor-right", 0, 1),
)
PUSHES = (("push-left", -1), ("push-right", 1))


class PuzznicLevel(Record):
    grid: tuple  # tuple of row strings
    cursor: tuple
    score: int = 0
    band_width: int = 100
    move_cost: int = 1
    push_cost: int = 1
    name: str = ""

    def blocks(self) -> dict:
        out = {}
        for r, row in enumerate(self.grid):
            for c, cell in enumerate(row):
                if cell != WALL and cell != EMPTY:
                    out[(r, c)] = cell
        return out


def _freeze(rows) -> tuple:
    return tuple("".join(row) for row in rows)


def _apply_gravity(rows, columns=None, moved=None) -> bool:
    """Drop every block of ``columns`` (default all) to the bottom of its
    wall-free column segment; add each cell a block lands in to ``moved``.

    One bottom-up pass per column: ``floor`` is the lowest cell of the
    current segment no block has settled in yet."""
    changed = False
    height = len(rows)
    width = len(rows[0]) if rows else 0
    for c in range(width) if columns is None else columns:
        floor = height - 1
        for r in range(height - 1, -1, -1):
            cell = rows[r][c]
            if cell == WALL:
                floor = r - 1
            elif cell != EMPTY:
                if floor != r:
                    rows[floor][c] = cell
                    rows[r][c] = EMPTY
                    changed = True
                    if moved is not None:
                        moved.add((floor, c))
                floor -= 1
    return changed


def _match_groups(rows, seeds=None) -> list:
    """Maximal orthogonally-connected same-pattern groups of two or more
    blocks: every group in the grid, or only those holding a cell of ``seeds``."""
    height = len(rows)
    width = len(rows[0]) if rows else 0
    if seeds is None:
        seeds = [(r, c) for r in range(height) for c in range(width)]
    seen = set()
    groups = []
    for r, c in sorted(seeds):
        cell = rows[r][c]
        if cell in (WALL, EMPTY) or (r, c) in seen:
            continue
        group = []
        queue = deque([(r, c)])
        seen.add((r, c))
        while queue:
            gr, gc = queue.popleft()
            group.append((gr, gc))
            for nr, nc in ((gr - 1, gc), (gr + 1, gc), (gr, gc - 1), (gr, gc + 1)):
                if 0 <= nr < height and 0 <= nc < width and (nr, nc) not in seen:
                    if rows[nr][nc] == cell:
                        seen.add((nr, nc))
                        queue.append((nr, nc))
        if len(group) >= 2:
            groups.append(frozenset(group))
    return groups


def settle(grid: tuple, record=None, changed=None) -> tuple:
    """Run the gravity/match fixpoint on a grid.

    Returns ``(grid, waves)`` where each wave is a frozenset of cleared
    ``(row, col, pattern)`` entries, in cascade order. ``record``, when given,
    is a list that receives ``(kind, grid, info)`` frames: kind "fall" with
    info None, or kind "clear" with info ``(wave_index, cleared, gain)``.

    ``changed`` names the cells a push changed in a grid that was settled
    and free of matches before it, as every grid ``parse_puzznic`` accepts
    or ``settle`` returns is. Gravity then drops only their columns and
    matching starts only from them and the cells blocks land in; each later
    wave drops the columns it cleared and matches from the cells that fell.
    This finds every group, as a group without a changed cell would have
    matched before. Without ``changed`` the whole grid is scanned.
    """
    rows = [list(row) for row in grid]
    waves = []
    moved = None if changed is None else set(changed)
    columns = None if changed is None else {c for _, c in changed}
    while True:
        if _apply_gravity(rows, columns, moved) and record is not None:
            record.append(("fall", _freeze(rows), None))
        groups = _match_groups(rows, moved)
        if not groups:
            break
        cleared = frozenset(
            (r, c, rows[r][c]) for group in groups for (r, c) in group
        )
        for r, c, _ in cleared:
            rows[r][c] = EMPTY
        wave = len(waves) + 1
        waves.append(cleared)
        if record is not None:
            record.append(("clear", _freeze(rows), (wave, cleared, 100 * len(cleared) * wave)))
        if changed is not None:
            moved, columns = set(), {c for _, c, _ in cleared}
    return _freeze(rows), tuple(waves)


def score_gain(waves) -> int:
    return sum(100 * len(wave) * index for index, wave in enumerate(waves, start=1))


def _directive_int(key: str, value: str, low: int, high: int = None) -> int:
    try:
        got = int(value)
    except ValueError:
        raise LevelInvalid(f"directive {key!r} needs an integer, got {value!r}") from None
    if got < low or (high is not None and got > high):
        bound = f"between {low} and {high}" if high is not None else f"at least {low}"
        raise LevelInvalid(f"directive {key!r} must be {bound}, got {got}")
    return got


def parse_puzznic(text: str) -> PuzznicLevel:
    name = ""
    band_width = 100
    move_cost = 1
    push_cost = 1
    grid_lines = []
    for line in text.splitlines():
        if line.startswith(";"):
            key, sep, value = line[1:].partition(":")
            key = key.strip().lower()
            value = value.strip()
            if not sep:
                continue
            if key == "name":
                name = value
            elif key == "band-width":
                # Scores are always multiples of 100, so any band at most
                # this wide identifies the score uniquely; wider bands would
                # make distinct scores indistinguishable in the state.
                band_width = _directive_int(key, value, 1, 100)
            elif key == "move-cost":
                move_cost = _directive_int(key, value, 1)
            elif key == "push-cost":
                push_cost = _directive_int(key, value, 1)
            continue
        if line.strip():
            grid_lines.append(line.rstrip())
    if not grid_lines:
        raise ParseError("no grid lines")
    width = len(grid_lines[0])
    if any(len(line) != width for line in grid_lines):
        raise ParseError("grid is not rectangular")
    rows = []
    cursor = None
    counts = Counter()
    for r, line in enumerate(grid_lines):
        row = []
        for c, ch in enumerate(line):
            if ch == "@" or "A" <= ch <= "Z":
                if cursor is not None:
                    raise LevelInvalid("more than one cursor")
                cursor = (r, c)
                ch = EMPTY if ch == "@" else ch.lower()
            if ch not in (WALL, EMPTY) and not ("a" <= ch <= "z"):
                raise ParseError(f"unknown cell {ch!r} at row {r}, column {c}")
            if ch not in (WALL, EMPTY):
                counts[ch] += 1
            row.append(ch)
        rows.append(row)
    if cursor is None:
        raise LevelInvalid("no cursor")
    grid = _freeze(rows)
    probe = [list(row) for row in grid]
    if _apply_gravity(probe):
        raise LevelInvalid("unsettled")
    if _match_groups(probe):
        raise LevelInvalid("initial grid contains matches")
    for pattern, count in sorted(counts.items()):
        if count % 2:
            warnings.warn(f"odd pattern count: {count} block(s) of {pattern!r}", stacklevel=2)
    return PuzznicLevel(
        grid, cursor, 0, band_width, move_cost, push_cost, name
    )


# action name -> (row shift, column shift, whether it pushes a block)
_MOVES = {name: (dr, dc, False) for name, dr, dc in CURSOR_MOVES}
_MOVES.update((name, (0, dc, True)) for name, dc in PUSHES)


def _destination(grid: tuple, cursor: tuple, name: str):
    """The cell action ``name`` takes the cursor to, or None where it does
    not apply. The cursor enters any cell but a wall; a push moves the block
    under the cursor into an empty cell, and the cursor with it."""
    try:
        dr, dc, push = _MOVES[name]
    except KeyError:
        raise UnknownAction(name) from None
    r, c = cursor
    if push and grid[r][c] in (WALL, EMPTY):
        return None
    r += dr
    c += dc
    if 0 <= r < len(grid) and 0 <= c < len(grid[r]):
        cell = grid[r][c]
        if cell == EMPTY or not (push or cell == WALL):
            return (r, c)
    return None


def _step(grid: tuple, cursor: tuple, score: int, action: str, record=None) -> tuple:
    """``(grid, cursor, score)`` after ``action``.

    A push moves the block, then settles the grid and adds the cascade's
    score. ``record`` is as for ``settle``, with a "push" frame first.
    """
    dest = _destination(grid, cursor, action)
    push = _MOVES[action][2]
    if dest is None and push:
        raise InapplicableAction(
            f"cannot {action} at {cursor}: cursor must sit on a block "
            "with an empty destination cell"
        )
    if dest is None:
        raise InapplicableAction(f"cursor cannot move {action.split('-')[1]} from {cursor}")
    if not push:
        return grid, dest, score
    r, c = cursor
    row = list(grid[r])
    row[dest[1]] = row[c]
    row[c] = EMPTY
    pushed = grid[:r] + ("".join(row),) + grid[r + 1:]
    if record is not None:
        record.append(("push", pushed, None))
    grid, waves = settle(pushed, record, (cursor, dest))
    return grid, dest, score + score_gain(waves)


def applicable_moves(level: PuzznicLevel) -> tuple:
    return tuple(name for name in _MOVES if _destination(level.grid, level.cursor, name))


def puzznic_step(level: PuzznicLevel, action: str, record=None) -> PuzznicLevel:
    grid, cursor, score = _step(level.grid, level.cursor, level.score, action, record)
    return level._replace(grid=grid, cursor=cursor, score=score)


def level_goal(level: PuzznicLevel) -> bool:
    return not level.blocks()


def puzznic_predicates(level: PuzznicLevel, patterns=None) -> frozenset:
    """Atom encoding of a level.

    ``patterns`` is the pattern universe for the ``cleared-*`` atoms; it
    defaults to the patterns present in the grid (in which case none of them
    is cleared yet).
    """
    blocks = level.blocks()
    if patterns is None:
        patterns = sorted(set(blocks.values()))
    names = [f"cursor-{level.cursor[0]}-{level.cursor[1]}"]
    names.append(f"score-band-{level.score // level.band_width}")
    remaining = set(blocks.values())
    for (r, c), pattern in blocks.items():
        names.append(f"block-{pattern}-{r}-{c}")
    for pattern in patterns:
        if pattern not in remaining:
            names.append(f"cleared-{pattern}")
    return frozenset(names)


class PuzznicProblem(SimulatorProblem):
    """Planner view of a level: a state is the tuple ``(grid, cursor, score)``.

    The walls, band width and costs are the level's and never change, so
    these three fields are the whole state. ``simulate`` and ``applicable``
    run the same move rule and physics as ``puzznic_step``. As walls never
    move, a cursor move's destination depends on the cell alone: the problem
    asks the move rule once per cell, at construction, and answers cursor
    moves from that table; pushes still run the rule and the physics.
    ``atoms`` gives the set ``puzznic_predicates`` would, built from tables of atom strings
    that the problem makes once: cursor and block atoms per cell, cleared
    atoms per pattern, and band atoms as scores reach them. Many states
    share a grid, so the block and cleared atoms of each grid are built once
    and kept in a table; it stops taking new grids at ``core.MEMO_CAP``, the
    memo's own bound, and later grids are built on every call. The band width
    is at most 100 and scores are multiples of 100, so a band names one
    score and two states are equal iff their atoms are.
    """

    def __init__(self, level: PuzznicLevel):
        self.level0 = level
        self.patterns = tuple(sorted(set(level.blocks().values())))
        cells = [
            (r, c) for r, row in enumerate(level.grid) for c, cell in enumerate(row) if cell != WALL
        ]
        self._cursor_atoms = {(r, c): f"cursor-{r}-{c}" for r, c in cells}
        self._block_atoms = {
            (p, r, c): f"block-{p}-{r}-{c}" for p in self.patterns for r, c in cells
        }
        self._cleared_atoms = tuple((p, f"cleared-{p}") for p in self.patterns)
        self._band_atoms: dict = {}  # band -> its atom
        self._grid_atoms: dict = {}  # grid -> its block and cleared atoms
        self._cursor_dests: dict = {}  # (cell, cursor move name) -> the cell it reaches
        # cell -> its applicable actions: its cursor moves, then with push-left,
        # with push-right, with both
        self._moves: dict = {}
        cursor_moves, (left, right) = self.actions[:-2], self.actions[-2:]
        for cell in cells:
            moves = []
            for action in cursor_moves:
                dest = _destination(level.grid, cell, action.name)
                if dest is not None:
                    self._cursor_dests[cell, action.name] = dest
                    moves.append(action)
            moves = tuple(moves)
            self._moves[cell] = (moves, moves + (left,), moves + (right,), moves + (left, right))

    @classmethod
    def from_text(cls, text: str) -> "PuzznicProblem":
        return cls(parse_puzznic(text))

    @cached_property
    def initial(self) -> tuple:
        return (self.level0.grid, self.level0.cursor, self.level0.score)

    @cached_property
    def actions(self) -> tuple:
        moves = [Action(name, self.level0.move_cost) for name, _, _ in CURSOR_MOVES]
        moves += [Action(name, self.level0.push_cost) for name, _ in PUSHES]
        return tuple(moves)

    @cached_property
    def goal_predicates(self) -> tuple:
        return tuple(atom for _, atom in self._cleared_atoms)

    def applicable(self, state: tuple) -> tuple:
        grid, cursor, _ = state
        moves = self._moves[cursor]
        r, c = cursor
        row = grid[r]
        if row[c] == EMPTY:
            return moves[0]
        left = c > 0 and row[c - 1] == EMPTY
        right = c + 1 < len(row) and row[c + 1] == EMPTY
        return moves[left + 2 * right]

    def simulate(self, state: tuple, action: Action) -> tuple:
        grid, cursor, score = state
        dest = self._cursor_dests.get((cursor, action.name))
        if dest is None:
            return _step(grid, cursor, score, action.name)
        return grid, dest, score

    def is_goal(self, state: tuple) -> bool:
        # A row strips to nothing iff it holds no block.
        return not any(row.strip(WALL + EMPTY) for row in state[0])

    def atoms(self, state: tuple) -> frozenset:
        grid, cursor, score = state
        band = score // self.level0.band_width
        band_atom = self._band_atoms.get(band)
        if band_atom is None:
            band_atom = self._band_atoms[band] = f"score-band-{band}"
        grid_atoms = self._grid_atoms.get(grid)
        if grid_atoms is None:
            out = []
            remaining = set()
            for r, row in enumerate(grid):
                for c, cell in enumerate(row):
                    if cell != WALL and cell != EMPTY:
                        out.append(self._block_atoms[cell, r, c])
                        remaining.add(cell)
            out += [atom for p, atom in self._cleared_atoms if p not in remaining]
            grid_atoms = frozenset(out)
            if len(self._grid_atoms) < core.MEMO_CAP:
                self._grid_atoms[grid] = grid_atoms
        return grid_atoms | {self._cursor_atoms[cursor], band_atom}


def _compose_frame(caption: str, grid, cursor, score: int) -> str:
    rows = []
    for r, row in enumerate(grid):
        cells = []
        for c, cell in enumerate(row):
            if (r, c) == cursor:
                cells.append("@" if cell == EMPTY else cell.upper())
            else:
                cells.append(cell)
        rows.append("".join(cells))
    return "\n".join([caption] + rows + [f"score {score}"])


def render_puzznic(problem: PuzznicProblem, plan: Sequence[str]) -> list:
    """ASCII playback: one frame per action plus fall/clear frames.

    The last frame carries the final score and the order in which patterns
    cleared. Replay failures surface as InapplicableAction tagged with the
    failing plan step.
    """
    level = problem.level0
    frames = [_compose_frame("initial", level.grid, level.cursor, level.score)]
    clear_order = []
    for index, name in enumerate(plan):
        record = []
        try:
            after = puzznic_step(level, name, record)
        except InapplicableAction as err:
            raise InapplicableAction(
                f"{err.reason} (frame {len(frames)})", index=index
            ) from None
        if not record:
            frames.append(
                _compose_frame(name, after.grid, after.cursor, after.score)
            )
        else:
            score = level.score
            for kind, grid, info in record:
                if kind == "push":
                    caption = name
                elif kind == "fall":
                    caption = "fall"
                else:
                    wave, cleared, gain = info
                    score += gain
                    patterns = sorted({p for _, _, p in cleared})
                    for p in patterns:
                        if p not in clear_order:
                            clear_order.append(p)
                    caption = f"clear wave {wave}: {len(cleared)} block(s) +{gain}"
                frames.append(_compose_frame(caption, grid, after.cursor, score))
        level = after
    if clear_order:
        frames[-1] += "\ncleared order: " + ", ".join(clear_order)
    return frames
