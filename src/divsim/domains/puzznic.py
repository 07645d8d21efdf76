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

A ``PuzznicLevel`` keeps its grid as a tuple of rows and its cursor as
``(row, col)``. The move rule and ``settle`` run on a flat grid instead: one
string (or list) of the cells in row-major order, a cell being its index.
``PuzznicProblem`` steps on flat grids, and the level functions convert.
"""

from __future__ import annotations

import warnings
from collections import Counter
from functools import cached_property, lru_cache
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
        return {
            (r, c): cell for r, row in enumerate(self.grid) for c, cell in enumerate(row)
            if cell != WALL and cell != EMPTY
        }


def _rows(grid: str, width: int) -> tuple:
    return tuple(grid[i:i + width] for i in range(0, len(grid), width))


@lru_cache(maxsize=None)
def _neighbours(height: int, width: int) -> tuple:
    """Each flat cell's orthogonal neighbours; none lies across a row edge."""
    out = []
    for i in range(height * width):
        r, c = divmod(i, width)
        sides = ((r > 0, i - width), (r + 1 < height, i + width),
                 (c > 0, i - 1), (c + 1 < width, i + 1))
        out.append(tuple(n for inside, n in sides if inside))
    return tuple(out)


def _gravity(cells: list, width: int, columns, moved: set) -> bool:
    """Drop every block of ``columns`` to the bottom of its wall-free column
    segment; add each cell a block lands in to ``moved``.

    One bottom-up pass per column: ``floor`` is the lowest cell of the
    current segment no block has settled in yet."""
    changed = False
    bottom = len(cells) - width
    for c in columns:
        floor = bottom + c
        for i in range(floor, -1, -width):
            cell = cells[i]
            if cell == WALL:
                floor = i - width
            elif cell != EMPTY:
                if floor != i:
                    cells[floor] = cell
                    cells[i] = EMPTY
                    changed = True
                    moved.add(floor)
                floor -= width
    return changed


def settle(cells: list, width: int, changed, record=None) -> tuple:
    """Run the gravity/match fixpoint in place on ``cells``, the flat cells
    of a grid ``width`` cells wide.

    Returns the waves in cascade order, each a tuple of the ``(cell,
    pattern)`` pairs it cleared. ``record``, when given, is a list that
    receives ``(kind, grid, info)`` frames with the grid as one string:
    kind "fall" with info None, or kind "clear" with info ``(wave_index,
    cleared, gain)``.

    ``changed`` names the cells a push changed in a grid that was settled
    and free of matches before it, as every grid ``parse_puzznic`` accepts
    or ``settle`` leaves is; naming every cell settles any grid. Gravity
    drops only the columns of ``changed``, and matching starts only from
    them and the cells blocks land in; each later wave drops the columns it
    cleared and matches from the cells that fell. This finds every group,
    as a group without a changed cell would have matched before.
    """
    neighbours = _neighbours(len(cells) // width, width)
    waves = []
    moved = set(changed)
    columns = {i % width for i in moved}
    while True:
        if _gravity(cells, width, columns, moved) and record is not None:
            record.append(("fall", "".join(cells), None))
        seen = set()
        cleared = []
        for i in moved:
            pattern = cells[i]
            if pattern == WALL or pattern == EMPTY or i in seen:
                continue
            seen.add(i)
            group = [i]
            for j in group:  # grows as the flood fill reaches new cells
                for n in neighbours[j]:
                    if cells[n] == pattern and n not in seen:
                        seen.add(n)
                        group.append(n)
            if len(group) > 1:
                cleared += [(j, pattern) for j in group]
        if not cleared:
            return tuple(waves)
        for i, _ in cleared:
            cells[i] = EMPTY
        waves.append(tuple(cleared))
        if record is not None:
            wave = len(waves)
            record.append(("clear", "".join(cells), (wave, waves[-1], 100 * len(cleared) * wave)))
        moved = set()
        columns = {i % width for i, _ in cleared}


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
    cells = []
    cursor = None
    counts = Counter()
    for r, line in enumerate(grid_lines):
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
            cells.append(ch)
    if cursor is None:
        raise LevelInvalid("no cursor")
    frames = []
    settle(cells, width, range(len(cells)), frames)
    if frames:
        kind = frames[0][0]
        raise LevelInvalid("unsettled" if kind == "fall" else "initial grid contains matches")
    for pattern, count in sorted(counts.items()):
        if count % 2:
            warnings.warn(f"odd pattern count: {count} block(s) of {pattern!r}", stacklevel=2)
    return PuzznicLevel(
        _rows("".join(cells), width), cursor, 0, band_width, move_cost, push_cost, name
    )


# action name -> (row shift, column shift, whether it pushes a block)
_MOVES = {name: (dr, dc, False) for name, dr, dc in CURSOR_MOVES}
_MOVES.update((name, (0, dc, True)) for name, dc in PUSHES)


def _destination(grid: str, width: int, cursor: int, name: str):
    """The cell action ``name`` takes the cursor to, or None where it does
    not apply. The cursor enters any cell but a wall; a push moves the block
    under the cursor into an empty cell, and the cursor with it."""
    try:
        dr, dc, push = _MOVES[name]
    except KeyError:
        raise UnknownAction(name) from None
    if push and grid[cursor] in (WALL, EMPTY):
        return None
    r, c = divmod(cursor, width)
    r += dr
    c += dc
    if 0 <= r < len(grid) // width and 0 <= c < width:
        dest = r * width + c
        cell = grid[dest]
        if cell == EMPTY or not (push or cell == WALL):
            return dest
    return None


def _step(grid: str, width: int, cursor: int, score: int, action: str, record=None) -> tuple:
    """``(grid, cursor, score)`` after ``action``, on a flat grid.

    A push moves the block, then settles the grid and adds the cascade's
    score. ``record`` is as for ``settle``, with a "push" frame first.
    Errors name the cursor as ``(row, col)``.
    """
    dest = _destination(grid, width, cursor, action)
    push = _MOVES[action][2]
    if dest is None:
        at = divmod(cursor, width)
        raise InapplicableAction(
            f"cannot {action} at {at}: cursor must sit on a block with an empty destination cell"
            if push else f"cursor cannot move {action.split('-')[1]} from {at}"
        )
    if not push:
        return grid, dest, score
    cells = list(grid)
    cells[dest], cells[cursor] = cells[cursor], EMPTY
    if record is not None:
        record.append(("push", "".join(cells), None))
    waves = settle(cells, width, (cursor, dest), record)
    return "".join(cells), dest, score + score_gain(waves)


def _flat(level: PuzznicLevel) -> tuple:
    """``(grid, width, cursor)`` of a level, its grid one string of cells."""
    width = len(level.grid[0])
    r, c = level.cursor
    return "".join(level.grid), width, r * width + c


def applicable_moves(level: PuzznicLevel) -> tuple:
    grid, width, cursor = _flat(level)
    return tuple(name for name in _MOVES if _destination(grid, width, cursor, name) is not None)


def puzznic_step(level: PuzznicLevel, action: str, record=None) -> PuzznicLevel:
    """``level`` after ``action``. ``record`` receives the frames of
    ``settle`` with each grid as a tuple of rows and each wave's cleared
    blocks as a frozenset of ``(row, col, pattern)``."""
    grid, width, cursor = _flat(level)
    frames = None if record is None else []
    grid, cursor, score = _step(grid, width, cursor, level.score, action, frames)
    for kind, frame, info in frames or ():
        if info is not None:
            wave, cleared, gain = info
            info = wave, frozenset((*divmod(i, width), p) for i, p in cleared), gain
        record.append((kind, _rows(frame, width), info))
    return level._replace(grid=_rows(grid, width), cursor=divmod(cursor, width), score=score)


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
    """Planner view of a level: a state is the tuple ``(grid, cursor, score)``,
    where ``grid`` is one string of the level's cells in row-major order and
    ``cursor`` is the index of a cell in it.

    The walls, band width and costs are the level's and never change, so
    these three fields are the whole state. ``simulate`` and ``applicable``
    run the same move rule and physics as ``puzznic_step``. As walls never
    move, a cursor move's destination depends on the cell alone: the problem
    asks the move rule once per cell, at construction, and answers cursor
    moves from that table; pushes still run the rule and ``settle``.
    The problem numbers the atoms ``puzznic_predicates`` can name by the
    one rule of ``SimulatorProblem``: it calls ``atom_bit`` on the cleared
    atoms, the goal predicates, then the cursor atoms and the block atoms
    per cell when it is built, and on a band atom when a score first
    reaches the band, keeping each band's bit. ``atom_mask`` ORs the grid's
    mask with the cursor's bit and the band's bit, and ``atoms`` is
    ``mask_atoms`` of that mask. Many states share a grid, so each grid's
    goal flag and the mask of its block and cleared atoms are worked out
    once and kept in one table; it stops taking new grids at
    ``core.MEMO_CAP``, the memo's own bound, and later grids are worked out
    on every call. The band width is at most 100 and scores are multiples
    of 100, so a band names one score and two states are equal iff their
    atoms are.
    """

    def __init__(self, level: PuzznicLevel):
        self.level0 = level
        self.patterns = tuple(sorted(set(level.blocks().values())))
        grid, self._width, _ = _flat(level)
        cells = [i for i, cell in enumerate(grid) if cell != WALL]
        names = {i: f"{i // self._width}-{i % self._width}" for i in cells}
        self._cleared_bits = tuple((p, self.atom_bit(f"cleared-{p}")) for p in self.patterns)
        self._cursor_bits = {i: self.atom_bit(f"cursor-{names[i]}") for i in cells}
        self._block_bits = {
            (p, i): self.atom_bit(f"block-{p}-{names[i]}") for p in self.patterns for i in cells
        }
        self._band_bits: dict = {}  # band -> its bit
        self._grids: dict = {}  # grid -> (goal flag, the mask of its block and cleared atoms)
        self._cursor_dests: dict = {}  # (cell, cursor move name) -> the cell it reaches
        # cell -> (its applicable actions: its cursor moves, then with push-left,
        # with push-right, with both; the cells to its left and right, or the
        # cell itself at the grid's edge, as it holds the block a push moves)
        self._moves: dict = {}
        cursor_moves, (left, right) = self.actions[:-2], self.actions[-2:]
        for cell in cells:
            moves = []
            for action in cursor_moves:
                dest = _destination(grid, self._width, cell, action.name)
                if dest is not None:
                    self._cursor_dests[cell, action.name] = dest
                    moves.append(action)
            moves = tuple(moves)
            column = cell % self._width
            self._moves[cell] = (
                (moves, moves + (left,), moves + (right,), moves + (left, right)),
                cell - 1 if column else cell,
                cell + 1 if column + 1 < self._width else cell,
            )

    @classmethod
    def from_text(cls, text: str) -> "PuzznicProblem":
        return cls(parse_puzznic(text))

    @cached_property
    def initial(self) -> tuple:
        grid, _, cursor = _flat(self.level0)
        return (grid, cursor, self.level0.score)

    @cached_property
    def actions(self) -> tuple:
        moves = [Action(name, self.level0.move_cost) for name, _, _ in CURSOR_MOVES]
        moves += [Action(name, self.level0.push_cost) for name, _ in PUSHES]
        return tuple(moves)

    @cached_property
    def goal_predicates(self) -> tuple:
        return tuple(f"cleared-{p}" for p in self.patterns)

    def applicable(self, state: tuple) -> tuple:
        grid, cursor, _ = state
        moves, left, right = self._moves[cursor]
        if grid[cursor] == EMPTY:
            return moves[0]
        return moves[(grid[left] == EMPTY) + 2 * (grid[right] == EMPTY)]

    def simulate(self, state: tuple, action: Action) -> tuple:
        grid, cursor, score = state
        dest = self._cursor_dests.get((cursor, action.name))
        if dest is None:
            return _step(grid, self._width, cursor, score, action.name)
        return grid, dest, score

    def _grid_entry(self, grid: str) -> tuple:
        """``grid``'s goal flag and the mask of its block and cleared atoms."""
        bits = self._block_bits
        blocks = [bits[cell, i] for i, cell in enumerate(grid) if cell != WALL and cell != EMPTY]
        present = set(grid)
        cleared = [bit for p, bit in self._cleared_bits if p not in present]
        entry = (not blocks, sum(blocks) + sum(cleared))
        if len(self._grids) < core.MEMO_CAP:
            self._grids[grid] = entry
        return entry

    def is_goal(self, state: tuple) -> bool:
        return (self._grids.get(state[0]) or self._grid_entry(state[0]))[0]

    def atoms(self, state: tuple) -> frozenset:
        return self.mask_atoms(self.atom_mask(state))

    def atom_mask(self, state: tuple) -> int:
        grid, cursor, score = state
        band = score // self.level0.band_width
        band_bit = self._band_bits.get(band)
        if band_bit is None:
            band_bit = self._band_bits[band] = self.atom_bit(f"score-band-{band}")
        grid_mask = (self._grids.get(grid) or self._grid_entry(grid))[1]
        return grid_mask | self._cursor_bits[cursor] | band_bit


def _compose_frame(caption: str, grid, cursor, score: int) -> str:
    rows = list(grid)
    r, c = cursor
    cell = rows[r][c]
    rows[r] = rows[r][:c] + ("@" if cell == EMPTY else cell.upper()) + rows[r][c + 1:]
    return "\n".join([caption, *rows, f"score {score}"])


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
            raise InapplicableAction(f"{err.reason} (frame {len(frames)})", index=index) from None
        if not record:
            frames.append(_compose_frame(name, after.grid, after.cursor, after.score))
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
                    clear_order += [p for p in patterns if p not in clear_order]
                    caption = f"clear wave {wave}: {len(cleared)} block(s) +{gain}"
                frames.append(_compose_frame(caption, grid, after.cursor, score))
        level = after
    if clear_order:
        frames[-1] += "\ncleared order: " + ", ".join(clear_order)
    return frames
