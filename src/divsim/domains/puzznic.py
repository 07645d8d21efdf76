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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from ..core import Action, Predicate, SimulatorProblem, State
from ..errors import InapplicableAction, LevelInvalid, ParseError, UnknownAction

WALL = "#"
EMPTY = "."

CURSOR_MOVES = (
    ("cursor-up", -1, 0),
    ("cursor-down", 1, 0),
    ("cursor-left", 0, -1),
    ("cursor-right", 0, 1),
)
PUSHES = (("push-left", -1), ("push-right", 1))


@dataclass(frozen=True)
class PuzznicLevel:
    grid: tuple  # tuple of row strings
    cursor: tuple
    score: int = 0
    band_width: int = 100
    move_cost: int = 1
    push_cost: int = 1
    name: str = ""

    @property
    def height(self) -> int:
        return len(self.grid)

    @property
    def width(self) -> int:
        return len(self.grid[0]) if self.grid else 0

    def blocks(self) -> dict:
        out = {}
        for r, row in enumerate(self.grid):
            for c, cell in enumerate(row):
                if cell != WALL and cell != EMPTY:
                    out[(r, c)] = cell
        return out


def _freeze(rows) -> tuple:
    return tuple("".join(row) for row in rows)


def _apply_gravity(rows) -> bool:
    """Drop every block to the bottom of its wall-free column segment."""
    changed = False
    height = len(rows)
    width = len(rows[0]) if rows else 0
    for c in range(width):
        top = 0
        for r in range(height + 1):
            if r == height or rows[r][c] == WALL:
                segment = [rows[i][c] for i in range(top, r)]
                stack = [x for x in segment if x != EMPTY]
                packed = [EMPTY] * (len(segment) - len(stack)) + stack
                if packed != segment:
                    changed = True
                    for i, cell in enumerate(packed):
                        rows[top + i][c] = cell
                top = r + 1
    return changed


def _match_groups(rows) -> list:
    """Maximal orthogonally-connected same-pattern groups of two or more blocks."""
    height = len(rows)
    width = len(rows[0]) if rows else 0
    seen = set()
    groups = []
    for r in range(height):
        for c in range(width):
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


def settle(grid: tuple, record=None) -> tuple:
    """Run the gravity/match fixpoint on a grid.

    Returns ``(grid, waves)`` where each wave is a frozenset of cleared
    ``(row, col, pattern)`` entries, in cascade order. ``record``, when given,
    is a list that receives ``(kind, grid, info)`` frames: kind "fall" with
    info None, or kind "clear" with info ``(wave_index, cleared, gain)``.
    """
    rows = [list(row) for row in grid]
    waves = []
    while True:
        if _apply_gravity(rows) and record is not None:
            record.append(("fall", _freeze(rows), None))
        groups = _match_groups(rows)
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


def _cursor_destination(level: PuzznicLevel, name: str):
    for move, dr, dc in CURSOR_MOVES:
        if move == name:
            r, c = level.cursor
            dest = (r + dr, c + dc)
            if 0 <= dest[0] < level.height and 0 <= dest[1] < level.width:
                if level.grid[dest[0]][dest[1]] != WALL:
                    return dest
            return None
    return None


def _push_destination(level: PuzznicLevel, name: str):
    for move, dc in PUSHES:
        if move == name:
            r, c = level.cursor
            if level.grid[r][c] in (WALL, EMPTY):
                return None
            dest = (r, c + dc)
            if 0 <= dest[1] < level.width and level.grid[dest[0]][dest[1]] == EMPTY:
                return dest
            return None
    return None


def applicable_moves(level: PuzznicLevel) -> tuple:
    out = []
    for name, _, _ in CURSOR_MOVES:
        if _cursor_destination(level, name) is not None:
            out.append(name)
    for name, _ in PUSHES:
        if _push_destination(level, name) is not None:
            out.append(name)
    return tuple(out)


def puzznic_step(level: PuzznicLevel, action: str, record=None) -> PuzznicLevel:
    if action in {name for name, _, _ in CURSOR_MOVES}:
        dest = _cursor_destination(level, action)
        if dest is None:
            raise InapplicableAction(
                f"cursor cannot move {action.split('-')[1]} from {level.cursor}"
            )
        return replace(level, cursor=dest)
    if action not in {name for name, _ in PUSHES}:
        raise UnknownAction(action)
    dest = _push_destination(level, action)
    if dest is None:
        raise InapplicableAction(
            f"cannot {action} at {level.cursor}: cursor must sit on a block "
            "with an empty destination cell"
        )
    r, c = level.cursor
    rows = [list(row) for row in level.grid]
    rows[dest[0]][dest[1]] = rows[r][c]
    rows[r][c] = EMPTY
    if record is not None:
        record.append(("push", _freeze(rows), None))
    grid, waves = settle(_freeze(rows), record)
    return replace(level, grid=grid, cursor=dest, score=level.score + score_gain(waves))


def level_goal(level: PuzznicLevel) -> bool:
    return not level.blocks()


def puzznic_predicates(level: PuzznicLevel, patterns=None) -> State:
    """Predicate encoding of a level.

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
    return frozenset(Predicate(n) for n in names)


def _band_score(band: int, band_width: int) -> int:
    """The unique multiple of 100 inside score band ``band``."""
    low = band * band_width
    score = -(-low // 100) * 100
    if score >= low + band_width:
        raise ValueError(f"score band {band} (width {band_width}) holds no reachable score")
    return score


class PuzznicProblem(SimulatorProblem):
    """Planner view of a level: states are predicate sets, not levels.

    The grid, cursor, and score are rebuilt from the predicates on every
    step, so the state is self-contained; the band width being at most 100
    is what makes the score recoverable from its band. The last decoded
    state is kept with its level, because a search asks ``applicable`` and
    then ``simulate`` for each action on the same state.
    """

    def __init__(self, level: PuzznicLevel):
        self.level0 = level
        self.patterns = tuple(sorted(set(level.blocks().values())))
        self._walls = tuple(
            tuple(cell == WALL for cell in row) for row in level.grid
        )
        self._last = (None, None)  # (state, its level) of the last decode

    @classmethod
    def from_text(cls, text: str) -> "PuzznicProblem":
        return cls(parse_puzznic(text))

    @cached_property
    def initial(self) -> State:
        return puzznic_predicates(self.level0, self.patterns)

    @cached_property
    def actions(self) -> tuple:
        moves = [Action(name, self.level0.move_cost) for name, _, _ in CURSOR_MOVES]
        moves += [Action(name, self.level0.push_cost) for name, _ in PUSHES]
        return tuple(moves)

    @cached_property
    def goal_predicates(self) -> tuple:
        return tuple(Predicate(f"cleared-{p}") for p in self.patterns)

    def _decode(self, state: State) -> PuzznicLevel:
        last_state, last_level = self._last
        if state == last_state:
            return last_level
        rows = [
            [WALL if wall else EMPTY for wall in row] for row in self._walls
        ]
        cursor = None
        band = 0
        for pred in state:
            parts = pred.name.split("-")
            if parts[0] == "cursor":
                cursor = (int(parts[1]), int(parts[2]))
            elif parts[0] == "block":
                rows[int(parts[2])][int(parts[3])] = parts[1]
            elif parts[0] == "score":
                band = int(parts[2])
        level = replace(
            self.level0,
            grid=_freeze(rows),
            cursor=cursor,
            score=_band_score(band, self.level0.band_width),
        )
        self._last = (state, level)
        return level

    def applicable(self, state: State) -> tuple:
        level = self._decode(state)
        names = set(applicable_moves(level))
        return tuple(a for a in self.actions if a.name in names)

    def simulate(self, state: State, action: Action) -> State:
        after = puzznic_step(self._decode(state), action.name)
        return puzznic_predicates(after, self.patterns)

    def is_goal(self, state: State) -> bool:
        return self.goal_set <= state

    def level_of(self, state: State) -> PuzznicLevel:
        return self._decode(state)


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
