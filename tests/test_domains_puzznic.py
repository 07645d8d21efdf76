import functools
import random
from collections import Counter

import pytest

from divsim import core
from divsim.behaviour import BehaviourSpace, GoalOrder
from divsim.core import Action, replay, trace_view
from divsim.domains import PuzznicProblem, load_problem
from divsim.domains.puzznic import (
    PuzznicLevel,
    _gravity,
    applicable_moves,
    level_goal,
    parse_puzznic,
    puzznic_predicates,
    puzznic_step,
    render_puzznic,
    score_gain,
)
from divsim.errors import (
    InapplicableAction,
    LevelInvalid,
    ParseError,
    UnknownAction,
)
from divsim.search import SearchLimits, fbi

from conftest import (
    EDGE_LEVELS,
    FIXTURES,
    assert_one_object_per_atom,
    fixture_path,
    settle_rows,
)
from oracles import reference_settle, segment_gravity


def _grid(*rows):
    return tuple(rows)


def _block_counts(grid):
    return Counter(ch for row in grid for ch in row if ch not in "#.")


def _pushed_by_hand(grid, r, c, dc):
    """``grid`` with the block at ``(r, c)`` moved ``dc`` columns, unsettled."""
    row = list(grid[r])
    row[c], row[c + dc] = ".", row[c]
    return grid[:r] + ("".join(row),) + grid[r + 1:]


def _level(problem, state):
    """The ``PuzznicLevel`` that a state of ``problem`` stands for."""
    grid, cursor, score = state
    width = len(problem.level0.grid[0])
    assert type(grid) is str and len(grid) == len(problem.level0.grid) * width
    assert type(cursor) is int and type(score) is int
    rows = tuple(grid[i:i + width] for i in range(0, len(grid), width))
    return problem.level0._replace(grid=rows, cursor=divmod(cursor, width), score=score)


class TestParsing:
    def test_cursor_from_at_sign(self):
        level = parse_puzznic("; name: ledge pair\n#####\n#@a.#\n###.#\n#.a.#\n#####\n")
        assert level.cursor == (1, 1)
        assert level.grid[1][1] == "."
        assert level.name == "ledge pair"

    def test_cursor_from_uppercase_stands_on_block(self):
        level = parse_puzznic("#####\n#A.a#\n#####\n")
        assert level.cursor == (1, 1)
        assert level.grid[1][1] == "a"

    def test_directives(self):
        level = parse_puzznic(
            "; band-width: 50\n; move-cost: 2\n; push-cost: 3\n#####\n#A.a#\n#####\n"
        )
        assert (level.band_width, level.move_cost, level.push_cost) == (50, 2, 3)

    def test_unknown_directives_are_ignored(self):
        level = parse_puzznic("; theme: ice\n; just a comment\n#####\n#A.a#\n#####\n")
        assert level.name == ""

    @pytest.mark.parametrize(
        "directive",
        ["; band-width: 0", "; band-width: 101", "; band-width: wide", "; move-cost: 0"],
    )
    def test_directive_bounds(self, directive):
        with pytest.raises(LevelInvalid):
            parse_puzznic(f"{directive}\n#####\n#A.a#\n#####\n")

    def test_structural_errors(self):
        with pytest.raises(ParseError, match="rectangular"):
            parse_puzznic("#####\n#A.a##\n#####\n")
        with pytest.raises(ParseError, match="unknown cell"):
            parse_puzznic("#####\n#A.1#\n#####\n")
        with pytest.raises(ParseError, match="no grid"):
            parse_puzznic("; name: empty\n")

    def test_cursor_count_errors(self):
        with pytest.raises(LevelInvalid, match="no cursor"):
            parse_puzznic("#####\n#a.a#\n#####\n")
        with pytest.raises(LevelInvalid, match="more than one cursor"):
            parse_puzznic("#####\n#A@a#\n#####\n")

    def test_floating_blocks_rejected(self):
        with pytest.raises(LevelInvalid, match="unsettled"):
            parse_puzznic("#####\n#@a.#\n#...#\n#####\n")

    def test_pre_matched_grid_rejected(self):
        with pytest.raises(LevelInvalid, match="matches"):
            parse_puzznic("#####\n#@aa#\n#####\n")

    def test_odd_pattern_count_warns(self):
        with pytest.warns(UserWarning, match="odd pattern count"):
            parse_puzznic("######\n#@a.b#\n###.##\n##.b.#\n######\n")


class TestPhysics:
    def test_settle_is_idempotent(self):
        grid = _grid("#####", "#a..#", "#b.a#", "#####")
        settled, waves = settle_rows(grid)
        again, more = settle_rows(settled)
        assert again == settled
        assert more == ()

    def test_gravity_is_per_column_segment(self):
        grid = _grid("#####", "#ab.#", "#...#", "#.#.#", "#####")
        settled, waves = settle_rows(grid)
        assert waves == ()
        # column 1 is open down to row 3; column 2 has a wall at row 3
        assert settled == _grid("#####", "#...#", "#.b.#", "#a#.#", "#####")

    def test_matches_clear_and_cascade(self):
        # the b pair clears first, then the freed a drops next to the other a
        grid = _grid("######", "#.a..#", "#.b..#", "#.ba.#", "######")
        settled, waves = settle_rows(grid)
        assert _block_counts(settled) == Counter()
        assert [sorted(p for _, _, p in wave) for wave in waves] == [["b", "b"], ["a", "a"]]
        assert score_gain(waves) == 100 * 2 * 1 + 100 * 2 * 2

    def test_blocks_are_conserved_outside_clears(self):
        grid = _grid("#####", "#a.b#", "#.#.#", "#####")
        settled, waves = settle_rows(grid)
        assert waves == ()
        assert _block_counts(settled) == _block_counts(grid)

    def test_orthogonal_only_no_diagonal_match(self):
        grid = _grid("#####", "#a#.#", "##a.#", "#####")
        settled, waves = settle_rows(grid)
        assert waves == ()
        assert _block_counts(settled) == Counter({"a": 2})

    def test_three_in_a_row_clears_together(self):
        grid = _grid("#####", "#aaa#", "#####")
        settled, waves = settle_rows(grid)
        assert len(waves) == 1 and len(waves[0]) == 3
        assert score_gain(waves) == 300


class TestStep:
    def test_cursor_moves_freely_over_blocks(self):
        level = parse_puzznic("#####\n#@a.#\n###.#\n#.a.#\n#####\n")
        level = puzznic_step(level, "cursor-right")
        assert level.cursor == (1, 2)
        assert level.grid[1][2] == "a"

    def test_cursor_blocked_by_walls(self):
        level = parse_puzznic("#####\n#@a.#\n###.#\n#.a.#\n#####\n")
        assert "cursor-up" not in applicable_moves(level)
        with pytest.raises(InapplicableAction):
            puzznic_step(level, "cursor-up")

    def test_push_needs_block_under_cursor(self):
        level = parse_puzznic("#####\n#@a.#\n###.#\n#.a.#\n#####\n")
        with pytest.raises(InapplicableAction):
            puzznic_step(level, "push-right")

    def test_push_needs_empty_destination(self):
        level = parse_puzznic("#####\n#A.a#\n#####\n")
        with pytest.raises(InapplicableAction):
            puzznic_step(level, "push-left")

    def test_unknown_action_name(self):
        level = parse_puzznic("#####\n#A.a#\n#####\n")
        with pytest.raises(UnknownAction):
            puzznic_step(level, "push-up")

    def test_push_scores_simple_pair(self):
        level = parse_puzznic("#####\n#A.a#\n#####\n")
        level = puzznic_step(level, "push-right")
        assert level.score == 200
        assert level_goal(level)
        assert level.cursor == (1, 2)

    def test_ledge_drop_scores_pair(self):
        level = parse_puzznic(fixture_path("ledge.puz").read_text())
        level = puzznic_step(level, "cursor-right")
        level = puzznic_step(level, "push-right")
        assert level.score == 200
        assert level_goal(level)

    def test_cascade_scores_by_wave_index(self):
        level = parse_puzznic(fixture_path("cascade.puz").read_text())
        level = puzznic_step(level, "cursor-right")
        record = []
        level = puzznic_step(level, "push-left", record=record)
        assert level.score == 600
        assert level_goal(level)
        kinds = [kind for kind, _, _ in record]
        assert kinds[0] == "push"
        assert "clear" in kinds

    def test_score_never_decreases(self):
        level = parse_puzznic(fixture_path("cascade.puz").read_text())
        score = level.score
        for action in ("cursor-right", "push-left"):
            level = puzznic_step(level, action)
            assert level.score >= score
            score = level.score


class TestProblem:
    def test_action_costs_follow_directives(self):
        problem = PuzznicProblem.from_text(
            "; move-cost: 2\n; push-cost: 5\n#####\n#A.a#\n#####\n"
        )
        costs = {a.name: a.cost for a in problem.actions}
        assert costs["cursor-left"] == 2
        assert costs["push-right"] == 5

    def test_goal_predicates_are_cleared_patterns(self):
        problem = load_problem(fixture_path("cascade.puz"))
        assert problem.goal_predicates == (
            "cleared-a",
            "cleared-b",
        )

    def test_state_is_grid_cursor_and_score(self):
        problem = load_problem(fixture_path("cascade.puz"))
        level = problem.level0
        assert level.grid == ("#####", "#b.a#", "#a.##", "#b#.#", "#####")
        assert level.cursor == (1, 2)
        assert problem.initial == ("######b.a##a.###b#.######", 7, 0)
        trace = replay(problem, ("cursor-right", "push-left"))
        moved, pushed = (_level(problem, state.raw) for state in trace.states[1:])
        assert trace.states[1].raw == ("######b.a##a.###b#.######", 8, 0)
        assert moved == puzznic_step(level, "cursor-right") and not level_goal(moved)
        assert not problem.is_goal(trace.states[1].raw) and not trace.states[1].goal_flag
        assert pushed == puzznic_step(moved, "push-left") and pushed.score == 600
        assert level_goal(pushed) and trace.states[-1].goal_flag

    def test_inapplicable_messages_name_the_cursor_by_row_and_column(self):
        problem = PuzznicProblem.from_text("#####\n#A.a#\n#####\n")
        moved = problem.simulate(problem.initial, problem.action_named("cursor-right"))
        expected = {
            (problem.initial, "cursor-up"): "cursor cannot move up from (1, 1)",
            (problem.initial, "push-left"): (
                "cannot push-left at (1, 1): cursor must sit on a block "
                "with an empty destination cell"
            ),
            (moved, "cursor-down"): "cursor cannot move down from (1, 2)",
            (moved, "push-right"): (
                "cannot push-right at (1, 2): cursor must sit on a block "
                "with an empty destination cell"
            ),
        }
        for (state, name), message in expected.items():
            with pytest.raises(InapplicableAction) as got:
                problem.simulate(state, problem.action_named(name))
            with pytest.raises(InapplicableAction) as want:
                puzznic_step(_level(problem, state), name)
            assert str(got.value) == str(want.value) == message

    def test_score_band_predicate_tracks_band_width(self):
        problem = PuzznicProblem.from_text("; band-width: 50\n#####\n#A.a#\n#####\n")
        state = problem.simulate(problem.initial, problem.action_named("push-right"))
        assert "score-band-4" in problem.atoms(state)

    def test_predicates_expose_blocks_cursor_and_bands(self):
        level = parse_puzznic("#####\n#A.a#\n#####\n")
        atoms = puzznic_predicates(level)
        assert atoms == {"cursor-1-1", "score-band-0", "block-a-1-1", "block-a-1-3"}

    def test_cleared_pattern_atom_appears_after_match(self):
        problem = load_problem(fixture_path("single_pair.puz"))
        state = problem.simulate(problem.initial, problem.action_named("push-right"))
        assert "cleared-a" in problem.atoms(state)

    def test_states_share_one_string_per_atom(self):
        problem = load_problem(fixture_path("pairs.puz"))
        start = problem.initial
        left = problem.simulate(start, problem.action_named("cursor-left"))
        up = problem.simulate(start, problem.action_named("cursor-up"))
        back = problem.simulate(left, problem.action_named("cursor-right"))
        atoms = [problem.atoms(s) for s in (start, left, up, back)]
        assert back == start and "block-a-1-1" in atoms[1] & atoms[2]
        assert_one_object_per_atom(*atoms, problem.goal_predicates)

    def test_trace_view_reads_atoms_through_the_problem(self):
        problem = load_problem(fixture_path("single_pair.puz"))
        view = trace_view(problem, replay(problem, ("push-right",)), 5)
        assert view[0] == problem.atoms(problem.initial) | {"cost-0"}
        assert {"cleared-a", "first-cleared-a", "goal-state", "cost-1"} <= view[1]


# The three-pattern level of the benchmark's ``puzznic-fbi`` workload.
FBI_LEVEL = "#########\n#a..b..c#\n##.###.##\n#a.@b..c#\n#########\n"

# Every level the problem is checked on against the reference functions: the
# one above, each fixture, and two without walls whose blocks sit in the
# grid's edge columns.
LEVELS = {
    "puzznic-fbi": FBI_LEVEL,
    **{path.name: path.read_text() for path in sorted(FIXTURES.rglob("*.puz"))},
    **EDGE_LEVELS,
}


@functools.lru_cache(maxsize=None)
def _fbi_pairs(text):
    """A problem on ``text`` and every (state, action) pair ``fbi`` simulated on it."""
    problem = PuzznicProblem.from_text(text)
    pairs = []
    simulate = problem.simulate
    problem.simulate = lambda s, a: pairs.append((s, a)) or simulate(s, a)
    space = BehaviourSpace((GoalOrder(problem.goal_predicates),))
    fbi(problem, space, 7, limits=SearchLimits(cost_bound=1000))
    del problem.simulate
    return problem, tuple(pairs)


class TestReferenceAgreement:
    """The problem's state against the ``PuzznicLevel`` reference functions,
    over every (state, action) pair ``fbi`` reaches on each level."""

    @pytest.fixture(scope="class")
    def reached(self):
        return _fbi_pairs(FBI_LEVEL)

    @pytest.mark.parametrize("name", sorted(LEVELS))
    def test_simulate_applicable_and_atoms_match_the_reference(self, name):
        problem, pairs = _fbi_pairs(LEVELS[name])
        assert len(pairs) > (10_000 if name == "puzznic-fbi" else 0)
        for state in {problem.initial} | {state for state, _ in pairs}:
            level = _level(problem, state)
            names = tuple(a.name for a in problem.applicable(state))
            assert names == applicable_moves(level)
            assert problem.atoms(state) == puzznic_predicates(level, problem.patterns)
            assert problem.is_goal(state) == level_goal(level)
        for state, action in pairs:
            record = []
            level = _level(problem, state)
            after = puzznic_step(level, action.name, record)
            successor = problem.simulate(state, action)
            assert _level(problem, successor) == after
            assert problem.atoms(successor) == puzznic_predicates(after, problem.patterns)
            assert problem.is_goal(successor) == level_goal(after)
            if action.name.startswith("push-"):
                assert after == self._settled_by_hand(level, action.name, record)

    @staticmethod
    def _settled_by_hand(level, name, record):
        """The level after a push made by hand and settled by the reference's
        full scans; asserts that ``record`` holds the same frames and waves."""
        (r, c), dc = level.cursor, 1 if name == "push-right" else -1
        pushed = _pushed_by_hand(level.grid, r, c, dc)
        expected = [("push", pushed, None)]
        settled, waves = reference_settle(pushed, expected)
        assert record == expected
        assert waves == tuple(info[1] for kind, _, info in record if kind == "clear")
        score = level.score + score_gain(waves)
        return level._replace(grid=settled, cursor=(r, c + dc), score=score)

    def test_atoms_tell_states_apart_and_share_strings(self, reached):
        problem, pairs = reached
        states = {problem.initial} | {state for state, _ in pairs}
        states |= {problem.simulate(s, a) for s, a in pairs}
        atoms = [problem.atoms(s) for s in states]
        assert len(set(atoms)) == len(states)
        assert_one_object_per_atom(*atoms, problem.goal_predicates)

    def test_grid_atom_table_stops_at_the_memo_cap(self, reached, monkeypatch):
        monkeypatch.setattr(core, "MEMO_CAP", 3)
        walked, pairs = reached
        problem = PuzznicProblem.from_text(FBI_LEVEL)
        states = {problem.initial: None}
        for state, action in pairs:
            states.update({state: None, walked.simulate(state, action): None})
        atoms = []
        for state in states:
            level = _level(problem, state)
            atoms.append(problem.atoms(state))
            assert problem.is_goal(state) == level_goal(level)
            assert len(problem._grids) <= 3
            assert atoms[-1] == puzznic_predicates(level, problem.patterns)
        assert len(problem._grids) == 3
        assert len({state[0] for state in states}) > 3
        assert any(problem.is_goal(state) for state in states)
        assert_one_object_per_atom(*atoms, problem.goal_predicates)


class TestMoveTables:
    """``applicable`` and ``simulate``, which answer cursor moves from tables
    built at load, against ``applicable_moves`` and ``puzznic_step`` for every
    action in every state ``fbi`` reaches on each level."""

    @pytest.mark.parametrize("name", sorted(LEVELS))
    def test_every_action_answers_as_the_move_rule(self, name):
        problem, pairs = _fbi_pairs(LEVELS[name])
        states = {problem.initial} | {problem.simulate(s, a) for s, a in pairs}
        pushes = 0
        for state in states:
            level = _level(problem, state)
            applicable = problem.applicable(state)
            assert tuple(a.name for a in applicable) == applicable_moves(level)
            pushes += sum(a.name.startswith("push-") for a in applicable)
            for action in problem.actions:
                if action in applicable:
                    successor = problem.simulate(state, action)
                    assert _level(problem, successor) == puzznic_step(level, action.name)
                    continue
                with pytest.raises(InapplicableAction) as want:
                    puzznic_step(level, action.name)
                with pytest.raises(InapplicableAction) as got:
                    problem.simulate(state, action)
                assert str(got.value) == str(want.value)
            with pytest.raises(UnknownAction):
                problem.simulate(state, Action("cursor-jump"))
        assert pushes


class TestGravity:
    def test_one_pass_gravity_matches_the_segment_reference(self):
        rng = random.Random(13)
        falls = 0
        for _ in range(2000):
            height, width = rng.randint(1, 7), rng.randint(1, 7)
            grid = [rng.choices("#.ab", weights=(2, 4, 2, 2), k=width) for _ in range(height)]
            columns = None
            if rng.random() < 0.5:
                columns = sorted(rng.sample(range(width), rng.randint(0, width)))
            cells, expected = [cell for row in grid for cell in row], [list(row) for row in grid]
            moved, expected_moved = set(), set()
            changed = _gravity(cells, width, range(width) if columns is None else columns, moved)
            assert changed == segment_gravity(expected, columns, expected_moved)
            assert cells == [cell for row in expected for cell in row]
            # Every cell a block lands in, which holds the cells whose pattern changed.
            assert expected_moved <= {divmod(i, width) for i in moved}
            assert all(cells[i] in "ab" and grid[i // width][i % width] != "#" for i in moved)
            falls += changed
        assert falls > 500


class TestSettleFromChangedCells:
    """A push settled from the cells it changed against the reference's full
    scans, on random settled grids."""

    CASES = 400

    @staticmethod
    def _random_settled_grid(rng):
        height, width = rng.randint(3, 6), rng.randint(3, 7)
        rows = ["#" * (width + 2)]
        for _ in range(height):
            cells = rng.choices("#.abc", weights=(2, 4, 2, 2, 2), k=width)
            rows.append("#" + "".join(cells) + "#")
        rows.append("#" * (width + 2))
        return reference_settle(tuple(rows))[0]

    def test_every_push_settles_as_the_full_scan_does(self):
        rng = random.Random(12)
        pushes = cascades = 0
        for _ in range(self.CASES):
            grid = self._random_settled_grid(rng)
            for r, row in enumerate(grid):
                for c, cell in enumerate(row):
                    for name, dc in (("push-left", -1), ("push-right", 1)):
                        if cell in "#." or row[c + dc] != ".":
                            continue
                        record = []
                        hinted = puzznic_step(PuzznicLevel(grid, (r, c)), name, record)
                        pushed = _pushed_by_hand(grid, r, c, dc)
                        full = [("push", pushed, None)]
                        settled, waves = reference_settle(pushed, full)
                        assert (hinted.grid, hinted.score) == (settled, score_gain(waves))
                        assert settle_rows(pushed) == (settled, waves)
                        assert record == full
                        pushes += 1
                        cascades += len(waves) > 1
        assert pushes > 1000 and cascades > 10


class TestRenderPuzznic:
    def test_empty_plan_is_one_initial_frame(self):
        problem = load_problem(fixture_path("single_pair.puz"))
        frames = render_puzznic(problem, ())
        assert len(frames) == 1
        assert frames[0].startswith("initial\n")
        assert "score 0" in frames[0]
        # the cursor shows as the uppercase pattern letter when on a block
        assert "#A.a#" in frames[0]

    def test_cursor_move_adds_one_frame(self):
        problem = load_problem(fixture_path("single_pair.puz"))
        frames = render_puzznic(problem, ("cursor-right",))
        assert len(frames) == 2
        assert frames[1].startswith("cursor-right\n")
        assert "#a@a#" in frames[1]

    def test_push_and_clear_frames_carry_the_score(self):
        problem = load_problem(fixture_path("single_pair.puz"))
        frames = render_puzznic(problem, ("push-right",))
        assert len(frames) == 3
        assert frames[1].startswith("push-right\n")
        assert "clear wave 1: 2 block(s) +200" in frames[2]
        assert "score 200" in frames[2]
        assert frames[2].rstrip().endswith("cleared order: a")

    def test_replay_failure_points_at_the_step(self):
        problem = load_problem(fixture_path("single_pair.puz"))
        with pytest.raises(InapplicableAction, match=r"frame 3") as exc:
            render_puzznic(problem, ("push-right", "push-right"))
        assert exc.value.index == 1
