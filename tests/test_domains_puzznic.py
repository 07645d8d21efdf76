from collections import Counter

import pytest

from divsim.core import Predicate, replay
from divsim.domains import PuzznicProblem, load_problem, puzznic
from divsim.domains.puzznic import (
    applicable_moves,
    level_goal,
    parse_puzznic,
    puzznic_predicates,
    puzznic_step,
    render_puzznic,
    settle,
    score_gain,
)
from divsim.errors import (
    InapplicableAction,
    LevelInvalid,
    ParseError,
    UnknownAction,
)

from conftest import fixture_path


def _grid(*rows):
    return tuple(rows)


def _block_counts(grid):
    return Counter(ch for row in grid for ch in row if ch not in "#.")


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
        settled, waves = settle(grid)
        again, more = settle(settled)
        assert again == settled
        assert more == ()

    def test_gravity_is_per_column_segment(self):
        grid = _grid("#####", "#ab.#", "#...#", "#.#.#", "#####")
        settled, waves = settle(grid)
        assert waves == ()
        # column 1 is open down to row 3; column 2 has a wall at row 3
        assert settled == _grid("#####", "#...#", "#.b.#", "#a#.#", "#####")

    def test_matches_clear_and_cascade(self):
        # the b pair clears first, then the freed a drops next to the other a
        grid = _grid("######", "#.a..#", "#.b..#", "#.ba.#", "######")
        settled, waves = settle(grid)
        assert _block_counts(settled) == Counter()
        assert [sorted(p for _, _, p in wave) for wave in waves] == [["b", "b"], ["a", "a"]]
        assert score_gain(waves) == 100 * 2 * 1 + 100 * 2 * 2

    def test_blocks_are_conserved_outside_clears(self):
        grid = _grid("#####", "#a.b#", "#.#.#", "#####")
        settled, waves = settle(grid)
        assert waves == ()
        assert _block_counts(settled) == _block_counts(grid)

    def test_orthogonal_only_no_diagonal_match(self):
        grid = _grid("#####", "#a#.#", "##a.#", "#####")
        settled, waves = settle(grid)
        assert waves == ()
        assert _block_counts(settled) == Counter({"a": 2})

    def test_three_in_a_row_clears_together(self):
        grid = _grid("#####", "#aaa#", "#####")
        settled, waves = settle(grid)
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
        assert tuple(p.name for p in problem.goal_predicates) == (
            "cleared-a",
            "cleared-b",
        )

    def test_state_round_trips_through_predicates(self):
        problem = load_problem(fixture_path("cascade.puz"))
        trace = replay(problem, ("cursor-right", "push-left"))
        final = problem.level_of(trace.states[-1].raw)
        assert final.score == 600
        assert level_goal(final)
        assert trace.states[-1].goal_flag

    def test_score_band_predicate_tracks_band_width(self):
        problem = PuzznicProblem.from_text("; band-width: 50\n#####\n#A.a#\n#####\n")
        state = problem.simulate(problem.initial, problem.action_named("push-right"))
        assert Predicate("score-band-4") in state

    def test_predicates_expose_blocks_cursor_and_bands(self):
        level = parse_puzznic("#####\n#A.a#\n#####\n")
        atoms = {p.name for p in puzznic_predicates(level)}
        assert atoms == {"cursor-1-1", "score-band-0", "block-a-1-1", "block-a-1-3"}

    def test_cleared_pattern_atom_appears_after_match(self):
        problem = load_problem(fixture_path("single_pair.puz"))
        state = problem.simulate(problem.initial, problem.action_named("push-right"))
        assert Predicate("cleared-a") in state

    def test_expanding_a_state_decodes_it_once(self, monkeypatch):
        problem = load_problem(fixture_path("pairs.puz"))
        decodes = []
        band_score = puzznic._band_score
        monkeypatch.setattr(
            puzznic, "_band_score", lambda *args: decodes.append(args) or band_score(*args)
        )
        state = problem.initial
        children = [problem.simulate(state, a) for a in problem.applicable(state)]
        assert len(decodes) == 1
        # The kept decode never answers for another state.
        for child in children:
            assert problem.level_of(child) == PuzznicProblem(problem.level0).level_of(child)
        assert problem.level_of(state) == problem.level0


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
