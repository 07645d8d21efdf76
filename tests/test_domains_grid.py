import pytest

from divsim.core import replay
from divsim.domains import GridProblem, load_problem
from divsim.domains.grid import parse_grid
from divsim.errors import InapplicableAction, LevelInvalid

from conftest import FIXTURES, assert_one_object_per_atom, fixture_path, reached_states
from oracles import grid_reference


SMALL = "#####\n#S.T#\n#####\n"


class TestParsing:
    def test_positions_and_walls(self):
        world = parse_grid(SMALL)
        assert world.start == (1, 1)
        assert world.targets == ((1, 3),)
        assert (0, 0) in world.walls and (1, 2) not in world.walls

    def test_blank_edge_lines_stripped(self):
        assert parse_grid("\n\n" + SMALL + "\n") == parse_grid(SMALL)

    def test_space_counts_as_wall(self):
        world = parse_grid("#####\n#S T#\n#####\n")
        assert (1, 2) in world.walls

    def test_short_rows_pad_with_walls(self):
        world = parse_grid("#####\n#S.T#\n##\n#####\n")
        assert (2, 3) in world.walls

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("#####\n#..T#\n#####\n", "no start"),
            ("#####\n#SST#\n#####\n", "more than one start"),
            ("#####\n#S..#\n#####\n", "no target"),
            ("#####\n#S?T#\n#####\n", "unknown grid character"),
            ("", "empty"),
        ],
    )
    def test_invalid_levels(self, text, reason):
        with pytest.raises(LevelInvalid, match=reason):
            parse_grid(text)


class TestProblem:
    def test_action_universe_order(self):
        problem = GridProblem.from_text(SMALL)
        assert tuple(a.name for a in problem.actions) == ("up", "down", "left", "right")
        assert all(a.cost == 1 for a in problem.actions)

    def test_applicable_respects_walls(self):
        problem = GridProblem.from_text(SMALL)
        names = tuple(a.name for a in problem.applicable(problem.initial))
        assert names == ("right",)

    def test_simulate_moves_the_agent(self):
        problem = GridProblem.from_text(SMALL)
        state = problem.simulate(problem.initial, problem.action_named("right"))
        atoms = problem.atoms(state)
        assert "at-1-2" in atoms
        assert "at-1-1" not in atoms

    def test_blocked_move_raises(self):
        problem = GridProblem.from_text(SMALL)
        with pytest.raises(InapplicableAction):
            problem.simulate(problem.initial, problem.action_named("up"))

    def test_target_visit_is_recorded_in_state(self):
        problem = GridProblem.from_text(SMALL)
        trace = replay(problem, ("right", "right", "left"))
        atoms = [problem.atoms(aug.raw) for aug in trace.states]
        visited = "visited-1-3"
        assert visited not in atoms[1]
        assert visited in atoms[2]
        # the marker is part of the raw state, so it survives leaving the cell
        assert visited in atoms[3]

    def test_goal_needs_every_target(self):
        problem = load_problem(fixture_path("two_targets_line.grid"))
        trace = replay(problem, ("up", "left"))
        assert not trace.states[-1].goal_flag
        trace = replay(problem, ("up", "left", "down", "right", "right", "right", "up"))
        assert trace.states[-1].goal_flag

    def test_states_share_one_string_per_atom(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        initial = problem.atoms(problem.initial)
        left_up = problem.atoms(replay(problem, ("left", "up")).states[-1].raw)
        up_left = problem.atoms(replay(problem, ("up", "left")).states[-1].raw)
        back = problem.atoms(replay(problem, ("right", "left")).states[-1].raw)
        assert left_up == up_left == {"at-1-1", "visited-1-1"}
        assert back == initial
        assert_one_object_per_atom(initial, left_up, up_left, back)

    def test_goal_predicates_follow_target_order(self):
        problem = load_problem(fixture_path("two_targets_line.grid"))
        assert problem.goal_predicates == (
            "visited-1-1",
            "visited-1-4",
        )


class TestReferenceAgreement:
    """The problem's states against ``grid_reference``, over every plan of up
    to six moves on every valid ``.grid`` fixture."""

    @pytest.mark.parametrize(
        "path",
        [p for p in sorted(FIXTURES.rglob("*.grid")) if p.name != "broken.grid"],
        ids=lambda p: p.name,
    )
    def test_atoms_applicable_and_goal_match_the_reference(self, path):
        problem = load_problem(path)
        reached = reached_states(problem, 6)
        for plan, state in reached:
            atoms, applicable, goal = grid_reference(problem.world, plan)
            assert problem.atoms(state) == atoms, plan
            assert tuple(a.name for a in problem.applicable(state)) == applicable, plan
            assert problem.is_goal(state) == goal, plan
        states = {state for _, state in reached}
        assert len({problem.atoms(s) for s in states}) == len(states)
