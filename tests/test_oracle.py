import math
import time

import pytest

from divsim.behaviour import BehaviourSpace, CostBound, GoalOrder, extract_behaviour
from divsim.core import replay
from divsim.domains import load_problem
from divsim.errors import OracleTooLarge
from divsim.oracle import brute_force_behaviours

from conftest import ToggleProblem, fixture_path, random_undo_problem
from oracles import dfs_behaviours


def _both_features(problem, bound):
    return BehaviourSpace(
        (CostBound(bound), GoalOrder(tuple(problem.goal_predicates)))
    )


class TestBruteForce:
    def test_corridor_has_one_behaviour(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        got = brute_force_behaviours(problem, _both_features(problem, 2), max_len=3)
        assert len(got) == 1
        (behaviour,) = got
        assert behaviour.cost == 2
        assert got[behaviour] == ("right", "right")

    def test_open_grid_contains_both_orders(self):
        problem = load_problem(fixture_path("open3x3.grid"))
        space = _both_features(problem, 6)
        got = brute_force_behaviours(problem, space, max_len=6, cost_bound=6)
        orders = {b.goal_order for b in got}
        assert len(orders) == 2

    def test_witnesses_replay_to_goal(self):
        problem = load_problem(fixture_path("diamond.json"))
        space = _both_features(problem, 5)
        got = brute_force_behaviours(problem, space, max_len=3, cost_bound=5)
        assert {b.cost for b in got} == {4, 5}
        for behaviour, plan in got.items():
            trace = replay(problem, plan)
            assert trace.states[-1].goal_flag
            assert trace.states[-1].cost_so_far == behaviour.cost

    def test_zero_length_only_counts_goal_initial(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        got = brute_force_behaviours(problem, _both_features(problem, 3), max_len=0)
        assert got == {}

    def test_guard_trips_on_huge_enumerations(self, monkeypatch):
        monkeypatch.setattr("divsim.oracle.NODE_GUARD", 100)
        problem = load_problem(fixture_path("open3x3.grid"))
        with pytest.raises(OracleTooLarge) as err:
            brute_force_behaviours(problem, _both_features(problem, 50), max_len=50)
        assert err.value.count > err.value.limit == 100

    def test_astronomical_lengths_answer_fast(self):
        # The keys bound the search, so a length cap far past the longest
        # plan changes neither the answer nor the work.
        problem = load_problem(fixture_path("diamond.json"))
        space = _both_features(problem, 5)
        started = time.perf_counter()
        got = brute_force_behaviours(problem, space, max_len=10**9)
        assert time.perf_counter() - started < 1.0
        assert got == brute_force_behaviours(problem, space, max_len=20)

    def test_one_action_never_trips_the_guard(self):
        class SetOnly(ToggleProblem):
            """``ToggleProblem`` cut down to its one action, set-a, and goal ga."""

            def __init__(self):
                super().__init__()
                self._actions = self._actions[:1]

            @property
            def goal_predicates(self):
                return (self._ga,)

        space = BehaviourSpace((GoalOrder(("ga",)),))
        got = brute_force_behaviours(SetOnly(), space, max_len=10**9)
        assert list(got.values()) == [("set-a",)]

    @pytest.mark.parametrize(
        "name,max_len,bound",
        [
            ("corridor3.grid", 4, 4),
            ("open3x3.grid", 6, 6),
            ("single_pair.puz", 3, 3),
            ("diamond.json", 3, 5),
            ("multi_sensitive.json", 3, 3),
        ],
    )
    def test_matches_independent_depth_first_enumeration(self, name, max_len, bound):
        # Without the cost feature, one behaviour has plans of several lengths,
        # so the witness lengths check that the oracle's witnesses are shortest.
        problem = load_problem(fixture_path(name))
        order_only = BehaviourSpace((GoalOrder(tuple(problem.goal_predicates)),))
        for space in (_both_features(problem, bound), order_only):
            fast = brute_force_behaviours(problem, space, max_len, cost_bound=bound)
            slow = dfs_behaviours(problem, space, max_len, cost_bound=bound)
            assert set(fast) == set(slow)
            for behaviour, plan in fast.items():
                assert extract_behaviour(space, problem, plan) == behaviour
                assert len(plan) == len(slow[behaviour]), (behaviour, plan, slow[behaviour])

    def test_cost_bound_defaults_to_space_bound(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        space = _both_features(problem, 2)
        got = brute_force_behaviours(problem, space, max_len=4)
        assert {b.cost for b in got} == {2}

    def test_goal_extensions_keep_counting(self):
        # plans that keep moving after the goal are still goal plans
        problem = load_problem(fixture_path("corridor3.grid"))
        space = _both_features(problem, 4)
        got = brute_force_behaviours(problem, space, max_len=4, cost_bound=4)
        assert {b.cost for b in got} == {2, 3, 4}

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("with_cost", [False, True], ids=["go", "go,cb"])
    def test_matches_depth_first_enumeration_on_undoable_goals(self, seed, with_cost):
        # Undoing a goal hides the goal order from the raw state, so two paths
        # to one (state, cost) can differ in their orders: the key must keep them apart.
        problem = random_undo_problem(seed)
        goals = GoalOrder(tuple(problem.goal_predicates))
        space = BehaviourSpace((CostBound(6), goals) if with_cost else (goals,))
        bound = 6 if with_cost else math.inf
        fast = brute_force_behaviours(problem, space, max_len=5)
        slow = dfs_behaviours(problem, space, max_len=5, cost_bound=bound)
        assert set(fast) == set(slow)
        for behaviour, plan in fast.items():
            assert len(plan) == len(slow[behaviour]), (behaviour, plan, slow[behaviour])
