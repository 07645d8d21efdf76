import itertools

import pytest

from divsim.behaviour import (
    Behaviour,
    BehaviourSpace,
    CostBound,
    GoalOrder,
    behaviour_formula,
    behaviour_to_json,
    extract_behaviour,
    latch_groups,
)
from divsim.core import replay, trace_view
from divsim.domains import load_problem
from divsim.errors import CostBoundExceeded, NotAGoalPlan
from divsim.ltl import evaluate, format_formula, is_latch_monotone
from divsim.oracle import brute_force_behaviours

from conftest import MICRO, feature_space, fixture_path


def _space(*features):
    return BehaviourSpace(tuple(features))


class TestFeatureValidation:
    def test_cost_bound_must_be_positive_int(self):
        with pytest.raises(ValueError):
            CostBound(0)
        with pytest.raises(ValueError):
            CostBound(-3)

    def test_cost_bound_rejects_a_bool(self):
        with pytest.raises(ValueError, match="positive integer"):
            CostBound(True)

    def test_goal_order_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            GoalOrder(())
        g = "g-dup"
        with pytest.raises(ValueError):
            GoalOrder((g, g))

    def test_space_needs_features(self):
        with pytest.raises(ValueError):
            BehaviourSpace(())

    def test_space_rejects_repeated_feature_kind(self):
        with pytest.raises(ValueError):
            _space(CostBound(5), CostBound(6))

    def test_space_rejects_foreign_objects(self):
        with pytest.raises(ValueError):
            BehaviourSpace(("not-a-feature",))

    def test_feature_accessors(self):
        cb = CostBound(9)
        go = GoalOrder(("g-acc",))
        space = _space(cb, go)
        assert space.cost_feature is cb
        assert space.order_feature is go
        assert _space(cb).order_feature is None
        assert _space(go).cost_feature is None


class TestLatchGroups:
    def test_goals_group_by_first_latch_position(self, toggle_problem):
        trace = replay(toggle_problem, ("set-a", "unset-a", "set-b"))
        groups = latch_groups(trace.states, toggle_problem.goal_predicates)
        assert groups == (frozenset({"ga"}), frozenset({"gb"}))

    def test_unachieved_goals_are_absent(self, toggle_problem):
        trace = replay(toggle_problem, ("set-b",))
        groups = latch_groups(trace.states, toggle_problem.goal_predicates)
        assert groups == (frozenset({"gb"}),)
        assert latch_groups(trace.states[:1], toggle_problem.goal_predicates) == ()

    def test_same_step_goals_share_a_group(self):
        problem = load_problem(fixture_path("cascade.puz"))
        trace = replay(problem, ("cursor-right", "push-left"))
        groups = latch_groups(trace.states, problem.goal_predicates)
        assert groups == (frozenset(problem.goal_predicates),)

    def test_prefix_orders_extend_each_other(self, toggle_problem):
        # interior pruning compares a node's order, so a prefix's order must
        # stay a prefix of every extension's order
        trace = replay(toggle_problem, ("set-a", "unset-a", "set-b"))
        seen = [
            latch_groups(trace.states[:cut], toggle_problem.goal_predicates)
            for cut in range(1, len(trace.states) + 1)
        ]
        for earlier, later in zip(seen, seen[1:]):
            assert later[: len(earlier)] == earlier
        assert seen[-1] == (frozenset({"ga"}), frozenset({"gb"}))


class TestExtract:
    def test_cost_and_order_dimensions(self, toggle_problem):
        space = _space(CostBound(5), GoalOrder(toggle_problem.goal_predicates))
        got = extract_behaviour(space, toggle_problem, ("set-b", "set-a"))
        assert got == Behaviour(
            cost=2,
            goal_order=(frozenset({"gb"}), frozenset({"ga"})),
        )

    def test_missing_dimensions_stay_none(self, toggle_problem):
        cost_only = extract_behaviour(
            _space(CostBound(5)), toggle_problem, ("set-a", "set-b")
        )
        assert cost_only == Behaviour(cost=2, goal_order=None)
        order_only = extract_behaviour(
            _space(GoalOrder(toggle_problem.goal_predicates)),
            toggle_problem,
            ("set-a", "set-b"),
        )
        assert order_only.cost is None

    def test_non_goal_plan_rejected(self, toggle_problem):
        space = _space(CostBound(5))
        with pytest.raises(NotAGoalPlan):
            extract_behaviour(space, toggle_problem, ("set-a",))

    def test_over_budget_plan_rejected(self, toggle_problem):
        space = _space(CostBound(2))
        with pytest.raises(CostBoundExceeded):
            extract_behaviour(space, toggle_problem, ("set-a", "unset-a", "set-a", "set-b"))


class TestFormula:
    G1, G2, G3 = "g1", "g2", "g3"

    def test_cost_and_strict_order_renders_frozen_text(self):
        space = _space(CostBound(10), GoalOrder((self.G1, self.G2)))
        b = Behaviour(cost=5, goal_order=(frozenset({self.G1}), frozenset({self.G2})))
        f = behaviour_formula(space, b)
        assert format_formula(f) == "F G (cost-5 & goal-state) & (!first-g2 U first-g1)"

    def test_single_group_yields_true(self):
        space = _space(GoalOrder((self.G1, self.G2)))
        b = Behaviour(goal_order=(frozenset({self.G1, self.G2}),))
        assert format_formula(behaviour_formula(space, b)) == "true"

    def test_three_strict_groups_give_three_pairs(self):
        space = _space(GoalOrder((self.G1, self.G2, self.G3)))
        b = Behaviour(
            goal_order=(
                frozenset({self.G1}),
                frozenset({self.G2}),
                frozenset({self.G3}),
            )
        )
        f = behaviour_formula(space, b)
        assert format_formula(f) == (
            "(!first-g2 U first-g1) & (!first-g3 U first-g1) & (!first-g3 U first-g2)"
        )

    def test_tied_pair_before_single_gives_two_pairs(self):
        space = _space(GoalOrder((self.G1, self.G2, self.G3)))
        b = Behaviour(goal_order=(frozenset({self.G1, self.G2}), frozenset({self.G3})))
        f = behaviour_formula(space, b)
        assert format_formula(f) == "(!first-g3 U first-g1) & (!first-g3 U first-g2)"

    def test_latch_monotone_iff_two_or_more_groups(self):
        # exactly the formulas of behaviours with 2+ groups have this shape;
        # interior pruning compares goal orders and does not rely on it
        goals = (self.G1, self.G2, self.G3)
        latches = [f"first-{g}" for g in goals]

        def orders(rest):
            yield ()
            for size in range(1, len(rest) + 1):
                for group in itertools.combinations(rest, size):
                    left = tuple(g for g in rest if g not in group)
                    for tail in orders(left):
                        yield (frozenset(group),) + tail

        checked = 0
        for order in orders(goals):
            b = Behaviour(cost=4, goal_order=order)
            f = behaviour_formula(_space(GoalOrder(goals)), b)
            assert is_latch_monotone(f, latches) == (len(order) >= 2), format_formula(f)
            with_cost = behaviour_formula(_space(CostBound(9), GoalOrder(goals)), b)
            assert not is_latch_monotone(with_cost, latches)
            checked += 1
        assert checked == 26  # every ordered partition of every subset of 3 goals

    def test_formula_separates_behaviours_on_real_traces(self):
        problem = load_problem(fixture_path("open3x3.grid"))
        space = _space(CostBound(6), GoalOrder(tuple(problem.goal_predicates)))
        one = ("up", "left", "down", "down", "right", "right")
        other = ("down", "right", "up", "up", "left", "left")
        b_one = extract_behaviour(space, problem, one)
        b_other = extract_behaviour(space, problem, other)
        assert b_one != b_other
        for plan, mine, theirs in ((one, b_one, b_other), (other, b_other, b_one)):
            view = trace_view(problem, replay(problem, plan), 6)
            assert evaluate(behaviour_formula(space, mine), view)
            assert not evaluate(behaviour_formula(space, theirs), view)
        # Every behaviour the oracle finds on criterion 1's micro fixtures: its
        # witness satisfies its own formula, and violates another behaviour's
        # when neither has a group of two or more goals (the formula is exact
        # only up to simultaneity).
        witnesses = pairs = 0
        for _, name, features, bound, max_len in MICRO:
            problem = load_problem(fixture_path(name))
            space = feature_space(problem, features, bound)
            oracle = brute_force_behaviours(problem, space, max_len)
            formulas = {b: behaviour_formula(space, b) for b in oracle}
            for mine, plan in oracle.items():
                view = trace_view(problem, replay(problem, plan), bound)
                assert evaluate(formulas[mine], view), (name, plan)
                witnesses += 1
                for theirs, formula in formulas.items():
                    groups = mine.goal_order + theirs.goal_order
                    if theirs != mine and all(len(g) == 1 for g in groups):
                        assert not evaluate(formula, view), (name, plan, theirs)
                        pairs += 1
        assert (witnesses, pairs) == (23, 42)


class TestJson:
    def test_json_form(self):
        g1, g2, g3 = "g1", "g2", "g3"
        b = Behaviour(cost=5, goal_order=(frozenset({g1}), frozenset({g3, g2})))
        assert behaviour_to_json(b) == {
            "cost": 5,
            "goal_order": [["g1"], ["g2", "g3"]],
        }
        assert behaviour_to_json(Behaviour(cost=3)) == {"cost": 3}
        assert behaviour_to_json(Behaviour()) == {}
