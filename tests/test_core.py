import pickle

import pytest

from divsim.core import (
    Action,
    Predicate,
    TransitionMemo,
    initial_augmented,
    make_state,
    plan_cost,
    replay,
    successor_augmented,
    trace_view,
)
from divsim.errors import CostBoundExceeded, InapplicableAction, UnknownAction
from divsim.search import SearchStats


def test_predicates_are_interned():
    assert Predicate("at-1-1") is Predicate("at-1-1")
    assert Predicate("at-1-1") is not Predicate("at-1-2")


def test_predicate_pickles_to_the_interned_object():
    assert pickle.loads(pickle.dumps(Predicate("pickled-p"))) is Predicate("pickled-p")


def test_make_state_equality_is_set_equality():
    assert make_state(["p", "q"]) == make_state(["q", "p"])
    assert make_state([]) == frozenset()


@pytest.mark.parametrize("cost", [0, -1, 1.5, True])
def test_action_rejects_bad_costs(cost):
    with pytest.raises(ValueError):
        Action("a", cost)


def test_replay_builds_full_trace(toggle_problem):
    trace = replay(toggle_problem, ("set-a", "set-b"))
    assert len(trace.states) == 3
    assert trace.plan == ("set-a", "set-b")
    assert trace.states[-1].goal_flag
    assert trace.states[-1].cost_so_far == 2


def test_replay_rejects_inapplicable_action(toggle_problem):
    with pytest.raises(InapplicableAction) as err:
        replay(toggle_problem, ("unset-a",))
    assert err.value.index == 0


def test_replay_rejects_unknown_action(toggle_problem):
    with pytest.raises(UnknownAction):
        replay(toggle_problem, ("warp",))


def test_latch_survives_goal_undo(toggle_problem):
    trace = replay(toggle_problem, ("set-a", "unset-a", "set-b", "set-a"))
    ga = Predicate("ga")
    assert [ga in aug.raw for aug in trace.states] == [False, True, False, False, True]
    assert [ga in aug.latched for aug in trace.states] == [False, True, True, True, True]
    assert trace.states[-1].goal_flag


def test_initial_augmented_latches_initially_true_goals(toggle_problem):
    aug = initial_augmented(toggle_problem)
    assert aug.cost_so_far == 0
    assert not aug.goal_flag
    assert aug.latched == frozenset()


def test_successor_accumulates_cost(toggle_problem):
    aug = initial_augmented(toggle_problem)
    aug = successor_augmented(toggle_problem, aug, Action("set-a", 3))
    assert aug.cost_so_far == 3


def test_plan_cost_sums_declared_costs(toggle_problem):
    assert plan_cost(toggle_problem, ("set-a", "unset-a", "set-b")) == 3


def test_view_exposes_cost_goal_and_latch_atoms(toggle_problem):
    trace = replay(toggle_problem, ("set-a", "unset-a", "set-b", "set-a"))
    view = trace_view(trace, cost_bound=10)
    assert view[0] == frozenset({"cost-0"})
    assert view[1] == frozenset({"ga", "cost-1", "first-ga"})
    # the raw state lost ga but the latch atom stays from here on
    assert view[2] == frozenset({"cost-2", "first-ga"})
    assert "first-ga" in view[3] and "first-ga" in view[4]
    assert "goal-state" in view[4]
    assert "goal-state" not in view[3]


def test_view_enforces_cost_bound(toggle_problem):
    trace = replay(toggle_problem, ("set-a", "set-b"))
    with pytest.raises(CostBoundExceeded):
        trace_view(trace, cost_bound=1)
    assert len(trace_view(trace, cost_bound=2)) == 3


def test_memo_serves_repeats_without_the_simulator(toggle_problem, monkeypatch):
    simulated = []
    inner = toggle_problem.simulate
    monkeypatch.setattr(
        toggle_problem, "simulate", lambda s, a: simulated.append(a.name) or inner(s, a)
    )
    stats = SearchStats()
    memo = TransitionMemo(toggle_problem, stats)
    set_a = toggle_problem.action_named("set-a")
    first = memo.simulate(memo.initial, set_a)
    assert memo.simulate(memo.initial, set_a) is first
    assert simulated == ["set-a"]
    assert (stats.simulate_calls, stats.memo_hits) == (1, 1)
    assert memo.applicable(first) == toggle_problem.applicable(first)


def test_memo_interns_equal_states(toggle_problem):
    memo = TransitionMemo(toggle_problem, SearchStats())
    set_a, set_b = (toggle_problem.action_named(n) for n in ("set-a", "set-b"))
    ab = memo.simulate(memo.simulate(memo.initial, set_a), set_b)
    ba = memo.simulate(memo.simulate(memo.initial, set_b), set_a)
    assert ab is ba
    assert memo.is_goal(ab)


def test_memo_masks_use_dense_per_run_bits(toggle_problem):
    memo = TransitionMemo(toggle_problem, SearchStats())
    set_a, set_b = (toggle_problem.action_named(n) for n in ("set-a", "set-b"))
    a = memo.simulate(memo.initial, set_a)
    b = memo.simulate(memo.initial, set_b)
    ab = memo.simulate(a, set_b)
    assert memo.mask(memo.initial) == 0
    assert (memo.mask(a), memo.mask(b), memo.mask(ab)) == (0b01, 0b10, 0b11)
    assert memo.mask(make_state(["gb", "ga"])) == memo.mask(ab)
    # Another run numbers predicates in the order it meets them.
    other = TransitionMemo(toggle_problem, SearchStats())
    assert other.mask(b) == 0b01


def test_memo_replays_like_the_problem(toggle_problem):
    plan = ("set-a", "unset-a", "set-b", "set-a")
    memo = TransitionMemo(toggle_problem, SearchStats())
    assert replay(memo, plan) == replay(toggle_problem, plan)
