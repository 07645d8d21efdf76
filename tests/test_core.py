import pytest

from divsim.core import (
    Action,
    TransitionMemo,
    initial_augmented,
    plan_cost,
    replay,
    successor_augmented,
    trace_view,
)
from divsim.errors import CostBoundExceeded, InapplicableAction, UnknownAction
from divsim.search import SearchStats

from conftest import UndoToggleProblem


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
    ga = "ga"
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
    view = trace_view(toggle_problem, trace, cost_bound=10)
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
        trace_view(toggle_problem, trace, cost_bound=1)
    assert len(trace_view(toggle_problem, trace, cost_bound=2)) == 3


def test_memo_serves_repeats_without_the_simulator(toggle_problem, monkeypatch):
    simulated = []
    inner = toggle_problem.simulate
    monkeypatch.setattr(
        toggle_problem, "simulate", lambda s, a: simulated.append(a.name) or inner(s, a)
    )
    stats = SearchStats()
    memo = TransitionMemo(toggle_problem, stats)
    initial = memo.initial[0]
    set_a = toggle_problem.action_named("set-a")
    first = memo.step(initial, set_a)
    assert memo.step(initial, set_a) is first
    assert simulated == ["set-a"]
    assert (stats.simulate_calls, stats.memo_hits) == (1, 1)
    assert memo.applicable(first[0]) == toggle_problem.applicable(first[0])


def test_memo_interns_equal_states(toggle_problem):
    memo = TransitionMemo(toggle_problem, SearchStats())
    initial = memo.initial[0]
    set_a, set_b = (toggle_problem.action_named(n) for n in ("set-a", "set-b"))
    ab = memo.step(memo.step(initial, set_a)[0], set_b)
    ba = memo.step(memo.step(initial, set_b)[0], set_a)
    assert ab[0] is ba[0]
    assert ab == ba
    assert ab[1], "both goals hold"


def _undo_steps(memo, problem):
    """Masks after set-a, set-b, set-a set-b and set-a unset-a."""
    set_a, unset_a, set_b = problem.actions
    initial = memo.initial[0]
    a, _, a_mask, _ = memo.step(initial, set_a)
    return (
        a_mask,
        memo.step(initial, set_b)[2],
        memo.step(a, set_b)[2],
        memo.step(a, unset_a)[2],
    )


def test_memo_masks_use_dense_per_run_bits():
    problem = UndoToggleProblem()
    memo = TransitionMemo(problem, SearchStats())
    assert memo.initial[2:] == (0, ())
    # Goals take the first bits in declaration order, other atoms follow.
    assert _undo_steps(memo, problem) == (0b001, 0b010, 0b011, 0b100)
    # Each run numbers atoms afresh; a new memo holds nothing of the last one.
    other = TransitionMemo(problem, SearchStats())
    assert len(other) == 1
    assert _undo_steps(other, problem) == (0b001, 0b010, 0b011, 0b100)


def test_memo_goal_bits_and_the_goals_of_a_mask():
    problem = UndoToggleProblem()
    memo = TransitionMemo(problem, SearchStats())
    assert memo.goal_bits == 0b11
    _, _, ab, undone = _undo_steps(memo, problem)
    assert memo.goals(ab) == frozenset({"ga", "gb"})
    assert memo.goals(undone) == frozenset()
    assert memo.goals(undone | 0b01) == frozenset({"ga"})
    assert memo.goals(0) == frozenset()


def test_memo_bits_are_the_bits_of_the_mask():
    problem = UndoToggleProblem()
    memo = TransitionMemo(problem, SearchStats())
    set_a, unset_a, set_b = problem.actions
    a = memo.step(memo.initial[0], set_a)[0]
    for _, _, mask, bits in (memo.step(a, set_b), memo.step(a, unset_a), memo.step(a, set_a)):
        assert len(bits) == len(set(bits)) == bin(mask).count("1")
        assert all(bit & mask and bit & (bit - 1) == 0 for bit in bits)
    assert sorted(memo.step(a, set_b)[3]) == [0b001, 0b010]
