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


def _step(memo, record, name):
    """The record that the action called ``name`` leads to from ``record``."""
    names = [action.name for action in memo.applicable(record)]
    return memo.step(record, names.index(name))


def test_memo_serves_repeats_without_the_simulator(toggle_problem, monkeypatch):
    simulated = []
    inner = toggle_problem.simulate
    monkeypatch.setattr(
        toggle_problem, "simulate", lambda s, a: simulated.append(a.name) or inner(s, a)
    )
    stats = SearchStats()
    memo = TransitionMemo(toggle_problem, stats)
    initial = memo.initial
    assert memo.applicable(initial) == toggle_problem.applicable(initial.state)
    first = _step(memo, initial, "set-a")
    assert _step(memo, initial, "set-a") is first
    assert simulated == ["set-a"]
    assert (stats.simulate_calls, stats.memo_hits) == (1, 1)
    assert initial.successors == [first]
    assert memo.applicable(first) == toggle_problem.applicable(first.state)


def test_memo_stores_successors_in_action_order_only(toggle_problem):
    # A step past the stored prefix is answered but not stored, so the
    # successor list stays a prefix of the applicable actions.
    stats = SearchStats()
    memo = TransitionMemo(toggle_problem, stats)
    initial = memo.initial
    set_b = _step(memo, initial, "set-b")
    assert initial.successors == []
    set_a = _step(memo, initial, "set-a")
    assert _step(memo, initial, "set-b") is set_b
    assert initial.successors == [set_a, set_b]
    assert (stats.simulate_calls, stats.memo_hits) == (3, 0)
    assert len(memo) == 3 + 2  # three records, two stored successors


def test_memo_interns_equal_states(toggle_problem):
    memo = TransitionMemo(toggle_problem, SearchStats())
    initial = memo.initial
    ab = _step(memo, _step(memo, initial, "set-a"), "set-b")
    ba = _step(memo, _step(memo, initial, "set-b"), "set-a")
    assert ab is ba
    assert ab.state == frozenset({"ga", "gb"})
    assert ab.goal, "both goals hold"


def _undo_steps(memo):
    """Masks after set-a, set-b, set-a set-b and set-a unset-a."""
    initial = memo.initial
    a = _step(memo, initial, "set-a")
    return (
        a.mask,
        _step(memo, initial, "set-b").mask,
        _step(memo, a, "set-b").mask,
        _step(memo, a, "unset-a").mask,
    )


def test_default_atom_bits_put_goals_first_and_stay_across_runs():
    problem = UndoToggleProblem()
    # A fresh problem meets undone-a before gb, and still numbers the goals
    # first, in declaration order, then every other atom as it meets it.
    memo = TransitionMemo(problem, SearchStats())
    assert memo.initial.mask == 0
    a = _step(memo, memo.initial, "set-a")
    assert _step(memo, a, "unset-a").mask == 0b100
    assert [problem.atom_bit(x) for x in ("ga", "gb", "undone-a")] == [0b001, 0b010, 0b100]
    assert _undo_steps(memo) == (0b001, 0b010, 0b011, 0b100)
    # The numbering is the problem's: a new memo holds none of the last
    # one's records, and reads the same masks.
    other = TransitionMemo(problem, SearchStats())
    assert len(other) == 1
    assert _undo_steps(other) == (0b001, 0b010, 0b011, 0b100)
    assert [problem.atom_bit(x) for x in ("ga", "gb", "undone-a")] == [0b001, 0b010, 0b100]


def test_memo_goal_bits_and_the_goals_of_a_mask():
    problem = UndoToggleProblem()
    memo = TransitionMemo(problem, SearchStats())
    assert memo.goal_bits == 0b11
    _, _, ab, undone = _undo_steps(memo)
    assert memo.goals(ab) == frozenset({"ga", "gb"})
    assert memo.goals(undone) == frozenset()
    assert memo.goals(undone | 0b01) == frozenset({"ga"})
    assert memo.goals(0) == frozenset()
    assert memo.goal_mask({"gb", "undone-a"}) == problem.atom_bit("gb") == 0b10


def test_default_atom_mask_is_the_or_of_the_atom_bits():
    problem = UndoToggleProblem()
    memo = TransitionMemo(problem, SearchStats())
    a = _step(memo, memo.initial, "set-a")
    for name in ("unset-a", "set-b"):
        got = _step(memo, a, name)
        bits = [problem.atom_bit(atom) for atom in problem.atoms(got.state)]
        assert len(bits) == len(set(bits)) == bin(got.mask).count("1")
        assert all(bit & got.mask and bit & (bit - 1) == 0 for bit in bits)
        assert sum(bits) == got.mask == problem.atom_mask(got.state)
    assert problem.atom_mask(_step(memo, a, "set-b").state) == 0b011

