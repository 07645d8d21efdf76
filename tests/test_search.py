import pickle
import random

import pytest

from divsim import core, search
from divsim.behaviour import (
    Behaviour,
    BehaviourSpace,
    CostBound,
    GoalOrder,
    extract_behaviour,
)
from divsim.core import Action, Predicate, SimulatorProblem, make_state, replay
from divsim.domains import GridProblem, load_problem
from divsim.domains.pentest import PentestProblem
from divsim.errors import BudgetExceeded
from divsim.search import (
    NoveltyConfig,
    NoveltyScope,
    NoveltyTable,
    PlanSetResult,
    SearchLimits,
    behaviour_generator,
    fbi,
    fbi_naive,
    plan_generator,
    state_tuples,
)

from conftest import UndoToggleProblem, fixture_path
from oracles import plain_iw
from test_acceptance import star_scenario


def _atoms(*names):
    return make_state(names)


LIMITS = SearchLimits(cost_bound=20, time_budget_s=30.0, node_budget=1_000_000)


def _go_space(problem):
    return BehaviourSpace((GoalOrder(tuple(problem.goal_predicates)),))


class AlreadyDone(SimulatorProblem):
    """Initial state satisfies the goal; no action ever applies."""

    @property
    def initial(self):
        return make_state(["done"])

    @property
    def actions(self):
        return (Action("noop"),)

    @property
    def goal_predicates(self):
        return (Predicate("done"),)

    def applicable(self, state):
        return ()

    def simulate(self, state, action):
        return state

    def is_goal(self, state):
        return self.goal_set <= state


class PairsThenTriple(SimulatorProblem):
    """Chain whose goal state is new only as a triple of atoms.

    ``next`` walks {} -> {a, b} -> {b, c} -> {a, c} -> {a, b, c}, the goal;
    ``back`` returns to {}. Every atom and pair of the goal state already
    held on its own path, so IW reaches it only at width 3. Only c is a goal
    predicate, so that no visited key (raw plus latched) repeats on the way.
    """

    CHAIN = tuple(make_state(f"triple-{n}" for n in names)
                  for names in ((), "ab", "bc", "ac", "abc"))

    @property
    def initial(self):
        return self.CHAIN[0]

    @property
    def actions(self):
        return (Action("next"), Action("back"))

    @property
    def goal_predicates(self):
        return (Predicate("triple-c"),)

    def applicable(self, state):
        return tuple(
            a for a in self.actions
            if (a.name == "next" and state != self.CHAIN[-1])
            or (a.name == "back" and state != self.CHAIN[0])
        )

    def simulate(self, state, action):
        if action.name == "back":
            return self.CHAIN[0]
        return self.CHAIN[self.CHAIN.index(state) + 1]

    def is_goal(self, state):
        return state == self.CHAIN[-1]


# Test-local atom numbering; in a search the run's TransitionMemo assigns it.
BITS = {"p": 1, "q": 2, "r": 4}


def _mask(*names):
    return sum(BITS[n] for n in names)


def _summary(table, *states):
    """``table``'s summary with each state, given as atom names, recorded."""
    summary = {}
    for names in states:
        table.record(summary, _mask(*names))
    return summary


class TestNovelty:
    def test_width_one_new_atom_is_novel(self):
        table = NoveltyTable(1, NoveltyScope.TRACE_LOCAL)
        assert table.is_novel(_mask("p", "q"), _summary(table, ("p",)))

    def test_width_one_no_new_atom_is_not_novel(self):
        table = NoveltyTable(1, NoveltyScope.TRACE_LOCAL)
        assert not table.is_novel(_mask("p"), _summary(table, ("p", "q")))

    def test_width_two_fresh_pair_is_novel(self):
        table = NoveltyTable(2, NoveltyScope.TRACE_LOCAL)
        assert table.is_novel(_mask("p", "q"), _summary(table, ("p",), ("q",)))

    def test_width_two_accepts_single_new_atom(self):
        # a state smaller than the width can still prove novelty by a singleton
        table = NoveltyTable(2, NoveltyScope.TRACE_LOCAL)
        assert table.is_novel(_mask("q"), _summary(table, ("p",)))

    def test_width_two_tuples_include_singletons_and_pairs(self):
        p, q, r = Predicate("p"), Predicate("q"), Predicate("r")
        got = state_tuples(_atoms("p", "q", "r"), 2)
        assert got == frozenset(
            {
                p,
                q,
                r,
                frozenset({p, q}),
                frozenset({p, r}),
                frozenset({q, r}),
            }
        )
        assert state_tuples(_atoms("p", "q"), 1) == _atoms("p", "q")

    def test_global_scope_records_on_success(self):
        table = NoveltyTable(1, NoveltyScope.GLOBAL)
        summary = _summary(table, ("p",))
        assert table.is_novel(_mask("q"), summary)
        assert not table.is_novel(_mask("q"), summary)
        assert not table.is_novel(_mask("p", "q"), summary)

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_bitmask_decisions_match_tuple_definition(self, width, scope):
        rng = random.Random(f"novelty-{width}-{scope.value}")
        atoms = [Predicate(f"novelty-atom-{i}") for i in range(6)]
        bit = {a: 1 << i for i, a in enumerate(atoms)}

        def draw():
            return frozenset(rng.sample(atoms, rng.randint(0, 4)))

        decisions = []
        for _ in range(40):
            table = NoveltyTable(width, scope)
            root = draw()
            # (summary, tuples recorded) per kept node; GLOBAL shares one pair.
            kept = [(table.record({}, sum(bit[a] for a in root)), set(state_tuples(root, width)))]
            for _ in range(30):
                state = draw()
                mask = sum(bit[a] for a in state)
                tuples = state_tuples(state, width)
                summary, seen = rng.choice(kept)
                expected = not tuples <= seen
                got = table.is_novel(mask, summary)
                assert got == expected, (sorted(map(repr, state)), width, scope)
                decisions.append(got)
                if got and scope is NoveltyScope.GLOBAL:
                    seen |= tuples
                elif got:
                    kept.append((table.record(dict(summary), mask), seen | tuples))
        assert True in decisions and False in decisions

    def test_config_rejects_zero_width(self):
        with pytest.raises(ValueError):
            NoveltyConfig(max_width=0)


class TestGenerators:
    def test_unforbidden_generator_equals_plain_iw(self):
        for name in ("corridor3.grid", "corridor_bend.grid", "two_targets_line.grid"):
            problem = load_problem(fixture_path(name))
            out = behaviour_generator(
                problem, _go_space(problem), frozenset(), NoveltyConfig(2), LIMITS
            )
            assert out is not None
            plan, behaviour, stats = out
            assert plan == plain_iw(problem, 2, LIMITS.cost_bound)
            assert behaviour == extract_behaviour(_go_space(problem), problem, plan)
            assert stats.nodes_generated >= stats.nodes_expanded - 1

    @pytest.mark.parametrize(
        "problem",
        [
            PairsThenTriple(),
            *(load_problem(fixture_path(name))
              for name in ("two_targets_line.grid", "pairs.puz", "diamond.json")),
        ],
        ids=["pairs-then-triple", "two_targets_line", "pairs", "diamond"],
    )
    def test_width_three_generator_equals_plain_iw(self, problem):
        out = behaviour_generator(
            problem, _go_space(problem), frozenset(), NoveltyConfig(3), LIMITS
        )
        assert out is not None
        assert out[0] == plain_iw(problem, 3, LIMITS.cost_bound)

    def test_width_three_is_needed_and_reached(self):
        problem = PairsThenTriple()
        assert plain_iw(problem, 2, LIMITS.cost_bound) is None
        plan, _, stats = behaviour_generator(
            problem, _go_space(problem), frozenset(), NoveltyConfig(3), LIMITS
        )
        assert plan == ("next",) * 4
        assert sorted(stats.wall_time_by_width) == [1, 2, 3]

    def test_goal_initial_state_returns_empty_plan(self):
        problem = AlreadyDone()
        out = behaviour_generator(
            problem, _go_space(problem), frozenset(), NoveltyConfig(1), LIMITS
        )
        assert out is not None and out[0] == ()
        assert plain_iw(problem) == ()

    def test_forbidding_the_only_behaviour_exhausts(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        space = BehaviourSpace((CostBound(2), GoalOrder(tuple(problem.goal_predicates))))
        limits = SearchLimits(2, 30.0, 1_000_000)
        plan, behaviour, _ = behaviour_generator(
            problem, space, frozenset(), NoveltyConfig(2), limits
        )
        assert behaviour_generator(
            problem, space, frozenset({behaviour}), NoveltyConfig(2), limits
        ) is None

    def test_forbidding_redirects_to_second_order(self):
        problem = load_problem(fixture_path("two_targets_line.grid"))
        space = _go_space(problem)
        first_plan, first, _ = behaviour_generator(
            problem, space, frozenset(), NoveltyConfig(2), LIMITS
        )
        out = behaviour_generator(
            problem, space, frozenset({first}), NoveltyConfig(2), LIMITS
        )
        assert out is not None
        second_plan, second, _ = out
        assert second != first
        assert second.goal_order != first.goal_order

    def test_plan_generator_walks_known_plans(self):
        problem = load_problem(fixture_path("two_targets_line.grid"))
        space = _go_space(problem)
        known = set()
        plans = []
        for _ in range(3):
            out = plan_generator(problem, frozenset(known), NoveltyConfig(2), LIMITS)
            assert out is not None
            plan, _ = out
            assert plan not in known
            known.add(plan)
            plans.append(plan)
        assert plans[0] == plain_iw(problem, 2, LIMITS.cost_bound)
        assert len(set(plans)) == 3

    def test_plan_generator_exhausts_finite_plan_space(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        limits = SearchLimits(2, 30.0, 1_000_000)
        out = plan_generator(problem, frozenset(), NoveltyConfig(2), limits)
        assert out is not None
        assert plan_generator(problem, frozenset({out[0]}), NoveltyConfig(2), limits) is None

    def test_global_scope_finds_corridor_plan(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        config = NoveltyConfig(2, NoveltyScope.GLOBAL)
        out = behaviour_generator(problem, _go_space(problem), frozenset(), config, LIMITS)
        assert out is not None and out[0] == ("right", "right")


class TestFbi:
    def test_single_plan(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        res = fbi(problem, _go_space(problem), k=1, limits=LIMITS)
        assert len(res.plans) == 1
        assert res.behaviour_count == 1
        assert not res.exhausted
        assert res.behaviours[0] == extract_behaviour(
            _go_space(problem), problem, res.plans[0]
        )

    def test_phase_two_fills_with_plan_forbidding(self):
        problem = load_problem(fixture_path("two_targets_line.grid"))
        space = _go_space(problem)
        limits = SearchLimits(7, 30.0, 1_000_000)
        res = fbi(problem, space, k=4, limits=limits)
        # only two goal orders exist, so anything past two plans is phase 2;
        # novelty pruning may exhaust the plan space before k is reached
        assert 2 < len(res.plans) <= 4
        assert len(set(res.plans)) == len(res.plans)
        assert res.behaviour_count == 2
        assert len(res.behaviours) == len(res.plans)
        assert res.exhausted or len(res.plans) == 4

    def test_exhaustion_reported(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        limits = SearchLimits(2, 30.0, 1_000_000)
        res = fbi(problem, _go_space(problem), k=5, limits=limits)
        assert res.plans == (("right", "right"),)
        assert res.exhausted

    def test_unreachable_goal_exhausts_empty(self):
        problem = GridProblem.from_text("#####\n#S#T#\n#####\n")
        res = fbi(problem, _go_space(problem), k=2, limits=LIMITS)
        assert res.plans == ()
        assert res.behaviour_count == 0
        assert res.exhausted

    def test_deterministic_across_runs(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        space = _go_space(problem)
        limits = SearchLimits(8, 30.0, 1_000_000)
        first = fbi(problem, space, k=6, limits=limits)
        second = fbi(problem, space, k=6, limits=limits)
        assert first.plans == second.plans
        assert first.behaviours == second.behaviours

    def test_interior_pruning_toggle_preserves_behaviours(self):
        problem = UndoToggleProblem()
        space = _go_space(problem)
        limits = SearchLimits(7, 30.0, 1_000_000)
        on = fbi(problem, space, k=3, limits=limits, interior_pruning=True)
        off = fbi(problem, space, k=3, limits=limits, interior_pruning=False)
        assert set(on.behaviours) == set(off.behaviours)
        assert on.plans == off.plans
        assert on.stats.pruned_by_behaviour > off.stats.pruned_by_behaviour

    def test_one_group_forbidden_behaviour_prunes_no_interior_node(self):
        problem = UndoToggleProblem()
        ga, gb = problem.goal_predicates
        # set-b, set-a, unset-a: both goals latched, not a goal state
        tip = replay(problem, ("set-b", "set-a", "unset-a")).states[-1]
        assert tip.latched == {ga, gb} and not tip.goal_flag
        space = BehaviourSpace((GoalOrder((ga,)),))
        forbidden = frozenset({Behaviour(goal_order=(frozenset({ga}),))})
        counts = []
        for pruning in (True, False):
            stats = search.SearchStats()
            got = behaviour_generator(
                problem, space, forbidden, NoveltyConfig(), LIMITS,
                stats=stats, interior_pruning=pruning,
            )
            assert got is None  # every goal node repeats the only order
            counts.append(stats.pruned_by_behaviour)
        assert counts[0] == counts[1]

    def test_result_pickles_with_interned_predicates(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        res = fbi(problem, _go_space(problem), k=3, limits=SearchLimits(8, 30.0, 1_000_000))
        loaded = pickle.loads(pickle.dumps(res))
        assert loaded.plans == res.plans
        assert loaded.behaviours == res.behaviours
        assert loaded.stats == res.stats
        (goal, *_), *_ = loaded.behaviours[0].goal_order
        assert goal is Predicate(goal.name)

    def test_plans_replay_within_bound(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        space = _go_space(problem)
        limits = SearchLimits(8, 30.0, 1_000_000)
        res = fbi(problem, space, k=6, limits=limits)
        for plan in res.plans:
            behaviour = extract_behaviour(
                BehaviourSpace((CostBound(8),)), problem, plan
            )
            assert behaviour.cost <= 8


class TestBudgets:
    def test_node_budget_trips(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        with pytest.raises(BudgetExceeded) as err:
            fbi(
                problem,
                _go_space(problem),
                k=6,
                limits=SearchLimits(8, 30.0, 25),
            )
        assert err.value.kind == "nodes"
        assert isinstance(err.value.partial, PlanSetResult)
        assert not err.value.partial.exhausted

    def test_time_budget_trips(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        with pytest.raises(BudgetExceeded) as err:
            fbi(
                problem,
                _go_space(problem),
                k=6,
                limits=SearchLimits(8, 1e-7, 1_000_000),
            )
        assert err.value.kind == "time"

    def test_naive_budget_partial_not_exhausted(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        with pytest.raises(BudgetExceeded) as err:
            fbi_naive(problem, k=50, limits=SearchLimits(8, 30.0, 30))
        assert not err.value.partial.exhausted


class TestNaive:
    def test_first_plan_matches_fbi(self):
        problem = load_problem(fixture_path("two_targets_line.grid"))
        space = _go_space(problem)
        limits = SearchLimits(7, 30.0, 1_000_000)
        res_fbi = fbi(problem, space, k=1, limits=limits)
        res_naive = fbi_naive(problem, k=1, limits=limits, space=space)
        assert res_naive.plans == res_fbi.plans

    def test_accumulates_distinct_plans(self):
        problem = load_problem(fixture_path("two_targets_line.grid"))
        space = _go_space(problem)
        limits = SearchLimits(7, 30.0, 1_000_000)
        res = fbi_naive(problem, k=3, limits=limits, space=space)
        assert len(res.plans) == 3
        assert len(set(res.plans)) == 3
        assert res.behaviour_count == len(set(res.behaviours))

    def test_without_space_reports_plan_count(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        res = fbi_naive(problem, k=1, limits=LIMITS)
        assert res.plans == (("right", "right"),)
        assert res.behaviours == ()
        assert res.behaviour_count == 0


class CountingPentest(PentestProblem):
    """Pentest problem that records every transition it is asked to simulate."""

    def __init__(self, *args):
        super().__init__(*args)
        self.simulated = []

    def simulate(self, state, action):
        self.simulated.append((state, action.name))
        return super().simulate(state, action)


STAR_LIMITS = SearchLimits(8, 30.0, 1_000_000)


def _pentest_run(run):
    """``run(problem, space)`` on a fresh counting three-spoke star network."""
    problem = CountingPentest.from_text(star_scenario(3, {1, 2, 3}, 1))
    space = BehaviourSpace((GoalOrder(tuple(problem.goal_predicates)), CostBound(8)))
    return problem, run(problem, space)


def _fbi(problem, space):
    # Six behaviours exist, so k=12 runs through phase 2 to exhaustion.
    return fbi(problem, space, k=12, limits=STAR_LIMITS)


def _naive(problem, space):
    return fbi_naive(problem, k=12, limits=STAR_LIMITS, space=space)


class TestTransitionMemo:
    def test_fbi_simulates_each_transition_once(self):
        problem, res = _pentest_run(_fbi)
        phase_two = res.plans[res.behaviour_count :]
        assert phase_two, "the run must reach plan forbidding"
        assert len(problem.simulated) == len(set(problem.simulated))
        assert res.stats.simulate_calls == len(problem.simulated)
        assert res.stats.memo_hits > res.stats.simulate_calls
        # One lookup per generated node, plus one per step of each phase-2
        # plan that extract_behaviour replays.
        lookups = res.stats.nodes_generated + sum(len(p) for p in phase_two)
        assert res.stats.simulate_calls + res.stats.memo_hits == lookups
        doc = res.stats.as_dict()
        assert (doc["simulate_calls"], doc["memo_hits"]) == (
            res.stats.simulate_calls,
            res.stats.memo_hits,
        )

    def test_naive_counts_add_up(self):
        problem, res = _pentest_run(lambda p, _: fbi_naive(p, k=12, limits=STAR_LIMITS))
        assert len(problem.simulated) == len(set(problem.simulated))
        assert res.stats.simulate_calls == len(problem.simulated)
        assert res.stats.simulate_calls + res.stats.memo_hits == res.stats.nodes_generated

    @pytest.mark.parametrize("run", [_fbi, _naive], ids=["fbi", "naive"])
    def test_capped_memo_gives_the_same_plans(self, run, monkeypatch):
        _, full = _pentest_run(run)
        memos = []

        class RecordedMemo(core.TransitionMemo):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(self)

        monkeypatch.setattr(core, "MEMO_CAP", 5)
        monkeypatch.setattr(search, "TransitionMemo", RecordedMemo)
        problem, capped = _pentest_run(run)
        assert capped.plans == full.plans
        assert capped.behaviours == full.behaviours
        assert capped.stats.nodes_generated == full.stats.nodes_generated
        assert capped.stats.simulate_calls > full.stats.simulate_calls
        assert len(problem.simulated) > len(set(problem.simulated))
        assert len(memos) == 1 and len(memos[0]) <= 5
