import itertools
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
from divsim.core import Action, SimulatorProblem, replay
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

from conftest import FIXTURES, FinishToggleProblem, UndoToggleProblem, fixture_path
from oracles import plain_iw, restart_fbi
from test_acceptance import star_scenario


def _atoms(*names):
    return frozenset(names)


LIMITS = SearchLimits(cost_bound=20, time_budget_s=30.0, node_budget=1_000_000)


def _go_space(problem):
    return BehaviourSpace((GoalOrder(tuple(problem.goal_predicates)),))


class AlreadyDone(SimulatorProblem):
    """Initial state satisfies the goal; no action ever applies."""

    @property
    def initial(self):
        return frozenset(["done"])

    @property
    def actions(self):
        return (Action("noop"),)

    @property
    def goal_predicates(self):
        return ("done",)

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

    CHAIN = tuple(frozenset(f"triple-{n}" for n in names)
                  for names in ((), "ab", "bc", "ac", "abc"))

    @property
    def initial(self):
        return self.CHAIN[0]

    @property
    def actions(self):
        return (Action("next"), Action("back"))

    @property
    def goal_predicates(self):
        return ("triple-c",)

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
        got = state_tuples(_atoms("p", "q", "r"), 2)
        assert got == frozenset(
            {
                "p",
                "q",
                "r",
                frozenset({"p", "q"}),
                frozenset({"p", "r"}),
                frozenset({"q", "r"}),
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
        atoms = [f"novelty-atom-{i}" for i in range(6)]
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

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_keys_follow_the_combinations_order(self, width):
        rng = random.Random(f"subsets-{width}")
        table = NoveltyTable(width, NoveltyScope.TRACE_LOCAL)
        for _ in range(200):
            mask = rng.getrandbits(rng.randint(0, 12))
            bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
            assert table._subsets(mask) == tuple(
                sum(combo) for size in range(width) for combo in itertools.combinations(bits, size)
            )

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

    def test_behaviour_generator_stays_within_the_space_cost_bound(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        space = _go_cb_space(problem, 2)
        out = behaviour_generator(problem, space, frozenset(), NoveltyConfig(), SearchLimits())
        assert out is None

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

    def test_visited_key_joins_raw_truths_and_latched_goals(self):
        # The key is one set, raw truths plus latched goals: set-a unset-a and
        # set-a unset-a set-a share it, since ga counts once whether it holds
        # or has only latched. A key keeping the two apart gives 4 plans and
        # 3 behaviours here; the oracle finds 8 behaviours up to length 8.
        problem = UndoToggleProblem()
        space = BehaviourSpace((GoalOrder(tuple(problem.goal_predicates)), CostBound(8)))
        res = fbi(problem, space, k=10, novelty=NoveltyConfig(2), limits=SearchLimits(8))
        assert res.plans == (("set-a", "set-b"), ("set-b", "set-a"))
        assert res.behaviour_count == 2
        assert res.exhausted

    def test_result_pickles_round_trip(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        res = fbi(problem, _go_space(problem), k=3, limits=SearchLimits(8, 30.0, 1_000_000))
        loaded = pickle.loads(pickle.dumps(res))
        assert loaded.plans == res.plans
        assert loaded.behaviours == res.behaviours
        assert loaded.stats == res.stats

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


def _fbi_k(problem, space, k, limits):
    return fbi(problem, space, k, limits=limits)


def _naive_k(problem, space, k, limits):
    return fbi_naive(problem, k, limits=limits, space=space)


class TestTransitionMemo:
    def test_fbi_simulates_each_transition_once(self):
        problem, res = _pentest_run(_fbi)
        phase_two = res.plans[res.behaviour_count :]
        assert phase_two, "the run must reach plan forbidding"
        assert len(problem.simulated) == len(set(problem.simulated))
        assert res.stats.simulate_calls == len(problem.simulated)
        assert res.stats.memo_hits > res.stats.simulate_calls
        # One lookup per generated node: behaviours come from the nodes, so
        # no plan is replayed.
        assert res.stats.simulate_calls + res.stats.memo_hits == res.stats.nodes_generated
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

    @staticmethod
    def _recorded_memos(monkeypatch):
        """The list every ``TransitionMemo`` the search makes from now on joins."""
        memos = []

        class RecordedMemo(core.TransitionMemo):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(self)

        monkeypatch.setattr(search, "TransitionMemo", RecordedMemo)
        return memos

    @pytest.mark.parametrize("run", [_fbi, _naive], ids=["fbi", "naive"])
    def test_capped_memo_gives_the_same_plans(self, run, monkeypatch):
        _, full = _pentest_run(run)
        monkeypatch.setattr(core, "MEMO_CAP", 5)
        memos = self._recorded_memos(monkeypatch)
        problem, capped = _pentest_run(run)
        assert capped.plans == full.plans
        assert capped.behaviours == full.behaviours
        assert capped.stats.nodes_generated == full.stats.nodes_generated
        assert capped.stats.simulate_calls > full.stats.simulate_calls
        assert len(problem.simulated) > len(set(problem.simulated))
        assert len(memos) == 1 and len(memos[0]) <= 5

    @pytest.mark.parametrize("cap", [None, 5])
    def test_memo_length_counts_its_tables(self, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(core, "MEMO_CAP", cap)
        memos = self._recorded_memos(monkeypatch)
        _pentest_run(_fbi)
        (memo,) = memos
        assert len(memo) == len(memo._applicable) + len(memo._steps) + len(memo._states)
        assert len(memo) == 5 if cap else len(memo) > 5


def _star(n_lans, sensitive, pads=0):
    return lambda: PentestProblem.from_text(star_scenario(n_lans, sensitive, pads))


def _fixture(name):
    return lambda: load_problem(fixture_path(name))


def _go_cb_space(problem, bound=8):
    return BehaviourSpace((GoalOrder(tuple(problem.goal_predicates)), CostBound(bound)))


FIXTURE_NAMES = sorted(p.name for p in FIXTURES.iterdir() if p.is_file())


# (id, problem factory, space factory, k, cost bound). The toggles exercise
# interior pruning, which needs a space without cost; the stars have cost so
# that they reach phase 2 with trace-local novelty.
RESUME_CASES = (
    ("corridor_bend", _fixture("corridor_bend.grid"), _go_space, 4, 8),
    ("two_targets_line", _fixture("two_targets_line.grid"), _go_space, 6, 7),
    ("three_targets", _fixture("three_targets.grid"), _go_space, 10, 8),
    ("star-3", _star(3, {1, 2, 3}, 1), _go_cb_space, 12, 8),
    ("star-4", _star(4, {1, 3}, 1), _go_cb_space, 12, 8),
    ("star-5", _star(5, {2, 4}), _go_cb_space, 12, 8),
    ("undo-toggle", UndoToggleProblem, _go_space, 6, 10),
    ("finish-toggle", FinishToggleProblem, _go_space, 6, 10),
    ("pairs", _fixture("pairs.puz"), _go_space, 6, 6),
)


class TestResumedStreams:
    @pytest.mark.parametrize("pruning", [True, False], ids=["pruning", "no-pruning"])
    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("case", RESUME_CASES, ids=[c[0] for c in RESUME_CASES])
    def test_resumed_fbi_equals_restart_reference(self, case, width, scope, pruning):
        name, make, make_space, k, bound = case
        problem = make()
        space = make_space(problem)
        limits = SearchLimits(bound, 30.0, 1_000_000)
        novelty = NoveltyConfig(width, scope)
        got = fbi(problem, space, k, novelty, limits, interior_pruning=pruning)
        ref = restart_fbi(problem, space, k, novelty, limits, interior_pruning=pruning)
        assert got.plans == ref.plans
        assert got.behaviours == ref.behaviours
        assert got.exhausted == ref.exhausted
        assert got.stats.nodes_generated <= ref.stats.nodes_generated
        if name.startswith("star") and scope is NoveltyScope.TRACE_LOCAL:
            assert len(got.plans) > got.behaviour_count, "the run must reach phase 2"
        naive = fbi_naive(problem, k, novelty, limits, space=space)
        assert len(naive.behaviours) == len(naive.plans)
        for plan, behaviour in zip(naive.plans, naive.behaviours):
            assert behaviour == extract_behaviour(space, problem, plan)

    def test_no_restart_on_a_star(self):
        problem = PentestProblem.from_text(star_scenario(3, {1, 2, 3}, 1))
        res = fbi(problem, _go_cb_space(problem), k=12, limits=STAR_LIMITS)
        assert len(res.plans) > res.behaviour_count
        assert res.stats.restarts == 0
        assert res.stats.as_dict()["restarts"] == 0

    @pytest.mark.parametrize("width", [1, 2])
    def test_fallback_restarts_when_a_kept_interior_node_is_forbidden(self, width):
        # set-a, set-b is kept with both goals latched before finish reaches
        # the goal with the same order; forbidding that order must restart,
        # or the other order's route stays visited-pruned behind it.
        problem = FinishToggleProblem()
        space = _go_space(problem)
        limits = SearchLimits(10, 30.0, 1_000_000)
        novelty = NoveltyConfig(width)
        res = fbi(problem, space, 4, novelty, limits)
        assert res.stats.restarts >= 1
        assert res.stats.as_dict()["restarts"] == res.stats.restarts
        assert res.plans == restart_fbi(problem, space, 4, novelty, limits).plans
        assert res.behaviour_count == 2

    def test_node_budget_reaches_more_plans_than_restarting(self):
        problem = PentestProblem.from_text(star_scenario(3, {1, 2, 3}, 1))
        space = _go_cb_space(problem)
        full = restart_fbi(problem, space, 12, limits=STAR_LIMITS)
        resumed = fbi(problem, space, 12, limits=STAR_LIMITS)
        assert resumed.stats.nodes_generated < full.stats.nodes_generated
        # A budget of exactly the nodes resumed fbi generates.
        limits = SearchLimits(8, 30.0, resumed.stats.nodes_generated)
        within = fbi(problem, space, 12, limits=limits)
        assert within.plans == full.plans
        with pytest.raises(BudgetExceeded) as err:
            restart_fbi(problem, space, 12, limits=limits)
        assert err.value.kind == "nodes"
        partial = err.value.partial.plans
        assert len(partial) < len(full.plans)
        assert partial == full.plans[: len(partial)]


@pytest.mark.parametrize("case", RESUME_CASES, ids=[c[0] for c in RESUME_CASES])
def test_node_states_equal_the_replayed_trace(case, monkeypatch):
    """The search's integer nodes convert back to exactly the replayed trace,
    at every goal node and every interior node a behaviour is read from."""
    _, make, make_space, k, bound = case
    problem = make()
    space = make_space(problem)
    limits = SearchLimits(bound, 30.0, 1_000_000)
    seen = []
    real = search.node_states

    def recording(memo, node):
        states = real(memo, node)
        seen.append((search.node_plan(node), states))
        return states

    monkeypatch.setattr(search, "node_states", recording)
    fbi(problem, space, k, limits=limits)
    fbi_naive(problem, k, limits=limits, space=space)
    assert seen
    for plan, states in seen:
        assert states == list(replay(problem, plan).states)


class TestSpaceCapsCost:
    """A space's cost bound below the search limit caps the search."""

    @pytest.mark.parametrize("bound", [4, 6, 8])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_restart_reference_caps_as_fbi_does(self, name, bound):
        problem = load_problem(fixture_path(name))
        space = _go_cb_space(problem, bound)
        got = fbi(problem, space, 8)
        ref = restart_fbi(problem, space, 8)
        assert (got.plans, got.behaviours, got.exhausted) == (
            ref.plans,
            ref.behaviours,
            ref.exhausted,
        )

    @pytest.mark.parametrize("k", [3, 20])
    @pytest.mark.parametrize("bound", [3, 7, 8])
    @pytest.mark.parametrize("run", [_fbi_k, _naive_k], ids=["fbi", "naive"])
    def test_loose_limits_give_the_space_bound_result(self, run, bound, k):
        problem = load_problem(fixture_path("three_targets.grid"))
        space = _go_cb_space(problem, bound)
        loose = run(problem, space, k, SearchLimits())
        tight = run(problem, space, k, SearchLimits(cost_bound=bound))
        assert loose.plans == tight.plans
        assert loose.behaviours == tight.behaviours
        assert all(b.cost <= bound for b in loose.behaviours)
