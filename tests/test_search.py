import collections
import contextlib
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
    behaviour_of,
    extract_behaviour,
)
from divsim.core import Action, SimulatorProblem, replay
from divsim.domains import GridProblem, PuzznicProblem, load_problem
from divsim.domains.pentest import PentestProblem
from divsim.errors import BudgetExceeded
from divsim.oracle import brute_force_behaviours
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

from conftest import (
    FIXTURE_NAMES,
    FinishToggleProblem,
    UndoToggleProblem,
    feature_space,
    fixture_path,
    random_undo_problem,
    undo_mark_problem,
)
from oracles import plain_iw, restart_fbi
from test_acceptance import star_scenario
from test_golden import PUZZNIC_ROWS


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


# Test-local atom numbering; in a search the problem's ``atom_bit`` gives it.
BITS = {"p": 1, "q": 2, "r": 4}


def _state(*names):
    """The mask of the state that holds ``names``."""
    return sum(BITS[n] for n in names)


def _summary(table, *states):
    """``table``'s summary with each state, given as atom names, recorded."""
    summary = {}
    for names in states:
        table.record(summary, _state(*names))
    return summary


def _novel(table, names, parent, summary):
    """Whether the state ``names``, a child of the recorded ``parent``, is novel."""
    return table.is_novel(_state(*names), _state(*parent), summary)


def _workload_instance(name):
    """``(problem, space, cost bound, k)`` of one of the benchmark's two
    single-run instances."""
    if name == "puzznic-abc":
        problem = PuzznicProblem.from_text("\n".join(PUZZNIC_ROWS) + "\n")
        return problem, feature_space(problem, ("go",), None), 1000, 7
    problem = PentestProblem.from_text(star_scenario(7, set(range(1, 8)), 2))
    return problem, feature_space(problem, ("go", "cb"), 24), 24, 30


class LoggingDict(dict):
    """A summary that logs the keys it is asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


class TestNovelty:
    def test_width_one_new_atom_is_novel(self):
        table = NoveltyTable(1, NoveltyScope.TRACE_LOCAL)
        assert _novel(table, ("p", "q"), ("p",), _summary(table, ("p",)))

    def test_width_one_no_new_atom_is_not_novel(self):
        table = NoveltyTable(1, NoveltyScope.TRACE_LOCAL)
        assert not _novel(table, ("p",), ("p", "q"), _summary(table, ("p", "q")))
        assert not _novel(table, ("q",), ("p",), _summary(table, ("p",), ("q",)))

    def test_width_two_fresh_pair_is_novel(self):
        table = NoveltyTable(2, NoveltyScope.TRACE_LOCAL)
        assert _novel(table, ("p", "q"), ("q",), _summary(table, ("p",), ("q",)))

    def test_width_two_accepts_single_new_atom(self):
        # a state smaller than the width can still prove novelty by a singleton
        table = NoveltyTable(2, NoveltyScope.TRACE_LOCAL)
        assert _novel(table, ("q",), ("p",), _summary(table, ("p",)))

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
        assert _novel(table, ("q",), ("p",), summary)
        assert not _novel(table, ("q",), ("p",), summary)
        assert not _novel(table, ("p", "q"), ("p",), summary)

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    def test_width_two_looks_up_one_key_per_added_atom(self, scope):
        # Every pair below is already seen, so each test has to look at all
        # the keys it tries before it answers.
        table = NoveltyTable(2, scope)
        for names, parent, lookups in (
            (("p", "q", "r"), ("p", "q", "r"), 0),
            (("p",), ("p", "q"), 0),
            (("p", "q"), ("p",), 1),
            (("q", "r"), ("p",), 2),
        ):
            summary = LoggingDict(_summary(table, ("p", "q", "r"), parent))
            assert not _novel(table, names, parent, summary)
            assert len(summary.asked) == lookups, (names, parent)

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_bitmask_decisions_match_tuple_definition(self, width, scope):
        rng = random.Random(f"novelty-{width}-{scope.value}")
        atoms = [f"novelty-atom-{i}" for i in range(7)]
        bit = {a: 1 << i for i, a in enumerate(atoms)}

        def encode(state):
            return sum(bit[a] for a in state)

        def near(parent):
            """``(kind, state)``: a small change of the state ``parent``."""
            pick = rng.randrange(4)
            if pick == 0:
                return "one atom flipped", parent ^ {rng.choice(atoms)}
            if pick == 1:
                return "within the parent", frozenset(
                    rng.sample(sorted(parent), rng.randint(0, len(parent)))
                )
            rest = sorted(set(atoms) - parent)
            added = frozenset(rng.sample(rest, rng.randint(0, min(3, len(rest)))))
            if pick == 2:
                return "disjoint", added
            kept = rng.sample(sorted(parent), rng.randint(0, len(parent)))
            return "some atoms swapped", added.union(kept)

        kinds = collections.Counter()
        for _ in range(40):
            table = NoveltyTable(width, scope)
            root = frozenset(rng.sample(atoms, rng.randint(0, 4)))
            # (state, summary, tuples recorded) per kept node; GLOBAL nodes
            # share one summary and one set.
            kept = [(root, table.record({}, encode(root)), set(state_tuples(root, width)))]
            for _ in range(30):
                parent, summary, seen = rng.choice(kept)
                kind, state = near(parent)
                tuples = state_tuples(state, width)
                expected = not tuples <= seen
                got = table.is_novel(encode(state), encode(parent), summary)
                assert got == expected, (sorted(state), sorted(parent), width, scope)
                kinds[kind, got] += 1
                if got and scope is NoveltyScope.GLOBAL:
                    seen |= tuples
                    kept.append((state, summary, seen))
                elif got:
                    record = table.record(dict(summary), encode(state))
                    kept.append((state, record, seen | tuples))
        for kind in ("one atom flipped", "disjoint", "some atoms swapped"):
            assert kinds[kind, True] and kinds[kind, False], kind
        assert kinds["within the parent", False] and not kinds["within the parent", True]

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_layers_are_the_subsets_up_to_a_size(self, size):
        rng = random.Random(f"subsets-{size}")
        for _ in range(200):
            mask = rng.getrandbits(rng.randint(0, 12))
            bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
            got = list(search._layers(mask, size))
            assert len(got) == len(set(got))
            assert sorted(got) == sorted(
                sum(combo) for n in range(size + 1) for combo in itertools.combinations(bits, n)
            )

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_looks_up_each_key_that_holds_an_added_atom_once(self, width):
        # A summary in which every key holds every atom shows nothing novel,
        # so the test has to ask for every key it tries.
        rng = random.Random(f"tested-{width}")
        table = NoveltyTable(width, NoveltyScope.TRACE_LOCAL)
        for _ in range(200):
            mask = rng.getrandbits(rng.randint(1, 12)) | 1
            added = mask & rng.getrandbits(12) or mask & -mask
            keys = search._layers(mask, width - 1)
            summary = LoggingDict({key: mask for key in keys})
            assert not table.is_novel(mask, mask & ~added, summary)
            got = summary.asked
            if width == 1:
                assert got == [0]
                continue
            assert len(got) == len(set(got))
            assert set(got) == {k for k in keys if k & added}

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_table_keeps_nothing_per_state(self, width, scope):
        # The summaries belong to the caller; the table itself stays the same
        # size however many states it meets.
        table = NoveltyTable(width, scope)
        summary = {}
        parent = 0
        for mask in range(1, 2000):
            if table.is_novel(mask, parent, summary) and scope is NoveltyScope.TRACE_LOCAL:
                table.record(summary, mask)
            parent = mask
        assert vars(table) == {"width": width, "scope": scope}

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_splits_masks_into_bits_only_where_the_width_needs_them(
        self, width, scope, monkeypatch
    ):
        # ``record`` needs a state's bits from width 3 on, for its keys of two
        # atoms or more. ``is_novel`` needs them only from width 3 on, and
        # only when no one-atom key has decided; width 1 reads none.
        split = []
        mask_bits = search.mask_bits
        monkeypatch.setattr(search, "mask_bits", lambda mask: split.append(mask) or mask_bits(mask))
        table = NoveltyTable(width, scope)
        records = scope is NoveltyScope.GLOBAL  # a novel candidate is recorded
        summary = _summary(table, ("p", "q"))
        assert len(split) == (width >= 3)
        # r is new, so its one-atom key decides.
        split.clear()
        assert _novel(table, ("q", "r"), ("p", "q"), dict(summary)) is True
        assert len(split) == (width >= 3 and records)
        # Every atom has held with every other one, so only a key of two
        # atoms or more can show {p, q, r} new.
        summary = _summary(table, ("p", "q"), ("q", "r"), ("p", "r"))
        split.clear()
        assert _novel(table, ("p", "q", "r"), ("p", "r"), dict(summary)) is (width >= 3)
        assert len(split) == (width >= 3) * (1 + records)

    @pytest.mark.parametrize("with_parent", [True, False], ids=["with-parent", "without-parent"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_trace_decisions_match_tuple_definition_without_the_parent(self, width, with_parent):
        # In trace scope a candidate meets the summary its parent carries,
        # which lacks the parent, or, once the parent has recorded itself in
        # place, one that holds it. Both decide what the tuple definition
        # over the whole path decides.
        rng = random.Random(f"paths-{width}-{with_parent}")
        table = NoveltyTable(width, NoveltyScope.TRACE_LOCAL)

        def tuples(mask):
            return state_tuples(frozenset(i for i in range(8) if mask >> i & 1), width)

        decided = collections.Counter()
        for _ in range(30):
            parent = rng.getrandbits(8)
            summary = {}  # the ancestors of ``parent``, itself left out
            seen = set()  # their tuples
            for _ in range(20):
                mask = parent
                for _ in range(rng.randint(1, 3)):
                    mask ^= 1 << rng.randrange(8)
                expected = not tuples(mask) <= seen | tuples(parent)
                tested = table.record(dict(summary), parent) if with_parent else summary
                assert table.is_novel(mask, parent, tested) == expected, (mask, parent)
                decided[expected] += 1
                if expected:  # walk down to the novel child
                    table.record(summary, parent)
                    seen |= tuples(parent)
                    parent = mask
        assert decided[True] >= 50 and decided[False] >= 50, decided

    @staticmethod
    def _counted_run(name, scope, monkeypatch):
        """``fbi`` on the workload instance ``name`` with every novelty table,
        record and node that queues a child counted, and the ancestors of
        each yielded goal node checked as it is yielded."""
        counts = collections.Counter()

        class CountingTable(NoveltyTable):
            def __init__(self, *args):
                super().__init__(*args)
                counts["tables"] += 1

            def record(self, summary, *args):
                counts["records"] += 1
                counts["root_records"] += not summary
                return super().record(summary, *args)

            def is_novel(self, *args):
                novel = super().is_novel(*args)
                counts["novel"] += novel
                return novel

        stream = search._iw_goal_stream

        def checked_stream(*args, **kwargs):
            with contextlib.closing(stream(*args, **kwargs)) as goals:
                for goal in goals:
                    # The parent is mid-expansion; every earlier ancestor is done.
                    ancestors = search._chain(goal)[:-1]
                    if ancestors:
                        counts["yielded"] += 1
                        counts["parent_has_summary"] += ancestors[-1].summary is not None
                        counts["done_with_summary"] += sum(
                            n.summary is not None for n in ancestors[:-1]
                        )
                    yield goal

        class LoggingQueue(collections.deque):
            """A search queue that notes the parent of every node it queues."""

            def append(self, node):
                queuing.add(node.parent)
                super().append(node)

        queuing = set()  # the nodes that queued a child
        monkeypatch.setattr(search, "deque", LoggingQueue)
        monkeypatch.setattr(search, "NoveltyTable", CountingTable)
        monkeypatch.setattr(search, "_iw_goal_stream", checked_stream)
        problem, space, bound, k = _workload_instance(name)
        got = fbi(problem, space, k, NoveltyConfig(2, scope), SearchLimits(bound))
        counts["queuing"] = len(queuing)
        return got.stats, counts

    @pytest.mark.parametrize("name", ["puzznic-abc", "pentest-star7"])
    def test_trace_summary_lives_only_while_its_node_is_expanded(self, name, monkeypatch):
        stats, counts = self._counted_run(name, NoveltyScope.TRACE_LOCAL, monkeypatch)
        # A summary is built only by an expansion that queues a child.
        assert counts["records"] == counts["queuing"] < stats.nodes_expanded
        assert counts["yielded"] > 0
        assert counts["parent_has_summary"] == counts["yielded"]
        assert counts["done_with_summary"] == 0

    @pytest.mark.parametrize("name", ["puzznic-abc", "pentest-star7"])
    def test_global_scope_records_every_novel_candidate(self, name, monkeypatch):
        stats, counts = self._counted_run(name, NoveltyScope.GLOBAL, monkeypatch)
        # One root record per width of every search started (each builds
        # one table), and one per novel candidate.
        assert counts["records"] == counts["root_records"] + counts["novel"]
        assert counts["root_records"] == counts["tables"] >= len(stats.wall_time_by_width)
        assert counts["novel"] > 0

    def test_config_rejects_zero_width(self):
        with pytest.raises(ValueError):
            NoveltyConfig(max_width=0)

    @pytest.mark.parametrize(
        "args",
        [(2, "trace"), (2, "global"), (2.5,), (2.0,), (True,), ("2",)],
        ids=["scope-text-trace", "scope-text-global", "width-float", "width-integral-float",
             "width-bool", "width-text"],
    )
    def test_config_rejects_values_of_the_wrong_type(self, args):
        with pytest.raises(ValueError):
            NoveltyConfig(*args)


class TestLimits:
    @pytest.mark.parametrize(
        "kwargs",
        [{"cost_bound": True}, {"cost_bound": 8.0}, {"cost_bound": "8"},
         {"node_budget": True}, {"node_budget": 1e6}],
        ids=["cost-bound-bool", "cost-bound-float", "cost-bound-text",
             "node-budget-bool", "node-budget-float"],
    )
    def test_counts_of_the_wrong_type_are_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            SearchLimits(**kwargs)

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("-inf"), float("nan")])
    def test_time_budget_that_is_not_positive_is_rejected(self, budget):
        with pytest.raises(ValueError, match="search limits must be positive"):
            SearchLimits(time_budget_s=budget)

    def test_infinite_time_budget_never_trips(self):
        problem = load_problem(fixture_path("corridor3.grid"))
        limits = SearchLimits(cost_bound=8, time_budget_s=float("inf"))
        assert fbi(problem, _go_space(problem), 2, limits=limits).plans


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

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["pairs-then-triple"])
    def test_unforbidden_generator_equals_plain_iw_in_both_scopes(self, name, width, scope):
        if name == "pairs-then-triple":
            problem = PairsThenTriple()
        else:
            problem = load_problem(fixture_path(name))
        out = behaviour_generator(
            problem, _go_space(problem), frozenset(), NoveltyConfig(width, scope), LIMITS
        )
        expected = plain_iw(problem, width, LIMITS.cost_bound, scope)
        assert (out and out[0]) == expected

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

    def test_one_group_forbidden_behaviour_prunes_settled_interior_nodes(self):
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
        # Every goal below an all-latched node has its order, one group or more.
        assert counts[0] > counts[1]
        on = fbi(problem, space, k=3, limits=LIMITS, interior_pruning=True)
        off = fbi(problem, space, k=3, limits=LIMITS, interior_pruning=False)
        assert on.plans == off.plans
        assert set(on.behaviours) <= set(brute_force_behaviours(problem, space, max_len=6))

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
            fbi_naive(problem, k=50, limits=SearchLimits(8, 30.0, 30), space=_go_space(problem))
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


class Counting:
    """Mixin for a problem that records every transition it is asked to simulate."""

    def __init__(self, *args):
        super().__init__(*args)
        self.simulated = []

    def simulate(self, state, action):
        self.simulated.append((state, action.name))
        return super().simulate(state, action)


class CountingPentest(Counting, PentestProblem):
    pass


class CountingGrid(Counting, GridProblem):
    pass


STAR_LIMITS = SearchLimits(8, 30.0, 1_000_000)


def _pentest_run(run):
    """``run(problem, space)`` on a fresh counting three-spoke star network.

    Width 1 prunes nothing there, so the sweep ends after it."""
    problem = CountingPentest.from_text(star_scenario(3, {1, 2, 3}, 1))
    return problem, run(problem, _go_cb_space(problem))


def _grid_run(run):
    """``run(problem, space)`` on a fresh counting ``three_targets.grid``.

    Width 1 prunes there, so width 2 runs and steps through the
    transitions width 1 simulated."""
    problem = CountingGrid.from_text(fixture_path("three_targets.grid").read_text())
    return problem, run(problem, _go_cb_space(problem))


def _fbi(problem, space):
    # k=12 runs through phase 2 to exhaustion on both counting problems.
    return fbi(problem, space, k=12, limits=STAR_LIMITS)


def _naive(problem, space):
    return fbi_naive(problem, k=12, limits=STAR_LIMITS, space=space)


def _fbi_k(problem, space, k, limits):
    return fbi(problem, space, k, limits=limits)


def _naive_k(problem, space, k, limits):
    return fbi_naive(problem, k, limits=limits, space=space)


class TestTransitionMemo:
    def test_fbi_simulates_each_transition_once(self):
        problem, res = _grid_run(_fbi)
        phase_two = res.plans[res.behaviour_count :]
        assert phase_two, "the run must reach plan forbidding"
        assert len(problem.simulated) == len(set(problem.simulated))
        assert res.stats.simulate_calls == len(problem.simulated)
        # Width 2 steps through the transitions width 1 simulated; phase 2
        # reads its plans off phase 1 and looks nothing up.
        assert res.stats.memo_hits > 0
        # One lookup per generated node: behaviours come from the nodes, so
        # no plan is replayed.
        assert res.stats.simulate_calls + res.stats.memo_hits == res.stats.nodes_generated
        doc = res.stats.as_dict()
        assert (doc["simulate_calls"], doc["memo_hits"]) == (
            res.stats.simulate_calls,
            res.stats.memo_hits,
        )

    def test_naive_counts_add_up(self):
        problem, res = _grid_run(
            lambda p, _: fbi_naive(p, k=12, limits=STAR_LIMITS, space=_go_space(p))
        )
        assert len(problem.simulated) == len(set(problem.simulated))
        assert res.stats.simulate_calls == len(problem.simulated)
        assert res.stats.simulate_calls + res.stats.memo_hits == res.stats.nodes_generated

    def test_stream_closed_mid_expansion_leaves_a_prefix(self):
        problem = CountingPentest.from_text(star_scenario(3, {1, 2, 3}, 1))
        stats = search.SearchStats()
        memo = core.TransitionMemo(problem, stats)
        budget = search.Budget(STAR_LIMITS)

        def stream():
            return search._iw_goal_stream(memo, NoveltyConfig(), budget, stats, expand_goals=True)

        with contextlib.closing(stream()) as goals:
            parent = next(goals).parent.record
        assert 0 < len(parent.successors) < len(parent.applicable)
        assert len(list(stream())) > 1
        assert len(parent.successors) == len(parent.applicable)
        assert len(problem.simulated) == len(set(problem.simulated))
        assert stats.simulate_calls == len(problem.simulated)
        assert stats.simulate_calls + stats.memo_hits == stats.nodes_generated

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
        _, full = _grid_run(run)
        monkeypatch.setattr(core, "MEMO_CAP", 5)
        memos = self._recorded_memos(monkeypatch)
        problem, capped = _grid_run(run)
        assert capped.plans == full.plans
        assert capped.behaviours == full.behaviours
        assert capped.stats.nodes_generated == full.stats.nodes_generated
        assert capped.stats.simulate_calls > full.stats.simulate_calls
        assert len(problem.simulated) > len(set(problem.simulated))
        assert len(memos) == 1 and len(memos[0]) <= 5

    @pytest.mark.parametrize("cap", [None, 5])
    def test_memo_length_counts_records_and_successors(self, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(core, "MEMO_CAP", cap)
        memos = self._recorded_memos(monkeypatch)
        _pentest_run(_fbi)
        (memo,) = memos
        records = memo._records.values()
        assert len(memo) == len(records) + sum(len(r.successors or ()) for r in records)
        assert len(memo) == 5 if cap else len(memo) > 5


def _star(n_lans, sensitive, pads=0):
    return lambda: PentestProblem.from_text(star_scenario(n_lans, sensitive, pads))


def _fixture(name):
    return lambda: load_problem(fixture_path(name))


def _go_cb_space(problem, bound=8):
    return BehaviourSpace((GoalOrder(tuple(problem.goal_predicates)), CostBound(bound)))


def _first_goal_space(problem):
    return BehaviourSpace((GoalOrder(tuple(problem.goal_predicates[:1])),))


def _cost_space(problem, bound=8):
    return BehaviourSpace((CostBound(bound),))


# Each ``run(problem, space, novelty)`` asks for 12 plans within cost 8.
SWEEP_RUNS = {
    "fbi": lambda problem, space, novelty: fbi(problem, space, 12, novelty, STAR_LIMITS),
    "naive": lambda problem, space, novelty: fbi_naive(
        problem, 12, novelty, STAR_LIMITS, space=space
    ),
}


@pytest.mark.parametrize("run", SWEEP_RUNS.values(), ids=SWEEP_RUNS.keys())
class TestWidthSweepStop:
    """A width that prunes nothing by novelty ends the sweep: the next width
    would generate the same nodes and find no new plan."""

    @pytest.mark.parametrize("width", [2, 3])
    def test_a_width_that_prunes_nothing_ends_the_sweep(self, run, width):
        problem = _star(3, {1, 2, 3}, 1)()
        space = _go_cb_space(problem)
        one = run(problem, space, NoveltyConfig(1))
        got = run(problem, space, NoveltyConfig(width))
        assert one.stats.pruned_by_novelty == 0
        assert got.plans == one.plans
        assert got.behaviours == one.behaviours
        assert got.exhausted == one.exhausted
        assert got.stats.nodes_generated == one.stats.nodes_generated
        assert list(got.stats.wall_time_by_width) == [1]

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    def test_a_width_that_prunes_runs_the_next(self, run, scope):
        problem = load_problem(fixture_path("three_targets.grid"))
        space = _go_cb_space(problem)
        one = run(problem, space, NoveltyConfig(1, scope))
        two = run(problem, space, NoveltyConfig(2, scope))
        assert one.stats.pruned_by_novelty > 0
        assert list(two.stats.wall_time_by_width) == [1, 2]
        assert set(two.plans) - set(one.plans)


# (id, problem factory, space factory, k, cost bound). The toggles exercise
# interior pruning, which needs a space without cost; the stars have cost so
# that they reach phase 2 with trace-local novelty, and one of them has a
# cost feature alone. undo-mark drops an interior node that a plain search
# keeps, so its phase 2 must search again.
RESUME_CASES = (
    ("corridor_bend", _fixture("corridor_bend.grid"), _go_space, 4, 8),
    ("two_targets_line", _fixture("two_targets_line.grid"), _go_space, 6, 7),
    ("three_targets", _fixture("three_targets.grid"), _go_space, 10, 8),
    ("star-3", _star(3, {1, 2, 3}, 1), _go_cb_space, 12, 8),
    ("star-4", _star(4, {1, 3}, 1), _go_cb_space, 12, 8),
    ("star-5", _star(5, {2, 4}), _go_cb_space, 12, 8),
    ("star-3-cost-only", _star(3, {1, 2, 3}, 1), _cost_space, 12, 8),
    ("undo-toggle", UndoToggleProblem, _go_space, 6, 10),
    ("finish-toggle", FinishToggleProblem, _go_space, 6, 10),
    ("undo-toggle-one-group", UndoToggleProblem, _first_goal_space, 6, 10),
    ("finish-toggle-one-group", FinishToggleProblem, _first_goal_space, 6, 10),
    ("pairs", _fixture("pairs.puz"), _go_space, 6, 6),
    ("undo-mark", undo_mark_problem, _go_space, 6, 10),
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

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("width", [1, 2])
    def test_resumed_fbi_equals_restart_reference_on_random_goal_undoing_problems(
        self, width, scope
    ):
        novelty = NoveltyConfig(width, scope)
        limits = SearchLimits(8, 30.0, 1_000_000)
        for seed in range(40):
            problem = random_undo_problem(seed)
            space = _go_space(problem)
            got = fbi(problem, space, 6, novelty, limits)
            ref = restart_fbi(problem, space, 6, novelty, limits)
            assert got.plans == ref.plans, seed
            assert got.behaviours == ref.behaviours, seed
            assert got.exhausted == ref.exhausted, seed

    def test_drop_is_asked_only_of_non_goal_nodes_with_every_goal_latched(self):
        problem = UndoToggleProblem()
        stats = search.SearchStats()
        memo = core.TransitionMemo(problem, stats)
        asked = []  # ``append`` returns None, so drop lets every node through
        stream = search._iw_goal_stream(
            memo, NoveltyConfig(), search.Budget(LIMITS), stats, drop=asked.append
        )
        with contextlib.closing(stream):
            goals = list(stream)
        assert goals and asked
        assert all(not n.record.goal and n.latched == memo.goal_bits for n in asked)

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

    @pytest.mark.parametrize(
        "width, scope",
        [(1, NoveltyScope.TRACE_LOCAL), (2, NoveltyScope.TRACE_LOCAL), (2, NoveltyScope.GLOBAL)],
        ids=["1-trace", "2-trace", "2-global"],
    )
    def test_one_group_order_reaches_the_fallback(self, width, scope):
        # A one-group order is fixed once every goal has latched too, so the
        # kept set-a, set-b node must restart the stream here as well.
        problem = FinishToggleProblem()
        space = _first_goal_space(problem)
        limits = SearchLimits(10, 30.0, 1_000_000)
        novelty = NoveltyConfig(width, scope)
        res = fbi(problem, space, 6, novelty, limits)
        assert res.stats.restarts == 1
        assert res.plans == restart_fbi(problem, space, 6, novelty, limits).plans

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("features", [("go",), ("go", "cb")], ids=",".join)
    def test_phase_two_generates_no_node_on_the_star(self, features, scope, monkeypatch):
        # No node of the star is a non-goal node with every goal latched,
        # so phase 1 drops no interior node and phase 2 reads its plans off
        # phase 1's search: one search runs. In global scope that search
        # finds no plan at all.
        problem, _, bound, k = _workload_instance("pentest-star7")
        space = feature_space(problem, features, bound)
        novelty = NoveltyConfig(2, scope)
        got, phases = _phase_nodes(monkeypatch, problem, space, k, novelty, SearchLimits(bound))
        assert phases == [got.stats.nodes_generated]
        if scope is NoveltyScope.TRACE_LOCAL:
            first = got.stats_at[got.behaviour_count]  # at phase 2's first plan
            assert len(got.plans) > got.behaviour_count, "the run must reach phase 2"
            assert first.nodes_generated == got.stats.nodes_generated
        else:
            assert got.plans == ()

    @pytest.mark.parametrize("features, k", [("go,cb", 3), ("go,cb", 8), ("go,cb", 12), ("go", 8)])
    def test_passed_over_plans_are_bounded_by_k(self, features, k, monkeypatch):
        # The star has 9 plans, each met once, and 6 behaviours in go,cb.
        # There, at k 3 phase 1 meets k, at k 8 it keeps exactly k plans,
        # enough for phase 2, and at k 12 all 9. In go it has 3 behaviours,
        # and phase 2 reads 5 plans off the 8 phase 1 keeps at k 8. Phase 1
        # computes one plan per goal node it keeps and one per plan it
        # yields; phase 2 reads the kept plans and computes none.
        problem = PentestProblem.from_text(star_scenario(3, {1, 2, 3}, 1))
        space = feature_space(problem, features.split(","), 8)
        real = search.node_plan
        calls = []

        def counted(node):
            calls.append(node)
            return real(node)

        monkeypatch.setattr(search, "node_plan", counted)
        got = fbi(problem, space, k, limits=STAR_LIMITS)
        assert len(calls) - got.behaviour_count == min(k, 9)
        assert got.plans == restart_fbi(problem, space, k, limits=STAR_LIMITS).plans

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


def _phase_nodes(monkeypatch, problem, space, k, novelty, limits) -> tuple:
    """One ``fbi`` run's result and the nodes each ``_iw_goal_stream`` it
    starts generates."""
    real = search._iw_goal_stream
    phases = []

    def counted(memo, novelty, budget, stats, *args, **kwargs):
        before = stats.nodes_generated
        try:
            yield from real(memo, novelty, budget, stats, *args, **kwargs)
        finally:
            phases.append(stats.nodes_generated - before)

    monkeypatch.setattr(search, "_iw_goal_stream", counted)
    return fbi(problem, space, k, novelty, limits), phases


@pytest.mark.parametrize("cost_only", [False, True], ids=["case-space", "cost-only"])
@pytest.mark.parametrize("case", RESUME_CASES, ids=[c[0] for c in RESUME_CASES])
def test_behaviours_read_off_latched_masks_equal_the_replayed_trace(case, cost_only, monkeypatch):
    """The behaviour the search reads off a node's latched masks is the one
    read off the replayed trace of its plan, at every goal node and every
    interior node a behaviour is read from."""
    _, make, make_space, k, bound = case
    problem = make()
    space = BehaviourSpace((CostBound(bound),)) if cost_only else make_space(problem)
    limits = SearchLimits(bound, 30.0, 1_000_000)
    seen = []
    real = search._behaviour_rule

    def recording(memo, space, interior_pruning):
        key_of, interior = real(memo, space, interior_pruning)

        def recorded(node):
            key = key_of(node)
            seen.append((search.node_plan(node), key))
            return key

        return recorded, interior

    monkeypatch.setattr(search, "_behaviour_rule", recording)
    fbi(problem, space, k, limits=limits)
    fbi_naive(problem, k, limits=limits, space=space)
    assert seen
    for plan, key in seen:
        assert key == behaviour_of(space, replay(problem, plan).states)


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


def _counts(stats):
    """A run's stats without their time values, but with the widths begun."""
    out = stats.as_dict()
    del out["wall_time_s"]
    out["wall_time_by_width"] = list(out["wall_time_by_width"])
    return out


def _same_run(got, ref):
    assert got.plans == ref.plans
    assert got.behaviours == ref.behaviours
    assert got.exhausted == ref.exhausted
    assert _counts(got.stats) == _counts(ref.stats)
    assert [_counts(s) for s in got.stats_at] == [_counts(s) for s in ref.stats_at]


PREFIX_LIMITS = SearchLimits(12, 30.0, 1_000_000)
PREFIX_K = 30  # above the plans any fixture has within the bound, so every run exhausts


class TestPrefix:
    """A run's ``prefix(k)`` is what a run asked for k plans returns."""

    @pytest.mark.parametrize("scope", list(NoveltyScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("features", [("go",), ("go", "cb")], ids=["go", "go,cb"])
    @pytest.mark.parametrize("mode", ["fbi", "naive"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_prefix_equals_a_separate_k_run(self, name, mode, features, scope):
        problem = load_problem(fixture_path(name))
        space = feature_space(problem, features, PREFIX_LIMITS.cost_bound)
        novelty = NoveltyConfig(2, scope)

        def solve(k):
            if mode == "fbi":
                return fbi(problem, space, k, novelty, PREFIX_LIMITS)
            return fbi_naive(problem, k, novelty, PREFIX_LIMITS, space=space)

        full = solve(PREFIX_K)
        assert full.exhausted and len(full.stats_at) == len(full.plans)
        for k in range(1, len(full.plans) + 2):
            _same_run(full.prefix(k), solve(k))

    def test_prefix_through_a_restart(self):
        problem = FinishToggleProblem()
        space = _first_goal_space(problem)
        limits = SearchLimits(10, 30.0, 1_000_000)
        full = fbi(problem, space, 6, limits=limits)
        assert full.stats.restarts == 1
        for k in range(1, len(full.plans) + 2):
            _same_run(full.prefix(k), fbi(problem, space, k, limits=limits))

    @pytest.mark.parametrize("run", [_fbi_k, _naive_k], ids=["fbi", "naive"])
    def test_budget_trip_after_the_kth_plan(self, run):
        problem = load_problem(fixture_path("three_targets.grid"))
        space = _go_space(problem)
        full = run(problem, space, PREFIX_K, PREFIX_LIMITS)
        k = 3
        # A budget of exactly the nodes generated by the k-th plan.
        limits = PREFIX_LIMITS._replace(node_budget=full.stats_at[k - 1].nodes_generated)
        with pytest.raises(BudgetExceeded) as err:
            run(problem, space, PREFIX_K, limits)
        partial = err.value.partial
        assert err.value.kind == "nodes" and len(partial.plans) >= k
        _same_run(partial.prefix(k), run(problem, space, k, limits))
        _same_run(partial.prefix(k), full.prefix(k))
        assert partial.prefix(len(partial.plans) + 1) is partial

    @pytest.mark.parametrize("k", [0, 2.5, True])
    def test_prefix_rejects_a_k_that_is_not_a_positive_integer(self, k):
        problem = load_problem(fixture_path("corridor3.grid"))
        res = fbi(problem, _go_space(problem), 2, limits=LIMITS)
        with pytest.raises(ValueError):
            res.prefix(k)

    def test_prefix_of_a_result_without_per_plan_stats_is_a_value_error(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        res = restart_fbi(problem, _go_space(problem), 3, limits=PREFIX_LIMITS)
        assert len(res.plans) == 3 and res.stats_at == ()
        with pytest.raises(ValueError, match="no per-plan stats"):
            res.prefix(2)
        assert res.prefix(4) is res

    def test_stats_at_times_rise_to_the_run_time(self):
        problem = load_problem(fixture_path("three_targets.grid"))
        res = fbi(problem, _go_space(problem), 6, limits=PREFIX_LIMITS)
        times = [s.wall_time_s for s in res.stats_at]
        assert len(times) == 6 and times == sorted(times)
        assert 0 < times[-1] <= res.stats.wall_time_s
        assert all(s is not res.stats for s in res.stats_at)
