import pathlib
import random

import pytest

from divsim.behaviour import BehaviourSpace, CostBound, GoalOrder
from divsim.core import Action, SimulatorProblem
from divsim.domains.puzznic import settle

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FIXTURE_NAMES = sorted(p.name for p in FIXTURES.iterdir() if p.is_file())


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def feature_space(problem, features, bound):
    """Behaviour space of ``features``: "go" is the goal order, "cb" a cost bound."""
    parts = []
    for f in features:
        if f == "go":
            parts.append(GoalOrder(tuple(problem.goal_predicates)))
        else:
            parts.append(CostBound(bound))
    return BehaviourSpace(tuple(parts))


# --- criterion 1 fixture table -------------------------------------------
#
# Micro instances small enough for exhaustive behaviour enumeration: grids
# up to 4x4 with 2-3 targets, Puzznic levels up to 5x5 with at most 6
# blocks, attack scenarios with at most 4 hosts. Each row pins the feature
# set, the cost bound, and the plan length that makes the brute-force
# enumeration complete for that bound.

MICRO = (
    ("open3x3 go+cb", "open3x3.grid", ("go", "cb"), 6, 6),
    ("two_targets_line go", "two_targets_line.grid", ("go",), 7, 7),
    ("three_targets go", "three_targets.grid", ("go",), 8, 8),
    ("single_pair go+cb", "single_pair.puz", ("go", "cb"), 1, 1),
    ("ledge go+cb", "ledge.puz", ("go", "cb"), 2, 2),
    ("cascade go+cb", "cascade.puz", ("go", "cb"), 2, 2),
    ("cascade go", "cascade.puz", ("go",), 8, 8),
    ("pairs go+cb", "pairs.puz", ("go", "cb"), 6, 6),
    ("chain3 go+cb", "chain3.json", ("go", "cb"), 3, 3),
    ("diamond go+cb", "diamond.json", ("go", "cb"), 5, 3),
    ("multi_sensitive go+cb", "multi_sensitive.json", ("go", "cb"), 3, 3),
)


# Puzznic levels without a wall border. In row-major order the second puts an
# empty cell (the end of row 0) just before row 1's first block, and a block
# (the end of row 1) just before row 2's first block of the same pattern.
EDGE_LEVELS = {
    "puzznic-no-walls": "A.ba.b.\n",
    "puzznic-edge-columns": "b....\na..ab\nba@ba\n",
}


def settle_rows(grid):
    """The package's ``settle`` run from every cell of a tuple of rows:
    ``(rows, waves)``, each wave a frozenset of ``(row, col, pattern)``."""
    width = len(grid[0])
    cells = list("".join(grid))
    waves = settle(cells, width, range(len(cells)))
    rows = tuple("".join(cells[i:i + width]) for i in range(0, len(cells), width))
    return rows, tuple(frozenset((*divmod(i, width), p) for i, p in wave) for wave in waves)


def assert_one_object_per_atom(*states):
    """Equal atoms anywhere in ``states`` are one and the same string object."""
    first = {}
    for state in states:
        for atom in state:
            assert first.setdefault(atom, atom) is atom, atom


def reached_states(problem, depth):
    """``(plan, state)`` for every plan of at most ``depth`` applicable actions."""
    out = [((), problem.initial)]
    frontier = out
    for _ in range(depth):
        frontier = [
            (plan + (a.name,), problem.simulate(state, a))
            for plan, state in frontier
            for a in problem.applicable(state)
        ]
        out = out + frontier
    return out


class ToggleProblem(SimulatorProblem):
    """Two-goal toy where goal ``ga`` can be achieved and then undone.

    set-a and set-b make their predicate true; unset-a takes ga away again.
    Useful wherever latch semantics must be observable apart from any real
    domain: the raw state loses ga, the latch must not.
    """

    def __init__(self):
        self._ga = "ga"
        self._gb = "gb"
        self._actions = (
            Action("set-a"),
            Action("unset-a"),
            Action("set-b"),
        )

    @property
    def initial(self):
        return frozenset()

    @property
    def actions(self):
        return self._actions

    @property
    def goal_predicates(self):
        return (self._ga, self._gb)

    def applicable(self, state):
        out = []
        for action in self._actions:
            if action.name == "set-a" and self._ga not in state:
                out.append(action)
            elif action.name == "unset-a" and self._ga in state:
                out.append(action)
            elif action.name == "set-b" and self._gb not in state:
                out.append(action)
        return tuple(out)

    def simulate(self, state, action):
        if action.name == "set-a":
            return state | {self._ga}
        if action.name == "unset-a":
            return state - {self._ga}
        return state | {self._gb}

    def is_goal(self, state):
        return self.goal_set <= state


class UndoToggleProblem(ToggleProblem):
    """``ToggleProblem`` whose unset-a also leaves an ``undone-a`` mark.

    The mark keeps the state after an undo novel, so the search reaches
    non-goal nodes whose goals have all latched: the nodes interior pruning
    acts on, which no built-in domain produces.
    """

    def __init__(self):
        super().__init__()
        self._undone = "undone-a"

    def simulate(self, state, action):
        after = super().simulate(state, action)
        return after | {self._undone} if action.name == "unset-a" else after


class FinishToggleProblem(ToggleProblem):
    """``ToggleProblem`` whose goal state also needs a non-goal ``done`` mark.

    finish sets ``done`` once both goals hold, so set-a, set-b is an
    all-latched interior node that comes before the goal node of the same
    goal order: the case where forbidding a behaviour would prune a node
    the search already kept.
    """

    def __init__(self):
        super().__init__()
        self._done = "done"
        self._actions = self._actions + (Action("finish"),)

    def applicable(self, state):
        out = super().applicable(state)
        if self.goal_set <= state and self._done not in state:
            out += (self._actions[-1],)
        return out

    def simulate(self, state, action):
        if action.name == "finish":
            return state | {self._done}
        return super().simulate(state, action)

    def is_goal(self, state):
        return self.goal_set <= state and self._done in state


class SwitchProblem(SimulatorProblem):
    """A toy whose actions switch atoms on and off.

    Each entry of ``rules`` is ``(action, needs, needs_off, sets, clears)``,
    in declaration order: the action applies when every atom of ``needs``
    is true and every atom of ``needs_off`` false. The goal predicates are
    ``goals``, and a goal state has them and ``also`` all true.
    """

    def __init__(self, goals, rules, also=()):
        self._goals = tuple(goals)
        self._goal = frozenset(goals) | frozenset(also)
        self._rules = tuple(rules)
        self._actions = tuple(rule[0] for rule in self._rules)

    @property
    def initial(self):
        return frozenset()

    @property
    def actions(self):
        return self._actions

    @property
    def goal_predicates(self):
        return self._goals

    def applicable(self, state):
        return tuple(
            action
            for action, needs, needs_off, _, _ in self._rules
            if needs <= state and not needs_off & state
        )

    def simulate(self, state, action):
        _, _, _, sets, clears = self._rules[self._actions.index(action)]
        return (state - clears) | sets

    def is_goal(self, state):
        return self._goal <= state


def undo_mark_problem():
    """Goals ``a`` and ``b``; unset-a undoes ``a`` and sets the mark ``m``,
    which mark sets too.

    set-a, set-b, unset-a is a non-goal node with both goals latched, in
    the order a, b, and set-b, mark, set-a a goal node with the same atoms
    and latches. A plain search visits the first and prunes the second. With
    interior pruning on, phase 1 drops the first once the order a, b is
    forbidden, and so reaches the second, which it passes over as its order
    b, a is forbidden too. Read off phase 1, phase 2 would add that plan;
    searched, it does not.
    """
    a, b, m = "a", "b", "m"
    on = frozenset
    rules = (
        (Action("set-a", 2), on(), on({a}), on({a}), on()),
        (Action("unset-a"), on({a}), on(), on({m}), on({a})),
        (Action("set-b"), on(), on({b}), on({b}), on()),
        (Action("mark"), on(), on({m}), on({m}), on()),
    )
    return SwitchProblem((a, b), rules)


def random_undo_problem(seed: int) -> SwitchProblem:
    """A seeded ``SwitchProblem`` whose goals can be undone.

    It has 2-3 goals ``gi``, each set by set-gi (cost 1 or 2) and, with
    probability 0.8, cleared by unset-gi, which also sets a random mark of
    1-3 marks ``mj``; about half the marks have a mark-mj that sets them.
    With probability 0.3 the goal state also needs one mark.
    """
    rng = random.Random(seed)
    goals = tuple(f"g{i}" for i in range(rng.randint(2, 3)))
    marks = tuple(f"m{j}" for j in range(rng.randint(1, 3)))
    on = frozenset
    rules = []
    for g in goals:
        rules.append((Action(f"set-{g}", rng.randint(1, 2)), on(), on({g}), on({g}), on()))
        if rng.random() < 0.8:
            rules.append((Action(f"unset-{g}"), on({g}), on(), on({rng.choice(marks)}), on({g})))
    for m in marks:
        if rng.random() < 0.5:
            rules.append((Action(f"mark-{m}"), on(), on({m}), on({m}), on()))
    also = (rng.choice(marks),) if rng.random() < 0.3 else ()
    return SwitchProblem(goals, rules, also)


@pytest.fixture
def toggle_problem():
    return ToggleProblem()
