import pathlib

import pytest

from divsim.core import Action, Predicate, SimulatorProblem, make_state

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


class ToggleProblem(SimulatorProblem):
    """Two-goal toy where goal ``ga`` can be achieved and then undone.

    set-a and set-b make their predicate true; unset-a takes ga away again.
    Useful wherever latch semantics must be observable apart from any real
    domain: the raw state loses ga, the latch must not.
    """

    def __init__(self):
        self._ga = Predicate("ga")
        self._gb = Predicate("gb")
        self._actions = (
            Action("set-a"),
            Action("unset-a"),
            Action("set-b"),
        )

    @property
    def initial(self):
        return make_state(())

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
        self._undone = Predicate("undone-a")

    def simulate(self, state, action):
        after = super().simulate(state, action)
        return after | {self._undone} if action.name == "unset-a" else after


@pytest.fixture
def toggle_problem():
    return ToggleProblem()
