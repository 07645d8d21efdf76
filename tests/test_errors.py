"""Errors keep their type, message and attributes through pickling.

An error raised in a worker process reaches its caller pickled, and
``BudgetExceeded`` carries the partial ``PlanSetResult`` of the run.
"""

import inspect
import pickle

import pytest

from divsim import errors
from divsim.search import PlanSetResult, SearchStats

# Constructor arguments of one instance of each class in ``divsim.errors``.
SAMPLES = {
    errors.DivsimError: ("something failed",),
    errors.UnknownAction: ("a",),
    errors.InapplicableAction: ("cell is a wall", 2),
    errors.CostBoundExceeded: (5, 3),
    errors.NotAGoalPlan: ("plan of length 1 does not end in a goal state",),
    errors.ParseError: ("unexpected token", 4, "')'"),
    errors.LevelInvalid: ("level is unsettled",),
    errors.ScenarioInvalid: ("no host is sensitive",),
    errors.BudgetExceeded: ("time", PlanSetResult((("a",),), (), SearchStats(), False)),
    errors.OracleTooLarge: (10**6 + 1, 10**6),
}

CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.DivsimError)
]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_pickles_with_its_type_message_and_attributes(cls):
    err = cls(*SAMPLES[cls])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(err, protocol))
        assert type(loaded) is cls
        assert str(loaded) == str(err)
        assert loaded.args == err.args
        assert vars(loaded) == vars(err)
