"""Diverse planning over simulator domains via width-based search.

The planner finds up to k plans that differ semantically: first it forbids
each found plan's behaviour (final cost, goal achievement order) and searches
again, then falls back to forbidding exact plans once every behaviour is
taken. Behaviours double as finite-trace temporal formulas, and three
deterministic domains (tile matching, network penetration, grid world) plug
into the simulator contract.

A name's module is imported the first time the name is read from this
package, so a run compiles only the modules it uses.
"""

from importlib import import_module

# Each re-exported name -> the module under this package that defines it.
_SOURCES = {
    "Behaviour": "behaviour",
    "BehaviourSpace": "behaviour",
    "CostBound": "behaviour",
    "GoalOrder": "behaviour",
    "behaviour_formula": "behaviour",
    "behaviour_to_json": "behaviour",
    "extract_behaviour": "behaviour",
    "Action": "core",
    "AugmentedState": "core",
    "SimulatorProblem": "core",
    "Trace": "core",
    "plan_cost": "core",
    "replay": "core",
    "trace_view": "core",
    "BudgetExceeded": "errors",
    "CostBoundExceeded": "errors",
    "DivsimError": "errors",
    "InapplicableAction": "errors",
    "LevelInvalid": "errors",
    "NotAGoalPlan": "errors",
    "OracleTooLarge": "errors",
    "ParseError": "errors",
    "ScenarioInvalid": "errors",
    "UnknownAction": "errors",
    "evaluate": "ltl",
    "format_formula": "ltl",
    "parse_formula": "ltl",
    "brute_force_behaviours": "oracle",
    "NoveltyConfig": "search",
    "NoveltyScope": "search",
    "PlanSetResult": "search",
    "SearchLimits": "search",
    "SearchStats": "search",
    "behaviour_generator": "search",
    "fbi": "search",
    "fbi_naive": "search",
    "plan_generator": "search",
    "TTestResult": "stats",
    "paired_t_test": "stats",
}


def __getattr__(name):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


__version__ = "0.1.0"

__all__ = sorted([*_SOURCES, "__version__"])
