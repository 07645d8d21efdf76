"""Diverse planning over simulator domains via width-based search.

The planner finds up to k plans that differ semantically: first it forbids
each found plan's behaviour (final cost, goal achievement order) and searches
again, then falls back to forbidding exact plans once every behaviour is
taken. Behaviours double as finite-trace temporal formulas, and three
deterministic domains (tile matching, network penetration, grid world) plug
into the simulator contract.
"""

from .behaviour import (
    Behaviour,
    BehaviourSpace,
    CostBound,
    GoalOrder,
    behaviour_formula,
    behaviour_to_json,
    extract_behaviour,
)
from .core import (
    Action,
    AugmentedState,
    SimulatorProblem,
    Trace,
    plan_cost,
    replay,
    trace_view,
)
from .errors import (
    BudgetExceeded,
    CostBoundExceeded,
    DivsimError,
    InapplicableAction,
    LevelInvalid,
    NotAGoalPlan,
    OracleTooLarge,
    ParseError,
    ScenarioInvalid,
    UnknownAction,
)
from .ltl import evaluate, format_formula, parse_formula
from .oracle import brute_force_behaviours
from .search import (
    NoveltyConfig,
    NoveltyScope,
    PlanSetResult,
    SearchLimits,
    SearchStats,
    behaviour_generator,
    fbi,
    fbi_naive,
    plan_generator,
)
from .stats import TTestResult, paired_t_test

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AugmentedState",
    "Behaviour",
    "BehaviourSpace",
    "BudgetExceeded",
    "CostBound",
    "CostBoundExceeded",
    "DivsimError",
    "GoalOrder",
    "InapplicableAction",
    "LevelInvalid",
    "NotAGoalPlan",
    "NoveltyConfig",
    "NoveltyScope",
    "OracleTooLarge",
    "ParseError",
    "PlanSetResult",
    "ScenarioInvalid",
    "SearchLimits",
    "SearchStats",
    "SimulatorProblem",
    "TTestResult",
    "Trace",
    "UnknownAction",
    "behaviour_formula",
    "behaviour_generator",
    "behaviour_to_json",
    "brute_force_behaviours",
    "evaluate",
    "extract_behaviour",
    "fbi",
    "fbi_naive",
    "format_formula",
    "paired_t_test",
    "parse_formula",
    "plan_cost",
    "plan_generator",
    "replay",
    "trace_view",
    "__version__",
]
