"""Record classes: the value semantics the planner and its callers rely on.

Every record class is built on ``divsim.record.Record``, or for the mutable
``SearchStats`` on ``MutableRecord``. Equality, hashing, repr, immutability,
pickling and ``_replace`` must behave as they did when the classes were
dataclasses (and ``ltl._Op`` a NamedTuple): set and dict orders follow
``hash`` of the field tuple, and error messages print reprs.
"""

import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import divsim
from divsim import ltl
from divsim.behaviour import Behaviour, BehaviourSpace, CostBound, GoalOrder
from divsim.bench import SuiteResultRow, TaskSpec
from divsim.core import Action, AugmentedState, Trace
from divsim.domains.grid import GridWorld
from divsim.domains.pentest import Host, PentestScenario
from divsim.domains.puzznic import PuzznicLevel
from divsim.record import MutableRecord, Record
from divsim.search import NoveltyConfig, NoveltyScope, PlanSetResult, SearchLimits, SearchStats
from divsim.stats import TTestResult

_A, _B = ltl.Atom("a"), ltl.Atom("b")
_HOST = Host("h1", "lan", ("ssh",), True)
_SEARCH_STATS = (
    "nodes_expanded=0, nodes_generated=0, pruned_by_novelty=0, pruned_by_behaviour=0, "
    "pruned_by_visited=0, pruned_by_cost=0, simulate_calls=0, memo_hits=0, restarts=0, "
)

# (value, its repr as the dataclass and NamedTuple classes printed it, a field
# and a new value for ``_replace``, or None for a class without fields)
CASES = [
    (ltl.TrueF(), "TrueF()", None),
    (ltl.FalseF(), "FalseF()", None),
    (_A, "Atom(name='a')", ("name", "z")),
    (ltl.Not(_A), "Not(child=Atom(name='a'))", ("child", _B)),
    (ltl.And((_A, _B)), "And(children=(Atom(name='a'), Atom(name='b')))", ("children", (_A,))),
    (ltl.Or((_A, ltl.TRUE)), "Or(children=(Atom(name='a'), TrueF()))", ("children", (_B,))),
    (ltl.Next(_A), "Next(child=Atom(name='a'))", ("child", _B)),
    (ltl.Eventually(_A), "Eventually(child=Atom(name='a'))", ("child", _B)),
    (ltl.Always(_B), "Always(child=Atom(name='b'))", ("child", _A)),
    (ltl.Until(_A, _B), "Until(left=Atom(name='a'), right=Atom(name='b'))", ("right", _A)),
    (ltl.Release(_B, ltl.FALSE), "Release(left=Atom(name='b'), right=FalseF())", ("left", _A)),
    (ltl._OPS[ltl.Until], "_Op(rank=9, token='U', fix='infix')", ("rank", 11)),
    (Action("go", 2), "Action(name='go', cost=2)", ("cost", 3)),
    (
        AugmentedState(("cell", 1), 3, True, frozenset({"v"})),
        "AugmentedState(raw=('cell', 1), cost_so_far=3, goal_flag=True, latched=frozenset({'v'}))",
        ("cost_so_far", 4),
    ),
    (
        Trace((AugmentedState(0, 0, False, frozenset()),), ()),
        "Trace(states=(AugmentedState(raw=0, cost_so_far=0, goal_flag=False, "
        "latched=frozenset()),), plan=())",
        ("plan", ("go",)),
    ),
    (CostBound(4), "CostBound(bound=4)", ("bound", 5)),
    (GoalOrder(("g1", "g2")), "GoalOrder(goals=('g1', 'g2'))", ("goals", ("g2", "g1"))),
    (
        BehaviourSpace((GoalOrder(("g1",)), CostBound(4))),
        "BehaviourSpace(features=(GoalOrder(goals=('g1',)), CostBound(bound=4)))",
        ("features", (CostBound(4),)),
    ),
    (
        Behaviour(2, (frozenset({"g1"}),)),
        "Behaviour(cost=2, goal_order=(frozenset({'g1'}),))",
        ("goal_order", None),
    ),
    (
        NoveltyConfig(1, NoveltyScope.GLOBAL),
        "NoveltyConfig(max_width=1, scope=<NoveltyScope.GLOBAL: 'global'>)",
        ("scope", NoveltyScope.TRACE_LOCAL),
    ),
    (
        SearchLimits(9, 2.5, 100),
        "SearchLimits(cost_bound=9, time_budget_s=2.5, node_budget=100)",
        ("node_budget", 7),
    ),
    (
        SearchStats(nodes_expanded=3, wall_time_by_width={1: 0.5}),
        "SearchStats(nodes_expanded=3, nodes_generated=0, pruned_by_novelty=0, "
        "pruned_by_behaviour=0, pruned_by_visited=0, pruned_by_cost=0, simulate_calls=0, "
        "memo_hits=0, restarts=0, wall_time_by_width={1: 0.5}, wall_time_s=0.0)",
        ("restarts", 2),
    ),
    (
        PlanSetResult((("go",),), (Behaviour(1),), SearchStats(), False),
        "PlanSetResult(plans=(('go',),), behaviours=(Behaviour(cost=1, goal_order=None),), "
        f"stats=SearchStats({_SEARCH_STATS}wall_time_by_width={{}}, wall_time_s=0.0), "
        "exhausted=False, stats_at=())",
        ("exhausted", True),
    ),
    (
        TaskSpec("x.grid", "naive", 3, "grid", ("go",), NoveltyConfig(1), SearchLimits(7)),
        "TaskSpec(instance='x.grid', mode='naive', k=3, domain='grid', features=('go',), "
        "novelty=NoveltyConfig(max_width=1, scope=<NoveltyScope.TRACE_LOCAL: 'trace'>), "
        "limits=SearchLimits(cost_bound=7, time_budget_s=1800.0, node_budget=10000000))",
        ("instance", "y.grid"),
    ),
    (
        SuiteResultRow("x.grid", "fbi", 2, True, 2, 1, 0.25, "done"),
        "SuiteResultRow(instance='x.grid', mode='fbi', k=2, solved=True, plans_found=2, "
        "behaviour_count=1, wall_time_s=0.25, outcome='done')",
        ("outcome", "exhausted"),
    ),
    (TTestResult(1.5, 0.25, 3), "TTestResult(t=1.5, p=0.25, df=3, degenerate=False)", ("p", 0.5)),
    (
        GridWorld(2, 3, frozenset({(0, 0)}), (1, 1), ((1, 2),)),
        "GridWorld(height=2, width=3, walls=frozenset({(0, 0)}), start=(1, 1), targets=((1, 2),))",
        ("start", (0, 1)),
    ),
    (_HOST, "Host(id='h1', subnet='lan', services=('ssh',), sensitive=True)", ("sensitive", False)),
    (
        PentestScenario(("lan",), frozenset({"lan"}), {"lan": frozenset()}, (_HOST,), {"ssh": 2}),
        "PentestScenario(subnets=('lan',), internet=frozenset({'lan'}), "
        "adjacency={'lan': frozenset()}, hosts=(Host(id='h1', subnet='lan', services=('ssh',), "
        "sensitive=True),), exploit_costs={'ssh': 2})",
        ("exploit_costs", {"ssh": 1}),
    ),
    (
        PuzznicLevel(("#a.#",), (0, 2), 10, 50, 1, 2, "lvl"),
        "PuzznicLevel(grid=('#a.#',), cursor=(0, 2), score=10, band_width=50, move_cost=1, "
        "push_cost=2, name='lvl')",
        ("score", 20),
    ),
]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def _record_classes() -> set:
    """Every record class under ``divsim``, the bases left out."""
    for info in pkgutil.walk_packages(divsim.__path__, "divsim."):
        importlib.import_module(info.name)
    found, todo = set(), [MutableRecord]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("divsim.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found - {Record, ltl.Formula}


def test_every_record_class_has_a_case():
    assert {type(value) for value, _, _ in CASES} == _record_classes()


@pytest.mark.parametrize("value, text, change", CASES, ids=[type(c[0]).__name__ for c in CASES])
def test_record_semantics(value, text, change):
    cls = type(value)
    fields = tuple(getattr(value, name) for name in cls._fields)

    assert repr(value) == text
    assert value._astuple() == fields

    # Equality holds within the class, never against a tuple or a twin class.
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields, object)})
    assert value == cls(*fields) and not value != cls(*fields)
    assert value != twin(*fields) and twin(*fields) != value
    assert value != fields

    mutable = cls is SearchStats
    assert _hash_or_error(value) == (TypeError if mutable else _hash_or_error(fields))

    name = change[0] if change else "anything"
    if mutable:
        stats = cls(*fields)
        setattr(stats, name, change[1])
        assert getattr(stats, name) == change[1]
    else:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value._astuple() == fields

    loaded = pickle.loads(pickle.dumps(value))
    assert type(loaded) is cls and loaded == value and repr(loaded) == text

    assert value._replace() == value
    if change is not None:
        name, new = change
        copy = value._replace(**{name: new})
        assert type(copy) is cls and copy != value and getattr(copy, name) == new
        assert all(getattr(copy, f) is getattr(value, f) for f in cls._fields if f != name)
        assert value._astuple() == fields
        with pytest.raises(TypeError):
            value._replace(no_such_field=1)


def test_importing_divsim_generates_no_dataclass_code():
    src = str(Path(divsim.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = "import sys, divsim, divsim.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
