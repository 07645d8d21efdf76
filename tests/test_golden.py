"""Golden output: the plans, counters and exhaustion flag of a fixed sweep.

Each instance's rows are pinned by two digests in ``golden_digests.json``:
``plans`` over each run's plans and ``exhausted``, and ``counters`` over
every ``SearchStats`` field except the wall times. The sweep runs ``fbi``
and ``fbi_naive`` on every fixture file, in the ``go`` and ``go,cb`` spaces,
at widths 1-3, in both novelty scopes. It also runs ``fbi`` on the
three-pattern Puzznic level (k = 7, ``go``) and on a seven-spoke star network
(k = 30, ``go,cb``, cost bound 24). A change that is meant to change plan
output re-records the digests with

    PYTHONPATH=src python3 tests/test_golden.py

and one that is meant to change only the counters re-records the counter
digests, and refuses if a plan digest differs, with

    PYTHONPATH=src python3 tests/test_golden.py counters
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from divsim.domains import PentestProblem, PuzznicProblem, load_problem
from divsim.search import NoveltyConfig, NoveltyScope, SearchLimits, fbi, fbi_naive

from conftest import FIXTURE_NAMES, feature_space, fixture_path
from test_acceptance import star_scenario

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")

FIXTURE_K = 8
FIXTURE_BOUND = 8

PUZZNIC_ROWS = ("#########", "#a..b..c#", "##.###.##", "#a.@b..c#", "#########")


def _row(result, mode, features, novelty) -> tuple:
    """One run's ``(plans row, counters row)``."""
    run = [mode, ",".join(features), novelty.max_width, novelty.scope.value]
    stats = result.stats.as_dict()
    del stats["wall_time_s"], stats["wall_time_by_width"]
    return [*run, [list(plan) for plan in result.plans], result.exhausted], [*run, stats]


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _digests(rows) -> dict:
    """The ``plans`` and ``counters`` digests of an instance's rows."""
    plans, counters = zip(*rows)
    return {"plans": _digest(plans), "counters": _digest(counters)}


def fixture_rows(name: str) -> list:
    """Every sweep row of one fixture file."""
    rows = []
    limits = SearchLimits(cost_bound=FIXTURE_BOUND)
    for features in (("go",), ("go", "cb")):
        for width in (1, 2, 3):
            for scope in NoveltyScope:
                problem = load_problem(fixture_path(name))
                space = feature_space(problem, features, FIXTURE_BOUND)
                novelty = NoveltyConfig(width, scope)
                got = fbi(problem, space, FIXTURE_K, novelty, limits)
                rows.append(_row(got, "fbi", features, novelty))
                got = fbi_naive(problem, FIXTURE_K, novelty, limits, space=space)
                rows.append(_row(got, "fbi_naive", features, novelty))
    return rows


def puzznic_rows() -> list:
    problem = PuzznicProblem.from_text("\n".join(PUZZNIC_ROWS) + "\n")
    space = feature_space(problem, ("go",), None)
    novelty = NoveltyConfig()
    return [_row(fbi(problem, space, 7, novelty, SearchLimits(1000)), "fbi", ("go",), novelty)]


def star_rows() -> list:
    problem = PentestProblem.from_text(star_scenario(7, set(range(1, 8)), 2))
    space = feature_space(problem, ("go", "cb"), 24)
    novelty = NoveltyConfig()
    got = fbi(problem, space, 30, novelty, SearchLimits(24))
    return [_row(got, "fbi", ("go", "cb"), novelty)]


SWEEP = {
    **{name: functools.partial(fixture_rows, name) for name in FIXTURE_NAMES},
    "puzznic-abc": puzznic_rows,
    "pentest-star7": star_rows,
}


@functools.lru_cache(maxsize=None)
def _recorded() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_instance_is_recorded():
    assert sorted(_recorded()) == sorted(SWEEP)


@functools.lru_cache(maxsize=None)
def _swept(name: str) -> dict:
    return _digests(SWEEP[name]())


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sweep_matches_the_recorded_digest(name):
    assert _swept(name)["plans"] == _recorded()[name]["plans"]


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sweep_counters_match_the_recorded_digest(name):
    assert _swept(name)["counters"] == _recorded()[name]["counters"]


if __name__ == "__main__":
    digests = {name: _swept(name) for name in sorted(SWEEP)}
    if sys.argv[1:] == ["counters"]:
        moved = sorted(n for n in digests if digests[n]["plans"] != _recorded()[n]["plans"])
        if moved:
            sys.exit(f"plan digests differ, nothing recorded: {', '.join(moved)}")
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
