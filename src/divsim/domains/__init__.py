"""Built-in simulator domains and instance-file loading."""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import ParseError
from .grid import GridProblem, GridWorld, parse_grid
from .pentest import Host, PentestProblem, PentestScenario, parse_scenario
from .puzznic import (
    PuzznicLevel,
    PuzznicProblem,
    parse_puzznic,
    puzznic_predicates,
    puzznic_step,
    settle,
)

DOMAINS = {
    "grid": GridProblem.from_text,
    "puzznic": PuzznicProblem.from_text,
    "pentest": PentestProblem.from_text,
}

EXTENSIONS = {".grid": "grid", ".puz": "puzznic", ".json": "pentest"}


def domain_for_path(path) -> str:
    suffix = Path(path).suffix.lower()
    try:
        return EXTENSIONS[suffix]
    except KeyError:
        raise ParseError(
            f"cannot infer domain from {path!r}; expected one of {sorted(EXTENSIONS)}"
        ) from None


def read_utf8(path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: {err}") from None


def load_problem(path, domain: str = None):
    """Build a problem from an instance file, inferring the domain if needed."""
    if domain is None:
        domain = domain_for_path(path)
    try:
        build = DOMAINS[domain]
    except KeyError:
        raise ParseError(f"unknown domain {domain!r}; expected one of {sorted(DOMAINS)}") from None
    text = read_utf8(path)
    try:
        return build(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"bad scenario JSON: {err}") from None


__all__ = [
    "DOMAINS",
    "EXTENSIONS",
    "GridProblem",
    "GridWorld",
    "Host",
    "PentestProblem",
    "PentestScenario",
    "PuzznicLevel",
    "PuzznicProblem",
    "domain_for_path",
    "load_problem",
    "parse_grid",
    "parse_puzznic",
    "parse_scenario",
    "puzznic_predicates",
    "puzznic_step",
    "settle",
]
