"""Built-in simulator domains and instance-file loading.

A domain's module is imported the first time one of its problems is built
or one of its names is read from this package, so a run compiles only the
domain it uses.
"""

from __future__ import annotations

import json
from importlib import import_module
from pathlib import Path

from ..errors import ParseError

# Each re-exported name -> the module under this package that defines it.
_SOURCES = {
    "GridProblem": "grid",
    "GridWorld": "grid",
    "parse_grid": "grid",
    "Host": "pentest",
    "PentestProblem": "pentest",
    "PentestScenario": "pentest",
    "parse_scenario": "pentest",
    "PuzznicLevel": "puzznic",
    "PuzznicProblem": "puzznic",
    "parse_puzznic": "puzznic",
    "puzznic_predicates": "puzznic",
    "puzznic_step": "puzznic",
    "settle": "puzznic",
}


def __getattr__(name):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def _from_text(problem_class: str):
    """``problem_class.from_text``, its module imported on first call."""

    def build(text):
        return __getattr__(problem_class).from_text(text)

    return build


DOMAINS = {
    "grid": _from_text("GridProblem"),
    "puzznic": _from_text("PuzznicProblem"),
    "pentest": _from_text("PentestProblem"),
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


__all__ = sorted([*_SOURCES, "DOMAINS", "EXTENSIONS", "domain_for_path", "load_problem"])
