"""Mutation check: each catalogued mutant of the source must fail a test.

    python3 tests/mutants.py [TEXT ...]

With arguments, only the mutants whose name contains one of them run.

Each entry of ``MUTANTS`` names a file, an exact text in it, the text that
replaces it, the test files that must catch the edit, and, in a few
words, the change that named the mutant. The script first runs
the union of the named test files on an unedited copy of the checkout.
Then, for each entry, it copies the checkout to a temporary directory,
applies the edit there and runs the entry's test files with ``pytest -x``.
It exits 1 when a mutant survives, when an old text does not occur exactly
once in its file, when an edit does not compile, or when the unedited copy
fails; so a refactor must update the catalogue and cannot skip a mutant
silently. pytest does not collect this file. A change that adds a test
against a mutant adds the mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPY_IGNORE = shutil.ignore_patterns(
    ".git", ".perfbench", ".pytest_cache", ".benchmarks", "__pycache__"
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple  # test files, relative to the checkout
    origin: str  # the change that named it


PENTEST = "src/divsim/domains/pentest.py"
GRID = "src/divsim/domains/grid.py"
PUZZNIC = "src/divsim/domains/puzznic.py"
SEARCH = "src/divsim/search.py"

MUTANTS = (
    # Oracle keys on (raw state, cost, goal order).
    Mutant(
        "oracle key without the goal order",
        "src/divsim/oracle.py",
        "return aug.raw, aug.cost_so_far, order",
        "return aug.raw, aug.cost_so_far",
        ("tests/test_oracle.py",),
        "oracle keeps one dedup rule",
    ),
    Mutant(
        "oracle key without the cost",
        "src/divsim/oracle.py",
        "return aug.raw, aug.cost_so_far, order",
        "return aug.raw, order",
        ("tests/test_oracle.py",),
        "oracle keeps one dedup rule",
    ),
    # Pentest states as host bitmasks.
    Mutant(
        "pentest compromise opens only its own subnet",
        PENTEST,
        "subnets = scenario.adjacency[host.subnet] | {host.subnet}",
        "subnets = {host.subnet}",
        ("tests/test_domains_pentest.py",),
        "Pentest states as host bitmasks",
    ),
    Mutant(
        "pentest applicable ignores compromised hosts",
        PENTEST,
        "targets = state >> self._shift & ~state",
        "targets = state >> self._shift",
        ("tests/test_domains_pentest.py",),
        "Pentest states as host bitmasks; Pentest and Grid states as their atom masks",
    ),
    Mutant(
        "pentest goal on any sensitive host",
        PENTEST,
        "return state & self._sensitive == self._sensitive",
        "return bool(state & self._sensitive)",
        ("tests/test_domains_pentest.py",),
        "Pentest states as host bitmasks",
    ),
    Mutant(
        "pentest compromise makes the last host reachable",
        PENTEST,
        "bit | opens << shift",
        "bit | (opens | self._bit[scenario.hosts[-1].id]) << shift",
        ("tests/test_domains_pentest.py",),
        "Pentest states as host bitmasks",
    ),
    # Puzznic states on one flat grid string and a cell index.
    Mutant(
        "puzznic neighbours wrap across a row",
        PUZZNIC,
        "(c > 0, i - 1), (c + 1 < width, i + 1))",
        "(i > 0, i - 1), (i + 1 < height * width, i + 1))",
        ("tests/test_domains_puzznic.py",),
        "Puzznic steps on a flat grid string",
    ),
    Mutant(
        "puzznic push side cells wrap across a row",
        PUZZNIC,
        "cell - 1 if column else cell,\n"
        "                cell + 1 if column + 1 < self._width else cell,",
        "cell - 1,\n                cell + 1,",
        ("tests/test_domains_puzznic.py",),
        "Puzznic steps on a flat grid string",
    ),
    Mutant(
        "puzznic gravity ignores a wall",
        PUZZNIC,
        "if cell == WALL:\n                floor = i - width",
        "if cell == WALL:\n                pass",
        ("tests/test_domains_puzznic.py",),
        "Puzznic steps on a flat grid string",
    ),
    Mutant(
        "puzznic goal read off the initial grid",
        PUZZNIC,
        "return (self._grids.get(state[0]) or self._grid_entry(state[0]))[0]",
        "return self._grid_entry(self.initial[0])[0]",
        ("tests/test_domains_puzznic.py",),
        "Puzznic steps on a flat grid string",
    ),
    # Modules load on first use.
    Mutant(
        "behaviour imports ltl eagerly",
        "src/divsim/behaviour.py",
        "if TYPE_CHECKING:\n    from . import ltl\n",
        "from . import ltl  # noqa: F401\n",
        ("tests/test_imports.py",),
        "modules load on first use",
    ),
    Mutant(
        "cli imports the oracle eagerly",
        "src/divsim/cli.py",
        "from .errors import DivsimError, ParseError\n",
        "from .errors import DivsimError, ParseError\n"
        "from .oracle import brute_force_behaviours  # noqa: F401\n",
        ("tests/test_imports.py",),
        "modules load on first use",
    ),
    Mutant(
        "paired_t_test read from search",
        "src/divsim/__init__.py",
        '"paired_t_test": "stats",',
        '"paired_t_test": "search",',
        ("tests/test_imports.py",),
        "modules load on first use",
    ),
    Mutant(
        "search serves evaluate for both ltl names",
        SEARCH,
        "return getattr(ltl, name)",
        "return ltl.evaluate",
        ("tests/test_imports.py",),
        "modules load on first use",
    ),
    # Problems hand the planner atom bitmasks.
    Mutant(
        "pentest reachable bits shifted down by one",
        PENTEST,
        "self._shift = shift = len(scenario.hosts)",
        "self._shift = shift = len(scenario.hosts) - 1",
        ("tests/test_domains_pentest.py",),
        "problems hand the planner atom bitmasks",
    ),
    Mutant(
        "puzznic masks all use the initial grid's",
        PUZZNIC,
        "grid_mask = (self._grids.get(grid) or self._grid_entry(grid))[1]",
        "grid_mask = self._grid_entry(self.initial[0])[1]",
        ("tests/test_atom_masks.py",),
        "problems hand the planner atom bitmasks",
    ),
    Mutant(
        "puzznic masks drop the cursor bit",
        PUZZNIC,
        "return grid_mask | self._cursor_bits[cursor] | band_bit",
        "return grid_mask | band_bit",
        ("tests/test_atom_masks.py",),
        "problems hand the planner atom bitmasks",
    ),
    # Trace-scope novelty builds a node's summary only for queued children.
    Mutant(
        "every sibling records into the carried summary in place",
        SEARCH,
        "summary = dict(summary)",
        "pass",
        ("tests/test_search.py",),
        "lazy trace-scope novelty summaries",
    ),
    Mutant(
        "width-1 novelty reads the whole mask",
        SEARCH,
        "novel = summary.get(0, 0) & added != added",
        "novel = summary.get(0, 0) & mask != mask",
        ("tests/test_search.py",),
        "lazy trace-scope novelty summaries",
    ),
    Mutant(
        "record skips the key of a state's two lowest atoms",
        SEARCH,
        "if key & (key - 1):  # two atoms or more",
        "if key & (key - 1) and key != mask & -mask | (mask & mask - 1) & -(mask & mask - 1):",
        ("tests/test_search.py",),
        "lazy trace-scope novelty summaries",
    ),
    Mutant(
        "children carry the summary without their parent",
        SEARCH,
        "handed = child.summary = table.record(summary, parent_mask)",
        "handed = child.summary = summary",
        ("tests/test_search.py",),
        "lazy trace-scope novelty summaries",
    ),
    # Pentest and Grid states as their atom masks.
    Mutant(
        "pentest compromise opens no host",
        PENTEST,
        "bit | opens << shift",
        "bit",
        ("tests/test_domains_pentest.py",),
        "Pentest and Grid states as their atom masks",
    ),
    Mutant(
        "grid move forgets the visited targets",
        GRID,
        "return state & self._all_visited | sets",
        "return sets",
        ("tests/test_domains_grid.py",),
        "Pentest and Grid states as their atom masks",
    ),
    # One atom numbering rule, kept by SimulatorProblem.
    Mutant(
        "pentest registers reachable atoms in file order",
        PENTEST,
        "for host in sorted(scenario.hosts, key=lambda h: self._bit[h.id]):",
        "for host in scenario.hosts:",
        ("tests/test_domains_pentest.py",),
        "one atom numbering rule",
    ),
    Mutant(
        "atom table gives the goal predicates no bits up front",
        "src/divsim/core.py",
        "bits = {atom: 1 << i for i, atom in enumerate(dict.fromkeys(self.goal_predicates))}",
        "bits = {}",
        ("tests/test_atom_masks.py",),
        "one atom numbering rule",
    ),
)


def _pytest(tree: Path, tests) -> int:
    """The exit code of ``pytest -x`` on ``tests`` in ``tree``."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def _mutated(mutant: Mutant):
    """The edited text of the mutant's file, or why the entry is broken."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return None, f"old text occurs {count} times in {mutant.path}"
    edited = text.replace(mutant.old, mutant.new)
    try:
        compile(edited, mutant.path, "exec")
    except SyntaxError as err:
        return None, f"edit does not compile: {err}"
    return edited, None


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or any(n in m.name for n in names)]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="divsim-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT, clean, ignore=COPY_IGNORE)
        tests = sorted({t for m in mutants for t in m.tests})
        if _pytest(clean, tests) != 0:
            print(f"the unedited checkout fails {' '.join(tests)}; no mutant can be judged")
            return 1
        for mutant in mutants:
            started = time.perf_counter()
            edited, broken = _mutated(mutant)
            if broken is None:
                tree = Path(tmp) / "mutant"
                shutil.copytree(clean, tree)
                (tree / mutant.path).write_text(edited, encoding="utf-8")
                code = _pytest(tree, mutant.tests)
                shutil.rmtree(tree)
                # pytest exits 1 when a test fails, 2 when collection fails.
                verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(code, f"pytest exit {code}")
            else:
                verdict = f"BROKEN ENTRY: {broken}"
            failures += verdict != "killed"
            print(f"{verdict:<9} {mutant.name} ({time.perf_counter() - started:.1f} s)")
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
