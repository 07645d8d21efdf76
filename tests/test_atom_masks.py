"""The atom-mask contract of every built-in domain, over whole state spaces.

Each case walks every state reachable from a problem's initial state: each
fixture of the domain, and the benchmark's instances of it (the 7-spoke
star with 2 pads, the ``puzznic-fbi`` level, the wall-less edge levels, and
a grid whose wall border is thickened on two sides). ``atoms`` itself is
checked against reference encodings in each domain's own tests.
"""

import pytest

from divsim.behaviour import BehaviourSpace, GoalOrder
from divsim.core import SimulatorProblem, TransitionMemo
from divsim.domains import GridProblem, PentestProblem, PuzznicProblem, load_problem
from divsim.search import SearchStats, fbi

from conftest import EDGE_LEVELS, FIXTURES
from test_acceptance import star_scenario
from test_golden import PUZZNIC_ROWS

# A 3x3 room with two targets, its border two walls thick above and one to
# the left, so that no cell sits at its room coordinates.
PADDED_GRID = "######\n######\n##S.T#\n##.#.#\n##T..#\n######\n"

CASES = {
    **{
        path.name: (lambda path=path: load_problem(path))
        for suffix in ("json", "grid", "puz")
        for path in sorted(FIXTURES.rglob(f"*.{suffix}"))
        if path.name != "broken.grid"
    },
    "star-7-pads-2": lambda: PentestProblem.from_text(star_scenario(7, set(range(1, 8)), 2)),
    "puzznic-fbi": lambda: PuzznicProblem.from_text("\n".join(PUZZNIC_ROWS) + "\n"),
    **{
        name: (lambda text=text: PuzznicProblem.from_text(text))
        for name, text in EDGE_LEVELS.items()
    },
    "padded-grid": lambda: GridProblem.from_text(PADDED_GRID),
}


def _reachable(problem) -> set:
    seen = {problem.initial}
    frontier = [problem.initial]
    while frontier:
        state = frontier.pop()
        for action in problem.applicable(state):
            child = problem.simulate(state, action)
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


@pytest.mark.parametrize("name", sorted(CASES))
def test_masks_are_the_atoms_bits_and_tell_states_apart(name):
    problem = CASES[name]()
    # Built-in domains give masks natively, not by the interning default.
    assert type(problem).atom_mask is not SimulatorProblem.atom_mask
    states = _reachable(problem)
    atom_of = {}  # bit -> the one atom that has it
    masks = set()
    for state in states:
        atoms = problem.atoms(state)
        bits = [problem.atom_bit(atom) for atom in atoms]
        mask = problem.atom_mask(state)
        assert all(bit > 0 and bit & (bit - 1) == 0 for bit in bits), state
        assert len(set(bits)) == len(bits), state
        total = 0
        for atom, bit in zip(atoms, bits):
            assert atom_of.setdefault(bit, atom) == atom, (bit, atom)
            total |= bit
        assert mask == total, state
        masks.add(mask)
    assert len(masks) == len(states)
    memo = TransitionMemo(problem, SearchStats())
    assert memo.goals(memo.goal_bits) == problem.goal_set
    assert memo.goal_bits == sum(problem.atom_bit(g) for g in problem.goal_set)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_domain_numbers_its_atoms_by_the_one_rule(name):
    problem = CASES[name]()
    # The goal predicates take the lowest bits, in declaration order, and a
    # domain gives every other atom its bit while it is built, but for the
    # Puzznic score bands, which get theirs as scores reach them.
    assert [problem.atom_bit(g) for g in problem.goal_predicates] == [
        1 << i for i in range(len(problem.goal_predicates))
    ]
    assert type(problem).atom_bit is SimulatorProblem.atom_bit
    built = dict(problem._atom_table[0])
    for state in _reachable(problem):
        atoms = problem.atoms(state)
        assert problem.mask_atoms(problem.atom_mask(state)) == atoms
        for atom in atoms:
            if not atom.startswith("score-band-"):
                assert built.get(atom) == problem.atom_bit(atom), atom


@pytest.mark.parametrize(
    "name",
    sorted(
        name
        for name in CASES
        if name.endswith((".json", ".grid")) or name in ("star-7-pads-2", "padded-grid")
    ),
)
def test_pentest_and_grid_states_are_their_own_masks(name):
    problem = CASES[name]()
    assert isinstance(problem, (PentestProblem, GridProblem))
    for state in _reachable(problem):
        assert problem.atom_mask(state) == state


@pytest.mark.parametrize(
    "name", ["chain3.json", "star-7-pads-2", "pairs.puz", "puzznic-fbi", "three_targets.grid"]
)
def test_fbi_asks_each_state_s_mask_once_and_never_its_atoms(name, monkeypatch):
    problem = CASES[name]()
    asked = []
    atom_mask = problem.atom_mask
    monkeypatch.setattr(problem, "atom_mask", lambda state: asked.append(state) or atom_mask(state))
    monkeypatch.setattr(problem, "atoms", lambda state: pytest.fail("fbi read a state's atoms"))
    successors = set()
    simulate = problem.simulate
    monkeypatch.setattr(
        problem, "simulate", lambda s, a: successors.add(simulate(s, a)) or simulate(s, a)
    )
    fbi(problem, BehaviourSpace((GoalOrder(problem.goal_predicates),)), k=6)
    assert len(asked) == len(set(asked))
    assert successors | {problem.initial} == set(asked)

