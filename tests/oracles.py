"""Reference implementations the tests compare the package against.

Everything here is deliberately written from the definitions rather than by
calling into the package's own logic: the temporal evaluator expands the
quantifiers literally and derives Release through its Until dual, the width
search is a separate BFS, the behaviour enumerator is a depth-first walk
with no deduplication, and the Grid and Pentest encoders rebuild a state's
atoms from the plan that reached it, Puzznic gravity repacks each column
segment as a list, and Puzznic settling scans a tuple of rows whole for
every wave. The one exception is ``restart_fbi``, the
forbid-and-restart loop, which calls the package's one-shot generators
(themselves checked against ``plain_iw``). Slow is fine; these only run on
tiny inputs.
"""

from __future__ import annotations

import itertools
from collections import deque

from divsim.behaviour import Behaviour, extract_behaviour
from divsim.core import initial_augmented, successor_augmented
from divsim.errors import BudgetExceeded
from divsim.ltl import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Next,
    Not,
    Or,
    Release,
    TrueF,
    Until,
)
from divsim.search import (
    Budget,
    NoveltyConfig,
    NoveltyScope,
    PlanSetResult,
    SearchLimits,
    SearchStats,
    behaviour_generator,
    plan_generator,
)

ATOM_POOL = ("p", "q", "r")


def eval_reference(f, view, i=0):
    """Finite-trace satisfaction, spelled out as explicit quantifiers."""
    n = len(view)
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return f.name in view[i]
    if isinstance(f, Not):
        return not eval_reference(f.child, view, i)
    if isinstance(f, And):
        return all(eval_reference(c, view, i) for c in f.children)
    if isinstance(f, Or):
        return any(eval_reference(c, view, i) for c in f.children)
    if isinstance(f, Next):
        return i + 1 < n and eval_reference(f.child, view, i + 1)
    if isinstance(f, Eventually):
        return any(eval_reference(f.child, view, j) for j in range(i, n))
    if isinstance(f, Always):
        return all(eval_reference(f.child, view, j) for j in range(i, n))
    if isinstance(f, Until):
        return any(
            eval_reference(f.right, view, j)
            and all(eval_reference(f.left, view, m) for m in range(i, j))
            for j in range(i, n)
        )
    if isinstance(f, Release):
        return not eval_reference(Until(Not(f.left), Not(f.right)), view, i)
    raise TypeError(f"not a formula: {f!r}")


def random_formula(rng, depth):
    """Uniform-ish random formula of syntactic depth at most ``depth``."""
    leaves = [TRUE, FALSE] + [Atom(a) for a in ATOM_POOL]
    if depth == 0:
        return rng.choice(leaves)
    pick = rng.randrange(10)
    if pick <= 1:
        return rng.choice(leaves)
    sub = lambda: random_formula(rng, depth - 1)
    if pick == 2:
        return Not(sub())
    if pick == 3:
        return And((sub(), sub()))
    if pick == 4:
        return Or((sub(), sub()))
    if pick == 5:
        return Next(sub())
    if pick == 6:
        return Eventually(sub())
    if pick == 7:
        return Always(sub())
    if pick == 8:
        return Until(sub(), sub())
    return Release(sub(), sub())


def random_view(rng, max_len=6):
    length = rng.randint(1, max_len)
    return tuple(
        frozenset(a for a in ATOM_POOL if rng.random() < 0.5) for _ in range(length)
    )


def _tuples(raw, width):
    out = set(raw)
    for size in range(2, width + 1):
        out.update(frozenset(c) for c in itertools.combinations(raw, size))
    return frozenset(out)


def plain_iw(problem, max_width=2, cost_bound=1000, scope=NoveltyScope.TRACE_LOCAL):
    """First goal plan found by width-iterated BFS.

    Mirrors the published pruning discipline (novelty, then visited key of
    raw plus latched truths, then cost) without any behaviour forbidding, so
    it is the baseline an unconstrained generator must reproduce exactly.
    A state is novel iff one of its atom tuples is new: in TRACE_LOCAL scope
    to the tuples of its path, in GLOBAL scope to those of every state that
    passed the test this width iteration, the root included.
    """
    for width in range(1, max_width + 1):
        root = initial_augmented(problem)
        if root.goal_flag:
            return ()
        atoms = problem.atoms(root.raw)
        visited = {atoms | root.latched}
        seen = set(_tuples(atoms, width))  # GLOBAL scope's tuples
        queue = deque([(root, (), _tuples(atoms, width))])
        while queue:
            aug, plan, path_tuples = queue.popleft()
            for action in problem.applicable(aug.raw):
                child = successor_augmented(problem, aug, action)
                atoms = problem.atoms(child.raw)
                tuples = _tuples(atoms, width)
                if scope is NoveltyScope.GLOBAL:
                    if tuples <= seen:
                        continue
                    seen |= tuples
                elif tuples <= path_tuples:
                    continue
                key = atoms | child.latched
                if key in visited:
                    continue
                if child.cost_so_far > cost_bound:
                    continue
                visited.add(key)
                extended = plan + (action.name,)
                if child.goal_flag:
                    return extended
                queue.append((child, extended, path_tuples | tuples))
    return None


def dfs_behaviours(problem, space, max_len, cost_bound):
    """Every behaviour of every goal plan up to ``max_len``, by brute recursion.

    No visited set, no pruning beyond the cost bound: each action sequence is
    walked in full, so this cross-checks enumerators that do deduplicate.
    Returns ``{behaviour: plan}`` with a shortest plan per behaviour.
    """
    goals = space.order_feature.goals if space.order_feature else ()

    def behaviour_of(states):
        cost = states[-1].cost_so_far if space.cost_feature else None
        order = None
        if space.order_feature:
            first = {}
            for g in goals:
                for i, aug in enumerate(states):
                    if g in aug.latched:
                        first.setdefault(i, set()).add(g)
                        break
            order = tuple(frozenset(first[i]) for i in sorted(first))
        return Behaviour(cost=cost, goal_order=order)

    found = {}

    def walk(states, plan):
        tip = states[-1]
        if tip.goal_flag:
            behaviour = behaviour_of(states)
            if behaviour not in found or len(plan) < len(found[behaviour]):
                found[behaviour] = plan
        if len(plan) == max_len:
            return
        for action in problem.applicable(tip.raw):
            child = successor_augmented(problem, tip, action)
            if child.cost_so_far > cost_bound:
                continue
            walk(states + [child], plan + (action.name,))

    walk([initial_augmented(problem)], ())
    return found


def restart_fbi(
    problem, space, k, novelty=NoveltyConfig(), limits=SearchLimits(), *, interior_pruning=True
):
    """``fbi`` by restarting the search for every plan.

    Phase 1 calls ``behaviour_generator`` afresh under every behaviour found
    so far, phase 2 calls ``plan_generator`` afresh under every plan found
    so far, each a new IW sweep from width 1. ``fbi`` resumes one sweep per
    phase instead and must return the same plans and behaviours. All calls
    share one ``Budget(limits, space)``, so both phases search within the
    smaller of ``limits.cost_bound`` and the space's cost bound, as ``fbi``
    does; on a trip the plans so far ride on the raised ``BudgetExceeded``.
    """
    budget = Budget(limits, space)
    stats = SearchStats()
    plans, behaviours = [], []

    def result(exhausted):
        return PlanSetResult(tuple(plans), tuple(behaviours), stats, exhausted)

    try:
        while len(plans) < k:
            got = behaviour_generator(
                problem, space, frozenset(behaviours), novelty, limits,
                budget=budget, stats=stats, interior_pruning=interior_pruning,
            )
            if got is None:
                break
            plans.append(got[0])
            behaviours.append(got[1])
        while len(plans) < k:
            got = plan_generator(
                problem, frozenset(plans), novelty, limits, budget=budget, stats=stats
            )
            if got is None:
                break
            plans.append(got[0])
            behaviours.append(extract_behaviour(space, problem, got[0]))
    except BudgetExceeded as err:
        err.partial = result(False)
        raise
    return result(len(plans) < k)


GRID_MOVES = (("up", -1, 0), ("down", 1, 0), ("left", 0, -1), ("right", 0, 1))


def grid_reference(world, plan):
    """``(atoms, applicable action names, goal)`` after ``plan`` in a ``GridWorld``.

    The atoms are ``at-`` the agent's cell and ``visited-`` every target the
    path entered, the start included; the goal is every target entered.
    """

    def open_cell(r, c):
        return 0 <= r < world.height and 0 <= c < world.width and (r, c) not in world.walls

    deltas = {name: (dr, dc) for name, dr, dc in GRID_MOVES}
    path = [world.start]
    for name in plan:
        r, c = path[-1]
        dr, dc = deltas[name]
        assert open_cell(r + dr, c + dc), plan
        path.append((r + dr, c + dc))
    r, c = path[-1]
    entered = set(world.targets) & set(path)
    atoms = {f"at-{r}-{c}"} | {f"visited-{tr}-{tc}" for tr, tc in entered}
    applicable = tuple(name for name, dr, dc in GRID_MOVES if open_cell(r + dr, c + dc))
    return frozenset(atoms), applicable, entered == set(world.targets)


def pentest_initial(scenario):
    """The initial ``(compromised, reachable)`` of a ``PentestScenario``, two
    frozensets of host ids: nothing compromised, the hosts of the subnets
    that face the internet reachable."""
    return frozenset(), frozenset(h.id for h in scenario.hosts if h.subnet in scenario.internet)


def _exploits(scenario) -> dict:
    """Exploit action name -> the ``Host`` it compromises, in declaration order."""
    return {
        f"exploit-{h.id}-{service}": h
        for h in scenario.hosts
        for service in h.services
        if service in scenario.exploit_costs
    }


def pentest_step(scenario, state, name):
    """The successor of ``state`` (as ``pentest_initial`` gives) under exploit
    ``name``: its host is compromised, and the hosts of its subnet and of the
    subnets adjacent to it become reachable."""
    compromised, reachable = state
    host = _exploits(scenario)[name]
    assert host.id in reachable and host.id not in compromised, name
    near = {host.subnet} | scenario.adjacency[host.subnet]
    opened = {h.id for h in scenario.hosts if h.subnet in near}
    return compromised | {host.id}, reachable | opened


def pentest_view(scenario, state):
    """``(atoms, applicable action names, goal)`` of ``state``: ``compromised-``
    and ``reachable-`` each host in those sets; every exploit of a reachable
    host not yet compromised; every sensitive host compromised."""
    compromised, reachable = state
    atoms = {f"compromised-{h}" for h in compromised} | {f"reachable-{h}" for h in reachable}
    applicable = tuple(
        name
        for name, h in _exploits(scenario).items()
        if h.id in reachable and h.id not in compromised
    )
    goal = all(h.id in compromised for h in scenario.hosts if h.sensitive)
    return frozenset(atoms), applicable, goal


def segment_gravity(rows, columns=None, moved=None):
    """Puzznic gravity on a list of row lists, in place, one wall-free column
    segment at a time: each segment is rebuilt as its empty cells above its
    blocks, in their order. Returns whether a cell changed and adds to
    ``moved`` each cell that now holds a block of another pattern than before.
    """
    changed = False
    height = len(rows)
    width = len(rows[0]) if rows else 0
    for c in range(width) if columns is None else columns:
        top = 0
        for r in range(height + 1):
            if r == height or rows[r][c] == "#":
                segment = [rows[i][c] for i in range(top, r)]
                stack = [x for x in segment if x != "."]
                packed = ["."] * (len(segment) - len(stack)) + stack
                if packed != segment:
                    changed = True
                    for i, cell in enumerate(packed):
                        rows[top + i][c] = cell
                        if moved is not None and cell != "." and cell != segment[i]:
                            moved.add((top + i, c))
                top = r + 1
    return changed


def reference_settle(grid, record=None):
    """Settle a tuple of rows by full scans: gravity on every column, then
    every block next to a block of its own pattern clears, which is every
    group of two or more, until none is left. Returns ``(rows, waves)``,
    each wave the frozenset of ``(row, col, pattern)`` it cleared, and
    appends to ``record`` the frames ``puzznic_step`` records."""
    rows = [list(row) for row in grid]
    height, width = len(rows), len(rows[0])
    waves = []
    while True:
        if segment_gravity(rows) and record is not None:
            record.append(("fall", tuple(map("".join, rows)), None))
        blocks = {
            (r, c): rows[r][c]
            for r in range(height)
            for c in range(width)
            if rows[r][c] not in "#."
        }
        cleared = set()
        for (r, c), p in blocks.items():
            near = ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
            if any(blocks.get(cell) == p for cell in near):
                cleared.add((r, c, p))
        if not cleared:
            return tuple(map("".join, rows)), tuple(waves)
        for r, c, _ in cleared:
            rows[r][c] = "."
        waves.append(frozenset(cleared))
        if record is not None:
            gain = 100 * len(cleared) * len(waves)
            record.append(("clear", tuple(map("".join, rows)), (len(waves), waves[-1], gain)))
