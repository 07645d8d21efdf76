"""Reference implementations the tests compare the package against.

Everything here is deliberately written from the definitions rather than by
calling into the package's own logic: the temporal evaluator expands the
quantifiers literally and derives Release through its Until dual, the width
search is a separate BFS, the behaviour enumerator is a depth-first walk
with no deduplication, and the Grid and Pentest encoders rebuild a state's
atoms from the plan that reached it, and Puzznic gravity repacks each column
segment as a list. The one exception is ``restart_fbi``, the
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


def plain_iw(problem, max_width=2, cost_bound=1000):
    """First goal plan found by width-iterated BFS with path-local novelty.

    Mirrors the published pruning discipline (novelty, then visited key of
    raw plus latched truths, then cost) without any behaviour forbidding, so
    it is the baseline an unconstrained generator must reproduce exactly.
    """
    for width in range(1, max_width + 1):
        root = initial_augmented(problem)
        if root.goal_flag:
            return ()
        atoms = problem.atoms(root.raw)
        visited = {atoms | root.latched}
        queue = deque([(root, (), _tuples(atoms, width))])
        while queue:
            aug, plan, path_tuples = queue.popleft()
            for action in problem.applicable(aug.raw):
                child = successor_augmented(problem, aug, action)
                atoms = problem.atoms(child.raw)
                tuples = _tuples(atoms, width)
                if tuples <= path_tuples:
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
            found.setdefault(behaviour_of(states), plan)
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


def pentest_reference(scenario, plan):
    """``(atoms, applicable action names, goal)`` after ``plan`` in a ``PentestScenario``.

    The atoms are ``compromised-`` every exploited host and ``reachable-``
    every host whose subnet faces the internet, or holds a compromised host,
    or is adjacent to a subnet that does; the goal is every sensitive host
    compromised.
    """
    exploits = {
        f"exploit-{h.id}-{service}": h
        for h in scenario.hosts
        for service in h.services
        if service in scenario.exploit_costs
    }
    compromised = {exploits[name] for name in plan}
    assert len(compromised) == len(plan), plan

    def reachable(host):
        near = {host.subnet} | scenario.adjacency[host.subnet]
        return host.subnet in scenario.internet or any(h.subnet in near for h in compromised)

    atoms = {f"compromised-{h.id}" for h in compromised}
    atoms |= {f"reachable-{h.id}" for h in scenario.hosts if reachable(h)}
    applicable = tuple(
        name for name, h in exploits.items() if h not in compromised and reachable(h)
    )
    goal = all(h in compromised for h in scenario.hosts if h.sensitive)
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
