"""Layer tracing from outside the package.

Nothing in ``src/`` is edited. The tracer rebinds module attributes that
divsim calls by global name (``divsim.search.state_tuples``,
``divsim.domains.puzznic.settle``, ...) and wraps the simulator methods of
every problem it sees loaded. Each wrapped call is a span; a span's self
time is its duration minus the durations of the wrapped calls it made.

Per-node calls run hundreds of thousands of times per run, so their spans
are folded into per-name totals (calls, seconds, self seconds) as they
close. Coarser spans (the workload, harness calls, problem loading, planner
and generator calls, behaviour extraction) are also kept whole, with name,
start, end, parent and run id, and written out when the run ends.
"""

from __future__ import annotations

import json
import time

CLOCK = time.perf_counter

_PROBLEM_METHODS = ("simulate", "applicable", "is_goal")
_SEARCH_SPANS = ("search.fbi", "search.fbi_naive", "search.behaviour_generator",
                 "search.plan_generator")


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack = []  # one [child seconds] cell per open span
        self.open_kept = []  # ids of the open kept spans, innermost last
        self.spans = []  # kept spans as dicts, indexed by id
        self.totals = {}  # span name -> [calls, seconds, self seconds]
        self.pairs = []  # one set of (state, action) per wrapped problem
        self.generator_nodes_max = 0
        self.exhaustion_s = 0.0
        self.results = []  # PlanSetResult of every planner call

    def wrap(self, name: str, fn, keep: bool = False):
        """``fn`` with every call recorded as a span called ``name``."""
        stack = self.stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        if not keep:

            def traced(*args, **kwargs):
                cell = [0.0]
                stack.append(cell)
                start = CLOCK()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = CLOCK() - start
                    stack.pop()
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - cell[0]
                    if stack:
                        stack[-1][0] += elapsed

            return traced

        spans = self.spans
        open_kept = self.open_kept

        def traced_kept(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            span = {"run": self.run_id, "id": len(spans), "name": name,
                    "parent": open_kept[-1] if open_kept else None}
            spans.append(span)
            open_kept.append(span["id"])
            start = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                end = CLOCK()
                elapsed = end - start
                stack.pop()
                open_kept.pop()
                span["start"] = start
                span["end"] = end
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced_kept

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a kept span."""
        return self.wrap(name, fn, keep=True)(*args, **kwargs)

    def wrap_problem(self, problem):
        """Trace a loaded problem's simulator methods, per domain."""
        domain = type(problem).__name__.replace("Problem", "").lower()
        for method in _PROBLEM_METHODS:
            traced = self.wrap(f"domains.{method}.{domain}", getattr(problem, method))
            if method == "simulate":
                traced = self._counting_pairs(traced)
            setattr(problem, method, traced)
        return problem

    def _counting_pairs(self, simulate):
        pairs = set()
        self.pairs.append(pairs)

        def counted(state, action):
            pairs.add((state, action.name))
            return simulate(state, action)

        return counted

    def _generator(self, name, fn):
        traced = self.wrap(name, fn, keep=True)

        def call(*args, **kwargs):
            stats = kwargs.get("stats")
            before = stats.nodes_generated if stats is not None else 0
            start = CLOCK()
            got = traced(*args, **kwargs)
            if got is None:
                self.exhaustion_s += CLOCK() - start
            if stats is not None:
                nodes = stats.nodes_generated - before
                self.generator_nodes_max = max(self.generator_nodes_max, nodes)
            return got

        return call

    def _planner(self, name, fn):
        traced = self.wrap(name, fn, keep=True)

        def call(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.results.append(result)
            return result

        return call

    def install(self):
        """Rebind divsim's module attributes to traced versions."""
        from divsim import bench, behaviour, core, domains, search
        from divsim.domains import puzznic

        def loader(fn):
            traced = self.wrap("domains.load_problem", fn, keep=True)
            return lambda *args, **kwargs: self.wrap_problem(traced(*args, **kwargs))

        domains.load_problem = bench.load_problem = loader(domains.load_problem)

        traced_succ = self.wrap("core.successor_augmented", core.successor_augmented)
        core.successor_augmented = search.successor_augmented = traced_succ
        search.state_tuples = self.wrap("search.state_tuples", search.state_tuples)

        class TracedNoveltyTable(search.NoveltyTable):
            is_novel = self.wrap("search.is_novel", search.NoveltyTable.is_novel)

        search.NoveltyTable = TracedNoveltyTable
        search.behaviour_generator = self._generator(
            "search.behaviour_generator", search.behaviour_generator
        )
        search.plan_generator = self._generator("search.plan_generator", search.plan_generator)
        search.fbi = bench.fbi = self._planner("search.fbi", search.fbi)
        search.fbi_naive = bench.fbi_naive = self._planner("search.fbi_naive", search.fbi_naive)
        for name in ("node_plan", "node_states"):
            setattr(search, name, self.wrap(f"search.{name}", getattr(search, name)))
        search.latch_groups = self.wrap("behaviour.latch_groups", search.latch_groups)
        search.behaviour_formula = self.wrap(
            "behaviour.behaviour_formula", search.behaviour_formula
        )
        search.is_latch_monotone = self.wrap("ltl.is_latch_monotone", search.is_latch_monotone)
        search.evaluate = self.wrap("ltl.evaluate", search.evaluate)
        search.extract_behaviour = self.wrap(
            "behaviour.extract_behaviour", behaviour.extract_behaviour, keep=True
        )
        bench.run_task = self.wrap("bench.run_task", bench.run_task, keep=True)
        bench.plan_set_document = self.wrap(
            "bench.plan_set_document", bench.plan_set_document, keep=True
        )
        for name, attr in (("step", "puzznic_step"), ("settle", "settle"),
                           ("encode", "puzznic_predicates"),
                           ("applicable_moves", "applicable_moves")):
            setattr(puzznic, attr, self.wrap(f"domains.puzznic.{name}", getattr(puzznic, attr)))

    def _sum(self, name: str, index: int) -> float:
        """Total ``index`` (0 calls, 1 seconds, 2 self seconds) of span ``name``.

        A name ending in a dot sums every span under it, such as the
        per-domain simulator spans.
        """
        if name.endswith("."):
            return sum(t[index] for key, t in self.totals.items() if key.startswith(name))
        return self.totals.get(name, (0, 0.0, 0.0))[index]

    def layer_metrics(self) -> dict:
        """Per-layer values of this run, keyed by metric name.

        ``search.nodes_per_s`` and the overhead figures need the untraced
        wall time, so the caller fills them in.
        """
        out = {}
        for method in _PROBLEM_METHODS:
            out[f"domains.{method}.calls"] = self._sum(f"domains.{method}.", 0)
            out[f"domains.{method}.self_s"] = self._sum(f"domains.{method}.", 2)
        calls = out["domains.simulate.calls"]
        distinct = sum(len(p) for p in self.pairs)
        out["domains.simulate.distinct_ratio"] = distinct / calls if calls else 0.0
        for name in ("step", "settle", "encode", "applicable_moves"):
            out[f"domains.puzznic.{name}_s"] = self._sum(f"domains.puzznic.{name}", 2)
        out["domains.puzznic.decode_s"] = self._sum(
            "domains.simulate.puzznic", 2
        ) + self._sum("domains.applicable.puzznic", 2)
        for name in ("domains.load_problem", "search.behaviour_generator",
                     "search.plan_generator", "bench.run_task"):
            out[f"{name}.calls"] = self._sum(name, 0)
            out[f"{name}.s"] = self._sum(name, 1)
        for name in ("core.successor_augmented", "search.state_tuples", "search.is_novel",
                     "search.node_plan", "search.node_states", "behaviour.latch_groups",
                     "behaviour.extract_behaviour"):
            out[f"{name}.calls"] = self._sum(name, 0)
            out[f"{name}.self_s"] = self._sum(name, 2)
        for name in ("behaviour.behaviour_formula", "ltl.is_latch_monotone", "ltl.evaluate"):
            out[f"{name}.calls"] = self._sum(name, 0)
        out["search.generator.nodes_max"] = self.generator_nodes_max
        out["search.exhaustion_s"] = self.exhaustion_s
        stats = [r.stats for r in self.results]
        out["search.nodes_generated"] = sum(s.nodes_generated for s in stats)
        out["search.nodes_expanded"] = sum(s.nodes_expanded for s in stats)
        for rule in ("novelty", "visited", "cost", "behaviour"):
            out[f"search.pruned.{rule}"] = sum(getattr(s, f"pruned_by_{rule}") for s in stats)
        out["search.self_s"] = sum(self._sum(name, 2) for name in _SEARCH_SPANS)
        out["bench.plan_set_document.self_s"] = self._sum("bench.plan_set_document", 2)
        out["bench.harness_self_s"] = self._sum("bench.main", 2) + self._sum("bench.run_task", 2)
        return out

    def write(self, path):
        """Write kept spans, then per-name totals, as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for name, (calls, seconds, self_s) in sorted(self.totals.items()):
                handle.write(json.dumps({"run": self.run_id, "totals": name, "calls": calls,
                                         "s": seconds, "self_s": self_s}) + "\n")
