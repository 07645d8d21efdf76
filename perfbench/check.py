"""Correctness checks on what a workload execution returned.

Every task is checked on its own:

* the outcome is ``done`` or ``exhausted`` (a budget trip fails the task),
* every plan replays with ``divsim.core.replay`` to a goal within the cost
  bound, and its reported behaviour is the one the replay shows,
* the behaviour count is the number of distinct reported behaviours,
* an ``fbi`` task's phase-1 behaviours are pairwise distinct and phase 2
  adds no new one,
* on an instance the brute-force oracle covers, every behaviour is one the
  oracle reaches,
* the task's plans digest, taken after mapping relabeled names back to
  seed-0 names, is the one recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import SUITE_COST_BOUND, SUITE_FEATURES

from divsim.bench import build_space
from divsim.behaviour import behaviour_to_json, extract_behaviour
from divsim.core import replay
from divsim.domains import DOMAINS, domain_for_path
from divsim.errors import DivsimError, OracleTooLarge
from divsim.oracle import brute_force_behaviours


def task_from_doc(doc: dict, scope: str) -> dict:
    """Task record of a bench-suite plan document written by ``divsim bench``."""
    instance = Path(doc["instance"]).name
    return {
        "id": f"{scope}/{Path(instance).stem}/{doc['mode']}/k{doc['k']}",
        "instance": instance,
        "mode": doc["mode"],
        "k": doc["k"],
        "features": list(SUITE_FEATURES),
        "cost_bound": SUITE_COST_BOUND,
        "outcome": doc["stats"]["outcome"],
        "plans": [p["actions"] for p in doc["plans"]],
        "behaviours": [p.get("behaviour") for p in doc["plans"]],
        "behaviour_count": doc["behaviour_count"],
    }


def load_problems(instances) -> dict:
    """``{filename: problem}`` built from the generated text."""
    return {i.filename: DOMAINS[domain_for_path(i.filename)](i.text) for i in instances}


def _key(behaviour) -> str:
    return json.dumps(behaviour, sort_keys=True)


def canonical(task: dict, names: dict) -> dict:
    """The task's output under seed-0 names, without timings."""

    def behaviour(b):
        if b is None:
            return None
        out = dict(b)
        if "goal_order" in out:
            out["goal_order"] = [sorted(names.get(g, g) for g in group)
                                 for group in out["goal_order"]]
        return out

    return {
        "id": task["id"],
        "outcome": task["outcome"],
        "plans": [[names.get(a, a) for a in plan] for plan in task["plans"]],
        "behaviours": [behaviour(b) for b in task["behaviours"]],
        "behaviour_count": task["behaviour_count"],
    }


def task_digest(task: dict, names: dict) -> str:
    text = json.dumps(canonical(task, names), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def workload_digest(task_digests: dict) -> str:
    text = "\n".join(f"{task} {digest}" for task, digest in sorted(task_digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_behaviours(problem, features, cost_bound):
    """Behaviour keys the oracle reaches within the bound, or the reason it cannot run.

    Every action costs at least one, so plans longer than the cost bound
    are out of scope; an exploit compromises a new host, so pentest plans
    are also no longer than the host count. With that length cap the
    oracle is complete; its guard refuses instances too large to enumerate.
    """
    max_len = cost_bound // min(a.cost for a in problem.actions)
    hosts = getattr(getattr(problem, "scenario", None), "hosts", None)
    if hosts is not None:
        max_len = min(max_len, len(hosts))
    space = build_space(problem, features, cost_bound)
    try:
        found = brute_force_behaviours(problem, space, max_len)
    except OracleTooLarge as err:
        return None, f"max_len {max_len}: {err}"
    return {_key(behaviour_to_json(b)) for b in found}, None


def check_task(task: dict, problem, oracle=None) -> list:
    """Faults found in one task; empty when it passes."""
    faults = []
    if task["outcome"] not in ("done", "exhausted"):
        faults.append(f"outcome {task['outcome']}")
    plans, behaviours = task["plans"], task["behaviours"]
    if len(plans) != len(behaviours):
        faults.append(f"{len(plans)} plans but {len(behaviours)} behaviours")
    space = build_space(problem, task["features"], task["cost_bound"])
    for i, (plan, reported) in enumerate(zip(plans, behaviours)):
        try:
            tip = replay(problem, plan).states[-1]
            if not tip.goal_flag:
                faults.append(f"plan {i} does not reach a goal")
            elif tip.cost_so_far > task["cost_bound"]:
                faults.append(f"plan {i} costs {tip.cost_so_far} > {task['cost_bound']}")
            elif behaviour_to_json(extract_behaviour(space, problem, plan)) != reported:
                faults.append(f"plan {i} does not show its reported behaviour")
        except DivsimError as err:
            faults.append(f"plan {i} does not replay: {err}")
    keys = [_key(b) for b in behaviours]
    if task["behaviour_count"] != len(set(keys)):
        faults.append(f"behaviour count {task['behaviour_count']} != {len(set(keys))}")
    if task["mode"] == "fbi":
        phase1 = []
        for key in keys:
            if key in phase1:
                break
            phase1.append(key)
        if set(keys) != set(phase1):
            faults.append("phase-1 behaviours are not pairwise distinct")
    if oracle is not None:
        unreachable = [k for k in keys if k not in oracle]
        if unreachable:
            faults.append(f"behaviours the oracle does not reach: {unreachable[:2]}")
    return faults
