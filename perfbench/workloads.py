"""Workload inputs for the divsim benchmark, generated from a seed.

The instance families are the ones the acceptance suite generates (open
grid rooms, star networks, two-pair tile levels) plus the three-pattern
Puzznic level from the roadmap. Seed 0 reproduces those instances exactly.
Any other seed relabels them within the same family at the same size:

* Puzznic pattern letters are permuted,
* star-network spokes are listed under a permuted numbering (host, subnet
  and service names follow the spoke) and padding hosts are renamed,
* grid rooms are shifted inside a thicker wall border, which renames every
  cell, start and target included.

Each relabeling is an isomorphism of the search: action declaration order
and every set the planner compares stay the same, only names change. So
the planner must return the same plans on every seed once names are mapped
back, and one recorded digest per workload checks every seed. The generated
names also change the predicates' identities and the iteration order of
every frozenset, which is what an unseen seed can expose.

This module imports nothing from divsim: the planner only ever receives
the generated text.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field

PUZZNIC_FBI_ROWS = ("#a..b..c#", "##.###.##", "#a.@b..c#")

GENERATED_GRIDS = (
    ("grid-3x3-diag", 3, 3, (1, 1), ((0, 0), (2, 2))),
    ("grid-3x3-anti", 3, 3, (1, 1), ((0, 2), (2, 0))),
    ("grid-3x3-top", 3, 3, (2, 1), ((0, 0), (0, 2))),
    ("grid-3x4-far", 3, 4, (1, 1), ((0, 3), (2, 0))),
    ("grid-3x4-mid", 3, 4, (1, 2), ((0, 0), (2, 3))),
    ("grid-4x4-span", 4, 4, (1, 1), ((0, 3), (3, 0))),
    ("grid-4x4-corner", 4, 4, (2, 2), ((0, 0), (3, 3))),
    ("grid-3x3-three", 3, 3, (1, 1), ((0, 0), (0, 2), (2, 1))),
    ("grid-3x4-three", 3, 4, (1, 1), ((0, 0), (0, 3), (2, 2))),
    ("grid-4x4-three", 4, 4, (1, 2), ((0, 0), (2, 3), (3, 1))),
)

GENERATED_STARS = (
    ("pentest-2lan", 2, frozenset({1, 2}), 0),
    ("pentest-2lan-pad", 2, frozenset({1, 2}), 1),
    ("pentest-3lan-12", 3, frozenset({1, 2}), 0),
    ("pentest-3lan-13", 3, frozenset({1, 3}), 1),
    ("pentest-3lan-all", 3, frozenset({1, 2, 3}), 0),
    ("pentest-3lan-23", 3, frozenset({2, 3}), 2),
)

GENERATED_PUZZLES = (
    ("puzznic-ab", "#####\n#a.b#\n##.##\n#a@b#\n#####\n"),
    ("puzznic-cd", "#####\n#c.d#\n##.##\n#c@d#\n#####\n"),
    ("puzznic-ba", "#####\n#b.a#\n##.##\n#b@a#\n#####\n"),
    ("puzznic-top", "#####\n#a@b#\n##.##\n#a.b#\n#####\n"),
    ("puzznic-ef", "#####\n#e@f#\n##.##\n#e.f#\n#####\n"),
    ("puzznic-fe", "#####\n#f.e#\n##.##\n#f@e#\n#####\n"),
)


@dataclass(frozen=True)
class Instance:
    """One generated instance file plus the way back to seed-0 names.

    ``names`` maps every relabeled action or goal-predicate name to its
    seed-0 name; names missing from it are the same on every seed.
    """

    name: str
    suffix: str
    text: str
    names: dict = field(default_factory=dict)

    @property
    def filename(self) -> str:
        return self.name + self.suffix


WORKLOADS = ("puzznic-fbi", "pentest-fbi", "bench-suite")

# Diversity features and cost bound of every bench-suite task.
SUITE_FEATURES = ("go", "cb")
SUITE_COST_BOUND = 24


def grid_text(rows, cols, start, targets, pad_rows=0, pad_cols=0):
    """Open room of ``rows`` x ``cols`` floor cells inside a wall border.

    ``pad_rows``/``pad_cols`` thicken the top and left border, which shifts
    every cell's coordinates without changing the room.
    """
    lines = ["#" * (cols + 2 + pad_cols)] * pad_rows
    for r in range(rows + 2):
        cells = ["#"] * pad_cols
        for c in range(cols + 2):
            if r in (0, rows + 1) or c in (0, cols + 1):
                cells.append("#")
            elif (r - 1, c - 1) == start:
                cells.append("S")
            elif (r - 1, c - 1) in targets:
                cells.append("T")
            else:
                cells.append(".")
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def star_scenario(n_lans, sensitive, pads, label=None, pad_label=None):
    """Star network: a DMZ web host, ``n_lans`` spoke subnets, padding hosts.

    Spoke ``i`` (1-based, in file order) is named after ``label[i]`` and is
    sensitive iff ``i`` is in ``sensitive``; padding host ``j`` is named
    after ``pad_label[j]``.
    """
    label = label or {i: i for i in range(1, n_lans + 1)}
    pad_label = pad_label or {j: j for j in range(pads)}
    subnets = [{"id": "dmz", "internet": True}]
    topology = []
    hosts = [{"id": "web", "subnet": "dmz", "services": ["http"]}]
    exploits = [{"service": "http", "cost": 1}]
    for i in range(1, n_lans + 1):
        n = label[i]
        subnets.append({"id": f"lan{n}"})
        topology.append(["dmz", f"lan{n}"])
        hosts.append(
            {
                "id": f"h{n}",
                "subnet": f"lan{n}",
                "services": [f"svc{n}"],
                "sensitive": i in sensitive,
            }
        )
        exploits.append({"service": f"svc{n}", "cost": 1})
    for j in range(pads):
        hosts.append({"id": f"pad{pad_label[j]}", "subnet": "dmz", "services": ["http"]})
    return json.dumps(
        {"subnets": subnets, "topology": topology, "hosts": hosts, "exploits": exploits}
    )


def _letter_map(rng, seed):
    letters = list(string.ascii_lowercase)
    if seed == 0:
        return dict(zip(letters, letters))
    shuffled = letters[:]
    rng.shuffle(shuffled)
    return dict(zip(letters, shuffled))


def _puzznic(name, text, sigma) -> Instance:
    out = []
    for ch in text:
        if ch.islower():
            ch = sigma[ch]
        elif ch.isupper():
            ch = sigma[ch.lower()].upper()
        out.append(ch)
    names = {f"cleared-{sigma[p]}": f"cleared-{p}" for p in sorted(set(text)) if p.islower()}
    return Instance(name, ".puz", "".join(out), names)


def _star(name, n_lans, sensitive, pads, rng, seed) -> Instance:
    spokes = list(range(1, n_lans + 1))
    pad_ids = list(range(pads))
    if seed != 0:
        rng.shuffle(spokes)
        pad_ids = rng.sample(range(10, 100), pads)
    label = dict(zip(range(1, n_lans + 1), spokes))
    pad_label = dict(zip(range(pads), pad_ids))
    names = {}
    for i, n in label.items():
        names[f"exploit-h{n}-svc{n}"] = f"exploit-h{i}-svc{i}"
        names[f"compromised-h{n}"] = f"compromised-h{i}"
    for j, n in pad_label.items():
        names[f"exploit-pad{n}-http"] = f"exploit-pad{j}-http"
    text = star_scenario(n_lans, sensitive, pads, label, pad_label)
    return Instance(name, ".json", text, names)


def _grid(name, rows, cols, start, targets, rng, seed) -> Instance:
    dr, dc = (0, 0) if seed == 0 else (rng.randrange(4), rng.randrange(4))
    names = {
        f"visited-{r + 1 + dr}-{c + 1 + dc}": f"visited-{r + 1}-{c + 1}" for r, c in targets
    }
    return Instance(name, ".grid", grid_text(rows, cols, start, targets, dr, dc), names)


def generate(workload: str, seed: int) -> list:
    """The instances of a workload for a seed, in a fixed order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "puzznic-fbi":
        text = "\n".join(("#" * 9,) + PUZZNIC_FBI_ROWS + ("#" * 9,)) + "\n"
        return [_puzznic("puzznic-abc", text, _letter_map(rng, seed))]
    if workload == "pentest-fbi":
        return [_star("pentest-star7", 7, frozenset(range(1, 8)), 2, rng, seed)]
    if workload == "bench-suite":
        out = [_grid(name, r, c, s, ts, rng, seed) for name, r, c, s, ts in GENERATED_GRIDS]
        out += [_star(name, n, sens, pads, rng, seed) for name, n, sens, pads in GENERATED_STARS]
        sigma = _letter_map(rng, seed)
        out += [_puzznic(name, text, sigma) for name, text in GENERATED_PUZZLES]
        return out
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
