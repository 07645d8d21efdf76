"""Command line front end.

Subcommands: solve (one planner run), bench (directory suite), render
(Puzznic plan playback), oracle (exhaustive behaviour enumeration).

Exit codes: 0 success; 2 no plans / behaviour space exhausted below k;
3 resource budget exceeded; 64 bad usage; 65 unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    TaskSpec,
    build_space,
    format_aggregates,
    run_suite,
    run_task,
    write_rows_csv,
)
from .behaviour import behaviour_to_json
from .domains import load_problem
from .domains.puzznic import render_puzznic
from .errors import BudgetExceeded, DivsimError
from .oracle import brute_force_behaviours
from .search import NoveltyConfig, NoveltyScope

EXIT_OK = 0
EXIT_UNSOLVED = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_DATA = 65

_EPILOG = (
    "The DIVSIM_SEED environment variable is reserved for future stochastic "
    "components; every current component is deterministic and ignores it."
)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _csv_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _k_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in _csv_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None
    if not values or any(k < 1 for k in values):
        raise argparse.ArgumentTypeError(f"bad k list {text!r}")
    return values


def _add_search_options(sub, with_mode=True):
    sub.add_argument("--domain", choices=("grid", "puzznic", "pentest"))
    sub.add_argument("--instance", required=True)
    if with_mode:
        sub.add_argument("--mode", choices=("fbi", "naive"), default="fbi")
        sub.add_argument("--k", type=int, default=1)
    sub.add_argument(
        "--features",
        type=_csv_list,
        default=("go", "cb"),
        help="comma-separated diversity features: go (goal order), cb (cost)",
    )
    sub.add_argument("--cost-bound", type=int, default=1000)
    if with_mode:
        sub.add_argument("--max-width", type=int, default=2)
        sub.add_argument("--novelty", choices=("trace", "global"), default="trace")
        sub.add_argument("--time-limit", type=float, default=1800.0)
        sub.add_argument("--node-limit", type=int, default=10_000_000)


def _novelty(args) -> NoveltyConfig:
    return NoveltyConfig(args.max_width, NoveltyScope(args.novelty))


def _cmd_solve(args) -> int:
    spec = TaskSpec(
        instance=args.instance,
        mode=args.mode,
        k=args.k,
        domain=args.domain,
        features=args.features,
        cost_bound=args.cost_bound,
        novelty=_novelty(args),
        time_budget_s=args.time_limit,
        node_budget=args.node_limit,
    )
    _, row, doc = run_task(spec, plans_path=args.out)
    if args.out is None:
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"{row.instance}: {row.plans_found} plan(s), "
            f"{row.behaviour_count} behaviour(s), outcome {row.outcome} -> {args.out}"
        )
    if row.outcome == "done":
        return EXIT_OK
    if row.outcome in ("timeout", "nodecap"):
        return EXIT_BUDGET
    return EXIT_UNSOLVED


def _cmd_bench(args) -> int:
    rows, aggregates = run_suite(
        args.suite,
        modes=args.modes,
        k_list=args.k_list,
        features=args.features,
        cost_bound=args.cost_bound,
        novelty=_novelty(args),
        time_budget_s=args.time_limit,
        node_budget=args.node_limit,
        plans_dir=args.plans_dir,
    )
    write_rows_csv(args.out, rows)
    print(format_aggregates(aggregates))
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


def _cmd_render(args) -> int:
    problem = load_problem(args.instance, "puzznic")
    doc = json.loads(Path(args.plan).read_text())
    plans = doc.get("plans", [])
    if not 0 <= args.index < len(plans):
        raise DivsimError(
            f"plan index {args.index} out of range; file holds {len(plans)} plan(s)"
        )
    frames = render_puzznic(problem, plans[args.index]["actions"])
    print("\n\n".join(frames))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    problem = load_problem(args.instance, args.domain)
    space = build_space(problem, args.features, args.cost_bound)
    found = brute_force_behaviours(problem, space, args.max_len)
    doc = {
        "instance": args.instance,
        "max_len": args.max_len,
        "behaviour_count": len(found),
        "behaviours": [
            {"behaviour": behaviour_to_json(b), "witness": list(plan)}
            for b, plan in found.items()
        ],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divsim", description=__doc__.splitlines()[0], epilog=_EPILOG)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run one planning task", epilog=_EPILOG)
    _add_search_options(solve)
    solve.add_argument("--out", help="write the plan set JSON here instead of stdout")
    solve.set_defaults(handler=_cmd_solve)

    bench = subs.add_parser("bench", help="run a directory of instances", epilog=_EPILOG)
    bench.add_argument("--suite", required=True)
    bench.add_argument("--modes", type=_csv_list, default=("fbi", "naive"))
    bench.add_argument("--k-list", type=_k_list, default=(2, 5, 10))
    bench.add_argument("--features", type=_csv_list, default=("go", "cb"))
    bench.add_argument("--cost-bound", type=int, default=1000)
    bench.add_argument("--max-width", type=int, default=2)
    bench.add_argument("--novelty", choices=("trace", "global"), default="trace")
    bench.add_argument("--time-limit", type=float, default=1800.0)
    bench.add_argument("--node-limit", type=int, default=10_000_000)
    bench.add_argument("--plans-dir", help="also write one plan JSON per task here")
    bench.add_argument("--out", required=True, help="result table CSV path")
    bench.set_defaults(handler=_cmd_bench)

    render = subs.add_parser("render", help="replay a plan as ASCII frames")
    render.add_argument("--domain", choices=("puzznic",), default="puzznic")
    render.add_argument("--instance", required=True)
    render.add_argument("--plan", required=True, help="plan set JSON from solve")
    render.add_argument("--index", type=int, default=0)
    render.set_defaults(handler=_cmd_render)

    oracle = subs.add_parser("oracle", help="enumerate all behaviours exhaustively")
    _add_search_options(oracle, with_mode=False)
    oracle.add_argument("--max-len", type=int, required=True)
    oracle.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (DivsimError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
