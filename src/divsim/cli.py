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

from .bench import (
    FEATURES,
    MODES,
    TaskSpec,
    build_space,
    format_aggregates,
    run_suite,
    run_task,
    write_rows_csv,
)
from .behaviour import behaviour_to_json
from .domains import DOMAINS, load_problem, read_utf8
from .errors import DivsimError, ParseError
from .oracle import brute_force_behaviours
from .search import NoveltyConfig, NoveltyScope, SearchLimits

EXIT_OK = 0
EXIT_UNSOLVED = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_DATA = 65

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _csv_list(text: str) -> tuple:
    values = tuple(part.strip() for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


def _k_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in _csv_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None
    if any(k < 1 for k in values):
        raise argparse.ArgumentTypeError(f"bad k list {text!r}")
    return values


def _add_instance_options(sub):
    sub.add_argument("--domain", choices=tuple(DOMAINS))
    sub.add_argument("--instance", required=True)


def _add_space_options(sub):
    sub.add_argument(
        "--features",
        type=_csv_list,
        default=FEATURES,
        help="comma-separated diversity features: go (goal order), cb (cost)",
    )
    sub.add_argument("--cost-bound", type=int, default=SearchLimits.cost_bound)


def _add_search_options(sub):
    """The run options of ``solve`` and ``bench``, defaulting as the library does."""
    _add_space_options(sub)
    sub.add_argument(
        "--max-width",
        type=int,
        default=NoveltyConfig.max_width,
        help="highest novelty width; a width that prunes nothing ends the sweep",
    )
    sub.add_argument(
        "--novelty", choices=[s.value for s in NoveltyScope], default=NoveltyConfig.scope.value
    )
    sub.add_argument("--time-limit", type=float, default=SearchLimits.time_budget_s)
    sub.add_argument("--node-limit", type=int, default=SearchLimits.node_budget)


def _novelty(args) -> NoveltyConfig:
    return NoveltyConfig(args.max_width, NoveltyScope(args.novelty))


def _limits(args) -> SearchLimits:
    return SearchLimits(args.cost_bound, args.time_limit, args.node_limit)


def _cmd_solve(args) -> int:
    spec = TaskSpec(
        instance=args.instance,
        mode=args.mode,
        k=args.k,
        domain=args.domain,
        features=args.features,
        novelty=_novelty(args),
        limits=_limits(args),
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
        novelty=_novelty(args),
        limits=_limits(args),
        plans_dir=args.plans_dir,
    )
    write_rows_csv(args.out, rows)
    print(format_aggregates(aggregates))
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


def _plan_actions(doc, index: int) -> list:
    """The action names of plan ``index`` of a plan set document from solve."""
    plans = doc.get("plans", []) if isinstance(doc, dict) else None
    if not isinstance(plans, list):
        raise DivsimError("plan file must be a JSON object whose 'plans' is a list")
    if not 0 <= index < len(plans):
        raise DivsimError(f"plan index {index} out of range; file holds {len(plans)} plan(s)")
    plan = plans[index]
    actions = plan.get("actions") if isinstance(plan, dict) else None
    if not isinstance(actions, list) or not all(isinstance(a, str) for a in actions):
        raise DivsimError(f"plan {index} must be an object whose 'actions' is a list of names")
    return actions


def _cmd_render(args) -> int:
    from .domains.puzznic import render_puzznic

    problem = load_problem(args.instance, "puzznic")
    try:
        doc = json.loads(read_utf8(args.plan))
    except RecursionError:
        raise ParseError(f"{args.plan} nests JSON too deeply") from None
    frames = render_puzznic(problem, _plan_actions(doc, args.index))
    print("\n\n".join(frames))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    problem = load_problem(args.instance, args.domain)
    space = build_space(problem, args.features, args.cost_bound)
    found = brute_force_behaviours(problem, space, args.max_len, cost_bound=args.cost_bound)
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
    parser = _Parser(prog="divsim", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run one planning task")
    _add_instance_options(solve)
    solve.add_argument("--mode", choices=MODES, default=TaskSpec.mode)
    solve.add_argument("--k", type=int, default=TaskSpec.k)
    _add_search_options(solve)
    solve.add_argument("--out", help="write the plan set JSON here instead of stdout")
    solve.set_defaults(handler=_cmd_solve)

    bench = subs.add_parser("bench", help="run a directory of instances")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--modes", type=_csv_list, default=MODES)
    bench.add_argument("--k-list", type=_k_list, default=(2, 5, 10))
    _add_search_options(bench)
    bench.add_argument("--plans-dir", help="also write one plan JSON per task here")
    bench.add_argument("--out", required=True, help="result table CSV path")
    bench.set_defaults(handler=_cmd_bench)

    render = subs.add_parser("render", help="replay a plan as ASCII frames")
    render.add_argument("--instance", required=True)
    render.add_argument("--plan", required=True, help="plan set JSON from solve")
    render.add_argument("--index", type=int, default=0)
    render.set_defaults(handler=_cmd_render)

    oracle = subs.add_parser("oracle", help="enumerate all behaviours exhaustively")
    _add_instance_options(oracle)
    _add_space_options(oracle)
    oracle.add_argument("--max-len", type=int, required=True)
    oracle.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DivsimError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
