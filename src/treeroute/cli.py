"""Command line front end.

Subcommands: ``generate`` (write graph / commodity files), ``solve``
(run one solver on one instance and print the solution dump), ``bench``
(run a benchmark spec file to CSV), ``verify`` (check a solution dump
against its instance).

Exit codes: 0 success, 1 file or input errors, 2 usage errors,
3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import parse_spec, run_benchmark
from .edp import SOLVERS, EdpInstance, solution_to_dump, verify_dump
from .generators import generate_commodities, generate_mesh, generate_random_connected
from .graph import (
    GraphFormatError,
    GraphValidationError,
    commodities_to_text,
    graph_to_text,
    load_commodities,
    load_graph,
)
from .search import SearchConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _refuse_overwrite(inputs: list[tuple[str, str]],
                      outputs: list[tuple[str, str | None]]) -> None:
    """ValueError if an output names the file of an input or of an
    earlier output.  Each file is a ``(flag, path)`` pair; an output path
    of None is stdout."""
    named = [(flag, os.path.realpath(path)) for flag, path in inputs]
    for flag, path in outputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        for other_flag, other in named:
            if real == other:
                raise ValueError(f"{flag} {path} would overwrite {other_flag}")
        named.append((flag, real))


def _load_instance(graph_path: str, commodities_path: str) -> EdpInstance:
    g = load_graph(_read(graph_path))
    commodities = load_commodities(_read(commodities_path), g)
    return EdpInstance(g, tuple(commodities))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeroute",
        description="Edge-disjoint path routing via spanning-tree local search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write graph or commodity files")
    gen_sub = gen.add_subparsers(dest="what", required=True)

    mesh = gen_sub.add_parser("mesh", help="4-neighbor grid graph")
    mesh.add_argument("--width", type=int, required=True)
    mesh.add_argument("--height", type=int, required=True)
    mesh.add_argument("--out", help="output file (default stdout)")

    rand = gen_sub.add_parser("random", help="random connected graph")
    rand.add_argument("--nodes", type=int, required=True)
    rand.add_argument("--edges", type=int, required=True)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--out", help="output file (default stdout)")

    comm = gen_sub.add_parser("commodities", help="random commodity set")
    comm.add_argument("--graph", required=True)
    comm.add_argument("--count", type=int, required=True)
    comm.add_argument("--seed", type=int, default=0)
    comm.add_argument("--out", help="output file (default stdout)")

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--graph", required=True)
    solve.add_argument("--commodities", required=True)
    solve.add_argument("--solver", choices=SOLVERS, default="ls")
    solve.add_argument("--time-limit", type=float, default=10.0, metavar="SECS")
    solve.add_argument("--iter-cap", type=int, default=None, metavar="N",
                       help="deterministic mode: stop after N iterations/passes;"
                            " time_to_best then counts them, not seconds")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", help="write the solution dump here instead of stdout")

    bench = sub.add_parser(
        "bench", help="run a benchmark spec file; under iter_cap the t_s and"
                      " t_mean_s columns count iterations/passes, not seconds")
    bench.add_argument("--spec", required=True, metavar="FILE")
    bench.add_argument("--out", required=True, metavar="FILE",
                       help="aggregate CSV output")
    bench.add_argument("--raw-out", metavar="FILE",
                       help="raw per-run CSV (default: <out>.raw.csv)")

    verify = sub.add_parser("verify", help="check a solution dump")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--commodities", required=True)
    verify.add_argument("--dump", required=True)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.what == "mesh":
        g = generate_mesh(args.width, args.height)
        _write(args.out, graph_to_text(g))
    elif args.what == "random":
        g = generate_random_connected(args.nodes, args.edges, args.seed)
        _write(args.out, graph_to_text(g))
    else:
        _refuse_overwrite([("--graph", args.graph)], [("--out", args.out)])
        g = load_graph(_read(args.graph))
        commodities = generate_commodities(g, args.count, args.seed)
        _write(args.out, commodities_to_text(commodities))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    _refuse_overwrite([("--graph", args.graph), ("--commodities", args.commodities)],
                      [("--out", args.out)])
    inst = _load_instance(args.graph, args.commodities)
    cfg = SearchConfig(
        time_limit_s=args.time_limit,
        seed=args.seed,
        iter_cap=args.iter_cap,
    )
    solution, _ = SOLVERS[args.solver](inst, cfg)
    _write(args.out, solution_to_dump(solution, inst))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    raw_out = args.raw_out
    if raw_out is None:
        raw_out = args.out.removesuffix(".csv") + ".raw.csv"
    _refuse_overwrite([("--spec", args.spec)],
                      [("--out", args.out), ("--raw-out", raw_out)])
    spec = parse_spec(_read(args.spec))
    result = run_benchmark(spec)
    _write(args.out, result.aggregate_csv())
    _write(raw_out, result.raw_csv())
    sys.stdout.write(result.aggregate_csv())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.graph, args.commodities)
    problems = verify_dump(_read(args.dump), inst)
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("verify: ok")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, GraphFormatError, GraphValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
