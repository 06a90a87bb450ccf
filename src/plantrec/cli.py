"""Command-line interface.

Exit codes: 0 success, 2 invalid config or input, 3 I/O failure or a failed
allocation, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, io
from .errors import InvariantViolationError
from .experiment import DEFAULT_CHECKS, KNOWN_CHECKS, ExperimentConfig, run_checks, run_grid
from .model import ModelParams, make_partition, require_adjacency_memory, require_vertex_count, sample_graph
from .recovery import identify_clusters, same_partition
from .spectral import top_projector  # noqa: F401  (perfbench/tracing.py wraps cli.top_projector)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plantrec", description="Planted partition recovery and bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a model instance to files")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--q", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="graph file to write")
    g.add_argument("--truth", required=True, help="partition file to write")

    r = sub.add_parser("recover", help="recover clusters from a graph file")
    r.add_argument("--graph", required=True)
    r.add_argument("--s", type=int, required=True)
    r.add_argument("--truth", help="optional partition file to compare against")

    v = sub.add_parser("verify", help="run bound checks on an instance")
    v.add_argument("--graph", required=True)
    v.add_argument("--truth", required=True)
    v.add_argument("--p", type=float, required=True)
    v.add_argument("--q", type=float, required=True)
    v.add_argument(
        "--checks", default=",".join(DEFAULT_CHECKS), help=f"comma list from {','.join(KNOWN_CHECKS)}"
    )
    v.add_argument("--epsilon", default="auto", help="deviation parameter or 'auto' to measure it")
    v.add_argument("--seed", type=int, default=0, help="seed recorded in report rows")
    v.add_argument("--out", default="-", help="CSV path, '-' for stdout")

    e = sub.add_parser("experiment", help="run a config-driven grid")
    e.add_argument("--config", required=True)
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--out", help="output directory (falls back to the config's 'out')")

    c = sub.add_parser("constants", help="print the guarantee constants for p, q")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--q", type=float, required=True)
    c.add_argument("--c", type=float, help="override the cluster-size constant")
    return parser


def _cmd_generate(args) -> int:
    require_vertex_count(args.n, "--n")
    require_adjacency_memory(args.n, "--n")
    part = make_partition(args.n, args.s)
    g = sample_graph(part, ModelParams(p=args.p, q=args.q, seed=args.seed))
    io.write_graph(args.out, g)
    io.write_partition(args.truth, part)
    print(f"wrote {args.out} ({g.edge_count} edges) and {args.truth}")
    return 0


def _read_truth(path, g):
    """The partition file at `path`, which must cover the vertices of `g`."""
    part = io.read_partition(path)
    if part.n != g.n:
        raise ValueError("graph and partition sizes differ")
    return part


def _cmd_recover(args) -> int:
    g = io.read_graph(args.graph)
    truth = _read_truth(args.truth, g) if args.truth else None
    result = identify_clusters(g, args.s)
    payload = result.as_dict(args.s)
    if truth is not None:
        payload["exact"] = same_partition(result, truth)
    print(json.dumps(payload))
    return 0


def _cmd_verify(args) -> int:
    g = io.read_graph(args.graph)
    part = _read_truth(args.truth, g)
    checks = tuple(c for c in args.checks.split(",") if c)
    epsilon = None if args.epsilon == "auto" else float(args.epsilon)
    params = ModelParams(p=args.p, q=args.q, seed=args.seed)
    reports = run_checks(g, part, params, checks, epsilon)
    if args.out == "-":
        io.write_reports_csv(sys.stdout, reports)
    else:
        io.write_reports_csv(args.out, reports)
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as f:
        raw = json.load(f)
    config = ExperimentConfig.from_dict(raw)
    out_dir = args.out or config.out
    if out_dir is None:
        raise ValueError("no output directory: pass --out or set 'out' in the config")
    summaries = run_grid(config, out_dir, jobs=args.jobs)
    for s in summaries:
        extra = ""
        if s.baseline_success_rate is not None:
            extra = f" baseline={s.baseline_success_rate:.3f}"
        print(
            f"cell {s.cell.index}: n={s.cell.n} k={s.cell.k} p={s.cell.p} q={s.cell.q}"
            f" success={s.success_rate:.3f}{extra}"
        )
    return 0


def _cmd_constants(args) -> int:
    c_min = bounds.admissible_c(args.p, args.q)
    c = args.c if args.c is not None else c_min
    consts = bounds.Constants.from_params(args.p, args.q, c)
    print(f"admissible_c = {repr(c_min)}")
    print(f"c = {repr(float(c))}")
    print(f"c_prime = {repr(consts.c_prime)}")
    eps = consts.epsilon
    print(f"epsilon = {repr(eps) if eps is not None else 'undefined (c_prime <= 16)'}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "recover": _cmd_recover,
    "verify": _cmd_verify,
    "experiment": _cmd_experiment,
    "constants": _cmd_constants,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvariantViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
