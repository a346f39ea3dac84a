"""Command-line front end: lift, infer and bench workflows.

Exit codes: 0 on success, 1 on input or usage errors, 2 when a model still
contains unknown factors after (or without) lifting, so pipelines can
branch on semantic incompleteness.  All randomness flows from --seed; no
command mutates its input files.
"""

import argparse
import os
import sys

from .model import ParseError, parse_model, serialize_model
from . import cp
from .lifg import run_lifg
from .inference import joint_enumeration, variable_elimination, loopy_bp, counting_bp
from .benchgen import GenParams, run_benchmark

ENGINES = ("enumeration", "ve", "bp", "cbp")


def _load_model(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at byte {exc.start}") from None
    return parse_model(text)


def _format_marginal(rv: str, probs) -> str:
    return f"marginal {rv}: " + " ".join(f"{p:.12g}" for p in probs)


def cmd_lift(args) -> int:
    try:
        g = _load_model(args.model)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = run_lifg(g, args.theta)
    outputs = {".model": serialize_model(result.completed), ".report": result.report.to_text()}
    if result.lifted is not None:
        outputs[".lifted"] = cp.serialize_lifted(result.lifted)
    try:
        for suffix, text in outputs.items():
            with open(args.out + suffix, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(result.report.to_text())
    if not result.report.complete:
        print("lift incomplete: unknown factors remain", file=sys.stderr)
        return 2
    return 0


def cmd_infer(args) -> int:
    try:
        g = _load_model(args.model)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for q in args.query:
        if q not in g.rvs:
            print(f"error: no randvar named {q!r}", file=sys.stderr)
            return 1

    lifted = None
    if g.has_unknown:
        if not args.auto_lift:
            print("error: model contains unknown factors (use --auto-lift)",
                  file=sys.stderr)
            return 2
        result = run_lifg(g, args.theta)
        if not result.report.complete:
            print("error: lifting left unknown factors", file=sys.stderr)
            return 2
        g, lifted = result.completed, result.lifted

    if args.engine == "cbp" and lifted is None:
        try:
            lifted = cp.compress(g, cp.run_cp(g))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        if args.engine == "enumeration":
            marginals = [joint_enumeration(g, q) for q in args.query]
        elif args.engine == "ve":
            marginals = [variable_elimination(g, q) for q in args.query]
        elif args.engine == "bp":
            beliefs = loopy_bp(g, args.iters)
            marginals = [beliefs[q] for q in args.query]
        else:
            beliefs = counting_bp(lifted, args.iters)
            supervar_of = lifted.supervar_of()
            marginals = [beliefs[supervar_of[q]] for q in args.query]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.format == "csv":
        print("rv,label,p")
        for q, m in zip(args.query, marginals):
            for label, p in zip(g.rvs[q].range, m.probs):
                print(f"{q},{label},{p:.12g}")
    else:
        for q, m in zip(args.query, marginals):
            print(_format_marginal(q, m.probs))
    return 0


def cmd_bench(args) -> int:
    try:
        ds = [int(tok) for tok in args.d.split(",") if tok]
    except ValueError:
        print(f"error: bad --d list {args.d!r}", file=sys.stderr)
        return 1
    if not ds or args.instances < 1:
        print("error: need at least one d and one instance", file=sys.stderr)
        return 1
    battery = [GenParams(d=d, seed=args.seed, theta=args.theta) for d in ds]
    workers = args.workers
    env_cap = os.environ.get("LIFTFG_THREADS")
    if env_cap:
        try:
            workers = min(workers, max(1, int(env_cap)))
        except ValueError:
            print(f"error: LIFTFG_THREADS must be an integer, got {env_cap!r}",
                  file=sys.stderr)
            return 1
    try:
        records, aggregates = run_benchmark(
            battery, args.instances, out=args.out, iters=args.iters,
            reps=args.reps, kl_cap_d=args.kl_cap, workers=workers)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        from .benchgen import render_csv
        sys.stdout.write(render_csv(records, aggregates))
    else:
        print(f"{'d':>6} {'inst':>5} {'complete':>8} {'kl_mean':>13} "
              f"{'kl_std':>13} {'t_exact_ns':>12} {'t_lifted_ns':>12} "
              f"{'rv_groups':>9} {'max_group':>9}")
        for a in aggregates:
            kl_mean = "-" if a.kl_mean is None else f"{a.kl_mean:.3e}"
            kl_std = "-" if a.kl_std is None else f"{a.kl_std:.3e}"
            print(f"{a.d:>6} {a.n_instances:>5} {a.n_complete:>8} {kl_mean:>13} "
                  f"{kl_std:>13} {a.t_exact_ns:>12} {a.t_lifted_ns:>12} "
                  f"{a.mean_rv_groups:>9.1f} {a.max_group_size:>9}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2.

    Exit code 2 means "unknown factors remain"; a bad choice, a missing
    required option or an unknown subcommand is an input error.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liftfg",
        description="Lift factor graphs with unknown factors and run inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="group unknown factors and transfer potentials")
    p_lift.add_argument("--model", required=True)
    p_lift.add_argument("--theta", type=float, default=0.0)
    p_lift.add_argument("--out", required=True,
                        help="output prefix; writes <out>.model, <out>.lifted, <out>.report")
    p_lift.set_defaults(fn=cmd_lift)

    p_infer = sub.add_parser("infer", help="query marginals with a chosen engine")
    p_infer.add_argument("--model", required=True)
    p_infer.add_argument("--engine", choices=ENGINES, default="ve")
    p_infer.add_argument("--query", action="append", required=True)
    p_infer.add_argument("--iters", type=int, default=50)
    p_infer.add_argument("--theta", type=float, default=0.0)
    p_infer.add_argument("--auto-lift", action="store_true")
    p_infer.add_argument("--format", choices=("text", "csv"), default="text")
    p_infer.set_defaults(fn=cmd_infer)

    p_bench = sub.add_parser("bench", help="run the synthetic benchmark battery")
    p_bench.add_argument("--d", required=True, help="comma-separated size parameters")
    p_bench.add_argument("--instances", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--theta", type=float, default=0.0)
    p_bench.add_argument("--iters", type=int, default=50)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--kl-cap", type=int, default=32,
                         help="largest d for which exact KL columns are computed")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--out", default=None, help="CSV output path")
    p_bench.add_argument("--format", choices=("text", "csv"), default="text")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "theta") and not 0.0 <= args.theta <= 1.0:
        print("error: --theta must lie in [0, 1]", file=sys.stderr)
        return 1
    if hasattr(args, "iters") and args.iters < 0:
        print("error: --iters must be non-negative", file=sys.stderr)
        return 1
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
