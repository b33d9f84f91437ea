"""Command-line interface: aggregate, evaluate, simulate, benchmark.

Exit codes: 0 on success, 1 on input/validation failures (including usage
errors), 2 on degenerate estimation errors.  Every command is deterministic
given its flags; seeds are explicit and outputs carry no timestamps.

When ``--out`` is a bare filename it is written under the directory named by
the ``APPROVALMLE_REPORT_DIR`` environment variable (default: current
directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .amle import AmleConfig, run_amle
from .benchmark import (
    METHODS,
    check_benchmark,
    format_benchmark_table,
    parse_init,
    run_benchmark,
    save_benchmark_csv,
    score_estimates,
)
# unused here; kept because perfbench's tracer wraps these names on this module
from .initialization import anna_karenina_init, random_init, uniform_init  # noqa: F401
from .metrics import hamming_accuracy, harmonic_accuracy, subset_accuracy  # noqa: F401
from .model import Bounds, validate_profile
from .synth import SynthSpec, sample_profile, sample_truths
from .truth_mle import voter_weights

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DEGENERATE = 2

REPORT_DIR_ENV = "APPROVALMLE_REPORT_DIR"


class _CliError(Exception):
    """Input problem; message printed to stderr, exits with EXIT_INVALID."""


class _Parser(argparse.ArgumentParser):
    # argparse exits usage errors with code 2; keep 2 for degenerate
    # estimation only and treat bad flags as validation failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _out_path(name: str | None, default: str) -> Path:
    base = Path(os.environ.get(REPORT_DIR_ENV, "."))
    if name is None:
        return base / default
    path = Path(name)
    return path if path.parent != Path(".") or path.is_absolute() else base / path


def _parse_rates(text: str, count: int, name: str) -> np.ndarray:
    values = [float(part) for part in text.split(",")]
    if len(values) == 1:
        values = values * count
    if len(values) != count:
        raise _CliError(f"--{name} needs 1 or {count} comma-separated values")
    return np.array(values)


def _from_flags(build, *args, **kwargs):
    """Call ``build`` on flag values; its ValueError is an input error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def cmd_aggregate(args) -> int:
    profile, ground_truth = io.load_dataset(args.dataset, strict=args.strict)
    upper = args.upper if args.upper is not None else profile.num_alternatives
    bounds = Bounds(args.lower, upper)
    report_check = validate_profile(profile, bounds, ground_truth)
    for warning in report_check.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report_check.ok:
        raise _CliError("invalid dataset:\n  " + "\n  ".join(report_check.violations))

    config = _from_flags(
        AmleConfig,
        tolerance=args.tolerance,
        max_iterations=args.max_iter,
        freeze_priors=args.freeze_priors,
        epsilon_clamp=args.epsilon_clamp,
        prior_update=args.prior_update,
    )
    if args.init.startswith("file:"):
        init = io.load_params(args.init.split(":", 1)[1])
    else:
        init = _from_flags(parse_init, args.init, args.p0, args.q0, args.t0)(profile)

    if bounds.upper == 0:
        # Degenerate but legal: the bounds force every truth set to be empty,
        # so nothing is estimable and the initial parameters are echoed back.
        truths = tuple(frozenset() for _ in profile.instances)
        params = init
        convergence = {"converged": True, "iterations": 0, "final_delta": 0.0}
        trace_logliks = []
    else:
        result = run_amle(profile, bounds, init, config)
        truths = result.truths
        params = result.params
        convergence = {
            "converged": result.converged,
            "iterations": result.iterations,
            "final_delta": result.trace[-1].param_delta,
        }
        trace_logliks = [step.loglik for step in result.trace]

    alt_ids = list(profile.alternative_ids)
    weights = voter_weights(params)
    report = {
        "config": {
            "dataset": str(args.dataset),
            "lower": bounds.lower,
            "upper": bounds.upper,
            "init": args.init,
            "tolerance": args.tolerance,
            "max_iterations": args.max_iter,
            "freeze_priors": args.freeze_priors,
            "epsilon_clamp": args.epsilon_clamp,
            "prior_update": args.prior_update,
        },
        "alternatives": alt_ids,
        "estimates": {
            inst.id: [alt_ids[j] for j in sorted(truth)]
            for inst, truth in zip(profile.instances, truths)
        },
        "params": {
            "p": params.p.tolist(),
            "q": params.q.tolist(),
            "t": params.t.tolist(),
        },
        "voter_weights": {
            vid: {
                "p": float(params.p[i]),
                "q": float(params.q[i]),
                "weight": float(weights[i]),
            }
            for i, vid in enumerate(profile.voters)
        },
        "convergence": convergence,
        "loglik_trace": trace_logliks,
    }
    if ground_truth is not None:
        report["metrics"] = score_estimates(truths, ground_truth, profile.num_alternatives)

    out = _out_path(args.out, Path(args.dataset).stem + "_report.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    if not args.quiet:
        print(f"converged={convergence['converged']} after {convergence['iterations']} iteration(s)")
        print(f"{'instance':<12} estimate")
        for inst in profile.instances:
            print(f"{inst.id:<12} {{{', '.join(report['estimates'][inst.id])}}}")
        print(f"{'voter':<12} {'p':>7} {'q':>7} {'weight':>8}")
        for i, vid in enumerate(profile.voters):
            print(f"{vid:<12} {params.p[i]:>7.4f} {params.q[i]:>7.4f} {weights[i]:>8.4f}")
        if "metrics" in report:
            for name, value in report["metrics"].items():
                print(f"{name:<14} {value:.4f}")
        print(f"report written to {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    estimates_map, est_alts = io.load_assignment(args.estimates)
    truths_map, truth_alts = io.load_assignment(args.truths)

    est_ids = set(estimates_map)
    truth_ids = set(truths_map)
    if est_ids != truth_ids:
        diff = sorted(est_ids ^ truth_ids)
        raise _CliError(
            f"instance ids differ between the two files; symmetric difference: {diff}"
        )

    if args.alternatives:
        alt_ids = args.alternatives.split(",")
    elif est_alts:
        alt_ids = list(est_alts)
    elif truth_alts:
        alt_ids = list(truth_alts)
    else:
        seen = sorted(
            {a for sets in (estimates_map, truths_map) for ids in sets.values() for a in ids}
        )
        alt_ids = seen
    index = {aid: j for j, aid in enumerate(alt_ids)}

    order = sorted(estimates_map)
    try:
        estimates = tuple(
            frozenset(index[a] for a in estimates_map[zid]) for zid in order
        )
        truths = tuple(frozenset(index[a] for a in truths_map[zid]) for zid in order)
    except KeyError as exc:
        raise _CliError(f"assignment names unknown alternative {exc}") from None

    table = score_estimates(estimates, truths, len(alt_ids))
    for name, value in table.items():
        print(f"{name:<14} {value:.4f}")
    if args.out:
        out = _out_path(args.out, "metrics.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    upper = args.upper if args.upper is not None else args.m
    try:
        spec = SynthSpec(
            m=args.m,
            n=args.n,
            num_instances=args.instances,
            bounds=Bounds(args.lower, upper),
            t=_parse_rates(args.t, args.m, "t"),
            p=_parse_rates(args.p, args.n, "p"),
            q=_parse_rates(args.q, args.n, "q"),
            seed=args.seed,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    truths = sample_truths(spec)
    profile = sample_profile(spec, truths)
    out = _out_path(args.out, "synthetic.json")
    io.save_dataset(out, profile, truths)
    if not args.quiet:
        print(
            f"wrote {profile.num_instances} instances, {profile.num_voters} voters, "
            f"{profile.num_alternatives} alternatives to {out}"
        )
    return EXIT_OK


def cmd_benchmark(args) -> int:
    profile, ground_truth = io.load_dataset(args.dataset, strict=False)
    if ground_truth is None:
        raise _CliError("benchmark needs a dataset with embedded ground truth")
    upper = args.upper if args.upper is not None else profile.num_alternatives
    bounds = Bounds(args.lower, upper)
    report_check = validate_profile(profile, bounds, ground_truth)
    if not report_check.ok:
        raise _CliError("invalid dataset:\n  " + "\n  ".join(report_check.violations))

    try:
        sizes = [int(part) for part in args.batch_sizes.split(",")]
    except ValueError:
        raise _CliError("--batch-sizes must be comma-separated integers") from None
    methods = args.methods.split(",")
    if args.init.startswith("file:"):
        raise _CliError(
            "benchmark re-initializes per voter batch; file-based initial "
            "parameters cannot fit every batch size"
        )
    _from_flags(check_benchmark, profile.num_voters, sizes, methods, args.init)

    config = _from_flags(
        AmleConfig,
        tolerance=args.tolerance,
        max_iterations=args.max_iter,
        prior_update=args.prior_update,
    )
    rows = run_benchmark(
        profile,
        ground_truth,
        bounds,
        sizes,
        args.batches,
        args.seed,
        methods=methods,
        init_strategy=args.init,
        config=config,
    )
    out = _out_path(args.out, "benchmark.csv")
    save_benchmark_csv(out, rows)
    print(format_benchmark_table(rows))
    print(f"plot data written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="approvalmle",
        description="Recover set-valued ground truths from noisy approval ballots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    agg = sub.add_parser("aggregate", help="estimate truths and parameters from a dataset")
    agg.add_argument("dataset", help="dataset file (.json or .csv)")
    agg.add_argument("--lower", type=int, default=0, help="lower cardinality bound")
    agg.add_argument("--upper", type=int, default=None, help="upper cardinality bound (default m)")
    agg.add_argument(
        "--init",
        default="anna-karenina",
        help="anna-karenina | uniform | random:<seed> | file:<params.json>",
    )
    agg.add_argument("--p0", type=float, default=0.6, help="uniform init p")
    agg.add_argument("--q0", type=float, default=0.4, help="uniform init q")
    agg.add_argument("--t0", type=float, default=0.5, help="initial inclusion prior")
    agg.add_argument("--tolerance", type=float, default=1e-5)
    agg.add_argument("--max-iter", type=int, default=100)
    agg.add_argument("--freeze-priors", action="store_true")
    agg.add_argument("--epsilon-clamp", type=float, default=1e-4)
    agg.add_argument(
        "--prior-update",
        choices=["exact", "legacy"],
        default="exact",
        help="inclusion-prior coordinate update rule",
    )
    agg.add_argument("--strict", action="store_true", help="reject omitted ballots")
    agg.add_argument("--out", default=None, help="report path (JSON)")
    agg.add_argument("--quiet", action="store_true")
    agg.set_defaults(func=cmd_aggregate)

    ev = sub.add_parser("evaluate", help="score an estimates file against a truth file")
    ev.add_argument("estimates", help="report, dataset, or bare {id: [alts]} JSON")
    ev.add_argument("truths", help="dataset with ground_truth or bare map JSON")
    ev.add_argument("--alternatives", default=None, help="comma-separated alternative ids")
    ev.add_argument("--out", default=None, help="optional metrics JSON path")
    ev.set_defaults(func=cmd_evaluate)

    sim = sub.add_parser("simulate", help="draw a synthetic dataset from the noise model")
    sim.add_argument("--m", type=int, default=5)
    sim.add_argument("--n", type=int, default=10)
    sim.add_argument("--instances", type=int, default=15)
    sim.add_argument("--lower", type=int, default=1)
    sim.add_argument("--upper", type=int, default=2)
    sim.add_argument("--p", default="0.7", help="true-positive rate(s), single or per voter")
    sim.add_argument("--q", default="0.4", help="false-positive rate(s)")
    sim.add_argument("--t", default="0.5", help="inclusion prior(s), single or per alternative")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, help="dataset path (JSON)")
    sim.add_argument("--quiet", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("benchmark", help="compare methods over random voter batches")
    bench.add_argument("dataset", help="dataset file with ground truth")
    bench.add_argument("--batch-sizes", required=True, help="e.g. 10,20,40")
    bench.add_argument("--batches", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--methods", default=",".join(METHODS))
    bench.add_argument("--lower", type=int, default=1)
    bench.add_argument("--upper", type=int, default=2)
    bench.add_argument("--init", default="anna-karenina")
    bench.add_argument("--tolerance", type=float, default=1e-5)
    bench.add_argument("--max-iter", type=int, default=100)
    bench.add_argument("--prior-update", choices=["exact", "legacy"], default="exact")
    bench.add_argument("--out", default=None, help="plot-ready CSV path")
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_CliError, io.DatasetFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
