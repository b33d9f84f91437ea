"""Command-line interface: aggregate, evaluate, simulate, benchmark.

Exit codes follow the type of the error, decided where it is raised: 0 on
success; 2 on ``DegenerateEstimate``, the estimated truths holding no positive
or no negative label (``estimation error: <message>``); 1 on every other
failure, a usage error, any other ValueError or an OSError on any path
(``error: <message>``).  Every command is deterministic given its flags; seeds
are explicit and outputs carry no timestamps.  Only this module prints; a
library ``UserWarning`` reaches stderr as one ``warning: <message>`` line.

When ``--out`` is a bare filename it is written under the directory named by
the ``APPROVALMLE_REPORT_DIR`` environment variable (default: current
directory).  ``aggregate``, ``benchmark`` and ``evaluate`` resolve it before
estimating or scoring, so an unwritable path fails before the run and before
any result is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
import warnings
from itertools import compress
from pathlib import Path

import numpy as np

from . import io
from .amle import AmleConfig, run_amle
from .benchmark import (
    DEFAULT_INIT,
    METHODS,
    format_benchmark_table,
    parse_init,
    run_benchmark,
    save_benchmark_csv,
    score_estimates,
)
from .initialization import DEFAULT_P0, DEFAULT_Q0, DEFAULT_T0
# unused here; kept because perfbench's tracer wraps these names on this module
from .initialization import anna_karenina_init, random_init, uniform_init  # noqa: F401
from .metrics import hamming_accuracy, harmonic_accuracy, subset_accuracy  # noqa: F401
from .model import Bounds, ParamVector, require_distinct, require_integer, validate_profile
from .priors import PRIOR_UPDATE_RULES
from .reliability import DegenerateEstimate
from .synth import SynthSpec, sample_profile, sample_truths
from .truth_mle import voter_weights

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DEGENERATE = 2

REPORT_DIR_ENV = "APPROVALMLE_REPORT_DIR"


class _Parser(argparse.ArgumentParser):
    # argparse exits usage errors with code 2; keep 2 for degenerate
    # estimation only and treat bad flags as validation failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _out_path(name: str | None, default: str) -> Path:
    """The output path for ``--out`` (``default`` when it is not given);
    raise the OSError that ``open`` would when it is a directory or its
    parent directory is missing."""
    path = Path(default if name is None else name)
    if path.parent == Path(".") and not path.is_absolute():
        path = Path(os.environ.get(REPORT_DIR_ENV, ".")) / path
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return path
    # OSError picks the subclass open raises, e.g. IsADirectoryError
    raise OSError(code, os.strerror(code), str(path))


def _parse_rates(text: str, count: int, name: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--{name} must be comma-separated numbers, got {text!r}") from None
    if len(values) == 1:
        values = values * count
    if len(values) != count:
        raise ValueError(f"--{name} needs 1 or {count} comma-separated values")
    return np.array(values)


def _load_checked(args, strict: bool = False):
    """Load ``args.dataset``, validate it under ``--lower``/``--upper`` (default:
    every alternative) and return the profile, its ground truth and the bounds."""
    profile, ground_truth = io.load_dataset(args.dataset, strict=strict)
    upper = args.upper if args.upper is not None else profile.num_alternatives
    bounds = Bounds(args.lower, upper)
    validate_profile(profile, bounds, ground_truth)
    return profile, ground_truth, bounds


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _print_metrics(table: dict) -> None:
    for name, value in table.items():
        print(f"{name:<14} {value:.4f}")


def cmd_aggregate(args) -> int:
    profile, ground_truth, bounds = _load_checked(args, strict=args.strict)
    config = AmleConfig(
        tolerance=args.tolerance,
        max_iterations=args.max_iter,
        freeze_priors=args.freeze_priors,
        epsilon_clamp=args.epsilon_clamp,
        prior_update=args.prior_update,
    )
    init = parse_init(args.init, args.p0, args.q0, args.t0)(profile)
    out = _out_path(args.out, Path(args.dataset).stem + "_report.json")

    if bounds.upper == 0:
        # Degenerate but legal: the bounds force every truth set to be empty,
        # so nothing is estimable and the initial parameters are echoed back.
        init.require_fit(profile.approvals.shape[1:])
        truths = np.zeros((profile.num_instances, profile.num_alternatives), dtype=bool)
        params = init
        convergence = {"converged": True, "iterations": 0, "final_delta": 0.0}
        trace_logliks = []
    else:
        result = run_amle(profile, bounds, init, config)
        truths = result.truth_array
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
            **dataclasses.asdict(config),
        },
        "alternatives": alt_ids,
        "estimates": {
            zid: list(compress(alt_ids, row))
            for zid, row in zip(profile.instance_ids, truths.tolist())
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
        report["metrics"] = score_estimates(truths, ground_truth)

    _write_json(out, report)

    if not args.quiet:
        print(f"converged={convergence['converged']} after {convergence['iterations']} iteration(s)")
        print(f"{'instance':<12} estimate")
        for zid in profile.instance_ids:
            print(f"{zid:<12} {{{', '.join(report['estimates'][zid])}}}")
        print(f"{'voter':<12} {'p':>7} {'q':>7} {'weight':>8}")
        for i, vid in enumerate(profile.voters):
            print(f"{vid:<12} {params.p[i]:>7.4f} {params.q[i]:>7.4f} {weights[i]:>8.4f}")
        if "metrics" in report:
            _print_metrics(report["metrics"])
        print(f"report written to {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = _out_path(args.out, "metrics.json") if args.out else None
    estimates_map, est_alts = io.load_assignment(args.estimates)
    truths_map, truth_alts = io.load_assignment(args.truths)
    alt_ids = (
        args.alternatives.split(",") if args.alternatives
        else est_alts or truth_alts
        or sorted(set().union(*estimates_map.values(), *truths_map.values()))
    )
    # scored in the truth file's order, as aggregate scores a dataset's instances
    estimates, truths = (
        io.read_assignment(mapping, list(truths_map), alt_ids, f"{path}: the assignment")
        for mapping, path in ((estimates_map, args.estimates), (truths_map, args.truths))
    )
    if len(truths) == 0:
        raise ValueError("the assignments name no instances, so there is nothing to score")
    if not alt_ids:
        raise ValueError("the assignments name no alternatives; pass them with --alternatives")
    require_distinct(alt_ids, "alternative ids")

    table = score_estimates(estimates, truths)
    _print_metrics(table)
    if out:
        _write_json(out, table)
    return EXIT_OK


def cmd_simulate(args) -> int:
    for flag, size in (("m", args.m), ("n", args.n), ("instances", args.instances)):
        require_integer(size, f"--{flag}", 1)
    require_integer(args.seed, "--seed", 0)
    params = ParamVector(
        _parse_rates(args.p, args.n, "p"),
        _parse_rates(args.q, args.n, "q"),
        _parse_rates(args.t, args.m, "t"),
    )
    spec = SynthSpec(args.instances, Bounds(args.lower, args.upper), params, args.seed)
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
    require_integer(args.seed, "--seed", 0)
    profile, ground_truth, bounds = _load_checked(args)
    if ground_truth is None:
        raise ValueError("benchmark needs a dataset with embedded ground truth")
    try:
        sizes = [int(part) for part in args.batch_sizes.split(",")]
    except ValueError:
        raise ValueError("--batch-sizes must be comma-separated integers") from None
    config = AmleConfig(
        tolerance=args.tolerance,
        max_iterations=args.max_iter,
        prior_update=args.prior_update,
    )
    out = _out_path(args.out, "benchmark.csv")
    rows = run_benchmark(
        profile,
        ground_truth,
        bounds,
        sizes,
        args.batches,
        args.seed,
        methods=args.methods.split(","),
        init_strategy=args.init,
        config=config,
    )
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

    # the AMLE loop's flags, shared by aggregate and benchmark
    amle = argparse.ArgumentParser(add_help=False)
    amle.add_argument(
        "--init",
        default=DEFAULT_INIT,
        help="anna-karenina | uniform | random:<seed> | file:<params.json>",
    )
    amle.add_argument("--tolerance", type=float, default=AmleConfig.tolerance)
    amle.add_argument("--max-iter", type=int, default=AmleConfig.max_iterations)
    amle.add_argument(
        "--prior-update",
        choices=PRIOR_UPDATE_RULES,
        default=AmleConfig.prior_update,
        help="inclusion-prior coordinate update rule",
    )

    agg = sub.add_parser(
        "aggregate", parents=[amle], help="estimate truths and parameters from a dataset"
    )
    agg.add_argument("dataset", help="dataset file (.json or .csv)")
    agg.add_argument("--lower", type=int, default=0, help="lower cardinality bound")
    agg.add_argument("--upper", type=int, default=None, help="upper cardinality bound (default m)")
    agg.add_argument("--p0", type=float, default=DEFAULT_P0, help="uniform init p")
    agg.add_argument("--q0", type=float, default=DEFAULT_Q0, help="uniform init q")
    agg.add_argument("--t0", type=float, default=DEFAULT_T0, help="initial inclusion prior")
    agg.add_argument("--freeze-priors", action="store_true")
    agg.add_argument("--epsilon-clamp", type=float, default=AmleConfig.epsilon_clamp)
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

    bench = sub.add_parser(
        "benchmark", parents=[amle], help="compare methods over random voter batches"
    )
    bench.add_argument("dataset", help="dataset file with ground truth")
    bench.add_argument("--batch-sizes", required=True, help="e.g. 10,20,40")
    bench.add_argument("--batches", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--methods", default=",".join(METHODS))
    bench.add_argument("--lower", type=int, default=1)
    bench.add_argument("--upper", type=int, default=2)
    bench.add_argument("--out", default=None, help="plot-ready CSV path")
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("default", UserWarning)  # even under -W error or ignore
            python_show = warnings.showwarning

            def show(message, category, *rest, **kwargs):
                # a library warning is a message for the user, not a source line
                if issubclass(category, UserWarning):
                    print(f"warning: {message}", file=sys.stderr)
                else:
                    python_show(message, category, *rest, **kwargs)

            warnings.showwarning = show
            return args.func(args)
    except SystemExit as exc:
        # raised by argparse: --help exits 0, usage errors 1 (see _Parser)
        return int(exc.code or 0)
    except DegenerateEstimate as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
