"""perfbench: wall time of ``approvalmle`` CLI commands on seeded synthetic data.

Run from the repository root:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

Workloads (shapes and reasons in ``workloads.py``): ``crowd`` and ``wide`` run
``approvalmle aggregate``, ``batch-eval`` runs ``approvalmle benchmark``.  The
program is imported from ``src/`` of the checkout, never from an installed
copy; the run exits with status 2 and prints no result when it is missing.

One run:

1. Set-up, timed ``SETUP_REPEATS`` times in fresh interpreters: import the
   package, synthesize the dataset from ``--seed`` and write it.
2. One warm-up call of ``approvalmle.cli.main`` (checked, not timed), then
   timed calls until ``--seconds`` have passed, at least ``MIN_TIMED_CALLS``.
   It is a closed loop of one caller; each call starts when the previous one
   has returned.
3. With ``--trace 1`` every timed call is followed by a traced call (see
   ``tracer.py``); the untraced calls give the tracing overhead.

Every call is checked (``workloads.py``): exit code 0, estimates within the
bounds, a non-decreasing log-likelihood trace under the exact prior rule, and
output bytes identical to the run's first call, traced or not.  A call that
fails any check counts in ``failed``.

Times are reported at a fixed reference machine speed.  On a shared virtual
machine the same call drifts by up to 40% within minutes, because of the
host and not the program, and no affordable run length averages that away.
So a fixed CPU-bound loop (``calibration_s``, independent of the program) is
timed right before and right after every measured interval, and the
interval's wall time is multiplied by ``CAL_REFERENCE_S`` over the mean of
the two loop times: the reported seconds are those of a machine on which the
loop takes exactly ``CAL_REFERENCE_S``.  The run is pinned to one CPU, so the
loop, the calls and the set-up children share it.  A change to the program
changes the interval and not the loop, so it shows in full.  Across 30-second
windows of one unchanged call this cut the spread (interquartile range over
median) from 49% to 3% in one period and from 17% to 8% in another.  The raw
wall-time median is printed on a line of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are end to end: ``command_s`` (median time of a call), ``setup_s``
(median set-up time), ``peak_rss_mb``, ``hamming_acc`` (accuracy against the
generated truths) and ``success_rate`` (1 - failed/attempted).  With
``--trace 1`` they are per layer, named ``<layer>.<metric>``.  The lines
before it give provenance and, when traced, the per-layer table.

Seeds 1 to 10 were used while the benchmark was written; check a claim also on
seeds outside that range (the provenance line marks them ``held-out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 7
MIN_TIMED_CALLS = 3
DEVELOPMENT_SEEDS = range(1, 11)
EXIT_NO_PROGRAM = 2

#: Seconds ``calibration_s`` takes on the reference machine; its value only
#: sets the unit (it is close to the loop's time on the 2-vCPU VM the
#: benchmark was developed on, so reported times are close to wall time there).
CAL_REFERENCE_S = 0.030

_CAL_SETS = [frozenset(range(i % 7)) for i in range(500)]


def calibration_s() -> float:
    """Seconds taken by a fixed loop of the kind of work the program does.

    Python set intersections and short numpy row updates; about 30 ms, long
    enough that one sample is a steady estimate of the current speed.
    """
    start = time.perf_counter()
    total = 0
    for _ in range(180):
        for a, b in zip(_CAL_SETS, _CAL_SETS[1:]):
            total += len(a & b)
    row = np.zeros(61)
    row[0] = 1.0
    for _ in range(1800):
        row[1:] = row[1:] * 0.5 + row[:-1] * 0.5
    return time.perf_counter() - start


def timed(fn):
    """Run ``fn()``; return its result, its wall seconds and the speed factor.

    Wall seconds times the factor are seconds at reference speed.
    """
    before = calibration_s()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = calibration_s()
    return result, elapsed, 2 * CAL_REFERENCE_S / (before + after)


def pinned_to_one_cpu():
    """Restrict this process (and children it starts) to one of its CPUs.

    Returns the previous CPU set, or None where affinity is not supported.
    """
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(allowed)})
    except (AttributeError, OSError):
        return None
    return allowed


class ProgramMissing(Exception):
    """The checkout holds no ``src/approvalmle`` to benchmark."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def import_cli():
    """Import ``approvalmle.cli`` from this checkout's ``src/``."""
    if not (SRC / "approvalmle" / "__init__.py").is_file():
        raise ProgramMissing(f"no approvalmle package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from approvalmle import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"approvalmle was imported from {cli.__file__}, not {SRC}")
    return cli


def timed_setups(workload, smoke: bool, seed: int, workdir: Path) -> list:
    """Reference-speed seconds of each set-up repeat; all must write the same files.

    The child reports the time from its first statement to the written
    dataset, so interpreter start-up is excluded and imports are included.
    """
    times = []
    first = None
    for _ in range(SETUP_REPEATS):
        done, _, speed = timed(lambda: subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload.name, str(seed),
             "1" if smoke else "0", str(SRC), str(workdir)],
            capture_output=True, text=True, check=True, timeout=120,
        ))
        times.append(float(done.stdout.splitlines()[-1]) * speed)
        files = [
            (workdir / name).read_bytes()
            for name in (workload.name + workload.suffix, "truths.json")
        ]
        if first is None:
            first = files
        elif files != first:
            raise RuntimeError("dataset synthesis is not deterministic for one seed")
    return times


class OutputCheck:
    """Checks each call's exit code and output against the run's first output."""

    def __init__(self, workload, shape, truths: dict):
        self.workload = workload
        self.shape = shape
        self.truths = truths
        self.first = None
        self.content_problems = []
        self.hamming = float("nan")

    def _check_content(self, data: bytes) -> None:
        try:
            if self.workload.command == "aggregate":
                self.content_problems, self.hamming = wl.check_aggregate_report(
                    data, self.shape, self.truths
                )
            else:
                self.content_problems, self.hamming = wl.check_benchmark_csv(data, self.shape)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.content_problems = [f"unreadable output: {exc!r}"]

    def __call__(self, code: int, data: bytes) -> list:
        problems = [] if code == 0 else [f"exit code {code}"]
        if self.first is None:
            self.first = data
            self._check_content(data)
        elif data != self.first:
            problems.append("output differs from the run's first call")
        return problems + self.content_problems


def amle_problems(results) -> list:
    """Bounds and monotone likelihood of every AMLE run seen by the tracer."""
    problems = []
    for bounds, config, result in results:
        sizes = {len(truth) for truth in result.truths}
        if not all(bounds.lower <= size <= bounds.upper for size in sizes):
            problems.append(f"AMLE estimate sizes {sorted(sizes)} outside {bounds}")
        if config.prior_update == "exact":
            problems += wl.loglik_problems([step.loglik for step in result.trace])
    return problems


def trace_counts(tracer) -> dict:
    """Work counts of one traced call; identical for every call of a run."""
    table = tr.layer_table(tracer.spans)
    counts = {f"{layer}.calls": table.get(layer, {}).get("calls", 0) for layer in wl.LAYERS}
    runs = [result for _, _, result in tracer.amle_results]
    counts["amle.runs"] = len(runs)
    counts["amle.iterations"] = sum(result.iterations for result in runs)
    counts["amle.converged"] = sum(result.converged for result in runs)
    counts["priors.dp_builds"] = tracer.counts["priors.dp_builds"]
    counts["io.bytes_read"] = tracer.bytes_read
    return counts


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unknown"


def provenance(args, workload, shape) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "shape": shape.__dict__,
        "seed": args.seed,
        "seed_role": "development" if args.seed in DEVELOPMENT_SEEDS else "held-out",
        "smoke": args.smoke,
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(args) -> dict:
    workload = wl.WORKLOADS[args.workload]
    shape = workload.shape(args.smoke)
    cli = import_cli()
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    allowed_cpus = pinned_to_one_cpu()
    try:
        setup_times = timed_setups(workload, args.smoke, args.seed, workdir)
        truths = json.loads((workdir / "truths.json").read_text(encoding="utf-8"))
        out = workdir / ("report.json" if workload.command == "aggregate" else "table.csv")
        argv = workload.argv(workdir / (workload.name + workload.suffix), out, shape, args.seed)
        check = OutputCheck(workload, shape, truths)
        tally = {"attempted": 0, "failed": 0}
        first_problems = []

        def call(tracer=None) -> int:
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                if tracer is None:
                    return cli.main(argv)
                with tracer.root("cli"):
                    return cli.main(argv)

        def attempt(tracer=None) -> tuple:
            """One checked call; returns (wall seconds, speed factor)."""
            out.unlink(missing_ok=True)
            if tracer is None:
                code, elapsed, speed = timed(call)
            else:
                with tracer:
                    code, elapsed, speed = timed(lambda: call(tracer))
            problems = check(code, out.read_bytes() if out.is_file() else b"")
            if tracer is not None:
                problems += amle_problems(tracer.amle_results)
            tally["attempted"] += 1
            tally["failed"] += bool(problems)
            if problems and not first_problems:
                first_problems.extend(problems)
            return elapsed, speed

        attempt()  # warm-up: first-call allocations and lazy imports
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(untraced) < MIN_TIMED_CALLS:
            untraced.append(attempt())
            if args.trace:
                tracer = tr.Tracer()
                traced.append((*attempt(tracer), tracer))
    finally:
        if allowed_cpus is not None:
            os.sched_setaffinity(0, allowed_cpus)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    info = provenance(args, workload, shape)
    print("provenance " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics = traced_metrics(workload, shape, untraced, traced, tally, first_problems)
    else:
        attempted = tally["attempted"]
        metrics = {
            "command_s": (statistics.median(e * k for e, k in untraced), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "hamming_acc": (check.hamming, "fraction"),
            "success_rate": ((attempted - tally["failed"]) / attempted, "fraction"),
        }
        print(
            f"timed calls: {len(untraced)}; raw wall median "
            f"{statistics.median(e for e, _ in untraced):.4f} s; "
            f"set-up repeats: {len(setup_times)}"
        )
    for problem in first_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_metrics(workload, shape, untraced, traced, tally, first_problems) -> dict:
    """Per-layer metrics: medians of times over traced calls, counts per call."""
    counts = [trace_counts(tracer) for _, _, tracer in traced]
    mismatched = sum(c != counts[0] for c in counts)
    if mismatched:
        tally["failed"] += mismatched
        first_problems.append("work counts differ between traced calls of one run")
    tables = [(tr.layer_table(tracer.spans), speed) for _, speed, tracer in traced]
    unobserved = [layer for layer in workload.layers if counts[0][f"{layer}.calls"] == 0]
    missing = sorted({name for _, _, tracer in traced for name in tracer.missing})

    metrics = {}
    print(f"traced calls: {len(traced)}; untraced calls: {len(untraced)}")
    print(f"{'layer':<15}{'busy_s':>10}{'self_s':>10}{'calls':>10}")
    for layer in wl.LAYERS:
        calls = counts[0][f"{layer}.calls"]
        metrics[f"{layer}.calls"] = (calls, "count")
        if calls == 0:
            status = "unobserved" if layer in unobserved else "not used by this workload"
            print(f"{layer:<15}{status:>30}")
            continue
        busy = statistics.median(t[layer]["busy_s"] * k for t, k in tables)
        own = statistics.median(t[layer]["self_s"] * k for t, k in tables)
        print(f"{layer:<15}{busy:>10.4f}{own:>10.4f}{calls:>10}")
        if layer in wl.COMMON_LAYERS:
            metrics[f"{layer}.busy_s"] = (busy, "s")
            metrics[f"{layer}.self_s"] = (own, "s")
    if unobserved:
        print("unobserved layers: " + ", ".join(unobserved))
    if missing:
        print("missing entry points: " + ", ".join(missing))

    first = counts[0]
    metrics["amle.runs"] = (first["amle.runs"], "count")
    metrics["amle.iterations"] = (first["amle.iterations"], "count")
    metrics["amle.converged_frac"] = (
        first["amle.converged"] / first["amle.runs"] if first["amle.runs"] else 0.0,
        "fraction",
    )
    metrics["priors.dp_builds"] = (first["priors.dp_builds"], "count")
    metrics["io.bytes_read"] = (first["io.bytes_read"], "bytes")
    metrics["cells"] = (shape.cells, "count")
    traced_s = statistics.median(e * k for e, k, _ in traced)
    metrics["trace.command_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(e * k for e, k in untraced), "s")
    metrics["trace.unobserved_layers"] = (len(unobserved), "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
