"""Record the benchmark's numbers for one checkout in ``BENCH_<tag>.json``.

Run from anywhere; the checkout is the one this script lives in:

    python3 tools/bench_record.py --tag pr14 --seed 53 --seconds 8

For every workload named in ``BENCHMARK.json`` it runs the benchmark command
(``perfbench/run.py``) twice, with ``--trace 0`` for the end-to-end metrics
and then with ``--trace 1`` for the per-layer metrics, at the given seed and
run length.  Then it runs the Tier-1 tests (``TIER1``, with
``--durations=10``) once.  It writes ``BENCH_<tag>.json`` at the checkout's
root: the provenance of the runs (commit, the tracked files modified since
it, Python, numpy, CPU count, seed, seconds), each workload's ``end_to_end``
and ``per_layer`` metrics as the runs printed them, and ``tier1``: the test
run's wall seconds, exit code, summary line and ten slowest test phases.
Nothing is written when a benchmark run fails, prints no result, or reports
``"correct": false``.

To compare this checkout with another commit, use ``tools/bench_compare.py``:
it runs both sides' own benchmark in alternating pairs and applies the
comparison rule.  Standard library only, so it runs on any commit's
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = ("commit", "python", "numpy", "nproc", "seed")
#: The Tier-1 test command, run from the checkout with ``src`` on the path.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s\s+(\w+)\s+(.+)$")


class RunFailed(Exception):
    """A benchmark run failed or reported an incorrect output."""


def run_once(command: list, workload: str, seed: int, seconds: float, trace: int,
             cwd: Path | None = None) -> tuple:
    """One benchmark run from the checkout at ``cwd`` (this one by default);
    returns its provenance line and its result line."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=cwd or ROOT, capture_output=True, text=True)
    what = f"{workload} --trace {trace}"
    if done.returncode != 0:
        raise RunFailed(f"{what} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    provenance = [json.loads(line[11:]) for line in lines if line.startswith("provenance ")]
    if not provenance:
        raise RunFailed(f"{what} printed no provenance line")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RunFailed(f"{what}: {result['failed']} of {result['attempted']} calls failed "
                        f"their checks: {done.stderr.strip()}")
    print(f"{what}: {result['attempted']} calls, all correct", file=sys.stderr)
    return provenance[0], result


def modified_files():
    """Tracked files that differ from the recorded commit, or None outside a
    git checkout: the commit alone does not name uncommitted code."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return [line[3:] for line in done.stdout.splitlines()]


def tier1() -> dict:
    """Run the Tier-1 tests once; their wall time, exit code, summary line
    and the slowest phases that ``--durations=10`` lists."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = done.stdout.splitlines()
    slowest = []
    for line in lines:
        match = _DURATION.match(line)
        if match:
            seconds, phase, test = match.groups()
            slowest.append({"test": test, "phase": phase, "s": float(seconds)})
    summary = next((line.strip("= ") for line in reversed(lines) if line.strip()), "")
    print(f"tier-1: {summary} ({wall_s:.1f} s wall)", file=sys.stderr)
    return {"wall_s": round(wall_s, 2), "exit_code": done.returncode,
            "summary": summary, "slowest": slowest}


def record(seed: int, seconds: float) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = {"provenance": None, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        provenance, untraced = run_once(spec["command"], name, seed, seconds, 0)
        _, traced = run_once(spec["command"], name, seed, seconds, 1)
        if doc["provenance"] is None:
            doc["provenance"] = {key: provenance[key] for key in PROVENANCE}
            doc["provenance"].update(seconds=seconds, modified=modified_files())
        doc["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
    doc["tier1"] = tier1()
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the file BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    try:
        doc = record(args.seed, args.seconds)
    except RunFailed as exc:
        print(f"bench_record: not written: {exc}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
