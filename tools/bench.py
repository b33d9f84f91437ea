"""Write this checkout's benchmark numbers: the ``record`` and ``compare`` jobs.

Run from anywhere; the checkout is the one this script lives in, with its
uncommitted edits:

    python3 tools/bench.py record --tag snapshot --seed 53 --seconds 8
    python3 tools/bench.py compare --parent HEAD --workload batch-eval --pairs 10 \\
        --tag snapshot --seed 53 --seconds 3

``record`` runs, for every workload named in ``BENCHMARK.json``, the
benchmark command (``perfbench/run.py``) twice, with ``--trace 0`` for the
end-to-end metrics and then with ``--trace 1`` for the per-layer metrics, at
the given seed and run length.  Then it runs the Tier-1 tests (``TIER1``,
with ``--durations=10``) once.  It writes ``BENCH_<tag>.json`` at the
checkout's root: the provenance of the runs (commit, the tracked files
modified since it, Python, numpy, CPU count, seed, seconds, ``src_lines``,
the checkout's line count of ``src/**/*.py``, and ``dont_write_bytecode``,
whether ``PYTHONDONTWRITEBYTECODE`` is set, so that every benchmark child
compiles the package from source in its set-up, which moves ``setup_s``
and ``peak_rss_mb``), each workload's
``end_to_end`` and ``per_layer`` metrics as the runs printed them, and
``tier1``: the test run's wall seconds, exit code, summary line and ten
slowest test phases.

``compare`` exports the parent commit with ``git archive`` into a temporary
directory, which is deleted afterwards; the repository's index, branches and
worktree list are not touched, and no file of this checkout is copied into
the parent's tree.  Each side runs its own benchmark command (``command`` in
its own ``BENCHMARK.json``, that is its own ``perfbench/run.py``) from its
own root with ``--trace 0`` and the same workload, seed and run length.
Pair i runs the parent first when i is even and the change first when it is
odd, so a drift of the machine's speed over the session weighs on both sides
alike.  So an edit to the benchmark changes what is measured: before the
runs, ``benchmark_same`` in the provenance records whether ``BENCHMARK.json``
and the files under either side's ``paths`` have the same names and bytes on
both sides (on this side, tracked files and untracked ones git does not
ignore, so no ``__pycache__``), and one line on stderr names the files that
differ.

``BENCH_<tag>_ab.json`` at the checkout's root holds the provenance, with
``src_lines``: each side's line count of ``src/**/*.py``, and
``dont_write_bytecode`` as in ``record``, every pair's
end-to-end metrics as the runs printed them, and under
``end_to_end``, for every end-to-end metric that the change's
``BENCHMARK.json`` declares and every run printed, each side's median and
quartiles, a no-regression check that reads only the metric's ``better``
and ``bound``, and under ``verdict`` the verdict of the rule for a claimed
gain in the direction ``better`` gives: at least ``MIN_PAIRS`` pairs, the
change better in at least nine of every ten pairs (rounded up), and the gap
between the two medians larger than the parent's interquartile range
(``statistics.quantiles``, exclusive method).  The verdict's ``faster``
keys count pairs where the change is better in the metric's direction.
``bound`` is a fraction of the parent's median: the metric is ``worse`` when
the change's median is worse than the parent's by more than ``bound`` times
the parent's median, and ``unresolved`` when the parent's own interquartile
range is wider than that allowance, unless every run of the change reads
better than every run of the parent.  One line per metric, and one with the
net change of ``src/`` lines, goes to stderr.

Neither job writes its file when a benchmark run fails, prints no result, or
reports ``"correct": false``.  Standard library only, so it runs on any
commit's checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = ("commit", "python", "numpy", "nproc", "seed")
#: The Tier-1 test command, run from the checkout with ``src`` on the path.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s\s+(\w+)\s+(.+)$")
MIN_PAIRS = 10
SIDES = ("parent", "change")


def dont_write_bytecode() -> bool:
    """Whether ``PYTHONDONTWRITEBYTECODE`` is set, as Python reads it: to a
    non-empty string.  The benchmark runs inherit it."""
    return bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))


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
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RunFailed(f"{what} printed no result line") from None
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
            doc["provenance"].update(seconds=seconds, modified=modified_files(),
                                     src_lines=src_lines(ROOT),
                                     dont_write_bytecode=dont_write_bytecode())
        doc["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
    doc["tier1"] = tier1()
    return doc


def export(rev: str, dest: Path) -> str:
    """Write the tree of commit ``rev`` into ``dest``; return its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if commit.returncode != 0:
        raise RunFailed(f"no commit {rev!r}: {commit.stderr.strip()}")
    sha = commit.stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def benchmark_files(root: Path, paths: list, exported: bool) -> dict:
    """The sha256 of each file named ``BENCHMARK.json`` or under ``paths``
    in ``root``, by its path relative to ``root``: every file of an exported
    tree, and only tracked or not ignored ones of this checkout."""
    if exported:
        found = (p for path in paths for p in [root / path, *(root / path).rglob("*")])
        names = [str(p.relative_to(root)) for p in found if p.is_file()]
    else:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", *paths],
            cwd=root, capture_output=True, text=True, check=True,
        )
        names = [name for name in listed.stdout.split("\0") if (root / name).is_file()]
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def src_lines(root: Path) -> int:
    """The number of lines of the files ``src/**/*.py`` under ``root``."""
    return sum(path.read_bytes().count(b"\n") for path in root.glob("src/**/*.py"))


def quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent: list, change: list, better: str = "lower") -> dict:
    """The rule for a claimed gain on paired runs of one metric, in the
    direction ``better`` (``"lower"`` or ``"higher"``)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    base, new = quartiles(parent), quartiles(change)
    gap = sign * (base["median"] - new["median"])
    tests = {
        "enough_pairs": len(parent) >= MIN_PAIRS,
        "faster_in_nine_of_ten": wins >= math.ceil(0.9 * len(parent)),
        "gap_above_parent_iqr": gap > base["iqr"],
    }
    return {"parent": base, "change": new, "better": better, "faster_pairs": wins,
            "median_gap": gap, **tests, "holds": all(tests.values())}


def regression(parent: list, change: list, better: str, bound: float) -> dict:
    """No-regression check of one end-to-end metric; see the module docstring."""
    base, new = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - base["median"])
    allowance = bound * abs(base["median"])
    always_better = all(sign * (c - p) < 0 for c in change for p in parent)
    return {"parent": base, "change": new, "better": better, "bound": bound,
            "worse_by": worse_by, "allowance": allowance, "worse": worse_by > allowance,
            "unresolved": base["iqr"] > allowance and not always_better}


def compare(parent_rev: str, workload: str, pairs: int, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        sha = export(parent_rev, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        specs = {
            side: json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
            for side, root in roots.items()
        }
        commands = {side: spec["command"] for side, spec in specs.items()}
        paths = {"BENCHMARK.json", *(p for spec in specs.values() for p in spec.get("paths", []))}
        files = {side: benchmark_files(root, sorted(paths), side == "parent")
                 for side, root in roots.items()}
        differ = {name for name, _ in set(files["parent"].items()) ^ set(files["change"].items())}
        if differ:
            names = ", ".join(sorted(differ))
            print(f"the benchmark differs between the sides: {names}", file=sys.stderr)
        runs, provenance = [], {}
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                info, result = run_once(
                    commands[side], workload, seed, seconds, 0, cwd=roots[side]
                )
                provenance.setdefault(side, info)
                pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append(pair)
        lines = {side: src_lines(root) for side, root in roots.items()}
    doc = {
        "provenance": {
            **{key: provenance["change"][key] for key in PROVENANCE},
            "parent": sha,
            "modified": modified_files(),
            "workload": workload,
            "seconds": seconds,
            "src_lines": lines,
            "dont_write_bytecode": dont_write_bytecode(),
            "benchmark_same": not differ,
        },
        "pairs": runs,
    }
    def series(side, name):
        return [pair[side][name] for pair in runs]

    printed = set.intersection(*(set(pair[side]) for pair in runs for side in SIDES))
    doc["end_to_end"] = {}
    for metric in specs["change"].get("end_to_end", []):
        name, better = metric["name"], metric["better"]
        if name in printed:
            parent, change = series("parent", name), series("change", name)
            doc["end_to_end"][name] = {
                **regression(parent, change, better, metric["bound"]),
                "verdict": verdict(parent, change, better),
            }
    return doc


def describe(name: str, check: dict, pairs: int) -> str:
    state = ("worse" if check["worse"] else "unresolved" if check["unresolved"]
             else "no regression")
    claim = check["verdict"]
    return (
        f"{name}: parent median {check['parent']['median']:.4g} (IQR "
        f"{check['parent']['iqr']:.4g}), change median {check['change']['median']:.4g}; "
        f"change better in {claim['faster_pairs']} of {pairs} pairs, gain rule "
        f"{'holds' if claim['holds'] else 'does not hold'}; "
        f"{check['better']} is better, bound {check['bound']:g} of the parent's median: {state}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    jobs = parser.add_subparsers(dest="job", required=True)
    recorder = jobs.add_parser("record", help="write BENCH_<tag>.json")
    recorder.add_argument("--tag", required=True, help="names the file BENCH_<tag>.json")
    comparer = jobs.add_parser("compare", help="write BENCH_<tag>_ab.json")
    comparer.add_argument("--parent", required=True, help="the commit to compare against")
    comparer.add_argument("--workload", required=True)
    comparer.add_argument("--pairs", type=int, default=MIN_PAIRS)
    comparer.add_argument("--tag", required=True, help="names the file BENCH_<tag>_ab.json")
    for job in (recorder, comparer):
        job.add_argument("--seed", type=int, required=True)
        job.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.job == "compare" and args.pairs < 2:
        comparer.error("--pairs must be at least 2 for quartiles")
    try:
        if args.job == "record":
            doc = record(args.seed, args.seconds)
        else:
            doc = compare(args.parent, args.workload, args.pairs, args.seed, args.seconds)
    except RunFailed as exc:
        print(f"bench {args.job}: not written: {exc}", file=sys.stderr)
        return 1
    name = f"BENCH_{args.tag}.json" if args.job == "record" else f"BENCH_{args.tag}_ab.json"
    out = ROOT / name
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    if args.job == "compare":
        for name, check in doc["end_to_end"].items():
            print(describe(name, check, args.pairs), file=sys.stderr)
        lines = doc["provenance"]["src_lines"]
        print(f"src/ lines: parent {lines['parent']}, change {lines['change']}, net "
              f"{lines['change'] - lines['parent']:+d}", file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
