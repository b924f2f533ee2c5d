"""Paired benchmark: run perfbench/run.py alternately from two checkouts.

    python3 tools/paired_bench.py BASE CHANGE --workload exact-deep --workload pipeline-accept --pairs 10 --seed 1 --seconds 30 --trace 0

BASE and CHANGE are repository checkouts (for example `git archive` of the
parent commit, and the working tree). For each --workload in turn, pair i
runs both on seed --seed + i, one run at a time; the order alternates between
pairs, so a slow or fast phase of the machine lands on both sides. Before
every run the (gitignored) __pycache__ directories under the checkout's src/
are removed, so both sides import ucalab as a fresh checkout does, whether or
not bytecode writing is on. For each
metric the script prints the median and interquartile range (IQR) of each
side, the relative change of the medians, and how many pairs the change won,
in the direction that BENCHMARK.json gives the metric (lower is better when
it names none), then each side's median round count (a run fits more rounds
into --seconds the faster it is, and peak_rss_mb grows with them) and the
line count of each side's src/ (every *.py file under it). It ends
with one line naming every end-to-end metric whose change median is worse
than the base median by more than its BENCHMARK.json bound, and one naming
every end-to-end metric left unresolved: the base runs' IQR is wider than
the bound, and not every change run reads better than every base run, so
the runs cannot tell a change within the bound from noise. BENCHMARK.json
is only read. Exits 1 when any run fails or reports failed checks.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, int]:
    """The metrics and round count of one perfbench run from a checkout without
    bytecode under src/, refused when it fails or a check fails."""
    for cache in sorted((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} checks failed")
    rounds = int(re.search(r"\brounds=(\d+)", proc.stdout)[1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}, rounds


def src_lines(checkout: Path) -> int:
    """Lines of every *.py file under the checkout's src/, counted as wc -l does."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def unresolved(base: list[float], change: list[float], bound: float, sign: float) -> bool:
    """Whether the base runs spread (IQR) wider than `bound` times their median
    while some change run reads no better than some base run; `sign` is -1
    when lower is better and +1 when higher is."""
    b1, bm, b3 = quartiles(base)
    return b3 - b1 > bound * abs(bm) and min(sign * c for c in change) <= max(sign * b for b in base)


def compare(sides: dict, args, workload: str, spec: dict) -> tuple[list[str], list[str]] | None:
    """Run and print one workload's pairs; returns the end-to-end metrics
    worse than their bound and those left unresolved, or None when a run
    failed."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {side: [] for side in sides}
    rounds = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            try:
                metrics, count = run_once(sides[side], workload, args.seed + i, args.seconds, args.trace)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return None
            runs[side].append(metrics)
            rounds[side].append(count)
        print(f"{workload}: pair {i + 1}/{args.pairs} done (seed {args.seed + i})", file=sys.stderr)

    print(f"workload={workload} pairs={args.pairs} seeds={args.seed}..{args.seed + args.pairs - 1} "
          f"seconds={args.seconds} trace={args.trace} src_pycache=removed_before_each_run "
          f"rounds base={statistics.median(rounds['base']):g} change={statistics.median(rounds['change']):g} "
          f"src_lines base={src_lines(sides['base'])} change={src_lines(sides['change'])}")
    print(f"{'metric':34} {'base median [IQR]':>26} {'change median [IQR]':>26} {'change':>8} {'won':>6}")
    worse, undecided = [], []
    for name in runs["base"][0]:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        delta = f"{(cm - bm) / abs(bm):+.1%}" if bm else "n/a"
        label = "unresolved" if name in bounds and unresolved(base, change, bounds[name], sign) else ""
        print(f"{name:34} {bm:>12.6g} [{b3 - b1:>10.3g}] {cm:>12.6g} [{c3 - c1:>10.3g}] {delta:>8} "
              f"{won:>3}/{args.pairs} {label}".rstrip())
        if name in bounds and sign * (cm - bm) < -bounds[name] * abs(bm):
            worse.append(f"{workload}:{name} {delta} (bound {bounds[name]:.0%})")
        if label:
            spread = (b3 - b1) / abs(bm)
            undecided.append(f"{workload}:{name} {delta} (base IQR {spread:.0%}, bound {bounds[name]:.0%})")
    return worse, undecided


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, action="append", help="repeat to run several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"base": args.base, "change": args.change}
    worse, undecided = [], []
    for workload in args.workload:
        found = compare(sides, args, workload, spec)
        if found is None:
            return 1
        worse += found[0]
        undecided += found[1]
        print()
    print("worse than bound: " + (", ".join(worse) if worse else "none"))
    print("unresolved: " + (", ".join(undecided) if undecided else "none"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
