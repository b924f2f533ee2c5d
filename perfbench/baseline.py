"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --trace 0 --out summary.json

Runs perfbench/run.py once per (workload, seed), one run at a time, and
records for every metric its median, first and third quartiles
(statistics.quantiles with n=4) and spread, the quartile distance as a share
of the median. End-to-end spreads are checked against BENCHMARK.json: each
must stay within its metric's bound (setup_s excepted), and spreads above a
third of the bound are flagged. Exits 1 when a run is incorrect or a spread
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = run.ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{args.trace}.json"
            summary["environment"] = json.loads(record.read_text())["environment"]
            attempted += result["attempted"]
            failed += result["failed"]
            ok &= result["correct"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds or args.trace == 0), flush=True)
        metrics = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed, "metrics": metrics}
        for name, s in metrics.items():
            line = f"  {workload:16s} {name:32s} median={s['median']:.5g} {s['unit']} spread={s['spread']:.3f}"
            if name in bounds:
                bound = bounds[name]["bound"]
                if name != "setup_s":
                    ok &= s["spread"] < bound
                    line += " NOT STEADY" if s["spread"] >= bound else ""
                    line += " (above a third of the bound)" if s["spread"] >= bound / 3 else ""
                line = line.replace(" spread=", f" bound={bound} spread=")
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("all steady and correct" if ok else "NOT all steady and correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
