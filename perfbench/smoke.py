"""Tiny-scale smoke run of the benchmark (n=6, m=3; under a minute).

    python3 perfbench/smoke.py

For every workload, runs one untraced and one traced run at the tiny scale
and checks that it passes its own checks and reports every metric that
BENCHMARK.json names, with that metric's unit. Then it breaks the oracle on
purpose and checks that the failure shows as failed > 0. Exits 0 when all of
that holds.
"""

import json
import shutil
import sys
from pathlib import Path

import run

SECONDS = 1.0


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import oracle
    import workloads

    workdir = run.ROOT / ".perfbench_work" / "smoke"
    problems = []

    def smoke(name: str, trace: int) -> run.Checks:
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            result = run.run(workloads.make(name, tiny=True), 7, SECONDS, bool(trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        units = {metric: unit for metric, (unit, _) in result["metrics"].items()}
        if units != expected[trace]:
            problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
        return result["checks"]

    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            checks = smoke(name, trace)
            print(f"{name} trace={trace}: attempted={checks.attempted} failed={checks.failed}")
            if checks.failed or not checks.attempted:
                problems.append(f"{name} trace={trace}: {checks.messages[:5]}")

    honest = oracle.best_completion_value
    oracle.best_completion_value = lambda values, labels: honest(values, labels) + 1.0
    try:
        checks = smoke("exact-deep", 0)
    finally:
        oracle.best_completion_value = honest
    print(f"exact-deep with a broken oracle: attempted={checks.attempted} failed={checks.failed}")
    if checks.failed == 0:
        problems.append("a deliberately wrong check result did not raise failed above 0")

    for problem in problems:
        print("SMOKE FAILED:", problem)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
