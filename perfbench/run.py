"""ucalab benchmark: one workload, one run.

    python3 perfbench/run.py --workload pipeline-accept --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, repeats timed rounds for about
--seconds, checks every round's outputs outside the timed section, and prints
one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 they are the
per-layer ones, taken from spans recorded by wrappers around ucalab's
module-level names (see spans.py). The traced run alternates untraced and
traced rounds, so trace.overhead_s compares the two in one process. wall_s is
the sum over a round's timed steps of count x fastest step time (see Steps).

The run pins its environment (UCA_THREADS=0, BLAS threads at most the usable
cores) and writes the environment, round times and spans to
.perfbench_out/<workload>-seed<seed>-trace<0|1>.json at the repository root.
Scratch files go to .perfbench_work/ and are removed when the run ends.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pipeline-accept", "exact-deep", "rollout-full")
SETUP_REPEATS = 9
MIN_ROUNDS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import numpy; "
    "from ucalab import bench, cli, core, dataset, exact, neural, search, valuegen; "
    "print(time.perf_counter() - start)"
)
# glibc sysconf names for the unified L2 and L3 cache sizes.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def pin_environment() -> dict:
    """Force serial ucalab and cap BLAS threads at the usable core count.

    Must run before numpy is imported."""
    os.environ["UCA_THREADS"] = "0"
    nproc = len(os.sched_getaffinity(0))
    blas = nproc
    for var in BLAS_THREAD_VARS:
        try:
            blas = min(blas, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas)
    return {"nproc": nproc, "blas_threads": blas}


def _cache_size(name: int):
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        size = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe_environment(pinned: dict) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "ucalab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return dict(
        pinned,
        python=platform.python_version(),
        numpy=np.__version__,
        l2_bytes=_cache_size(_SC_LEVEL2_CACHE_SIZE),
        l3_bytes=_cache_size(_SC_LEVEL3_CACHE_SIZE),
        uca_threads=os.environ["UCA_THREADS"],
        git_commit=_git_commit(),
        source_sha256=digest.hexdigest(),
    )


def import_seconds() -> float:
    """Time to import numpy and ucalab in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


class Steps:
    """Times the named steps of rounds; a step may occur several times a round.

    Rounds run on a core whose speed flips between two levels about 2x apart
    as other load on the host comes and goes, in bursts of milliseconds to
    seconds. A round's median time therefore follows the share of slow time
    during the run. A short step's fastest time does not, so `round_s`
    estimates a round's time as the sum, over its steps, of each step's
    minimum time over the run times its count per round. Time in a round
    outside any step is the step "other"."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.per_round: Counter = Counter()
        self.rounds = 0
        self._round: list[float] = []

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self.samples[name].append(seconds)
            self._round.append(seconds)
            if self.rounds == 0:
                self.per_round[name] += 1

    def end_round(self, wall: float) -> None:
        self.samples["other"].append(max(wall - sum(self._round), 0.0))
        if self.rounds == 0:
            self.per_round["other"] = 1
        self._round = []
        self.rounds += 1

    def round_s(self) -> float:
        return sum(count * min(self.samples[name]) for name, count in self.per_round.items())


def _timed(fn, tracer, checks: Checks, what: str):
    """Run fn() with the tracer's wrappers installed (when tracing); returns
    (seconds, result). Every wrapped name must be restored afterwards."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            left = tracer.restore()
            checks.check(not left, f"{what}: wrapped names not restored: {left}")
    return seconds, result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, traced_rounds: int, quality: list, overhead_s: float) -> dict:
    """Per-layer values from the traced rounds: counts and busy seconds per
    round, rates as count over busy seconds, *_s for single calls per call."""
    stats = tracer.aggregate()
    counts = tracer.counts
    rounds = max(traced_rounds, 1)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def busy(name):
        return stats.get(name, {}).get("busy_s", 0.0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    kinds = ("current", "random", "neural")
    rollouts = {k: counts["search.rollouts." + k] for k in kinds}
    rollout_busy = {k: busy("search.best_of_n." + k) for k in kinds}
    metrics = {
        "exact.solve.calls": ("count", calls("exact.solve") / rounds),
        "exact.solve.busy_s": ("s", busy("exact.solve") / rounds),
        "exact.solve_s": ("s", ratio(busy("exact.solve"), calls("exact.solve"))),
        "exact.vtg.calls": ("count", calls("exact.vtg") / rounds),
        "exact.vtg.busy_s": ("s", busy("exact.vtg") / rounds),
        "exact.completions": ("count", counts["exact.completions"] / rounds),
        "exact.completions_per_s": ("1/s", ratio(counts["exact.completions"], busy("exact.vtg"))),
        "dataset.build.records": ("count", counts["dataset.build.records"] / rounds),
        "dataset.build.busy_s": ("s", busy("dataset.build") / rounds),
        "dataset.build.self_s": ("s", self_s("dataset.build") / rounds),
        "dataset.build.records_per_s": (
            "1/s", ratio(counts["dataset.build.records"], busy("dataset.build"))),
        "dataset.save.busy_s": ("s", busy("dataset.save") / rounds),
        "dataset.load.busy_s": ("s", busy("dataset.load") / rounds),
        "dataset.load.records_per_s": ("1/s", ratio(counts["dataset.load.records"], busy("dataset.load"))),
        "neural.train.calls": ("count", calls("neural.train") / rounds),
        "neural.train.steps": ("count", counts["neural.train.steps"] / rounds),
        "neural.train.busy_s": ("s", busy("neural.train") / rounds),
        "neural.train.steps_per_s": ("1/s", ratio(counts["neural.train.steps"], busy("neural.train"))),
        "neural.train.final_test_loss": (
            "mse", ratio(counts["neural.train.final_test_loss"], calls("neural.train"))),
        "neural.forward.calls": ("count", calls("neural.forward") / rounds),
        "neural.forward.rows": ("count", counts["neural.forward.rows"] / rounds),
        "neural.forward.busy_s": ("s", busy("neural.forward") / rounds),
    }
    for k in kinds:
        metrics["search.rollouts." + k] = ("count", rollouts[k] / rounds)
        metrics["search.busy_s." + k] = ("s", rollout_busy[k] / rounds)
        metrics["search.rollouts_per_s." + k] = ("1/s", ratio(rollouts[k], rollout_busy[k]))
    metrics.update({
        "search.rollouts_per_s": ("1/s", ratio(sum(rollouts.values()), sum(rollout_busy.values()))),
        "search.self_s.neural": ("s", self_s("search.best_of_n.neural") / rounds),
        "core.value_of.calls": ("count", calls("core.value_of") / rounds),
        "core.value_of.busy_s": ("s", busy("core.value_of") / rounds),
        "core.table_load_s": ("s", ratio(busy("core.table_load"), calls("core.table_load"))),
        "valuegen.generate_s": ("s", ratio(busy("valuegen.generate"), calls("valuegen.generate"))),
        "valuegen.mb_per_s": ("MB/s", ratio(counts["valuegen.generate.bytes"] / 1e6, busy("valuegen.generate"))),
        "bench.mc.samples": ("count", counts["bench.mc.samples"] / rounds),
        "bench.mc.busy_s": ("s", busy("bench.mc") / rounds),
        "bench.mc.positives": ("count", counts["bench.mc.positives"] / rounds),
        "bench.mc.samples_per_s": ("1/s", ratio(counts["bench.mc.samples"], busy("bench.mc"))),
        "bench.curves.self_s": ("s", self_s("bench.curves") / rounds),
        "bench.report.busy_s": ("s", busy("bench.report") / rounds),
        "cli.pipeline.self_s": ("s", self_s("cli.pipeline") / rounds),
        "quality.neural_opt_ratio": ("ratio", _median(quality)),
        "trace.overhead_s": ("s", overhead_s),
        "trace.spans": ("count", len(tracer.spans) / rounds),
    })
    return metrics


def check_counts(workload, tracer, traced_rounds: int, checks: Checks) -> None:
    """Span and counter totals must equal the counts computed from the workload."""
    stats = tracer.aggregate()
    observed = Counter(tracer.counts)
    for name, entry in stats.items():
        observed[name + ".calls"] = entry["calls"]
    per_round, per_setup = workload.round_counts(), workload.setup_counts()
    for name, count in per_round.items():
        expected = count * traced_rounds + per_setup[name] * SETUP_REPEATS
        checks.check(observed[name] == expected, f"trace count {name}: {observed[name]} != expected {expected}")


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, measure and check one workload; returns the full result record."""
    from spans import NullTracer, Tracer

    checks = Checks()
    tracer = Tracer() if trace else None
    null = NullTracer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up's inputs before building new ones
        imported = import_seconds()
        elapsed, state = _timed(lambda: workload.setup(seed, workdir), tracer, checks, "setup")
        setup_times.append(imported + elapsed)

    walls: dict[bool, list[float]] = {False: [], True: []}
    steps = {False: Steps(), True: Steps()}
    quality = []
    spent = []
    start = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        begin = time.perf_counter()
        try:
            wall, output = _timed(
                lambda: workload.run_round(state, r, tracer if traced else null, steps[traced]),
                tracer if traced else None, checks, f"round {r}",
            )
            steps[traced].end_round(wall)
            ratio = workload.check(state, r, output, checks)
        except Exception:
            traceback.print_exc()
            checks.check(False, f"round {r} raised")
            break
        del output
        walls[traced].append(wall)
        if ratio is not None:
            quality.append(ratio)
        r += 1
        spent.append(time.perf_counter() - begin)
        if r >= MIN_ROUNDS and time.perf_counter() - start + _median(spent) > seconds:
            break

    if trace:
        traced_rounds = len(walls[True])
        check_counts(workload, tracer, traced_rounds, checks)
        overhead = steps[True].round_s() - steps[False].round_s()
        metrics = layer_metrics(tracer, traced_rounds, quality, overhead)
    else:
        metrics = {
            "wall_s": ("s", steps[False].round_s()),
            "setup_s": ("s", _median(setup_times)),
            "peak_rss_mb": ("MB", _peak_rss_mb()),
        }
    return {
        "checks": checks,
        "metrics": metrics,
        "rounds": {"untraced_s": walls[False], "traced_s": walls[True], "setup_s": setup_times,
                   "untraced_steps_s": steps[False].samples, "traced_steps_s": steps[True].samples},
        "spans": tracer.spans if trace else [],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_environment()
    if not (SRC / "ucalab" / "__init__.py").is_file():
        print(f"error: no ucalab sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.core.__file__).resolve().is_relative_to(SRC):
        print(f"error: ucalab was imported from {workloads.core.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = describe_environment(pinned)
    workload = workloads.make(args.workload)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with redirect_stdout(sys.stderr):
            result = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    checks = result["checks"]
    metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in result["metrics"].items()}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.messages, "metrics": metrics, "rounds": result["rounds"],
        "spans": result["spans"],
    }
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    rounds = result["rounds"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds['untraced_s']) + len(rounds['traced_s'])} "
          f"attempted={checks.attempted} failed={checks.failed} "
          f"failed_frac={checks.failed / max(checks.attempted, 1):.4g}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for message in checks.messages[:20]:
        print(f"FAILED: {message}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
