"""The labelling of `tools/paired_bench.py` on fixed numbers, without running
the benchmark, and its runs from fresh bytecode on stand-in checkouts."""

import argparse
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
)
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)

# IQR 0.0375 on a median of 0.105: 36% of the median, wider than a 25% bound
WIDE = [0.08, 0.09, 0.10, 0.12, 0.14, 0.11]
# IQR 0.0025 on a median of 0.1015: 2.5% of the median
NARROW = [0.100, 0.101, 0.102, 0.103]
LOWER, HIGHER = -1.0, 1.0


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_is_better():
    # one change run (0.085) reads worse than the best base run (0.08)
    assert paired_bench.unresolved(WIDE, [0.085, 0.06, 0.07, 0.075, 0.07, 0.06], 0.25, LOWER)
    # every change run below every base run resolves it
    assert not paired_bench.unresolved(WIDE, [0.075, 0.06, 0.07, 0.075, 0.07, 0.06], 0.25, LOWER)
    # a tie with the best base run does not count as better
    assert paired_bench.unresolved(WIDE, [0.08, 0.06, 0.07], 0.25, LOWER)


def test_the_direction_follows_the_metric():
    assert not paired_bench.unresolved(WIDE, [0.15, 0.16, 0.2], 0.25, HIGHER)
    assert paired_bench.unresolved(WIDE, [0.15, 0.13, 0.2], 0.25, HIGHER)


def test_a_spread_within_the_bound_is_resolved_whatever_the_change_reads():
    assert not paired_bench.unresolved(NARROW, [0.2, 0.3, 0.05, 0.1], 0.25, LOWER)
    # the same spread is wider than a 2% bound
    assert paired_bench.unresolved(NARROW, [0.2, 0.3, 0.05, 0.1], 0.02, LOWER)


# A stand-in for perfbench/run.py: logs whether ucalab's bytecode is present,
# then writes some, as an import with bytecode writing on would.
FAKE_RUN = """
import json, pathlib
cache = pathlib.Path("src/ucalab/__pycache__")
with open("runs.log", "a") as log:
    log.write(f"{cache.exists()}\\n")
cache.mkdir(parents=True, exist_ok=True)
(cache / "core.cpython.pyc").write_bytes(b"")
print("rounds=3")
print(json.dumps({"failed": 0, "attempted": 1, "metrics": {"wall_s": {"value": 1.0}}}))
"""


def test_every_run_starts_without_bytecode_under_src(tmp_path, capsys):
    sides = {}
    # base: 3 + 2 lines of *.py under src/; change: 1 line; neither counts non-*.py files
    sources = {"base": {"core.py": "a\nb\nc\n", "cli.py": "d\ne\n"}, "change": {"core.py": "a\n"}}
    for side in ("base", "change"):
        checkout = tmp_path / side
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
        (checkout / "src" / "ucalab" / "__pycache__").mkdir(parents=True)
        for name, text in sources[side].items():
            (checkout / "src" / "ucalab" / name).write_text(text)
        (checkout / "src" / "ucalab" / "notes.txt").write_text("x\ny\n")
        sides[side] = checkout
    args = argparse.Namespace(pairs=2, seed=1, seconds=1.0, trace=0)
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}], "per_layer": []}
    assert paired_bench.compare(sides, args, "w", spec) == ([], [])
    for checkout in sides.values():
        assert (checkout / "runs.log").read_text().split() == ["False", "False"]
        assert (checkout / "src" / "ucalab" / "core.py").exists()
    header = capsys.readouterr().out.splitlines()[0]
    assert "src_pycache=removed_before_each_run" in header
    assert header.endswith(" src_lines base=5 change=1")
