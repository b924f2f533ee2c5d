"""The labelling of `tools/paired_bench.py` on fixed numbers, without running
the benchmark, its runs from fresh bytecode on stand-in checkouts, and its
gain rule on stand-in runs."""

import argparse
import importlib.util
from pathlib import Path

import pytest

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
    assert paired_bench.compare(sides, args, "w", spec) == ([], [], [])
    for checkout in sides.values():
        assert (checkout / "runs.log").read_text().split() == ["False", "False"]
        assert (checkout / "src" / "ucalab" / "core.py").exists()
    header = capsys.readouterr().out.splitlines()[0]
    assert "src_pycache=removed_before_each_run" in header
    assert header.endswith(" src_lines base=5 change=1")


def test_the_gain_rule_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_base_iqr():
    base = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    # every pair won, the median 0.2 lower against a base IQR of 0.05
    assert paired_bench.meets_gain_rule(base, [b - 0.2 for b in base], LOWER)
    # every pair won, but the median only 0.01 lower: within the base IQR
    assert not paired_bench.meets_gain_rule(base, [b - 0.01 for b in base], LOWER)
    # 9 of 10 pairs won is enough, 8 is not; a tie counts for neither side
    assert paired_bench.meets_gain_rule(base, [b - 0.2 for b in base[:9]] + [base[9] + 1.0], LOWER)
    assert not paired_bench.meets_gain_rule(base, [b - 0.2 for b in base[:8]] + base[8:], LOWER)
    assert paired_bench.wins(base, base, LOWER) == 0
    # the direction follows the metric
    assert paired_bench.meets_gain_rule(base, [b + 0.2 for b in base], HIGHER)
    assert not paired_bench.meets_gain_rule(base, [b - 0.2 for b in base], HIGHER)


# A stand-in for perfbench/run.py whose wall_s is the checkout's wall.txt plus
# a thousandth per seed, and whose peak_rss_mb is the same on every run.
FAKE_TIMED_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
wall = float(open("wall.txt").read()) + 0.001 * seed
print("rounds=3")
print(json.dumps({"failed": 0, "attempted": 1,
                  "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": 50.0}}}))
"""


@pytest.mark.parametrize("change_wall, gain", [(0.9, True), (0.999, False)])
def test_the_gain_rule_is_printed_for_each_end_to_end_metric(tmp_path, capsys, change_wall, gain):
    # base runs read 1.001..1.010 s (IQR 0.0055 s); a change 0.1 s faster
    # meets the rule, one 0.001 s faster wins every pair but does not
    sides = {}
    for side, wall in (("base", 1.0), ("change", change_wall)):
        checkout = tmp_path / side
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "src").mkdir()
        (checkout / "perfbench" / "run.py").write_text(FAKE_TIMED_RUN)
        (checkout / "wall.txt").write_text(str(wall))
        sides[side] = checkout
    args = argparse.Namespace(pairs=10, seed=1, seconds=1.0, trace=0)
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}], "per_layer": []}
    worse, undecided, gains = paired_bench.compare(sides, args, "w", spec)
    assert (worse, undecided) == ([], [])
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[2:]}
    assert rows["wall_s"].endswith(" 10/10 gain" if gain else " 10/10 no gain")
    # equal runs tie every pair: no pair won, no gain
    assert rows["peak_rss_mb"].endswith(" 0/10 no gain")
    if gain:
        assert gains == ["w:wall_s -9.9% (won 10/10, base IQR 0.5%)"]
    else:
        assert gains == []
