"""Span tracing for the benchmark's traced run.

`Tracer.install` replaces the module-level names that ucalab's callers look
up at call time (for example `ucalab.bench.solve_exact`, which
`benchmark_curves` calls) with wrappers that record one span per call and
bump work counters. `Tracer.restore` puts every original back and reports
any name it could not restore. Spans stay in memory as
(name, start, end, parent index) tuples; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import nullcontext


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_vtg(counts, args, kwargs, result):
    assignment, table = _arg(args, kwargs, 0, "assignment"), _arg(args, kwargs, 1, "table")
    free = table.n - assignment.assigned_mask.bit_count()
    counts["exact.completions"] += table.m**free


def _count_build(counts, args, kwargs, result):
    counts["dataset.build.records"] += len(result)


def _count_load(counts, args, kwargs, result):
    counts["dataset.load.records"] += len(result[0])


def _count_train(counts, args, kwargs, result):
    train_pairs = _arg(args, kwargs, 0, "train_pairs")
    cfg = _arg(args, kwargs, 2, "cfg")
    counts["neural.train.steps"] += cfg.epochs * math.ceil(len(train_pairs) / cfg.batch_size)
    counts["neural.train.final_test_loss"] += result[1][-1][2]


def _count_forward(counts, args, kwargs, result):
    batch = _arg(args, kwargs, 1, "x")
    counts["neural.forward.rows"] += len(batch) if getattr(batch, "ndim", 1) == 2 else 1


def _rollout_span(args, kwargs):
    return "search.best_of_n." + _arg(args, kwargs, 1, "estimator").kind


def _count_rollouts(counts, args, kwargs, result):
    kind = _arg(args, kwargs, 1, "estimator").kind
    counts["search.rollouts." + kind] += _arg(args, kwargs, 2, "n_evals")


def _count_mc(counts, args, kwargs, result):
    counts["bench.mc.samples"] += _arg(args, kwargs, 1, "samples")
    counts["bench.mc.positives"] += result[1]


def _count_generate(counts, args, kwargs, result):
    counts["valuegen.generate.bytes"] += result.values.nbytes


# (module, attribute, span name or name function, counter). Each caller binds
# its own reference at import, so every module that calls a layer is listed.
WRAPS = [
    ("ucalab.exact", "solve_exact", "exact.solve", None),
    ("ucalab.bench", "solve_exact", "exact.solve", None),
    ("ucalab.dataset", "exact_value_to_go", "exact.vtg", _count_vtg),
    ("ucalab.dataset", "value_of", "core.value_of", None),
    ("ucalab.search", "value_of", "core.value_of", None),
    ("ucalab.dataset", "build_dataset", "dataset.build", _count_build),
    ("ucalab.cli", "build_dataset", "dataset.build", _count_build),
    ("ucalab.dataset", "save_dataset", "dataset.save", None),
    ("ucalab.cli", "save_dataset", "dataset.save", None),
    ("ucalab.dataset", "load_dataset", "dataset.load", _count_load),
    ("ucalab.neural", "train", "neural.train", _count_train),
    ("ucalab.cli", "train", "neural.train", _count_train),
    ("ucalab.search", "forward", "neural.forward", _count_forward),
    ("ucalab.search", "best_of_n", _rollout_span, _count_rollouts),
    ("ucalab.bench", "best_of_n", _rollout_span, _count_rollouts),
    ("ucalab.bench", "estimate_positive_probability", "bench.mc", _count_mc),
    ("ucalab.cli", "benchmark_curves", "bench.curves", None),
    ("ucalab.cli", "write_curves_report", "bench.report", None),
    ("ucalab.cli", "run_pipeline", "cli.pipeline", None),
    ("ucalab.valuegen", "generate_npd", "valuegen.generate", _count_generate),
    ("ucalab.valuegen", "generate_trap", "valuegen.generate", _count_generate),
    ("ucalab.cli", "generate_npd", "valuegen.generate", _count_generate),
    ("ucalab.cli", "generate_trap", "valuegen.generate", _count_generate),
]


class NullTracer:
    """Stand-in for untraced rounds: the benchmark's own spans cost nothing."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list = []

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1] if self._stack else -1)

    def _wrap(self, original, name, count):
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = self._open(label)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, label, start, perf_counter())
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, count))
            self._installed.append((module, attr, original))

    def restore(self) -> list[str]:
        """Put every wrapped name back; returns the names still not original."""
        installed, self._installed = self._installed, []
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in installed
            if getattr(module, attr) is not original
        ]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds."""
        stats: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, start, end, parent in self.spans:
            duration = end - start
            entry = stats[name]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration
            if parent >= 0:
                stats[self.spans[parent][0]]["self_s"] -= duration
        return dict(stats)


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index, self.name, self.start, time.perf_counter())
