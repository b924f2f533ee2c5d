"""Solver laboratory for utilitarian combinatorial assignment.

Generate synthetic value functions, compute exact optima and value-to-go
labels, train a small neural heuristic on those labels, and benchmark
heuristic-guided greedy search against current-value and random baselines.
"""

__version__ = "0.1.0"

from .bench import (
    CurvesReport,
    PredictionErrorReport,
    benchmark_curves,
    estimate_positive_probability,
    prediction_error_report,
    value_histogram,
)
from .core import (
    FormatError,
    PartialAssignment,
    ProblemSpec,
    UNASSIGNED,
    ValueTable,
    expand_children,
    value_of,
)
from .dataset import (
    DatasetConfig,
    LabeledPair,
    build_dataset,
    load_dataset,
    sample_partial_assignment,
    save_dataset,
    split_dataset,
)
from .exact import (
    BudgetExceededError,
    DEFAULT_NODE_BUDGET,
    exact_value_to_go,
    solve_exact,
)
from .neural import (
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    backward,
    encode_input,
    forward,
    grid_search,
    init_model,
    loss,
    predict_value_to_go,
    train,
)
from .search import Estimator, RolloutResult, best_of_n, greedy_rollout
from .seeding import derive_seed
from .valuegen import NpdParams, TrapParams, generate_npd, generate_trap, trap_mean

__all__ = [
    "BudgetExceededError",
    "CurvesReport",
    "DEFAULT_NODE_BUDGET",
    "DatasetConfig",
    "Estimator",
    "FormatError",
    "LabeledPair",
    "MlpModel",
    "NpdParams",
    "PartialAssignment",
    "PredictionErrorReport",
    "ProblemSpec",
    "RolloutResult",
    "TrainConfig",
    "TrainingDivergedError",
    "TrapParams",
    "UNASSIGNED",
    "ValueTable",
    "backward",
    "benchmark_curves",
    "best_of_n",
    "build_dataset",
    "derive_seed",
    "encode_input",
    "estimate_positive_probability",
    "exact_value_to_go",
    "expand_children",
    "forward",
    "generate_npd",
    "generate_trap",
    "greedy_rollout",
    "grid_search",
    "init_model",
    "load_dataset",
    "loss",
    "predict_value_to_go",
    "prediction_error_report",
    "sample_partial_assignment",
    "save_dataset",
    "solve_exact",
    "split_dataset",
    "train",
    "trap_mean",
    "value_histogram",
    "value_of",
]
