"""Zeroth-order optimization from pairwise comparison oracles.

The package estimates descent directions purely from one-bit "is the
perturbed point better?" answers, recovers them under a sparsity prior, and
applies the result both to synthetic objectives and to a toy policy
preference-alignment pipeline (margin split, margin-loss baseline,
comparison-driven refinement on the noisy pairs).
"""

from .core import ParamVector, RngState, embed_perturbation
from .oracles import (
    BitMeasurementBatch,
    Sign,
    compare_function,
    compare_preference,
    measure_bits,
)
from .sparse_grad import (
    GradientEstimate,
    clip_small_entries,
    estimate_normalized_clip,
    solve_1bge_exact,
)
from .optimizer import (
    IterationRecord,
    PracticalConfig,
    PracticalState,
    TheoremSchedule,
    Trajectory,
    run_basic,
    run_practical,
    schedule_from_theorem,
    step_practical,
)
from .policy import (
    DpoConfig,
    LikelihoodReport,
    PipelineConfig,
    PipelineResult,
    PreferencePair,
    SplitDataset,
    ToyPolicy,
    dpo_grad,
    dpo_loss,
    generate_preference_data,
    likelihood_report,
    load_preference_dataset,
    log_likelihood,
    make_toy_policy,
    run_pipeline,
    save_preference_dataset,
    split_by_margin,
    train_dpo,
)
from .bench import (
    EstimatorErrorReport,
    SweepReport,
    SyntheticObjective,
    check_estimator_error,
    check_sign_agreement,
    make_nonconvex_sparse,
    make_sparse_quadratic,
    point_with_gradient_norm,
    sweep_convergence,
)
from . import errors

__all__ = [
    "ParamVector", "RngState", "embed_perturbation",
    "BitMeasurementBatch", "Sign", "compare_function", "compare_preference",
    "measure_bits",
    "GradientEstimate", "clip_small_entries", "estimate_normalized_clip",
    "solve_1bge_exact",
    "IterationRecord", "PracticalConfig", "PracticalState", "TheoremSchedule",
    "Trajectory", "run_basic", "run_practical", "schedule_from_theorem",
    "step_practical",
    "DpoConfig", "LikelihoodReport", "PipelineConfig", "PipelineResult",
    "PreferencePair", "SplitDataset", "ToyPolicy", "dpo_grad", "dpo_loss",
    "generate_preference_data", "likelihood_report", "load_preference_dataset",
    "log_likelihood", "make_toy_policy", "run_pipeline",
    "save_preference_dataset", "split_by_margin", "train_dpo",
    "EstimatorErrorReport", "SweepReport", "SyntheticObjective",
    "check_estimator_error", "check_sign_agreement", "make_nonconvex_sparse",
    "make_sparse_quadratic", "point_with_gradient_norm", "sweep_convergence",
    "errors",
]
