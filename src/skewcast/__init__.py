"""skewcast: forecasting on right-skewed sales data without the usual bias.

Training on a concave transform of sales (log, sqrt) and inverting the
point forecast systematically under-predicts.  This package provides the
pieces to measure that effect and the three standard ways out: sample
weights that counteract the compression, Tweedie-family losses on the
raw target, and post-hoc multiplicative bias correction.  A
deterministic synthetic-data generator and a rolling-origin backtest
harness compare them under controlled skew.
"""

from .backtest import (
    BacktestPlan,
    BacktestReport,
    ExperimentArm,
    arm_by_id,
    TrendReport,
    fit_arm,
    run_backtest,
    run_power_sweep,
    run_study,
    run_weight_ladder,
    standard_arms,
)
from .biascorr import BiasCorrector, fit_corrector
from .datagen import GenConfig, generate, load_gen_config, theoretical_tweedie_power
from .errors import ConfigError, DataError, SkewcastError
from .learner import (
    MODEL_FORMAT,
    FitModel,
    LearnerConfig,
    fit,
    fit_arrays,
    in_sample_fit_report,
    load_model,
    save_model,
)
from .losses import (
    LossSpec,
    WeightScheme,
    constant_score,
    convexity_profile,
    deviance,
    grad_hess,
    mean_from_score,
    total_loss,
    weights_for,
)
from .metrics import (
    AggregateMetrics,
    RelativeMetrics,
    VersionMetrics,
    aggregate_versions,
    relativize,
    version_metrics,
)
from .panel import ForecastVersion, SalesPanel, read_panel, write_panel
from .transform import TargetTransform, jensen_gap

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics",
    "MODEL_FORMAT",
    "BacktestPlan",
    "BacktestReport",
    "BiasCorrector",
    "ConfigError",
    "DataError",
    "ExperimentArm",
    "FitModel",
    "ForecastVersion",
    "GenConfig",
    "LearnerConfig",
    "LossSpec",
    "RelativeMetrics",
    "SalesPanel",
    "SkewcastError",
    "TargetTransform",
    "TrendReport",
    "VersionMetrics",
    "WeightScheme",
    "aggregate_versions",
    "arm_by_id",
    "constant_score",
    "convexity_profile",
    "deviance",
    "fit",
    "fit_arm",
    "fit_arrays",
    "fit_corrector",
    "generate",
    "grad_hess",
    "in_sample_fit_report",
    "jensen_gap",
    "load_gen_config",
    "load_model",
    "mean_from_score",
    "read_panel",
    "relativize",
    "run_backtest",
    "run_power_sweep",
    "run_study",
    "run_weight_ladder",
    "save_model",
    "standard_arms",
    "theoretical_tweedie_power",
    "total_loss",
    "version_metrics",
    "weights_for",
    "write_panel",
]
