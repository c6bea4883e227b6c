"""mppkit: from-scratch tabular classifiers and reproducible CV experiments
for 3-class Mycoplasma pneumoniae pneumonia severity grading."""

__version__ = "0.1.0"

from .data import (
    DataError,
    Dataset,
    FeatureSchema,
    FeatureSpec,
    FoldPlan,
    RawTable,
    clean_and_encode,
    generate_synthetic,
    load_dataset,
    load_raw,
    load_schema,
    stratified_kfold,
)
from .evaluation import (
    ClassMetrics,
    CvReport,
    ModelSpec,
    confusion_matrix,
    cross_validate,
    overall_accuracy,
    per_class_metrics,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ReportBundle,
    compare_models,
    emit_report,
    load_config,
    run_experiment,
)
from .linear import (
    LogisticModel,
    SvmModel,
    fit_logistic,
    fit_svm,
)
from .mlp import MlpModel, fit_mlp
from .numeric import SeededRng, finite_difference_gradient, softmax
from .serialize import load_model, save_model
from .trees import (
    GbdtModel,
    ImportanceReport,
    TreeModel,
    TreeNode,
    feature_importance,
    fit_gbdt,
    fit_tree,
)

__all__ = [
    "__version__",
    "DataError",
    "Dataset",
    "FeatureSchema",
    "FeatureSpec",
    "FoldPlan",
    "RawTable",
    "clean_and_encode",
    "generate_synthetic",
    "load_dataset",
    "load_raw",
    "load_schema",
    "stratified_kfold",
    "ClassMetrics",
    "CvReport",
    "ModelSpec",
    "confusion_matrix",
    "cross_validate",
    "overall_accuracy",
    "per_class_metrics",
    "ConfigError",
    "ExperimentConfig",
    "ReportBundle",
    "compare_models",
    "emit_report",
    "load_config",
    "run_experiment",
    "LogisticModel",
    "SvmModel",
    "fit_logistic",
    "fit_svm",
    "MlpModel",
    "fit_mlp",
    "SeededRng",
    "finite_difference_gradient",
    "softmax",
    "load_model",
    "save_model",
    "GbdtModel",
    "ImportanceReport",
    "TreeModel",
    "TreeNode",
    "feature_importance",
    "fit_gbdt",
    "fit_tree",
]
