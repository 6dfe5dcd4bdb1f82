"""Multilevel latent-class IRT models for binary test data.

Estimates discrete-ability IRT models with students nested in schools:
latent classes at the student level, latent types at the school level,
multinomial-logit covariate effects on both memberships, EM-based maximum
marginal likelihood, BIC model selection, MAP classification, and a
simulation harness for parameter-recovery checks.
"""

from .data import MISSING, ResponseDataset, SchoolGroup, validate_dataset
from .em import (
    FitControls,
    FitResult,
    MStepError,
    MultistartError,
    PosteriorTables,
    e_step,
    fit,
    initialize,
    m_step,
    multistart_fit,
)
from .likelihood import (
    EnumerationCapError,
    NonFiniteLikelihoodError,
    brute_force_loglik,
    marginal_loglik,
)
from .model import (
    ItemBank,
    ModelSpec,
    ParameterSet,
    Parameterization,
    apply_identifiability,
    count_free_parameters,
    validate_params,
    validate_spec,
)
from .selection import (
    ClassificationResult,
    SweepResult,
    SweepRow,
    assign_schools,
    assign_students,
    average_class_weights,
    bic,
    classify,
    school_support_points,
    standardize_abilities,
    sweep_school_types,
    type_probabilities_by_profile,
)
from .simulate import (
    CategoricalCovariate,
    CyclicCovariate,
    LatentLabels,
    RecoveryReport,
    SimulationDesign,
    align_labels,
    permute_parameters,
    recovery_report,
    simulate_full,
)
from .weights import log_class_weight_matrix, log_type_weight_matrix

__version__ = "0.1.0"

__all__ = [
    "MISSING",
    "CategoricalCovariate",
    "ClassificationResult",
    "CyclicCovariate",
    "EnumerationCapError",
    "FitControls",
    "FitResult",
    "ItemBank",
    "LatentLabels",
    "MStepError",
    "ModelSpec",
    "MultistartError",
    "NonFiniteLikelihoodError",
    "ParameterSet",
    "Parameterization",
    "PosteriorTables",
    "RecoveryReport",
    "ResponseDataset",
    "SchoolGroup",
    "SimulationDesign",
    "SweepResult",
    "SweepRow",
    "align_labels",
    "apply_identifiability",
    "assign_schools",
    "assign_students",
    "average_class_weights",
    "bic",
    "brute_force_loglik",
    "classify",
    "count_free_parameters",
    "e_step",
    "fit",
    "initialize",
    "log_class_weight_matrix",
    "log_type_weight_matrix",
    "m_step",
    "marginal_loglik",
    "multistart_fit",
    "permute_parameters",
    "recovery_report",
    "school_support_points",
    "simulate_full",
    "standardize_abilities",
    "sweep_school_types",
    "type_probabilities_by_profile",
    "validate_dataset",
    "validate_params",
    "validate_spec",
]
