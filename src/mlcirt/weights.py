"""Covariate-dependent mixing weights at both hierarchy levels.

Class membership (students) and type membership (schools) follow
multinomial logit models with category 0 as the reference: the logit of
class v relative to class 0 is ``class_intercepts[u, v-1] + x . class_slopes[v-1]``
for a student with covariates x in a school of type u, and analogously at
the school level with ``type_intercepts`` / ``type_slopes``.

Covariate vectors are plain numeric arrays; categorical covariates are
expanded to indicator columns upstream (see ``mlcirt.io``).  All softmax
computations shift by the maximum logit, so weights stay finite for
logits up to around +-700.
"""

from __future__ import annotations

import numpy as np

from ._numeric import logsumexp_last
from .model import ParameterSet


def _check_length(vec: np.ndarray, expected: int, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (expected,):
        raise ValueError(f"{what} has shape {vec.shape}, expected ({expected},)")
    return vec


# Per-vector conveniences: one row of the batched matrices below.

def log_student_class_weights(x, type_index: int, params: ParameterSet) -> np.ndarray:
    if not 0 <= type_index < params.n_types:
        raise IndexError(f"school type {type_index} out of range 0..{params.n_types - 1}")
    x = _check_length(x, params.n_student_covariates, "student covariate vector")
    return log_class_weight_matrix(x[None, :], params)[0, type_index]


def student_class_weights(x, type_index: int, params: ParameterSet) -> np.ndarray:
    """Class membership probabilities for one student in a type-u school.

    Returns a strictly positive vector of length ``n_classes`` summing to 1.
    """
    return np.exp(log_student_class_weights(x, type_index, params))


def log_school_type_weights(w, params: ParameterSet) -> np.ndarray:
    w = _check_length(w, params.n_school_covariates, "school covariate vector")
    return log_type_weight_matrix(w[None, :], params)[0]


def school_type_weights(w, params: ParameterSet) -> np.ndarray:
    """Type membership probabilities for one school."""
    return np.exp(log_school_type_weights(w, params))


# Batched versions used by the likelihood, EM, simulation and summaries.

def log_class_weight_matrix(x_matrix: np.ndarray, params: ParameterSet) -> np.ndarray:
    """Log class weights for a block of students under every school type.

    ``x_matrix`` is (n, m_V); the result is (n, n_types, n_classes).
    """
    n = x_matrix.shape[0]
    logits = np.zeros((n, params.n_types, params.n_classes))
    if params.n_classes > 1:
        slope_part = x_matrix @ params.class_slopes.T  # (n, k_V - 1)
        logits[:, :, 1:] = params.class_intercepts[None, :, :] + slope_part[:, None, :]
    return logits - logsumexp_last(logits, keepdims=True)


def log_type_weight_matrix(w_matrix: np.ndarray, params: ParameterSet) -> np.ndarray:
    """Log type weights for a block of schools; (H, m_U) -> (H, n_types)."""
    n = w_matrix.shape[0]
    logits = np.zeros((n, params.n_types))
    if params.n_types > 1:
        logits[:, 1:] = params.type_intercepts[None, :] + w_matrix @ params.type_slopes.T
    return logits - logsumexp_last(logits, keepdims=True)
