"""Covariate-dependent mixing weights at both hierarchy levels.

Class membership (students) and type membership (schools) follow
multinomial logit models with category 0 as the reference: the logit of
class v relative to class 0 is ``class_intercepts[u, v-1] + x . class_slopes[v-1]``
for a student with covariates x in a school of type u, and analogously at
the school level with ``type_intercepts`` / ``type_slopes``.

Both functions work on a block of covariate rows at once: the
likelihood, EM, simulator and summaries all call them, and a single
student or school is a one-row block.  Covariates are plain numeric
arrays; categorical covariates are expanded to indicator columns
upstream (see ``mlcirt.io``).  All softmax computations shift by the
maximum logit, so weights stay finite for logits up to around +-700.
"""

from __future__ import annotations

import numpy as np

from ._numeric import logsumexp_last
from .model import ParameterSet


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
