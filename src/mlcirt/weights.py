"""Covariate-dependent mixing weights at both hierarchy levels.

Class membership (students) and type membership (schools) are
multinomial logits with category 0 as the reference (Dayton and Macready
1988, at two levels as in Vermunt 2003).  This module is their one
statement, read by the likelihood and E-step, the M-step, the simulator,
the summaries and the label permutation: ``log_mnlogit``, the designs
``class_design``/``type_design`` and the coefficient layout
``class_coef``/``type_coef``.  Categorical covariates arrive as indicator
columns (see ``mlcirt.io``).  The softmax shifts by the maximum logit.
"""

from __future__ import annotations

import numpy as np

from ._numeric import logsumexp_last
from .model import ParameterSet


def log_mnlogit(design: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """(N, K) log-probabilities of a multinomial logit: logit 0 for category 0,
    ``design @ coef.T`` for the others ((N, p) ``design``, (K - 1, p) ``coef``)."""
    logits = np.zeros((design.shape[0], coef.shape[0] + 1))
    logits[:, 1:] = design @ coef.T
    return logits - logsumexp_last(logits, keepdims=True)


def class_design(x: np.ndarray, n_types: int) -> np.ndarray:
    """Rows [type one-hot | x] of the (n, m_V) ``x``, type-major: row
    u * n + i is student i in type u."""
    return np.hstack([np.repeat(np.eye(n_types), len(x), axis=0),
                      np.tile(x, (n_types, 1))])


def type_design(w: np.ndarray) -> np.ndarray:
    """(H, 1 + m_U) rows [1 | school covariates] of the (H, m_U) ``w``."""
    return np.hstack([np.ones((w.shape[0], 1)), w])


def class_coef(params: ParameterSet) -> np.ndarray:
    """(k_V - 1, k_U + m_V) class coefficients [class_intercepts.T | class_slopes]."""
    return np.hstack([params.class_intercepts.T, params.class_slopes])


def type_coef(params: ParameterSet) -> np.ndarray:
    """(k_U - 1, 1 + m_U) type coefficients [type_intercepts | type_slopes]."""
    return np.hstack([params.type_intercepts[:, None], params.type_slopes])


def class_blocks(coef: np.ndarray, n_types: int) -> dict:
    """The ``ParameterSet`` fields of a ``class_coef`` matrix."""
    return {"class_intercepts": coef[:, :n_types].T, "class_slopes": coef[:, n_types:]}


def type_blocks(coef: np.ndarray) -> dict:
    """The ``ParameterSet`` fields of a ``type_coef`` matrix."""
    return {"type_intercepts": coef[:, 0], "type_slopes": coef[:, 1:]}


def log_class_weight_matrix(x_matrix: np.ndarray, params: ParameterSet) -> np.ndarray:
    """(n, n_types, n_classes) log class weights of (n, m_V) student rows."""
    log_w = log_mnlogit(class_design(x_matrix, params.n_types), class_coef(params))
    return log_w.reshape(params.n_types, -1, params.n_classes).transpose(1, 0, 2)


def log_type_weight_matrix(w_matrix: np.ndarray, params: ParameterSet) -> np.ndarray:
    """Log type weights for a block of schools; (H, m_U) -> (H, n_types)."""
    return log_mnlogit(type_design(w_matrix), type_coef(params))
