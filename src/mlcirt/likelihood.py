"""Conditional, school-level, and marginal log-likelihoods.

Everything runs in log space: item log-probabilities come from the stable
log-logistic form -log(1 + exp(-z)), class and type mixtures are collapsed
with max-shifted log-sum-exp, and a school's conditional likelihood is only
ever represented by its logarithm (a product over dozens of students would
underflow in linear space).  ``brute_force_loglik`` is the deliberately
naive linear-space reference used to cross-check the log-space path on
small instances.

Missing responses (``MISSING``) simply drop out of the item products,
i.e. missing-at-random handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import logsumexp_last
from .data import MISSING, ResponseDataset, SchoolGroup
from .model import ModelSpec, ParameterSet, Parameterization
from .weights import log_class_weight_matrix, log_type_weight_matrix


class NonFiniteLikelihoodError(ArithmeticError):
    """Likelihood or posterior became non-finite (parameter blow-up)."""


class EnumerationCapError(ValueError):
    """Brute-force enumeration would exceed the configured term cap."""


def success_logit_table(params: ParameterSet, spec: ModelSpec) -> np.ndarray:
    """(k_V, r) table of response logits under the 2PL/1PL curve."""
    dim_idx = spec.item_bank.dim_index
    ability_of_item = params.abilities[:, dim_idx]          # (k_V, r)
    return params.discrimination[None, :] * (ability_of_item - params.difficulty[None, :])


def response_logprob_tables(params: ParameterSet, spec: ModelSpec):
    """Per (class, item) log-probabilities of a wrong and a right answer.

    Returns ``(logp0, logp1)``, each of shape (k_V, r).
    """
    if spec.parameterization is Parameterization.LC:
        p = params.lc_success
        return np.log1p(-p), np.log(p)
    z = success_logit_table(params, spec)
    logp1 = -np.logaddexp(0.0, -z)
    logp0 = -np.logaddexp(0.0, z)
    return logp0, logp1


def success_prob_table(params: ParameterSet, spec: ModelSpec) -> np.ndarray:
    """(k_V, r) success probabilities (linear scale, for interfaces)."""
    _, logp1 = response_logprob_tables(params, spec)
    return np.exp(logp1)


# ---------------------------------------------------------------------------
# What the hot loops need beyond the dataset's own arrays: float masks of the
# answers and, when few, the distinct student covariate rows.
# ---------------------------------------------------------------------------

_MAX_COVARIATE_PATTERNS = 256


@dataclass(frozen=True, eq=False)
class StackedData:
    is_one: np.ndarray        # (n, r) float mask of correct answers
    is_zero: np.ndarray       # (n, r) float mask of wrong answers
    x: np.ndarray             # (n, m_V), the dataset's student covariates
    w: np.ndarray             # (H, m_U), the dataset's school covariates
    starts: np.ndarray        # (H,) first student row of each school
    sizes: np.ndarray         # (H,)
    # Distinct student covariate rows, when few enough to be worth it:
    # weights and membership regressions then work per pattern instead of
    # per student (identical objective by linearity).
    x_patterns: np.ndarray | None = None        # (P, m_V)
    x_pattern_index: np.ndarray | None = None   # (n,)

    @property
    def n_students(self) -> int:
        return self.is_one.shape[0]


def stack_dataset(data: ResponseDataset) -> StackedData:
    """The answer masks and covariate patterns of ``data``; every other
    field refers to the dataset's own arrays."""
    x = data.student_covariates
    patterns, index = unique_rows(x)
    if patterns.shape[0] > min(_MAX_COVARIATE_PATTERNS, max(x.shape[0] // 4, 1)):
        patterns, index = None, None
    return StackedData(
        is_one=(data.responses == 1).astype(float),
        is_zero=(data.responses == 0).astype(float),
        x=x, w=data.school_covariates, starts=data.starts, sizes=data.sizes,
        x_patterns=patterns, x_pattern_index=index,
    )


def unique_rows(x: np.ndarray):
    """Distinct rows of a 2-D array in lexicographic order, and the index of
    each row's pattern: ``np.unique(x, axis=0, return_inverse=True)`` by one
    stable lexsort."""
    n = x.shape[0]
    if x.shape[1] == 0:
        return np.zeros((min(n, 1), 0)), np.zeros(n, dtype=np.intp)
    order = np.lexsort(x.T[::-1])          # the first column is the primary key
    ordered = x[order]
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    index = np.empty(n, dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def conditional_loglik_matrix(stacked: StackedData, params: ParameterSet,
                              spec: ModelSpec) -> np.ndarray:
    """(n, k_V) log-probability of each student's response vector per class."""
    logp0, logp1 = response_logprob_tables(params, spec)
    return stacked.is_one @ logp1.T + stacked.is_zero @ logp0.T


def stacked_loglik_terms(stacked: StackedData, params: ParameterSet,
                         spec: ModelSpec):
    """Core log-space quantities shared by the likelihood and the E-step.

    Returns ``(loglik, evidence, school_ll, joint, log_mix)`` where
    ``evidence[h, u]`` is log(pi_hu) + log(rho_h(u)), ``school_ll[h]`` its
    log-sum-exp over u, ``joint[i, u, v]`` the per-student class log weight
    plus conditional log-likelihood, and ``log_mix[i, u]`` its log-sum-exp
    over v.
    """
    cond = conditional_loglik_matrix(stacked, params, spec)        # (n, k_V)
    if stacked.x_patterns is not None:
        logw = log_class_weight_matrix(stacked.x_patterns,
                                       params)[stacked.x_pattern_index]
    else:
        logw = log_class_weight_matrix(stacked.x, params)          # (n, k_U, k_V)
    joint = logw + cond[:, None, :]
    log_mix = logsumexp_last(joint)                                # (n, k_U)
    log_rho = np.add.reduceat(log_mix, stacked.starts, axis=0)     # (H, k_U)
    log_pi = log_type_weight_matrix(stacked.w, params)             # (H, k_U)
    evidence = log_pi + log_rho
    school_ll = logsumexp_last(evidence)                           # (H,)
    return float(school_ll.sum()), evidence, school_ll, joint, log_mix


# ---------------------------------------------------------------------------
# Public likelihood operations
# ---------------------------------------------------------------------------

def student_conditional_loglik(responses, class_index: int, params: ParameterSet,
                               spec: ModelSpec) -> float:
    """Log-probability of one response vector given latent class membership.

    Missing responses contribute nothing to the sum.
    """
    y = np.asarray(responses)
    if not 0 <= class_index < spec.n_classes:
        raise IndexError(f"class index {class_index} out of range")
    if y.shape != (spec.item_bank.n_items,):
        raise ValueError(f"response vector must have length {spec.item_bank.n_items}")
    if np.any(~np.isin(y, (0, 1, MISSING))):
        raise ValueError("responses must be 0, 1, or missing")
    logp0, logp1 = response_logprob_tables(params, spec)
    return float(logp1[class_index, y == 1].sum() + logp0[class_index, y == 0].sum())


def group_conditional_loglik(school: SchoolGroup, type_index: int,
                             params: ParameterSet, spec: ModelSpec) -> float:
    """Log-likelihood of one school's responses given its latent type.

    Sums, over students, the log of the class mixture of conditional
    response likelihoods under that school type's membership weights.
    """
    if not 0 <= type_index < params.n_types:
        raise IndexError(f"type index {type_index} out of range")
    stacked = stack_dataset(ResponseDataset.from_schools((school,)))
    _, _, _, _, log_mix = stacked_loglik_terms(stacked, params, spec)
    return float(log_mix[:, type_index].sum())


def marginal_loglik(data: ResponseDataset, params: ParameterSet,
                    spec: ModelSpec) -> float:
    """Marginal log-likelihood of the whole dataset.

    Sums over schools the log of the type mixture of school-conditional
    likelihoods; evaluated entirely in log space with a fixed summation
    order, so repeated calls are bit-reproducible.
    """
    stacked = stack_dataset(data)
    loglik, _, _, _, _ = stacked_loglik_terms(stacked, params, spec)
    if not np.isfinite(loglik):
        raise NonFiniteLikelihoodError("marginal log-likelihood is not finite")
    return loglik


def brute_force_loglik(data: ResponseDataset, params: ParameterSet,
                       spec: ModelSpec, max_terms: int = 10 ** 6) -> float:
    """Reference marginal log-likelihood by explicit linear-space summation.

    Enumerates every school type and, per student, every latent class with
    plain products and sums (no log-sum-exp), taking a single log per
    school at the end.  Small instances only: the total term count
    (types x students x classes) must stay below ``max_terms``.
    """
    k_u, k_v = spec.n_types, spec.n_classes
    terms = k_u * data.n_students * k_v
    if terms > max_terms:
        raise EnumerationCapError(
            f"enumeration needs {terms} terms, above the cap of {max_terms}")

    def naive_softmax(logits):
        e = [float(np.exp(t)) for t in logits]
        s = sum(e)
        return [v / s for v in e]

    # Linear-scale success probabilities, straight from the definitions.
    prob = np.empty((k_v, spec.item_bank.n_items))
    for v in range(k_v):
        for j in range(spec.item_bank.n_items):
            if spec.parameterization is Parameterization.LC:
                prob[v, j] = params.lc_success[v, j]
            else:
                d = spec.item_bank.dim_of[j]
                z = params.discrimination[j] * (params.abilities[v, d]
                                                - params.difficulty[j])
                prob[v, j] = 1.0 / (1.0 + float(np.exp(-z)))

    total = 0.0
    for school in data.schools:
        type_logits = [0.0] + [
            float(params.type_intercepts[u - 1]
                  + np.dot(params.type_slopes[u - 1], school.covariates))
            for u in range(1, k_u)]
        type_w = naive_softmax(type_logits)
        school_lik = 0.0
        for u in range(k_u):
            prod_students = 1.0
            for i in range(school.n_students):
                x = school.student_covariates[i]
                class_logits = [0.0] + [
                    float(params.class_intercepts[u, v - 1]
                          + np.dot(params.class_slopes[v - 1], x))
                    for v in range(1, k_v)]
                class_w = naive_softmax(class_logits)
                mix = 0.0
                for v in range(k_v):
                    prod_items = 1.0
                    for j in range(spec.item_bank.n_items):
                        y = school.responses[i, j]
                        if y == MISSING:
                            continue
                        prod_items *= prob[v, j] if y == 1 else 1.0 - prob[v, j]
                    mix += class_w[v] * prod_items
                prod_students *= mix
            school_lik += type_w[u] * prod_students
        total += float(np.log(school_lik))
    return total
