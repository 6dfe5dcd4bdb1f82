"""Conditional, school-level, and marginal log-likelihoods.

Everything runs in log space: item log-probabilities come from the stable
log-logistic form -log(1 + exp(-z)), class and type mixtures are collapsed
with max-shifted log-sum-exp, and a school's conditional likelihood is only
ever represented by its logarithm (a product over dozens of students would
underflow in linear space).  ``brute_force_loglik`` is the deliberately
naive linear-space reference used to cross-check the log-space path on
small instances.

Missing responses (``MISSING``) simply drop out of the item products,
i.e. missing-at-random handling.  The batched path reads the covariate
patterns and response patterns that each ``ResponseDataset`` builds once:
the conditional log-likelihoods, the class mixtures and their log-sum-exp
are computed once per response pattern, and students only gather their
pattern's mixture for the sum over each school.
"""

from __future__ import annotations

import numpy as np

from ._numeric import log_expit, logsumexp_last
from .data import MISSING, ResponseDataset, ResponsePatterns
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
    return log_expit(-z), log_expit(z)


def success_prob_table(params: ParameterSet, spec: ModelSpec) -> np.ndarray:
    """(k_V, r) success probabilities (linear scale, for interfaces)."""
    _, logp1 = response_logprob_tables(params, spec)
    return np.exp(logp1)


def stack_dataset(data: ResponseDataset) -> ResponseDataset:
    """Build the covariate patterns and response patterns of ``data`` if they
    are missing, and return ``data``.  ``multistart_fit`` calls it once so
    that the benchmark tracer, which wraps this name, times the build in its
    own span; it stays until the fit observer planned in ROADMAP.md replaces
    the tracer.
    """
    data.patterns      # built on first access, covariate patterns first
    return data


def conditional_loglik_matrix(patterns: ResponsePatterns, params: ParameterSet,
                              spec: ModelSpec) -> np.ndarray:
    """(P, k_V) log-probability of each pattern's response vector per class."""
    logp0, logp1 = response_logprob_tables(params, spec)
    return patterns.is_one @ logp1.T + patterns.is_zero @ logp0.T


def stacked_loglik_terms(data: ResponseDataset, params: ParameterSet,
                         spec: ModelSpec):
    """Core log-space quantities shared by the likelihood and the E-step.

    Returns ``(loglik, evidence, school_ll, joint, log_mix)`` where
    ``evidence[h, u]`` is log(pi_hu) + log(rho_h(u)), ``school_ll[h]`` its
    log-sum-exp over u, ``joint[p, u, v]`` the class log weight plus
    conditional log-likelihood of response pattern p (``data.patterns``),
    and ``log_mix[p, u]`` its log-sum-exp over v; student i's mixture is
    ``log_mix[data.patterns.index[i]]``.
    """
    patterns = data.patterns
    cond = conditional_loglik_matrix(patterns, params, spec)       # (P, k_V)
    # Row gathers use np.take, several times faster than fancy indexing.
    logw = np.take(log_class_weight_matrix(data.x_patterns, params),
                   patterns.x_index, axis=0)                       # (P, k_U, k_V)
    joint = logw + cond[:, None, :]
    log_mix = logsumexp_last(joint)                                # (P, k_U)
    log_rho = np.add.reduceat(np.take(log_mix, patterns.index, axis=0),
                              data.starts, axis=0)                 # (H, k_U)
    log_pi = log_type_weight_matrix(data.school_covariates, params)  # (H, k_U)
    evidence = log_pi + log_rho
    school_ll = logsumexp_last(evidence)                           # (H,)
    return float(school_ll.sum()), evidence, school_ll, joint, log_mix


def marginal_loglik(data: ResponseDataset, params: ParameterSet,
                    spec: ModelSpec) -> float:
    """Marginal log-likelihood of the whole dataset.

    Sums over schools the log of the type mixture of school-conditional
    likelihoods; evaluated entirely in log space with a fixed summation
    order, so repeated calls are bit-reproducible.
    """
    loglik, _, _, _, _ = stacked_loglik_terms(data, params, spec)
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
