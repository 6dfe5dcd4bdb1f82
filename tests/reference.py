"""Independent oracle implementations used only by the test suite.

Everything here is written with plain loops and scipy's generic optimizer,
deliberately avoiding the package's own log-space machinery, so agreement
between the two paths is meaningful evidence of correctness.
"""

import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp as scipy_logsumexp

from mlcirt import Parameterization, em, selection
from mlcirt.data import MISSING, ResponseDataset, SchoolGroup
from mlcirt.io import DataFormatError
from mlcirt.likelihood import response_logprob_tables, stacked_loglik_terms
from mlcirt.model import apply_identifiability, max_abs_change
from mlcirt.weights import class_design, log_class_weight_matrix, log_type_weight_matrix


def sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def item_prob(params, spec, v, j):
    if spec.parameterization is Parameterization.LC:
        return float(params.lc_success[v, j])
    d = spec.item_bank.dim_of[j]
    return sigmoid(params.discrimination[j]
                   * (params.abilities[v, d] - params.difficulty[j]))


def softmax(logits):
    m = max(logits)
    e = [math.exp(v - m) for v in logits]
    s = sum(e)
    return [v / s for v in e]


def class_probs(class_intercepts, class_slopes, x, u):
    """Class membership probabilities of a student with covariates ``x`` in
    a type-``u`` school, from the multinomial-logit definition."""
    return softmax([0.0] + [float(class_intercepts[u, v - 1]
                                  + np.dot(class_slopes[v - 1], x))
                            for v in range(1, class_intercepts.shape[1] + 1)])


def type_probs(type_intercepts, type_slopes, w):
    """Type membership probabilities of a school with covariates ``w``."""
    return softmax([0.0] + [float(type_intercepts[u - 1]
                                  + np.dot(type_slopes[u - 1], w))
                            for u in range(1, len(type_intercepts) + 1)])


def single_level_loglik(data, params, spec):
    """Manifest-distribution log-likelihood for k_U = 1 data, by plain loops."""
    assert spec.n_types == 1
    total = 0.0
    for school in data.schools:
        for i in range(school.n_students):
            weights = class_probs(params.class_intercepts, params.class_slopes,
                                  school.student_covariates[i], 0)
            mix = 0.0
            for v in range(spec.n_classes):
                lik = 1.0
                for j in range(spec.item_bank.n_items):
                    y = school.responses[i, j]
                    if y < 0:
                        continue
                    p = item_prob(params, spec, v, j)
                    lik *= p if y == 1 else 1.0 - p
                mix += weights[v] * lik
            total += math.log(mix)
    return total


def independence_model_max_loglik(data):
    """Saturated per-item Bernoulli maximum (the k_V = k_U = 1 ceiling)."""
    responses = data.responses
    total = 0.0
    for j in range(responses.shape[1]):
        col = responses[:, j]
        col = col[col >= 0]
        if col.size == 0:
            continue
        c = float((col == 1).sum())
        m = float(col.size)
        for count, p in ((c, c / m), (m - c, 1.0 - c / m)):
            if count > 0:
                total += count * math.log(p)
    return total


# ---------------------------------------------------------------------------
# Expected complete log-likelihood blocks, by plain loops
# ---------------------------------------------------------------------------

def block_item_objective(data, posteriors, spec, difficulty, discrimination,
                         abilities, lc_success=None):
    """Posterior-weighted sum of response log-probabilities."""
    z_class = student_tables(data, posteriors)[1]
    total = 0.0
    for a, school in zip(data.starts, data.schools):
        z = z_class[a:a + school.n_students]
        for i in range(school.n_students):
            for v in range(spec.n_classes):
                for j in range(spec.item_bank.n_items):
                    y = school.responses[i, j]
                    if y < 0:
                        continue
                    if spec.parameterization is Parameterization.LC:
                        p = float(lc_success[v, j])
                    else:
                        d = spec.item_bank.dim_of[j]
                        p = sigmoid(discrimination[j]
                                    * (abilities[v, d] - difficulty[j]))
                    total += z[i, v] * math.log(p if y == 1 else 1.0 - p)
    return total


def block_class_objective(data, posteriors, spec, class_intercepts, class_slopes):
    """Joint-posterior-weighted log membership weights of the classes."""
    z_joint = student_tables(data, posteriors)[0]
    total = 0.0
    for a, school in zip(data.starts, data.schools):
        zj = z_joint[a:a + school.n_students]
        for i in range(school.n_students):
            x = school.student_covariates[i]
            for u in range(spec.n_types):
                weights = class_probs(class_intercepts, class_slopes, x, u)
                for v in range(spec.n_classes):
                    if zj[i, u, v] > 0:
                        total += zj[i, u, v] * math.log(weights[v])
    return total


def per_student_class_block_cases(student_covariates, z_joint, n_types):
    """Cases and weights of the class-membership regression with one case per
    (type, student), type-major: ``em._class_block_cases`` before merging
    students that share a covariate row."""
    n, _, k_v = z_joint.shape
    return (class_design(student_covariates, n_types),
            z_joint.transpose(1, 0, 2).reshape(n_types * n, k_v))


def mnlogit_derivatives(design, weights, coef):
    """Gradient and negative Hessian of the weighted multinomial logit
    objective of ``em._mnlogit_step``, case by case and block by block:
    block (a, b) is sum_n w_n p_na (delta_ab - p_nb) d_n d_n'."""
    n_cat, n_feat = weights.shape[1], design.shape[1]
    grad = np.zeros((n_cat - 1, n_feat))
    info = np.zeros(((n_cat - 1) * n_feat,) * 2)
    for d, w in zip(design, weights):
        logits = np.concatenate([[0.0], coef @ d])
        p = np.exp(logits - scipy_logsumexp(logits))
        for a in range(1, n_cat):
            grad[a - 1] += (w[a] - w.sum() * p[a]) * d
            for b in range(1, n_cat):
                info[(a - 1) * n_feat:a * n_feat, (b - 1) * n_feat:b * n_feat] += (
                    w.sum() * p[a] * ((a == b) - p[b]) * np.outer(d, d))
    return grad.reshape(-1), info


def per_student_answer_masks(data):
    """(n, r) float masks of right and wrong answers, one row per student."""
    return ((data.responses == 1).astype(float),
            (data.responses == 0).astype(float))


def per_student_e_step(data, params, spec):
    """``(loglik, posteriors, z_joint)`` with every student's conditional
    log-likelihood, class weights, conditional class posteriors and
    log-sum-exp computed on its own row: the E-step before it ran once per
    response pattern.  ``posteriors`` holds each pattern's conditional
    posteriors as computed on its students' rows; ``z_joint`` is the
    (n, k_U, k_V) joint posterior of every student."""
    is_one, is_zero = per_student_answer_masks(data)
    logp0, logp1 = response_logprob_tables(params, spec)
    cond = is_one @ logp1.T + is_zero @ logp0.T                     # (n, k_V)
    logw = log_class_weight_matrix(data.student_covariates, params)
    joint = logw + cond[:, None, :]                                # (n, k_U, k_V)
    log_mix = scipy_logsumexp(joint, axis=2)                       # (n, k_U)
    log_rho = np.add.reduceat(log_mix, data.starts, axis=0)
    evidence = log_type_weight_matrix(data.school_covariates, params) + log_rho
    school_ll = scipy_logsumexp(evidence, axis=1)
    z_hu = np.exp(evidence - school_ll[:, None])
    z_cond = np.exp(joint - log_mix[:, :, None])
    cond_posterior = np.empty((data.patterns.n_patterns,) + z_cond.shape[1:])
    cond_posterior[data.patterns.index] = z_cond
    return (float(school_ll.sum()), em.PosteriorTables(z_hu, cond_posterior),
            z_cond * np.repeat(z_hu, data.sizes, axis=0)[:, :, None])


def student_tables(data, posteriors):
    """The (n, k_U, k_V) joint and (n, k_V) class posteriors of every
    student, as ``em.e_step`` built them before it kept its tables on the
    response patterns: each student's pattern row times its school's type
    posterior, summed over types slice by slice."""
    z_joint = (np.take(posteriors.cond_posterior, data.patterns.index, axis=0)
               * np.repeat(posteriors.type_posterior, data.sizes, axis=0)[:, :, None])
    return z_joint, em._sum_types(z_joint)


def per_student_m_step_statistics(data, z_joint, n_types):
    """The M-step's statistics summed over students, from their (n, k_U, k_V)
    joint posteriors: the (k_V, r) posterior counts of right answers and of
    answers, and the class-membership regression's design rows and (type,
    covariate pattern) case weights."""
    is_one, is_zero = per_student_answer_masks(data)
    z_class = z_joint.sum(axis=1)
    succ = z_class.T @ is_one
    total = z_class.T @ (is_one + is_zero)
    weights = np.zeros((data.x_patterns.shape[0],) + z_joint.shape[1:])
    np.add.at(weights, data.x_pattern_index, z_joint)
    return (succ, total, class_design(data.x_patterns, n_types),
            weights.transpose(1, 0, 2).reshape(-1, z_joint.shape[2]))


def average_class_weights(data, params, posteriors):
    """``selection.average_class_weights`` with one (k_U, k_V) class-weight
    table gathered per student and the mixture summed per school."""
    z_hu = posteriors.type_posterior
    w_mat = np.exp(log_class_weight_matrix(data.x_patterns,
                                           params))[data.x_pattern_index]
    mixed = np.einsum("nu,nuv->nv", np.repeat(z_hu, data.sizes, axis=0), w_mat)
    total = np.add.reduceat(mixed, data.starts, axis=0).sum(axis=0)
    return total / data.n_students, z_hu.mean(axis=0)


def school_support_points(data, params, spec, posteriors):
    """``selection.school_support_points`` with one (k_U, k_V) class-weight
    table gathered per student."""
    z_hu = posteriors.type_posterior
    w_mat = np.exp(log_class_weight_matrix(data.x_patterns,
                                           params))[data.x_pattern_index]
    per_student = np.einsum("nuv,v->nu", w_mat, params.abilities.mean(axis=1))
    school_mean = (np.add.reduceat(per_student, data.starts, axis=0)
                   / data.sizes[:, None])
    mass = z_hu.sum(axis=0)
    defined = mass > selection._EMPTY_TYPE_MASS
    raw = np.full(spec.n_types, np.nan)
    raw[defined] = (z_hu[:, defined] * school_mean[:, defined]).sum(axis=0) / mass[defined]
    std = np.full(spec.n_types, np.nan)
    if defined.any():
        w = z_hu.mean(axis=0)[defined]
        std[defined] = selection.standardize_abilities(raw[defined], w / w.sum())
    return selection.SupportPoints(raw=raw, standardized=std, defined=defined)


def initial_item_logits(data):
    """Each item's clamped negated empirical logit from a scan of every
    student's responses: the deterministic start's difficulty before
    re-anchoring, as ``em.initialize`` computed it before it read the
    response patterns."""
    responses = data.responses
    n_correct = (responses == 1).sum(axis=0).astype(float)
    n_answered = ((responses == 0) | (responses == 1)).sum(axis=0).astype(float)
    phat = np.where(n_answered > 0, n_correct / np.maximum(n_answered, 1.0), 0.5)
    with np.errstate(divide="ignore"):
        raw = -(np.log(phat) - np.log1p(-phat))
    return np.clip(raw, -5.0, 5.0)


def block_type_objective(data, posteriors, spec, type_intercepts, type_slopes):
    """Type-posterior-weighted log membership weights of the school types."""
    total = 0.0
    for h, school in enumerate(data.schools):
        weights = type_probs(type_intercepts, type_slopes, school.covariates)
        for u in range(spec.n_types):
            if posteriors.type_posterior[h, u] > 0:
                total += posteriors.type_posterior[h, u] * math.log(weights[u])
    return total


# ---------------------------------------------------------------------------
# Packing of free parameters per block, for generic optimization
# ---------------------------------------------------------------------------

def pack_item_block(spec, params):
    free = ~spec.item_bank.is_reference
    if spec.parameterization is Parameterization.LC:
        logit = np.log(params.lc_success) - np.log1p(-params.lc_success)
        return logit.ravel().copy()
    parts = [params.difficulty[free]]
    if spec.parameterization is Parameterization.TWO_PL:
        parts.append(params.discrimination[free])
    parts.append(params.abilities.ravel())
    return np.concatenate(parts)


def unpack_item_block(spec, params, vec):
    free = ~spec.item_bank.is_reference
    n_free = int(free.sum())
    if spec.parameterization is Parameterization.LC:
        lc = 1.0 / (1.0 + np.exp(-np.asarray(vec).reshape(
            spec.n_classes, spec.item_bank.n_items)))
        return dict(difficulty=params.difficulty, discrimination=params.discrimination,
                    abilities=params.abilities, lc_success=lc)
    difficulty = np.array(params.difficulty)
    difficulty[free] = vec[:n_free]
    pos = n_free
    discrimination = np.array(params.discrimination)
    if spec.parameterization is Parameterization.TWO_PL:
        discrimination[free] = vec[pos:pos + n_free]
        pos += n_free
    abilities = np.asarray(vec[pos:]).reshape(spec.n_classes,
                                              spec.item_bank.n_dims)
    return dict(difficulty=difficulty, discrimination=discrimination,
                abilities=abilities, lc_success=params.lc_success)


def item_block_objective_vec(data, posteriors, spec, params, vec):
    blocks = unpack_item_block(spec, params, vec)
    return block_item_objective(data, posteriors, spec, blocks["difficulty"],
                                blocks["discrimination"], blocks["abilities"],
                                blocks["lc_success"])


def class_block_objective_vec(data, posteriors, spec, vec):
    k_u, k_v = spec.n_types, spec.n_classes
    m_v = data.student_covariates.shape[1]
    inter = np.asarray(vec[:k_u * (k_v - 1)]).reshape(k_u, k_v - 1)
    slopes = np.asarray(vec[k_u * (k_v - 1):]).reshape(k_v - 1, m_v)
    return block_class_objective(data, posteriors, spec, inter, slopes)


def type_block_objective_vec(data, posteriors, spec, vec):
    k_u = spec.n_types
    m_u = data.school_covariates.shape[1]
    inter = np.asarray(vec[:k_u - 1])
    slopes = np.asarray(vec[k_u - 1:]).reshape(k_u - 1, m_u)
    return block_type_objective(data, posteriors, spec, inter, slopes)


def maximize(objective, starts):
    """Generic numerical maximizer: BFGS with restarts from every start
    point (a single vector or a list of vectors), re-polished until the
    value stops improving."""
    if isinstance(starts, np.ndarray) and starts.ndim == 1:
        starts = [starts]
    best_x, best_f = None, -np.inf
    for x0 in starts:
        x = np.asarray(x0, dtype=float)
        for _ in range(3):
            result = minimize(lambda v: -objective(v), x, method="BFGS",
                              options={"gtol": 1e-10, "maxiter": 2000})
            x = result.x
            if -result.fun <= best_f + 1e-12:
                break
            best_f = -result.fun
            best_x = x
    return best_x, best_f


def finite_difference_gradient(objective, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[k] += step
        dn[k] -= step
        grad[k] = (objective(up) - objective(dn)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# Direct (non-EM) single-level fit for the nesting comparison
# ---------------------------------------------------------------------------

def _single_level_vec_to_params(spec, base, vec):
    free = ~spec.item_bank.is_reference
    n_free = int(free.sum())
    difficulty = np.zeros(spec.item_bank.n_items)
    difficulty[free] = vec[:n_free]
    pos = n_free
    discrimination = np.ones(spec.item_bank.n_items)
    if spec.parameterization is Parameterization.TWO_PL:
        discrimination[free] = vec[pos:pos + n_free]
        pos += n_free
    k_v, s = spec.n_classes, spec.item_bank.n_dims
    abilities = np.asarray(vec[pos:pos + k_v * s]).reshape(k_v, s)
    pos += k_v * s
    intercepts = np.asarray(vec[pos:]).reshape(1, k_v - 1)
    return base.replace(difficulty=difficulty, discrimination=discrimination,
                        abilities=abilities, class_intercepts=intercepts)


def fit_single_level_direct(data, spec, base_params, extra_starts, rng):
    """Best single-level log-likelihood found by generic optimization.

    Starts from ``base_params`` (typically the EM solution) plus
    ``extra_starts`` random points; returns the best log-likelihood.
    """
    assert spec.n_types == 1 and spec.n_student_covariates == 0

    def objective(vec):
        params = _single_level_vec_to_params(spec, base_params, vec)
        return single_level_loglik(data, params, spec)

    free = ~spec.item_bank.is_reference
    x_base = [base_params.difficulty[free]]
    if spec.parameterization is Parameterization.TWO_PL:
        x_base.append(base_params.discrimination[free])
    x_base.append(base_params.abilities.ravel())
    x_base.append(base_params.class_intercepts.ravel())
    x_base = np.concatenate(x_base)

    best = -np.inf
    starts = [x_base] + [x_base + rng.uniform(-1.0, 1.0, size=x_base.size)
                         for _ in range(extra_starts)]
    for x0 in starts:
        result = minimize(lambda v: -objective(v), x0, method="BFGS",
                          options={"gtol": 1e-9, "maxiter": 3000})
        best = max(best, -result.fun)
    return best


# ---------------------------------------------------------------------------
# Dataset loading, row by row
# ---------------------------------------------------------------------------

_MAX_PER_ROW_ERRORS = 50


def _expand_tokens(decls, tokens, path, line, first_col, errors) -> np.ndarray:
    values: list[float] = []
    for offset, (decl, token) in enumerate(zip(decls, tokens)):
        col = first_col + offset
        if decl.kind == "numeric":
            try:
                value = float(token)
            except ValueError:
                errors.append(f"{path}:{line}: column {col} ({decl.name}): "
                              f"non-numeric value {token!r}")
                value = np.nan
            else:
                if not np.isfinite(value):
                    errors.append(f"{path}:{line}: column {col} ({decl.name}): "
                                  f"non-finite value {token!r}")
            values.append(value)
        else:
            if token not in decl.levels:
                errors.append(f"{path}:{line}: column {col} ({decl.name}): "
                              f"level {token!r} not declared")
                values.extend([np.nan] * decl.n_columns)
            else:
                for lvl in decl.levels:
                    if lvl != decl.reference:
                        values.append(1.0 if token == lvl else 0.0)
    return np.asarray(values, dtype=float)


def _read_rows(path: Path):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        yield from enumerate(csv.reader(handle), start=1)


def load_dataset_per_row(students_path, schools_path, config) -> ResponseDataset:
    """The package's original loader, one token at a time: the oracle for
    ``mlcirt.io.load_dataset`` (same dataset, or the same error text)."""
    students_path = Path(students_path)
    schools_path = Path(schools_path)
    for p in (students_path, schools_path):
        if not p.exists():
            raise DataFormatError(f"missing input file: {p}")
    errors: list[str] = []

    school_cov: dict[str, np.ndarray] = {}
    school_order: list[str] = []
    expected = ["school_id"] + [d.name for d in config.school_covariates]
    for line, row in _read_rows(schools_path):
        if line == 1:
            if row != expected:
                raise DataFormatError(f"{schools_path}:1: header must be "
                                      f"{','.join(expected)}, got {','.join(row)}")
            continue
        if not row:
            continue
        if len(row) != len(expected):
            errors.append(f"{schools_path}:{line}: expected {len(expected)} "
                          f"fields, got {len(row)}")
            continue
        sid = row[0]
        if sid in school_cov:
            errors.append(f"{schools_path}:{line}: column 1 (school_id): "
                          f"duplicate school id {sid!r}")
            continue
        school_cov[sid] = _expand_tokens(config.school_covariates, row[1:],
                                         schools_path, line, 2, errors)
        school_order.append(sid)

    r = config.spec.item_bank.n_items
    item_names = [f"item_{j + 1}" for j in range(r)]
    expected = (["school_id", "student_id"] + item_names
                + [d.name for d in config.student_covariates])
    students: dict[str, list] = {sid: [] for sid in school_order}
    seen: set[tuple[str, str]] = set()
    for line, row in _read_rows(students_path):
        if line == 1:
            if row != expected:
                raise DataFormatError(f"{students_path}:1: header must be "
                                      f"{','.join(expected)}, got {','.join(row)}")
            continue
        if not row:
            continue
        if len(row) != len(expected):
            errors.append(f"{students_path}:{line}: expected {len(expected)} "
                          f"fields, got {len(row)}")
            continue
        sid, stid = row[0], row[1]
        if sid not in students:
            errors.append(f"{students_path}:{line}: column 1 (school_id): "
                          f"unknown school id {sid!r}")
            continue
        if (sid, stid) in seen:
            errors.append(f"{students_path}:{line}: column 2 (student_id): "
                          f"duplicate student {stid!r} in school {sid!r}")
            continue
        seen.add((sid, stid))
        responses = np.empty(r, dtype=np.int8)
        for j in range(r):
            token = row[2 + j]
            if token == "0":
                responses[j] = 0
            elif token == "1":
                responses[j] = 1
            elif token == "NA":
                responses[j] = MISSING
            else:
                errors.append(f"{students_path}:{line}: column {3 + j} "
                              f"(item_{j + 1}): response {token!r} is not "
                              "0, 1, or NA")
                responses[j] = MISSING
        x = _expand_tokens(config.student_covariates, row[2 + r:],
                           students_path, line, 3 + r, errors)
        students[sid].append((stid, x, responses))

    for sid in school_order:
        if not students[sid]:
            errors.append(f"{schools_path}: school {sid!r} has no students in "
                          f"{students_path}")

    if errors:
        shown = errors[:_MAX_PER_ROW_ERRORS]
        if len(errors) > _MAX_PER_ROW_ERRORS:
            shown.append(f"... and {len(errors) - _MAX_PER_ROW_ERRORS} more")
        raise DataFormatError("\n".join(shown))

    m_v = sum(d.n_columns for d in config.student_covariates)
    schools = []
    for sid in school_order:
        recs = students[sid]
        schools.append(SchoolGroup(
            school_id=sid,
            covariates=school_cov[sid],
            student_ids=tuple(rec[0] for rec in recs),
            student_covariates=(np.stack([rec[1] for rec in recs])
                                if recs else np.zeros((0, m_v))),
            responses=np.stack([rec[2] for rec in recs]),
        ))
    return ResponseDataset.from_schools(schools)


# ---------------------------------------------------------------------------
# Plain EM: the unaccelerated loop, kept as the oracle of ``em.fit``
# ---------------------------------------------------------------------------

def plain_em_fit(data, spec, controls, init):
    """One plain EM step per iteration until convergence or the cap.

    The loop ``em.fit`` ran before SQUAREM, with the same stopping rules
    and the same E-step and M-step; ``n_iter`` and ``trace`` count as in
    ``em.fit``.
    """
    em._raise_if_invalid(em.validate_params(init, spec)
                         + em.validate_dataset(data, spec))
    params = init
    trace: list[float] = []
    converged = False
    for iteration in range(controls.max_iter):
        loglik, posteriors = em._e_step(data, params, spec)
        trace.append(loglik)
        if iteration > 0 and abs(trace[-1] - trace[-2]) < controls.tol_loglik:
            converged = True
            break
        new_params = em.m_step(data, posteriors, params, spec)
        delta = max_abs_change(params, new_params)
        params = new_params
        if delta < controls.tol_param:
            converged = True
            trace.append(stacked_loglik_terms(data, params, spec)[0])
            break
    else:
        trace.append(stacked_loglik_terms(data, params, spec)[0])

    params = apply_identifiability(params, spec.item_bank)
    return em.FitResult(params=params, loglik=trace[-1], trace=tuple(trace),
                        n_iter=len(trace) - 1, converged=converged, start_index=0)
