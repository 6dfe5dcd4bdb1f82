"""EM estimation of the multilevel latent-class IRT model.

The E-step computes exact posteriors of the latent school types and
student classes in log space.  Students with the same responses and
covariate row (one response pattern of ``ResponseDataset.patterns``) share
their class posteriors given the type, so the E-step's tables and the
M-step's statistics are kept once per pattern; only the school's type
posterior differs between such students.  The M-step maximizes the
expected complete log-likelihood block by block:

(a) item/ability block: a posterior-weighted logistic regression over
    (class, item) cells.  The response logit is bilinear in the item
    parameters and the class abilities, so the block is not concave;
    each step is a Fisher-scoring step on all of its unknowns at once,
    whose information matrix is positive semi-definite everywhere.  The
    "lc" variant has the closed-form weighted proportion solution;
(b) class-membership block: a weighted multinomial logistic regression
    with the joint (type, class) posteriors as case weights;
(c) type-membership block: the same solver with the school-type
    posteriors as case weights.

Each block supplies its objective, gradient and information matrix; one
loop, ``_damped_newton``, solves every Newton step and halves it until the
block objective does not fall, which keeps the EM iteration monotone in
the marginal log-likelihood.

``fit`` accelerates the EM map with safeguarded SQUAREM (Varadhan and
Roland 2008): every two EM steps it tries an extrapolation along them and
keeps it only if the log-likelihood does not fall below the first step's,
falling back to the plain EM point otherwise.  ``max_iter``, ``n_iter``
and the trace count M-steps, as they would for plain EM.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from ._numeric import expit, log_expit, logit, logsumexp_last
from .data import ResponseDataset, ResponsePatterns, validate_dataset
from .likelihood import (
    NonFiniteLikelihoodError,
    stack_dataset,
    stacked_loglik_terms,
)
from .model import (
    ModelSpec,
    ParameterSet,
    Parameterization,
    apply_identifiability,
    check_integer,
    check_number,
    max_abs_change,
    validate_params,
)

_LC_PROB_FLOOR = 1e-8
_MAX_HALVINGS = 30
# A Newton block stops once its step moves every unknown by less than this.
_NEWTON_TOL = 1e-9


class MStepError(RuntimeError):
    """A Newton block produced a non-finite objective after step halving."""

    def __init__(self, block: str, message: str):
        super().__init__(f"[{block}] {message}")
        self.block = block


class MultistartError(RuntimeError):
    """Every initialization of a multistart fit failed."""

    def __init__(self, failures: list[str]):
        super().__init__("all starts failed: " + "; ".join(failures))
        self.failures = tuple(failures)


@dataclass(frozen=True, eq=False)
class PosteriorTables:
    """E-step posteriors, on the schools and the response patterns.

    - ``type_posterior``: (H, k_U), schools in dataset order; rows sum to 1
    - ``cond_posterior``: (P, k_U, k_V), each response pattern's class
      posteriors given the school type; each (pattern, type) row sums to 1

    A student's joint posterior of (type u, class v) is its school's
    ``type_posterior[u]`` times its pattern's ``cond_posterior[u, v]``."""

    type_posterior: np.ndarray
    cond_posterior: np.ndarray


@dataclass(frozen=True)
class FitControls:
    """Stopping rules and iteration caps for the EM loop.

    ``max_iter`` caps the M-steps of one fit.  A fit has converged once
    two consecutive log-likelihoods of its trace differ by less than
    ``tol_loglik``, or once an M-step changes no parameter by ``tol_param``
    or more.

    ``newton_max_iter`` bounds the Newton steps of every M-step block
    (item/ability, class membership, type membership): a block stops after
    that many steps, or once a step moves no unknown by 1e-9 or more.
    Construction raises ``ValueError`` naming a field of the wrong type or range.
    """

    max_iter: int = 5000
    tol_loglik: float = 1e-8
    tol_param: float = 1e-6
    newton_max_iter: int = 50
    n_starts: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iter", "newton_max_iter", "n_starts", "seed"):
            check_integer(getattr(self, name), name, 0 if name == "seed" else 1)
        for name in ("tol_loglik", "tol_param"):
            if not 0 < (value := check_number(getattr(self, name), name)) < np.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")

    def replace(self, **changes) -> "FitControls":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one EM run (or the best of a multistart).

    ``n_iter`` is the number of M-steps.  ``trace`` holds the starting
    log-likelihood and then one entry per M-step, taken at the point the
    loop moved to, so ``n_iter == len(trace) - 1`` and ``loglik`` is
    ``trace[-1]``.
    """

    params: ParameterSet
    loglik: float
    trace: tuple[float, ...]
    n_iter: int
    converged: bool
    start_index: int = 0


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def _sum_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """(size, ...) sums of the rows of ``values`` that share an ``index``,
    added in row order (one ``np.bincount`` per column)."""
    columns = values.reshape(len(index), -1)
    out = np.empty((size, columns.shape[1]))
    for c in range(columns.shape[1]):
        out[:, c] = np.bincount(index, weights=columns[:, c], minlength=size)
    return out.reshape((size,) + values.shape[1:])


def _sum_types(joint: np.ndarray) -> np.ndarray:
    """(N, k_V) sum of a (N, k_U, k_V) table over types, slice by slice:
    the order of numpy's sum over a short axis, at a fraction of the cost
    (see ``logsumexp_last``)."""
    total = joint[:, 0, :].copy()
    for u in range(1, joint.shape[1]):
        total += joint[:, u, :]
    return total


def _e_step(data: ResponseDataset, params: ParameterSet,
            spec: ModelSpec) -> tuple[float, PosteriorTables]:
    """The log-likelihood and the posterior tables at ``params``."""
    loglik, evidence, school_ll, joint, log_mix = stacked_loglik_terms(
        data, params, spec)
    if not np.isfinite(loglik):
        raise NonFiniteLikelihoodError("log-likelihood is not finite at the "
                                       "current parameters")
    z_hu = np.exp(evidence - school_ll[:, None])                    # (H, k_U)
    cond_post = np.exp(joint - log_mix[:, :, None])                 # (P, k_U, k_V)
    if not (np.all(np.isfinite(z_hu)) and np.all(np.isfinite(cond_post))):
        raise NonFiniteLikelihoodError("posterior tables are not finite")
    return loglik, PosteriorTables(z_hu, cond_post)


def e_step(data: ResponseDataset, params: ParameterSet,
           spec: ModelSpec) -> PosteriorTables:
    """Posterior tables of the latent indicators given data and parameters."""
    return _e_step(data, params, spec)[1]


def student_class_posteriors(data: ResponseDataset,
                             posteriors: PosteriorTables) -> np.ndarray:
    """(n, k_V) class posteriors of the students in dataset order: their joint
    posteriors summed over types as ``_sum_types`` adds, one type at a time."""
    index, cond = data.patterns.index, posteriors.cond_posterior
    terms = (np.take(cond[:, u, :], index, axis=0)
             * np.repeat(posteriors.type_posterior[:, u], data.sizes)[:, None]
             for u in range(cond.shape[1]))                         # (n, k_V) each
    total = next(terms)
    for term in terms:
        total += term
    return total


# ---------------------------------------------------------------------------
# The safeguarded Newton loop shared by every M-step block
# ---------------------------------------------------------------------------

def _damped_newton(value, derivatives, x, max_iter, block: str):
    """Maximize ``value`` from ``x`` by damped Newton steps.

    ``derivatives(x)`` returns the flattened gradient and the positive
    semi-definite information; the step solves ``info @ step = grad`` by LU,
    or by minimum-norm least squares where LU finds ``info`` singular (a
    class with no mass).  A step is halved until the objective is finite and
    no lower than before (up to rounding), at most ``_MAX_HALVINGS`` times;
    if none qualifies, the loop stops, or raises ``MStepError`` when the last
    objective is not finite.  It stops once a step moves no unknown by
    ``_NEWTON_TOL``, or after ``max_iter`` steps.  Floating-point warnings
    are off: an extreme trial point is judged by its objective alone.
    """
    with np.errstate(all="ignore"):
        f0 = value(x)
        for _ in range(max_iter):
            grad, info = derivatives(x)
            try:
                step = np.linalg.solve(info, grad).reshape(x.shape)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(info, grad, rcond=None)[0].reshape(x.shape)
            t = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                f1 = value(x + t * step)
                if np.isfinite(f1) and f1 >= f0 - 1e-12 * (1.0 + abs(f0)):
                    break
                t *= 0.5
            else:
                if not np.isfinite(f1):
                    raise MStepError(block, "non-finite objective after step halving")
                break
            x, f0 = x + t * step, f1
            if np.max(np.abs(t * step)) < _NEWTON_TOL:
                break
    return x


# ---------------------------------------------------------------------------
# M-step block (a): item parameters and class abilities
# ---------------------------------------------------------------------------

def _maximize_item_block(succ, total, params: ParameterSet, spec: ModelSpec,
                         controls: FitControls) -> ParameterSet:
    if spec.parameterization is Parameterization.LC:
        lc = np.where(total > 0, succ / np.maximum(total, 1e-300), params.lc_success)
        return params.replace(lc_success=np.clip(lc, _LC_PROB_FLOOR,
                                                 1.0 - _LC_PROB_FLOOR))

    bank = spec.item_bank
    dim_idx = bank.dim_index
    is_free = ~bank.is_reference
    free = np.flatnonzero(is_free)
    two_pl = spec.parameterization is Parameterization.TWO_PL
    slope_items = free if two_pl else free[:0]
    n_free, n_slope = free.size, slope_items.size
    k_v, n_dims = params.abilities.shape
    # Unknowns, packed: free slopes (2PL only), free intercepts, abilities.
    # Cell (v, j) has the logit slope_j * ability[v, d(j)] + inter_j.
    inter_cols = n_slope + np.arange(n_free)
    ability_cols = (n_slope + n_free + np.arange(k_v)[:, None] * n_dims
                    + dim_idx[None, :])                          # (k_V, r)
    slope0 = params.discrimination
    inter0 = -slope0 * params.difficulty

    def unpack(x):
        slope = slope0.copy()
        slope[slope_items] = x[:n_slope]
        inter = inter0.copy()
        inter[free] = x[inter_cols]
        abilities = x[n_slope + n_free:].reshape(k_v, n_dims)
        return slope, inter, abilities, abilities[:, dim_idx]

    def value(x):
        slope, inter, _, x_tab = unpack(x)
        # A discrimination collapsing to 0 leaves the difficulty -c/a
        # unidentified; scoring such points -inf makes step halving
        # reject them.
        if np.any(np.abs(slope[free]) < 1e-8):
            return -np.inf
        z = slope * x_tab + inter
        return float((succ * log_expit(z) + (total - succ) * log_expit(-z)).sum())

    def derivatives(x):
        """Fisher scoring: the information J'diag(total p (1-p))J is
        positive semi-definite, and singular where a class has no mass or
        two classes share an ability."""
        slope, inter, _, x_tab = unpack(x)
        p = expit(slope * x_tab + inter)
        jac = np.zeros((k_v, bank.n_items, x.size))
        jac[:, slope_items, np.arange(n_slope)] = x_tab[:, slope_items]
        jac[:, free, inter_cols] = 1.0
        jac[np.arange(k_v)[:, None], np.arange(bank.n_items), ability_cols] = slope
        jac = jac.reshape(-1, x.size)
        return (jac.T @ (succ - total * p).reshape(-1),
                jac.T @ ((total * p * (1.0 - p)).reshape(-1, 1) * jac))

    x0 = np.concatenate([slope0[slope_items], inter0[free],
                         params.abilities.reshape(-1)])
    x = _damped_newton(value, derivatives, x0, controls.newton_max_iter,
                       "item-ability")
    slope, inter, abilities, _ = unpack(x)
    difficulty = np.where(is_free, -inter / slope, 0.0)
    return params.replace(difficulty=difficulty, discrimination=slope,
                          abilities=abilities)


# ---------------------------------------------------------------------------
# M-step blocks (b)/(c): weighted multinomial logistic regressions
# ---------------------------------------------------------------------------

def _mnlogit_logits(design, coef):
    """(N, K) category logits, 0 for category 0, and their log-sum-exp."""
    full = np.concatenate([np.zeros((design.shape[0], 1)), design @ coef.T], axis=1)
    return full, logsumexp_last(full)


def _mnlogit_value(design, weights, total_w, coef) -> float:
    """The block objective at ``coef``."""
    full, lse = _mnlogit_logits(design, coef)
    return float((weights[:, 1:] * full[:, 1:]).sum() - total_w @ lse)


def _maximize_weighted_mnlogit(design, weights, coef0, max_iter,
                               block: str) -> np.ndarray:
    """Damped Newton ascent for a weighted multinomial logit.

    ``design`` is (N, p), ``weights`` (N, K) nonnegative with fractional
    category masses, ``coef0`` (K-1, p); category 0 is the reference with
    all coefficients fixed to 0.
    """
    (n_cases, n_cat), n_feat = weights.shape, design.shape[1]
    if coef0.size == 0:
        return coef0
    total_w = weights[:, 0].copy()
    for k in range(1, n_cat):
        total_w += weights[:, k]

    def derivatives(coef):
        full, lse = _mnlogit_logits(design, coef)
        prob = np.exp(full[:, 1:] - lse[:, None])                # (N, K-1)
        wp = total_w[:, None] * prob
        grad = (weights[:, 1:] - wp).T @ design                  # (K-1, p)
        # Negative Hessian: block (a, b) is
        # sum_n wp[n, a] (delta_ab - prob[n, b]) d_n d_n'.  Row n of ``z``
        # holds prob[n, a] d_n for every a, and of ``wz`` wp[n, a] d_n.
        z = (prob[:, :, None] * design[:, None, :]).reshape(n_cases, -1)
        wz = (wp[:, :, None] * design[:, None, :]).reshape(n_cases, -1)
        info = -(wz.T @ z)
        diag = np.arange(n_cat - 1)
        info.reshape(n_cat - 1, n_feat, n_cat - 1, n_feat)[diag, :, diag] += (
            (design.T @ wz).reshape(n_feat, n_cat - 1, n_feat).transpose(1, 0, 2))
        return grad.reshape(-1), info

    return _damped_newton(lambda c: _mnlogit_value(design, weights, total_w, c),
                          derivatives, coef0, max_iter, block)


def _class_design_rows(x: np.ndarray, n_types: int) -> np.ndarray:
    """Design rows [type one-hot | student covariates], type-major order."""
    return np.hstack([np.repeat(np.eye(n_types), len(x), axis=0),
                      np.tile(x, (n_types, 1))])


def _class_block_cases(x_patterns: np.ndarray, x_index: np.ndarray,
                       joint: np.ndarray, n_types: int):
    """Cases and weights of the class-membership regression.

    ``joint`` (P, k_U, k_V) holds the posterior mass of the response
    patterns (``_pattern_mass``), and ``x_index`` each pattern's covariate
    pattern.  One case per (type, covariate pattern) cell, weighted by the
    sum of its patterns' masses; by linearity the objective is that of one
    case per (type, student).
    """
    n_pat, k_v = x_patterns.shape[0], joint.shape[2]
    weights = _sum_by(x_index, joint, n_pat)                # (X, k_U, k_V)
    return (_class_design_rows(x_patterns, n_types),
            weights.transpose(1, 0, 2).reshape(n_types * n_pat, k_v))


def _pattern_mass(data: ResponseDataset, posteriors: PosteriorTables) -> np.ndarray:
    """(P, k_U, k_V) posterior mass of each (pattern, type, class): its class
    posteriors given type u times the summed type-u posteriors of its
    students' schools."""
    patterns = data.patterns
    type_mass = _sum_by(patterns.index, np.repeat(posteriors.type_posterior,
                                                  data.sizes, axis=0),
                        patterns.n_patterns)                        # (P, k_U)
    return posteriors.cond_posterior * type_mass[:, :, None]


def _answer_counts(patterns: ResponsePatterns, mass: np.ndarray):
    """(k_V, r) posterior counts of right answers and of answers per
    (class, item), from the (P, k_U, k_V) posterior mass of the patterns."""
    class_mass = _sum_types(mass)                            # (P, k_V)
    succ = class_mass.T @ patterns.is_one
    return succ, succ + class_mass.T @ patterns.is_zero


def m_step(data: ResponseDataset, posteriors: PosteriorTables,
           params: ParameterSet, spec: ModelSpec,
           controls: FitControls | None = None) -> ParameterSet:
    """Maximize the expected complete log-likelihood given E-step posteriors.

    Never decreases any block objective relative to ``params``.
    """
    controls = controls or FitControls()
    mass = _pattern_mass(data, posteriors)
    succ, total = _answer_counts(data.patterns, mass)
    new_params = _maximize_item_block(succ, total, params, spec, controls)

    k_u, k_v = spec.n_types, spec.n_classes
    if k_v > 1:
        design, wts = _class_block_cases(data.x_patterns, data.patterns.x_index,
                                         mass, k_u)
        coef0 = np.hstack([params.class_intercepts.T, params.class_slopes])
        coef = _maximize_weighted_mnlogit(design, wts, coef0, controls.newton_max_iter,
                                          "class-membership")
        new_params = new_params.replace(class_intercepts=coef[:, :k_u].T.copy(),
                                        class_slopes=coef[:, k_u:].copy())
    if k_u > 1:
        design = np.hstack([np.ones((data.n_schools, 1)), data.school_covariates])
        coef0 = np.hstack([params.type_intercepts[:, None], params.type_slopes])
        coef = _maximize_weighted_mnlogit(design, posteriors.type_posterior, coef0,
                                          controls.newton_max_iter, "type-membership")
        new_params = new_params.replace(type_intercepts=coef[:, 0].copy(),
                                        type_slopes=coef[:, 1:].copy())
    return new_params


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _ability_grid(n_classes: int) -> np.ndarray:
    if n_classes == 1:
        return np.zeros(1)
    return np.linspace(-n_classes / 2.0, n_classes / 2.0, n_classes)


def initialize(data: ResponseDataset, spec: ModelSpec,
               seed: int | None = None) -> ParameterSet:
    """Starting values for the EM loop: deterministic, or random given a ``seed``.

    Under "2pl" and "1pl": difficulties are the negated empirical item
    logits (clamped to +-5 for items with 0% or 100% correct), re-anchored
    so each dimension's reference item sits at 0; discriminations 1;
    abilities an equally spaced grid spanning [-k_V/2, k_V/2] in every
    dimension.  Under "lc", the success table is the logistic curve of that
    grid minus the item logits.  Membership slopes start at 0.  Uniform
    noise is added to the abilities (+-1; under "lc", to the grid that sets
    the success table), the non-reference difficulties (+-0.5; under "lc",
    to the item logits) and the membership intercepts (+-1), drawn in that
    order from a generator seeded with ``seed``.  The deterministic start
    is the same recipe with zero noise.
    """
    bank = spec.item_bank
    # Sums of whole numbers, exact in floating point.
    n_correct, n_answered = _answer_counts(data.patterns,
                                           data.patterns.counts[:, None, None])
    phat = np.where(n_answered > 0, n_correct / np.maximum(n_answered, 1.0), 0.5)[0]
    with np.errstate(divide="ignore"):
        raw = -(np.log(phat) - np.log1p(-phat))
    raw = np.clip(raw, -5.0, 5.0)

    rng = None if seed is None else np.random.default_rng(seed)

    def noise(half_width, shape):
        return (np.zeros(shape) if seed is None
                else rng.uniform(-half_width, half_width, size=shape))

    k_v, k_u, n_items = spec.n_classes, spec.n_types, bank.n_items
    grid = _ability_grid(k_v)
    if spec.parameterization is Parameterization.LC:
        grid_pert = grid + noise(1.0, k_v)
        raw_pert = raw + noise(0.5, n_items)
        item_blocks = {"lc_success": np.clip(
            expit(grid_pert[:, None] - raw_pert[None, :]),
            _LC_PROB_FLOOR, 1.0 - _LC_PROB_FLOOR)}
    else:
        abilities = np.tile(grid[:, None], (1, bank.n_dims))
        item_blocks = {
            "abilities": abilities + noise(1.0, abilities.shape),
            "difficulty": (raw - raw[list(bank.reference_items)][bank.dim_index]
                           + np.where(bank.is_reference, 0.0, noise(0.5, n_items))),
            "discrimination": np.ones(n_items),
        }

    return ParameterSet(
        class_intercepts=noise(1.0, (k_u, k_v - 1)),
        class_slopes=np.zeros((k_v - 1, spec.n_student_covariates)),
        type_intercepts=noise(1.0, k_u - 1),
        type_slopes=np.zeros((k_u - 1, spec.n_school_covariates)),
        **item_blocks,
    )


# ---------------------------------------------------------------------------
# EM loop and multistart
# ---------------------------------------------------------------------------

def _raise_if_invalid(problems: list[str]) -> None:
    if problems:
        raise ValueError("invalid fit inputs: " + "; ".join(problems))


def _pack(params: ParameterSet) -> np.ndarray:
    """The blocks of ``params`` as one vector in ``PARAM_BLOCKS`` order,
    ``lc_success`` on the logit scale."""
    return np.concatenate([(logit(block) if name == "lc_success" else block).reshape(-1)
                           for name, block in params.blocks().items()])


def _unpack(x: np.ndarray, like: ParameterSet) -> ParameterSet:
    """The inverse of ``_pack``, shaped like ``like``."""
    blocks, start = {}, 0
    for name, block in like.blocks().items():
        blocks[name] = x[start:start + block.size].reshape(block.shape)
        start += block.size
    if "lc_success" in blocks:
        blocks["lc_success"] = np.clip(expit(blocks["lc_success"]),
                                       _LC_PROB_FLOOR, 1.0 - _LC_PROB_FLOOR)
    return like.replace(**blocks)


def _squarem_point(x0: np.ndarray, x1: np.ndarray,
                   x2: np.ndarray) -> np.ndarray | None:
    """The S3 extrapolation of two EM steps x0 -> x1 -> x2.

    With r = x1 - x0, v = x2 - 2 x1 + x0 and the step length
    alpha = min(-|r|/|v|, -1), the point is x0 - 2 alpha r + alpha^2 v
    (Varadhan and Roland 2008, Scand. J. Stat. 35).  Returns None when
    alpha = -1, where the point is x2 itself, or when the point is not
    finite.  Entries with r = v = 0 come back bitwise unchanged.
    """
    r = x1 - x0
    v = x2 - 2.0 * x1 + x0
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        return None
    alpha = min(-np.linalg.norm(r) / norm_v, -1.0)
    if alpha == -1.0:
        return None
    x = x0 - 2.0 * alpha * r + alpha * alpha * v
    return x if np.all(np.isfinite(x)) else None


def _end_cycle(data: ResponseDataset, spec: ModelSpec, theta0: ParameterSet,
               theta1: ParameterSet, theta2: ParameterSet, loglik1: float):
    """Where a SQUAREM cycle lands, with its log-likelihood and posteriors.

    The extrapolated point is kept when its log-likelihood is finite and
    no lower than at ``theta1``; otherwise, or when its E-step fails, the
    cycle lands on ``theta2``, the plain EM point.
    """
    # Extrapolated points can be extreme, so overflow there is expected:
    # the point is judged by its log-likelihood alone.
    with np.errstate(all="ignore"):
        x = _squarem_point(_pack(theta0), _pack(theta1), _pack(theta2))
        if x is not None:
            candidate = _unpack(x, theta2)
            try:
                loglik, posteriors = _e_step(data, candidate, spec)
            except NonFiniteLikelihoodError:
                pass
            else:
                if loglik >= loglik1:
                    return candidate, loglik, posteriors
                del posteriors
    return (theta2,) + _e_step(data, theta2, spec)


def fit(data: ResponseDataset, spec: ModelSpec, controls: FitControls,
        init: ParameterSet) -> FitResult:
    """Run EM from one starting point until convergence or the iteration cap.

    The loop is safeguarded SQUAREM: each cycle takes two EM steps
    theta0 -> theta1 -> theta2 and tries the extrapolation of
    ``_squarem_point`` along them, keeping it only if its log-likelihood
    is no lower than at theta1 and falling back to theta2 otherwise, so
    the trace is as monotone as plain EM's.  An accepted cycle costs two
    E-steps and two M-steps, as plain EM does.

    ``n_iter`` counts M-steps, at most ``controls.max_iter``.  ``trace``
    holds the starting log-likelihood and then one entry per M-step, at
    the point the loop moved to (an extrapolated point after the second
    step of an accepted cycle), so ``n_iter == len(trace) - 1``.
    Convergence holds when two consecutive trace entries differ by less
    than ``tol_loglik``, or when an M-step changes no parameter by
    ``tol_param`` or more.  Hitting the cap yields a result with
    ``converged=False`` rather than an error.
    """
    _raise_if_invalid(validate_params(init, spec) + validate_dataset(data, spec))
    params = init
    loglik, posteriors = _e_step(data, params, spec)
    trace = [loglik]
    cycle_start = None      # theta0 while the second step of a cycle is due
    while True:
        new_params = m_step(data, posteriors, params, spec, controls)
        # Released before the next E-step: a fit never holds two sets of
        # posterior tables at once.
        posteriors = None
        converged = max_abs_change(params, new_params) < controls.tol_param
        if converged or len(trace) == controls.max_iter:
            params = new_params
            trace.append(stacked_loglik_terms(data, params, spec)[0])
            break
        if cycle_start is None:
            cycle_start, params = params, new_params
            loglik, posteriors = _e_step(data, params, spec)
        else:
            params, loglik, posteriors = _end_cycle(
                data, spec, cycle_start, params, new_params, trace[-1])
            cycle_start = None
        trace.append(loglik)
        if abs(trace[-1] - trace[-2]) < controls.tol_loglik:
            converged = True
            break

    params = apply_identifiability(params, spec.item_bank)
    return FitResult(params=params, loglik=trace[-1], trace=tuple(trace),
                     n_iter=len(trace) - 1, converged=converged, start_index=0)


def _child_seed(base_seed: int, start_index: int) -> int:
    """A seed derived from (base_seed, start_index): the seed of a random
    start in ``multistart_fit`` and of a row in ``selection.sweep_school_types``."""
    return int(np.random.SeedSequence((base_seed, start_index)).generate_state(1)[0])


def _warn_if_unanchored(data: ResponseDataset, spec: ModelSpec) -> None:
    """Warn once, naming each reference item without a right or without a
    wrong answer: its logit is each class's ability, so the abilities and
    difficulties of its dimension have no finite maximum."""
    right, answered = _answer_counts(data.patterns, data.patterns.counts[:, None, None])
    unanchored = [f"reference item {j + 1} of dimension {d + 1} has no "
                  f"{'wrong' if right[0, j] else 'right'} answer"
                  for d, j in enumerate(spec.item_bank.reference_items)
                  if right[0, j] in (0, answered[0, j])]
    if unanchored and spec.parameterization is not Parameterization.LC:
        warnings.warn("; ".join(unanchored) + ", so the abilities and difficulties "
                      "of its dimension have no finite estimate", stacklevel=3)


def multistart_fit(data: ResponseDataset, spec: ModelSpec,
                   controls: FitControls) -> FitResult:
    """Best of one deterministic and n_starts - 1 random initializations.

    The winner has the highest final log-likelihood; ties within 1e-8 keep
    the earliest start.  Failed starts are collected, and only if every
    start fails is a ``MultistartError`` raised.
    """
    _raise_if_invalid(validate_dataset(data, spec))
    _warn_if_unanchored(data, spec)
    stack_dataset(data)
    best: FitResult | None = None
    failures: list[str] = []
    for start in range(controls.n_starts):
        init = initialize(data, spec,
                          None if start == 0 else _child_seed(controls.seed, start))
        try:
            result = fit(data, spec, controls, init)
        except (NonFiniteLikelihoodError, MStepError, FloatingPointError,
                np.linalg.LinAlgError) as exc:
            failures.append(f"start {start}: {exc}")
            continue
        result = dataclasses.replace(result, start_index=start)
        if best is None or result.loglik > best.loglik + 1e-8:
            best = result
    if best is None:
        raise MultistartError(failures)
    return best
