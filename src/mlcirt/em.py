"""EM estimation of the multilevel latent-class IRT model.

The E-step computes exact posteriors of the latent school types and
student classes in log space.  Students with the same responses and
covariate row (one response pattern of ``ResponseDataset.patterns``) share
their class posteriors given the type, so the E-step's tables and the
M-step's statistics are kept once per pattern; only the school's type
posterior differs between such students.  The M-step raises the
expected complete log-likelihood block by block:

(a) item/ability block: a posterior-weighted logistic regression over
    (class, item) cells.  The response logit is bilinear in the item
    parameters and the class abilities, so the block is not concave.
    Each step is a Newton step on all of its unknowns at once.  It uses
    the observed information (the exact negative Hessian) where that is
    positive definite, and otherwise the Fisher information, which is
    positive semi-definite everywhere.  The "lc" variant has the
    closed-form weighted proportion solution;
(b) class-membership block: a weighted multinomial logit on the rows of
    ``weights.class_design``, the joint (type, class) posteriors as weights;
(c) type-membership block: the same on ``weights.type_design`` and the type
    posteriors.  Both climb the log weights the E-step computes.

Each block supplies its objective, gradient and information matrix, and
the M-step takes one Newton step per block: ``_newton_step`` solves it
and halves it until the block objective does not fall, which keeps the EM
iteration monotone in the marginal log-likelihood.  That makes the fit a
generalized EM (Meng and Rubin 1993), and with the exact item-block
Hessian Lange's (1995) EM gradient algorithm, which converges locally at
the rate of EM.  The blocks are separate given the posteriors, so
repeating ``m_step`` on fixed posteriors runs every block to its maximum.

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

from ._numeric import expit, log_expit, logit
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
    check_integer,
    check_number,
    max_abs_change,
    validate_params,
)
from .weights import (class_blocks, class_coef, class_design, log_mnlogit,
                      type_blocks, type_coef, type_design)

_LC_PROB_FLOOR = 1e-8
_MAX_HALVINGS = 30
# ``tol_loglik`` of the short runs that rank a multistart's starts.
_SHORT_TOL = 1e-2


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
    """Stopping rules, iteration cap and starts of an EM fit.

    ``max_iter`` caps the M-steps of one fit.  A fit has converged once
    two consecutive log-likelihoods of its trace differ by less than
    ``tol_loglik``, or once an M-step changes no parameter by ``tol_param``
    or more.  ``multistart_fit`` runs ``n_starts`` starts, the random ones
    seeded from ``seed``.  With more than one start, each runs first with
    ``tol_loglik`` loosened to 1e-2 (``_SHORT_TOL``), and only the leader
    then runs under these controls; ``max_iter`` caps its two phases together.
    Construction raises ``ValueError`` naming a field of the wrong type or range.
    """

    max_iter: int = 5000
    tol_loglik: float = 1e-8
    tol_param: float = 1e-6
    n_starts: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iter", "n_starts", "seed"):
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
    """The log-likelihood and the posterior tables at ``params``, judged by
    their finiteness alone (floating-point warnings are off)."""
    with np.errstate(all="ignore"):
        loglik, evidence, school_ll, joint, log_mix = stacked_loglik_terms(
            data, params, spec)
        if not np.isfinite(loglik):
            raise NonFiniteLikelihoodError("log-likelihood is not finite at the "
                                           "current parameters")
        z_hu = np.exp(evidence - school_ll[:, None])                # (H, k_U)
        cond_post = np.exp(joint - log_mix[:, :, None])             # (P, k_U, k_V)
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
# The safeguarded Newton step shared by every M-step block
# ---------------------------------------------------------------------------

def _newton_step(value, derivatives, x, block: str):
    """One damped Newton step that raises ``value`` from ``x``.

    ``derivatives(x)`` returns the flattened gradient and the positive
    semi-definite information; the step solves ``info @ step = grad`` by LU,
    or by minimum-norm least squares where LU finds ``info`` singular (a
    class with no mass).  The step is halved until the objective is finite
    and no lower than at ``x`` (up to rounding), at most ``_MAX_HALVINGS``
    times; if none qualifies, ``x`` is returned, or ``MStepError`` raised
    when the last objective is not finite.  Floating-point warnings are
    off: an extreme trial point is judged by its objective alone.
    """
    with np.errstate(all="ignore"):
        f0 = value(x)
        grad, info = derivatives(x)
        try:
            step = np.linalg.solve(info, grad).reshape(x.shape)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, grad, rcond=None)[0].reshape(x.shape)
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            f1 = value(x + t * step)
            if np.isfinite(f1) and f1 >= f0 - 1e-12 * (1.0 + abs(f0)):
                return x + t * step
            t *= 0.5
    if not np.isfinite(f1):
        raise MStepError(block, "non-finite objective after step halving")
    return x


# ---------------------------------------------------------------------------
# M-step block (a): item parameters and class abilities
# ---------------------------------------------------------------------------

def _item_block_step(succ, total, params: ParameterSet, spec: ModelSpec) -> dict:
    """The new ``ParameterSet`` fields of block (a): one Newton step, or
    under "lc" the closed-form weighted proportions."""
    if spec.parameterization is Parameterization.LC:
        lc = np.where(total > 0, succ / np.maximum(total, 1e-300), params.lc_success)
        return {"lc_success": np.clip(lc, _LC_PROB_FLOOR, 1.0 - _LC_PROB_FLOOR)}

    bank = spec.item_bank
    dim_idx = bank.dim_index
    is_free = ~bank.is_reference
    free = np.flatnonzero(is_free)
    two_pl = spec.parameterization is Parameterization.TWO_PL
    slope_items = free if two_pl else free[:0]
    n_free, n_slope = free.size, slope_items.size
    k_v, n_dims = params.abilities.shape
    # Unknowns, packed: free slopes (2PL only), free intercepts, abilities.
    # Cell (v, j) has the logit slope_j * ability[v, d(j)] + inter_j.  The
    # reference items are never unknowns: they keep difficulty 0 and
    # discrimination 1 at every step, so the scale is pinned without a final map.
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
        """The gradient J'resid and the observed information, the negative
        Hessian J'diag(total p (1-p))J - C - C' (the Fisher information
        less C and its transpose), where C holds each cell's residual
        succ - total p at its (slope, ability) pair, the one second
        derivative of the bilinear logit.
        Where the observed information is not positive definite (or not
        finite), the Fisher information: positive semi-definite everywhere,
        and singular where a class has no mass or two classes share an
        ability.  Under 1PL, C is empty and the two coincide."""
        slope, inter, _, x_tab = unpack(x)
        p = expit(slope * x_tab + inter)
        resid = succ - total * p
        jac = np.zeros((k_v, bank.n_items, x.size))
        jac[:, slope_items, np.arange(n_slope)] = x_tab[:, slope_items]
        jac[:, free, inter_cols] = 1.0
        jac[np.arange(k_v)[:, None], np.arange(bank.n_items), ability_cols] = slope
        jac = jac.reshape(-1, x.size)
        fisher = jac.T @ ((total * p * (1.0 - p)).reshape(-1, 1) * jac)
        grad = jac.T @ resid.reshape(-1)
        cross = np.zeros_like(fisher)
        cross[np.arange(n_slope), ability_cols[:, slope_items]] = resid[:, slope_items]
        observed = fisher - cross - cross.T
        if np.all(np.isfinite(observed)):
            try:
                np.linalg.cholesky(observed)
                return grad, observed
            except np.linalg.LinAlgError:
                pass
        return grad, fisher

    x0 = np.concatenate([slope0[slope_items], inter0[free],
                         params.abilities.reshape(-1)])
    x = _newton_step(value, derivatives, x0, "item-ability")
    slope, inter, abilities, _ = unpack(x)
    return {"difficulty": np.where(is_free, -inter / slope, 0.0),
            "discrimination": slope, "abilities": abilities}


# ---------------------------------------------------------------------------
# M-step blocks (b)/(c): weighted multinomial logistic regressions
# ---------------------------------------------------------------------------

def _mnlogit_step(design, weights, coef0, block: str) -> np.ndarray:
    """One damped Newton step up the weighted multinomial logit of
    ``weights.log_mnlogit``: (N, p) ``design``, (N, K) nonnegative
    ``weights`` (fractional category masses), (K-1, p) ``coef0``."""
    (n_cases, n_cat), n_feat = weights.shape, design.shape[1]
    total_w = weights[:, 0].copy()
    for k in range(1, n_cat):
        total_w += weights[:, k]

    def value(coef):
        return float((weights * log_mnlogit(design, coef)).sum())

    def derivatives(coef):
        prob = np.exp(log_mnlogit(design, coef)[:, 1:])          # (N, K-1)
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

    return _newton_step(value, derivatives, coef0, block)


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
    return (class_design(x_patterns, n_types),
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
    """Raise the expected complete log-likelihood given E-step posteriors.

    Each block takes one damped Newton step from ``params``, which raises
    its objective or leaves it where it was.  Given the posteriors the
    block objectives are separate, so repeating ``m_step`` on fixed
    posteriors reaches each block's maximum.  ``controls`` is unused:
    nothing in an M-step is configurable, and the argument is kept only
    for callers that still pass a fit's controls (``perfbench/run.py``).
    """
    mass = _pattern_mass(data, posteriors)
    succ, total = _answer_counts(data.patterns, mass)
    fields = _item_block_step(succ, total, params, spec)

    k_u, k_v = spec.n_types, spec.n_classes
    if k_v > 1:
        design, wts = _class_block_cases(data.x_patterns, data.patterns.x_index,
                                         mass, k_u)
        coef = _mnlogit_step(design, wts, class_coef(params), "class-membership")
        fields.update(class_blocks(coef, k_u))
    if k_u > 1:
        coef = _mnlogit_step(type_design(data.school_covariates),
                             posteriors.type_posterior, type_coef(params),
                             "type-membership")
        fields.update(type_blocks(coef))
    return params.replace(**fields)


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

    ``init`` must pass ``validate_params``.  No step moves a reference
    item, so ``params`` is the point the loop stopped at, as is, and
    passes ``validate_params`` too.
    """
    _raise_if_invalid(validate_params(init, spec) + validate_dataset(data, spec))
    params = init
    loglik, posteriors = _e_step(data, params, spec)
    trace = [loglik]
    cycle_start = None      # theta0 while the second step of a cycle is due
    while True:
        new_params = m_step(data, posteriors, params, spec)
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

    return FitResult(params=params, loglik=trace[-1], trace=tuple(trace),
                     n_iter=len(trace) - 1, converged=converged, start_index=0)


# What makes one EM run fail without failing the others of a multistart.
_FIT_ERRORS = (NonFiniteLikelihoodError, MStepError, FloatingPointError,
               np.linalg.LinAlgError)


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


def _leader(runs: list[FitResult]) -> FitResult:
    """The run with the highest log-likelihood; ties within 1e-8 keep the
    earliest in ``runs``."""
    best = runs[0]
    for run in runs[1:]:
        if run.loglik > best.loglik + 1e-8:
            best = run
    return best


def multistart_fit(data: ResponseDataset, spec: ModelSpec,
                   controls: FitControls) -> FitResult:
    """Best of one deterministic and n_starts - 1 random initializations,
    by em-EM (Biernacki, Celeux and Govaert 2003, CSDA 41).

    Short phase: every start runs ``fit`` with ``tol_loglik`` loosened to
    ``_SHORT_TOL`` (or kept, if it is looser).  The leader is the short run
    with the highest log-likelihood; ties within 1e-8 keep the earliest
    start.  Only the leader continues, from its short-run point, under
    ``controls`` with the M-steps it has left of ``max_iter``.  The result
    keeps the leader's ``start_index``, and its trace is both phases
    joined, so ``n_iter == len(trace) - 1`` still holds.  With one start
    there is nothing to rank: the start runs once under ``controls``.

    Failed runs are collected: a leader that fails while it continues
    hands over to the next-ranked short run, and only if no start finishes
    is a ``MultistartError`` raised.
    """
    _raise_if_invalid(validate_dataset(data, spec))
    _warn_if_unanchored(data, spec)
    stack_dataset(data)
    short_controls = (controls if controls.n_starts == 1 else
                      controls.replace(tol_loglik=max(_SHORT_TOL, controls.tol_loglik)))
    runs: list[FitResult] = []
    failures: list[str] = []
    for start in range(controls.n_starts):
        init = initialize(data, spec,
                          None if start == 0 else _child_seed(controls.seed, start))
        try:
            result = fit(data, spec, short_controls, init)
        except _FIT_ERRORS as exc:
            failures.append(f"start {start}: {exc}")
            continue
        runs.append(dataclasses.replace(result, start_index=start))
    while runs:
        short = _leader(runs)
        runs.remove(short)
        if short_controls == controls or short.n_iter == controls.max_iter:
            return short
        try:
            more = fit(data, spec,
                       controls.replace(max_iter=controls.max_iter - short.n_iter),
                       short.params)
        except _FIT_ERRORS as exc:
            failures.append(f"start {short.start_index}: {exc}")
            continue
        return dataclasses.replace(more, trace=short.trace + more.trace[1:],
                                   n_iter=short.n_iter + more.n_iter,
                                   start_index=short.start_index)
    raise MultistartError(failures)
