"""EM estimation of the multilevel latent-class IRT model.

The E-step computes exact posteriors of the latent school types and
student classes in log space.  The M-step maximizes the expected complete
log-likelihood block by block:

(a) item/ability block: a posterior-weighted logistic regression over
    (class, item) cells, alternating one damped Newton pass on the item
    parameters with one on the class abilities (the response logit is
    bilinear in discrimination and ability, so each pass is a standard
    concave subproblem); the "lc" variant has the closed-form weighted
    proportion solution;
(b) class-membership block: a weighted multinomial logistic regression
    with the joint (type, class) posteriors as case weights;
(c) type-membership block: the same solver with the school-type
    posteriors as case weights.

Every Newton step is safeguarded by step halving on the block objective,
which keeps the EM iteration monotone in the marginal log-likelihood.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ._numeric import logsumexp_last
from .data import ResponseDataset, validate_dataset
from .likelihood import (
    NonFiniteLikelihoodError,
    StackedData,
    response_logprob_tables,
    stack_dataset,
    stacked_loglik_terms,
)
from .model import (
    ModelSpec,
    ParameterSet,
    Parameterization,
    apply_identifiability,
    max_abs_change,
    validate_params,
    validate_spec,
)

_LC_PROB_FLOOR = 1e-8
_MAX_HALVINGS = 30


class MStepError(RuntimeError):
    """A Newton block produced a non-finite objective after step halving."""

    def __init__(self, block: str, message: str):
        super().__init__(f"[{block}] {message}")
        self.block = block


class MultistartError(RuntimeError):
    """Every initialization of a multistart fit failed."""

    def __init__(self, failures: list[str]):
        super().__init__("all starts failed:\n" + "\n".join(failures))
        self.failures = tuple(failures)


@dataclass(frozen=True, eq=False)
class PosteriorTables:
    """E-step posteriors, with students in dataset order.

    - ``type_posterior``: (H, k_U), rows sum to 1
    - ``joint_posterior``: (n, k_U, k_V); each student's slice sums to 1
      overall and, along the class axis, to its school's type posterior
    - ``class_posterior``: (n, k_V), the joint summed over types
    """

    type_posterior: np.ndarray
    joint_posterior: np.ndarray
    class_posterior: np.ndarray


@dataclass(frozen=True)
class FitControls:
    """Stopping rules and iteration caps for the EM loop."""

    max_iter: int = 5000
    tol_loglik: float = 1e-8
    tol_param: float = 1e-6
    newton_max_iter: int = 50
    newton_tol: float = 1e-9
    n_starts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_loglik <= 0 or self.tol_param <= 0 or self.newton_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")

    def replace(self, **changes) -> "FitControls":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one EM run (or the best of a multistart)."""

    params: ParameterSet
    loglik: float
    trace: tuple[float, ...]
    n_iter: int
    converged: bool
    start_index: int = 0


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def _e_step_stacked(stacked: StackedData, params: ParameterSet,
                    spec: ModelSpec) -> tuple[float, PosteriorTables]:
    loglik, evidence, school_ll, joint, log_mix = stacked_loglik_terms(
        stacked, params, spec)
    if not np.isfinite(loglik):
        raise NonFiniteLikelihoodError("log-likelihood is not finite at the "
                                       "current parameters")
    z_hu = np.exp(evidence - school_ll[:, None])                    # (H, k_U)
    cond_post = np.exp(joint - log_mix[:, :, None])                 # (n, k_U, k_V)
    z_joint = cond_post * np.repeat(z_hu, stacked.sizes, axis=0)[:, :, None]
    # Sum over types slice by slice: same order as numpy's sum over a
    # short axis, at a fraction of the cost (see ``logsumexp_last``).
    z_class = z_joint[:, 0, :].copy()                               # (n, k_V)
    for u in range(1, z_joint.shape[1]):
        z_class += z_joint[:, u, :]
    if not (np.all(np.isfinite(z_hu)) and np.all(np.isfinite(z_joint))):
        raise NonFiniteLikelihoodError("posterior tables are not finite")
    return loglik, PosteriorTables(z_hu, z_joint, z_class)


def e_step(data: ResponseDataset, params: ParameterSet,
           spec: ModelSpec) -> PosteriorTables:
    """Posterior tables of the latent indicators given data and parameters."""
    return _e_step_stacked(stack_dataset(data), params, spec)[1]


# ---------------------------------------------------------------------------
# M-step block (a): item parameters and class abilities
# ---------------------------------------------------------------------------

def _bernoulli_logit_value(succ, total, z):
    """sum of succ*log(sigmoid(z)) + (total-succ)*log(sigmoid(-z)), stable."""
    return succ * (-np.logaddexp(0.0, -z)) + (total - succ) * (-np.logaddexp(0.0, z))


def _item_block_value(succ, total, params: ParameterSet, spec: ModelSpec) -> float:
    """Expected complete log-likelihood of the item/ability block."""
    logp0, logp1 = response_logprob_tables(params, spec)
    return float((succ * logp1 + (total - succ) * logp0).sum())


def _halving_mask_update(f0, f1, active):
    """Items/cells whose damped step still decreases their objective."""
    slack = 1e-12 * (1.0 + np.abs(f0))
    return active & (~np.isfinite(f1) | (f1 < f0 - slack))


def _item_pass(succ, total, x_tab, slope, inter, free, two_pl: bool):
    """One damped Newton pass on the per-item slope/intercept (slope fixed
    to 1 under the Rasch variant).  Works on the (slope, intercept) scale
    where the logit z = slope * ability + intercept is linear."""
    z = slope[None, :] * x_tab + inter[None, :]
    p = expit(z)
    resid = succ - total * p
    wgt = total * p * (1.0 - p)
    g_c = resid.sum(axis=0)
    h_cc = wgt.sum(axis=0)
    d_slope = np.zeros_like(slope)
    d_inter = np.zeros_like(inter)
    if two_pl:
        g_a = (resid * x_tab).sum(axis=0)
        h_aa = (wgt * x_tab ** 2).sum(axis=0)
        h_ac = (wgt * x_tab).sum(axis=0)
        det = h_aa * h_cc - h_ac ** 2
        ok = free & (det > 1e-300)
        d_slope[ok] = (h_cc[ok] * g_a[ok] - h_ac[ok] * g_c[ok]) / det[ok]
        d_inter[ok] = (h_aa[ok] * g_c[ok] - h_ac[ok] * g_a[ok]) / det[ok]
    else:
        ok = free & (h_cc > 1e-300)
        d_inter[ok] = g_c[ok] / h_cc[ok]

    f0 = _bernoulli_logit_value(succ, total, z).sum(axis=0)
    t = np.where(ok, 1.0, 0.0)
    for _ in range(_MAX_HALVINGS + 1):
        z1 = (slope + t * d_slope)[None, :] * x_tab + (inter + t * d_inter)[None, :]
        f1 = _bernoulli_logit_value(succ, total, z1).sum(axis=0)
        need = _halving_mask_update(f0, f1, t > 0)
        if not need.any():
            break
        t[need] *= 0.5
    else:
        t[need] = 0.0
    return slope + t * d_slope, inter + t * d_inter


def _ability_pass(succ, total, slope, inter, abilities, dim_onehot, dim_idx):
    """One damped Newton pass on every (class, dimension) ability cell."""
    x_tab = abilities[:, dim_idx]
    z = slope[None, :] * x_tab + inter[None, :]
    p = expit(z)
    resid = succ - total * p
    wgt = total * p * (1.0 - p)
    grad = (resid * slope[None, :]) @ dim_onehot            # (k_V, s)
    hess = (wgt * slope[None, :] ** 2) @ dim_onehot
    step = np.where(hess > 1e-300, grad / np.where(hess > 0, hess, 1.0), 0.0)

    f0 = _bernoulli_logit_value(succ, total, z) @ dim_onehot
    t = np.where(step != 0.0, 1.0, 0.0)
    for _ in range(_MAX_HALVINGS + 1):
        abil1 = abilities + t * step
        z1 = slope[None, :] * abil1[:, dim_idx] + inter[None, :]
        f1 = _bernoulli_logit_value(succ, total, z1) @ dim_onehot
        need = _halving_mask_update(f0, f1, t > 0)
        if not need.any():
            break
        t[need] *= 0.5
    else:
        t[need] = 0.0
    return abilities + t * step


def _maximize_item_block(succ, total, params: ParameterSet, spec: ModelSpec,
                         controls: FitControls) -> ParameterSet:
    if spec.parameterization is Parameterization.LC:
        denom = np.maximum(total, 1e-300)
        lc = np.where(total > 0, succ / denom, params.lc_success)
        lc = np.clip(lc, _LC_PROB_FLOOR, 1.0 - _LC_PROB_FLOOR)
        return params.replace(lc_success=lc)

    bank = spec.item_bank
    dim_idx = bank.dim_index
    dim_onehot = np.zeros((bank.n_items, bank.n_dims))
    dim_onehot[np.arange(bank.n_items), dim_idx] = 1.0
    free = ~bank.is_reference
    two_pl = spec.parameterization is Parameterization.TWO_PL

    slope = params.discrimination.copy()
    inter = -slope * params.difficulty
    abilities = params.abilities.copy()
    f_prev = float(_bernoulli_logit_value(
        succ, total, slope[None, :] * abilities[:, dim_idx] + inter[None, :]).sum())
    for _ in range(controls.newton_max_iter):
        x_tab = abilities[:, dim_idx]
        new_slope, new_inter = _item_pass(succ, total, x_tab, slope, inter,
                                          free, two_pl)
        # A discrimination collapsing to 0 leaves the difficulty -c/a
        # unidentified; keep the previous iterate for such items.
        collapsed = free & (np.abs(new_slope) < 1e-8)
        new_slope[collapsed] = slope[collapsed]
        new_inter[collapsed] = inter[collapsed]
        delta = max(np.max(np.abs(new_slope - slope)),
                    np.max(np.abs(new_inter - inter)))
        slope, inter = new_slope, new_inter

        new_abilities = _ability_pass(succ, total, slope, inter, abilities,
                                      dim_onehot, dim_idx)
        if new_abilities.size:
            delta = max(delta, np.max(np.abs(new_abilities - abilities)))
        abilities = new_abilities
        if delta < controls.newton_tol:
            break
        # Alternation converges linearly; stop once the objective stalls
        # (parameters can still creep along a flat ridge).
        f_now = float(_bernoulli_logit_value(
            succ, total, slope[None, :] * abilities[:, dim_idx] + inter[None, :]).sum())
        if f_now - f_prev < 1e-11 * (1.0 + abs(f_prev)):
            break
        f_prev = f_now

    safe_slope = np.where(slope == 0.0, 1.0, slope)
    difficulty = np.where(free, -inter / safe_slope, 0.0)
    value = _item_block_value(succ, total,
                              params.replace(difficulty=difficulty,
                                             discrimination=slope,
                                             abilities=abilities), spec)
    if not np.isfinite(value):
        raise MStepError("item-ability", "non-finite objective after step halving")
    return params.replace(difficulty=difficulty, discrimination=slope,
                          abilities=abilities)


# ---------------------------------------------------------------------------
# M-step blocks (b)/(c): weighted multinomial logistic regressions
# ---------------------------------------------------------------------------

def _mnlogit_value(design, weights, total_w, coef) -> float:
    logits = design @ coef.T                                 # (N, K-1)
    full = np.concatenate([np.zeros((design.shape[0], 1)), logits], axis=1)
    lse = logsumexp_last(full)
    return float((weights[:, 1:] * logits).sum() - total_w @ lse)


def _maximize_weighted_mnlogit(design, weights, coef0, tol, max_iter,
                               block: str) -> np.ndarray:
    """Damped Newton ascent for a weighted multinomial logit.

    ``design`` is (N, p), ``weights`` (N, K) nonnegative with fractional
    category masses, ``coef0`` (K-1, p); category 0 is the reference with
    all coefficients fixed to 0.
    """
    n_cases, n_cat = weights.shape
    n_feat = design.shape[1]
    coef = np.array(coef0, dtype=float)
    if n_cat == 1 or n_feat == 0 or coef.size == 0:
        return coef
    total_w = weights[:, 0].copy()
    for k in range(1, n_cat):
        total_w += weights[:, k]
    f0 = _mnlogit_value(design, weights, total_w, coef)
    for _ in range(max_iter):
        logits = design @ coef.T
        full = np.concatenate([np.zeros((n_cases, 1)), logits], axis=1)
        lse = logsumexp_last(full)
        prob = np.exp(full - lse[:, None])                   # (N, K)
        resid = weights[:, 1:] - total_w[:, None] * prob[:, 1:]
        grad = resid.T @ design                              # (K-1, p)
        wp = total_w[:, None] * prob[:, 1:]                  # (N, K-1)
        # Negative Hessian, assembled blockwise from BLAS products:
        # block (a, b) = sum_n wp[n, a] (delta_ab - prob[n, 1+b]) d_n d_n'.
        dim = (n_cat - 1) * n_feat
        curv_mat = np.empty((dim, dim))
        for a in range(n_cat - 1):
            da = design * wp[:, [a]]
            for b in range(n_cat - 1):
                block = -(da * prob[:, [1 + b]]).T @ design
                if a == b:
                    block += da.T @ design
                curv_mat[a * n_feat:(a + 1) * n_feat,
                         b * n_feat:(b + 1) * n_feat] = block
        g = grad.reshape(-1)
        try:
            step = np.linalg.solve(curv_mat, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(curv_mat, g, rcond=None)[0]
        step = step.reshape(n_cat - 1, n_feat)

        t = 1.0
        f1 = -np.inf
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            cand = coef + t * step
            f1 = _mnlogit_value(design, weights, total_w, cand)
            if np.isfinite(f1) and f1 >= f0 - 1e-12 * (1.0 + abs(f0)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if not np.isfinite(f1):
                raise MStepError(block, "non-finite objective after step halving")
            break
        delta = float(np.max(np.abs(t * step)))
        coef = coef + t * step
        f0 = f1
        if delta < tol:
            break
    return coef


def _class_design_rows(x: np.ndarray, n_types: int) -> np.ndarray:
    """Design rows [type one-hot | student covariates], type-major order."""
    n, m_v = x.shape
    design = np.zeros((n_types * n, n_types + m_v))
    for u in range(n_types):
        design[u * n:(u + 1) * n, u] = 1.0
        design[u * n:(u + 1) * n, n_types:] = x
    return design


def _class_block_cases(stacked: StackedData, z_joint: np.ndarray, n_types: int):
    """Cases and weights of the class-membership regression.

    When the distinct student covariate patterns are few, cases sharing a
    (type, pattern) cell are merged by summing their weights; the
    objective is unchanged by linearity.
    """
    k_v = z_joint.shape[2]
    if stacked.x_patterns is not None:
        n_pat = stacked.x_patterns.shape[0]
        agg = np.empty((n_types, n_pat, k_v))
        for u in range(n_types):
            for v in range(k_v):
                agg[u, :, v] = np.bincount(stacked.x_pattern_index,
                                           weights=z_joint[:, u, v],
                                           minlength=n_pat)
        weights = agg.reshape(n_types * n_pat, k_v)
        design = _class_design_rows(stacked.x_patterns, n_types)
    else:
        weights = z_joint.transpose(1, 0, 2).reshape(
            n_types * stacked.n_students, k_v)
        design = _class_design_rows(stacked.x, n_types)
    return design, weights


def _m_step_stacked(stacked: StackedData, posteriors: PosteriorTables,
                    params: ParameterSet, spec: ModelSpec,
                    controls: FitControls) -> ParameterSet:
    z_class = posteriors.class_posterior
    answered = stacked.is_one + stacked.is_zero
    succ = z_class.T @ stacked.is_one                        # (k_V, r)
    total = z_class.T @ answered
    new_params = _maximize_item_block(succ, total, params, spec, controls)

    k_u, k_v = spec.n_types, spec.n_classes
    if k_v > 1:
        design, wts = _class_block_cases(stacked, posteriors.joint_posterior, k_u)
        coef0 = np.hstack([params.class_intercepts.T, params.class_slopes])
        coef = _maximize_weighted_mnlogit(design, wts, coef0, controls.newton_tol,
                                          controls.newton_max_iter,
                                          "class-membership")
        new_params = new_params.replace(class_intercepts=coef[:, :k_u].T.copy(),
                                        class_slopes=coef[:, k_u:].copy())
    if k_u > 1:
        design = np.hstack([np.ones((stacked.w.shape[0], 1)), stacked.w])
        coef0 = np.hstack([params.type_intercepts[:, None], params.type_slopes])
        coef = _maximize_weighted_mnlogit(design, posteriors.type_posterior, coef0,
                                          controls.newton_tol,
                                          controls.newton_max_iter,
                                          "type-membership")
        new_params = new_params.replace(type_intercepts=coef[:, 0].copy(),
                                        type_slopes=coef[:, 1:].copy())
    return new_params


def m_step(data: ResponseDataset, posteriors: PosteriorTables,
           params: ParameterSet, spec: ModelSpec,
           controls: FitControls | None = None) -> ParameterSet:
    """Maximize the expected complete log-likelihood given E-step posteriors.

    Never decreases any block objective relative to ``params``.
    """
    return _m_step_stacked(stack_dataset(data), posteriors, params, spec,
                           controls or FitControls())


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _ability_grid(n_classes: int) -> np.ndarray:
    if n_classes == 1:
        return np.zeros(1)
    return np.linspace(-n_classes / 2.0, n_classes / 2.0, n_classes)


def initialize(data: ResponseDataset, spec: ModelSpec,
               strategy: str = "deterministic",
               seed: int | None = None) -> ParameterSet:
    """Starting values for the EM loop.

    Deterministic: difficulties are the negated empirical item logits
    (clamped to +-5 for items with 0% or 100% correct), re-anchored so each
    dimension's reference item sits at 0; discriminations 1; abilities an
    equally spaced grid spanning [-k_V/2, k_V/2] in every dimension; all
    membership coefficients 0.

    Random: the deterministic values plus uniform perturbations (abilities
    +-1, non-reference difficulties +-0.5, membership intercepts +-1) drawn
    in that order from a generator seeded with ``seed``.
    """
    if strategy not in ("deterministic", "random"):
        raise ValueError(f"unknown initialization strategy {strategy!r}")
    bank = spec.item_bank
    responses = data.responses
    n_correct = (responses == 1).sum(axis=0).astype(float)
    n_answered = ((responses == 0) | (responses == 1)).sum(axis=0).astype(float)
    phat = np.where(n_answered > 0, n_correct / np.maximum(n_answered, 1.0), 0.5)
    with np.errstate(divide="ignore"):
        raw = -(np.log(phat) - np.log1p(-phat))
    raw = np.clip(raw, -5.0, 5.0)

    rng = np.random.default_rng(seed) if strategy == "random" else None
    grid = _ability_grid(spec.n_classes)

    if spec.parameterization is Parameterization.LC:
        grid_pert = grid.copy()
        beta_pert = raw.copy()
        if rng is not None:
            grid_pert = grid_pert + rng.uniform(-1.0, 1.0, size=spec.n_classes)
            beta_pert = beta_pert + rng.uniform(-0.5, 0.5, size=bank.n_items)
        lc = expit(grid_pert[:, None] - beta_pert[None, :])
        lc = np.clip(lc, _LC_PROB_FLOOR, 1.0 - _LC_PROB_FLOOR)
        difficulty = np.zeros(bank.n_items)
        discrimination = np.ones(bank.n_items)
        abilities = np.tile(grid[:, None], (1, bank.n_dims))
    else:
        lc = None
        abilities = np.tile(grid[:, None], (1, bank.n_dims))
        difficulty = raw.copy()
        for d in range(bank.n_dims):
            members = bank.items_in_dim(d)
            difficulty[members] -= raw[bank.reference_items[d]]
        if rng is not None:
            abilities = abilities + rng.uniform(-1.0, 1.0,
                                                size=(spec.n_classes, bank.n_dims))
            beta_noise = rng.uniform(-0.5, 0.5, size=bank.n_items)
            beta_noise[list(bank.reference_items)] = 0.0
            difficulty = difficulty + beta_noise
        discrimination = np.ones(bank.n_items)

    class_intercepts = np.zeros((spec.n_types, spec.n_classes - 1))
    type_intercepts = np.zeros(spec.n_types - 1)
    if rng is not None:
        class_intercepts = class_intercepts + rng.uniform(
            -1.0, 1.0, size=class_intercepts.shape)
        type_intercepts = type_intercepts + rng.uniform(
            -1.0, 1.0, size=type_intercepts.shape)

    return ParameterSet(
        difficulty=difficulty,
        discrimination=discrimination,
        abilities=abilities,
        class_intercepts=class_intercepts,
        class_slopes=np.zeros((spec.n_classes - 1, spec.n_student_covariates)),
        type_intercepts=type_intercepts,
        type_slopes=np.zeros((spec.n_types - 1, spec.n_school_covariates)),
        lc_success=lc,
    )


# ---------------------------------------------------------------------------
# EM loop and multistart
# ---------------------------------------------------------------------------

def _raise_if_invalid(problems: list[str]) -> None:
    if problems:
        raise ValueError("invalid fit inputs:\n" + "\n".join(problems))


def fit(data: ResponseDataset, spec: ModelSpec, controls: FitControls,
        init: ParameterSet) -> FitResult:
    """Run EM from one starting point until convergence or the iteration cap.

    Convergence holds when either the log-likelihood change or the largest
    parameter change drops below its tolerance.  Hitting the cap yields a
    result with ``converged=False`` rather than an error.
    """
    _raise_if_invalid(validate_spec(spec) + validate_dataset(data, spec)
                      + validate_params(init, spec))
    stacked = stack_dataset(data)
    params = init
    trace: list[float] = []
    converged = False
    for iteration in range(controls.max_iter):
        loglik, posteriors = _e_step_stacked(stacked, params, spec)
        trace.append(loglik)
        if iteration > 0 and abs(trace[-1] - trace[-2]) < controls.tol_loglik:
            converged = True
            break
        new_params = _m_step_stacked(stacked, posteriors, params, spec, controls)
        delta = max_abs_change(params, new_params)
        params = new_params
        if delta < controls.tol_param:
            converged = True
            trace.append(stacked_loglik_terms(stacked, params, spec)[0])
            break
    else:
        trace.append(stacked_loglik_terms(stacked, params, spec)[0])

    params = apply_identifiability(params, spec.item_bank)
    return FitResult(params=params, loglik=trace[-1], trace=tuple(trace),
                     n_iter=len(trace) - 1, converged=converged, start_index=0)


def _child_seed(base_seed: int, start_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, start_index)).generate_state(1)[0])


def multistart_fit(data: ResponseDataset, spec: ModelSpec,
                   controls: FitControls) -> FitResult:
    """Best of one deterministic and n_starts - 1 random initializations.

    The winner has the highest final log-likelihood; ties within 1e-8 keep
    the earliest start.  Failed starts are collected, and only if every
    start fails is a ``MultistartError`` raised.
    """
    _raise_if_invalid(validate_spec(spec) + validate_dataset(data, spec))
    best: FitResult | None = None
    failures: list[str] = []
    for start in range(controls.n_starts):
        if start == 0:
            init = initialize(data, spec, "deterministic")
        else:
            init = initialize(data, spec, "random",
                              seed=_child_seed(controls.seed, start))
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
