"""Synthetic data generation and parameter-recovery scoring.

Generation follows the model's own sampling story: per school, draw school
covariates and a latent type; per student, draw covariates, a latent class
given the type, and item responses given the class.  Each school uses an
independent substream seeded by (seed, school index), so datasets are
reproducible bit for bit regardless of how generation is parallelized.
A simulated dataset holds numbers only: categorical covariates are drawn
as levels and kept as indicator columns, and ``io.write_dataset_files``
turns the columns back into CSV tokens through covariate declarations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import MISSING, ResponseDataset
from .likelihood import marginal_loglik, success_prob_table
from .model import (
    ItemBank,
    ModelSpec,
    ParameterSet,
    Parameterization,
    check_integer,
    check_number,
    validate_params,
)
from .selection import assign_schools, assign_students
from .weights import log_class_weight_matrix, log_type_weight_matrix

_MAX_EXHAUSTIVE = 8


# ---------------------------------------------------------------------------
# Covariate generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoricalCovariate:
    """Categorical covariate with given level probabilities.

    Level 0 is the reference; the expanded representation is one indicator
    column per non-reference level.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(check_number(v, "probs entry")) for v in self.probs)
        if (len(p) < 2 or not np.isfinite(p).all() or min(p) < 0
                or abs(sum(p) - 1.0) > 1e-9):
            raise ValueError("level probabilities must be finite, >= 0 and sum to 1, "
                             f"got {list(p)}")
        object.__setattr__(self, "probs", p)

    @property
    def n_columns(self) -> int:
        return len(self.probs) - 1

    def draw_levels(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cum = np.cumsum(self.probs)
        return np.searchsorted(cum, rng.random(size), side="right")

    def expand(self, levels: np.ndarray) -> np.ndarray:
        out = np.zeros((len(levels), self.n_columns))
        for col in range(self.n_columns):
            out[:, col] = levels == col + 1
        return out


@dataclass(frozen=True)
class CyclicCovariate:
    """Fixed design column: values assigned cyclically in draw order."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(check_number(v, "values entry")) for v in self.values)
        if not values or not np.isfinite(values).all():
            raise ValueError("cyclic covariates need at least one value, all "
                             f"finite, got {list(values)}")
        object.__setattr__(self, "values", values)

    @property
    def n_columns(self) -> int:
        return 1

    def assign(self, start: int, size: int) -> np.ndarray:
        reps = [self.values[(start + t) % len(self.values)] for t in range(size)]
        return np.asarray(reps)


def covariate_width(generators) -> int:
    return sum(g.n_columns for g in generators)


@dataclass(frozen=True)
class SimulationDesign:
    """Everything needed to draw a synthetic hierarchical dataset, checked on
    construction."""

    spec: ModelSpec
    truth: ParameterSet
    n_schools: int
    school_size: int | tuple[int, int]
    student_covariates: tuple = ()
    school_covariates: tuple = ()
    seed: int = 0
    missing_rate: float = 0.0

    def __post_init__(self):
        check_integer(self.n_schools, "n_schools", 1)
        check_integer(self.seed, "seed", 0)
        size = self.school_size
        bounds = size if isinstance(size, tuple) else (size, size)
        for b in bounds:
            check_integer(b, "school_size")
        if len(bounds) != 2 or not 1 <= bounds[0] <= bounds[1]:
            raise ValueError("school_size must be an integer >= 1 or [lo, hi] with "
                             f"integers 1 <= lo <= hi, got {size}")
        if not 0.0 <= check_number(self.missing_rate, "missing_rate") < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")
        object.__setattr__(self, "missing_rate", float(self.missing_rate))
        problems = validate_params(self.truth, self.spec)
        if covariate_width(self.student_covariates) != self.spec.n_student_covariates:
            problems.append("student covariate generators produce "
                            f"{covariate_width(self.student_covariates)} columns, "
                            f"spec expects {self.spec.n_student_covariates}")
        if covariate_width(self.school_covariates) != self.spec.n_school_covariates:
            problems.append("school covariate generators produce "
                            f"{covariate_width(self.school_covariates)} columns, "
                            f"spec expects {self.spec.n_school_covariates}")
        if problems:
            raise ValueError("invalid simulation design: " + "; ".join(problems))


@dataclass(frozen=True, eq=False)
class LatentLabels:
    """True latent memberships of a simulated dataset."""

    types: np.ndarray      # (H,)
    classes: np.ndarray    # (n,) in dataset order


@dataclass(frozen=True, eq=False)
class SimulatedData:
    """A simulated dataset and its true latent labels."""

    dataset: ResponseDataset
    labels: LatentLabels


def _draw_covariates(generators, rng: np.random.Generator, size: int,
                     cycle_start: int) -> np.ndarray:
    """(size, columns) covariate matrix of ``size`` units."""
    columns = [np.zeros((size, 0))]
    for gen in generators:
        if isinstance(gen, CategoricalCovariate):
            columns.append(gen.expand(gen.draw_levels(rng, size)))
        elif isinstance(gen, CyclicCovariate):
            columns.append(gen.assign(cycle_start, size)[:, None])
        else:
            raise TypeError(f"unknown covariate generator {type(gen).__name__}")
    return np.hstack(columns)


def _draw_categories(rng: np.random.Generator, log_weights: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row of (n, k) log weights, from ``rng.random(n)``."""
    cum = np.cumsum(np.exp(log_weights), axis=1)
    return (cum <= rng.random(cum.shape[0])[:, None]).sum(axis=1)


def simulate_full(design: SimulationDesign) -> SimulatedData:
    """Draw a dataset and its latent labels.

    Per-school draw order (one substream per school, seeded with
    (seed, school index)): school size, school covariates, school type,
    then all student covariates, all student classes, the response matrix,
    and finally the missing-response mask.  The schools' draws are joined
    into the dataset's arrays at the end.
    """
    spec, truth = design.spec, design.truth
    r = spec.item_bank.n_items
    prob_table = success_prob_table(truth, spec)
    types = np.zeros(design.n_schools, dtype=int)
    draws, student_ids = [], []
    student_cycle = 0
    for h in range(design.n_schools):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((design.seed, h))))
        if isinstance(design.school_size, tuple):
            lo, hi = design.school_size
            n_h = int(rng.integers(lo, hi + 1))
        else:
            n_h = int(design.school_size)
        w = _draw_covariates(design.school_covariates, rng, 1, h)
        u = int(_draw_categories(rng, log_type_weight_matrix(w, truth))[0])
        x = _draw_covariates(design.student_covariates, rng, n_h, student_cycle)
        student_cycle += n_h
        v = _draw_categories(rng, log_class_weight_matrix(x, truth)[:, u, :])
        responses = (rng.random((n_h, r)) < prob_table[v]).astype(np.int8)
        if design.missing_rate > 0:
            mask = rng.random((n_h, r)) < design.missing_rate
            responses = np.where(mask, np.int8(MISSING), responses)
        types[h] = u
        draws.append((w, x, responses, v))
        student_ids.extend(f"sch{h + 1:04d}-stu{i + 1:04d}" for i in range(n_h))
    w, x, responses, classes = map(np.concatenate, zip(*draws))
    dataset = ResponseDataset(
        school_ids=[f"sch{h + 1:04d}" for h in range(design.n_schools)],
        school_covariates=w, sizes=[len(v) for _, _, _, v in draws],
        student_ids=student_ids, student_covariates=x, responses=responses)
    return SimulatedData(dataset=dataset,
                         labels=LatentLabels(types=types, classes=classes))


def desk_design(seed: int = 0, n_schools: int = 200, school_size=20,
                missing_rate: float = 0.0) -> SimulationDesign:
    """A moderate benchmark design that fits in seconds.

    200 schools of 20 students, 15 single-dimension items with 2PL
    discriminations in [0.7, 1.5], three student classes at abilities
    (-1.5, 0, 1.5), two well-separated school types, and one binary
    covariate per level with slope 0.5.
    """
    n_items = 15
    bank = ItemBank.single_dimension(n_items)
    spec = ModelSpec(bank, n_classes=3, n_types=2,
                     parameterization=Parameterization.TWO_PL,
                     n_student_covariates=1, n_school_covariates=1)
    difficulty = np.concatenate([[0.0], np.linspace(-1.2, 1.2, n_items - 1)])
    discrimination = np.concatenate([[1.0], np.linspace(0.7, 1.5, n_items - 1)])
    truth = ParameterSet(
        difficulty=difficulty,
        discrimination=discrimination,
        abilities=np.array([[-1.5], [0.0], [1.5]]),
        class_intercepts=np.array([[1.0, -1.0], [-1.0, 1.0]]),
        class_slopes=np.array([[0.5], [0.5]]),
        type_intercepts=np.array([0.0]),
        type_slopes=np.array([[0.5]]),
    )
    return SimulationDesign(
        spec=spec,
        truth=truth,
        n_schools=n_schools,
        school_size=school_size,
        student_covariates=(CategoricalCovariate((0.5, 0.5)),),
        school_covariates=(CategoricalCovariate((0.5, 0.5)),),
        seed=seed,
        missing_rate=missing_rate,
    )


# ---------------------------------------------------------------------------
# Label alignment and recovery scoring
# ---------------------------------------------------------------------------

def permute_parameters(params: ParameterSet, spec: ModelSpec, class_perm,
                       type_perm) -> ParameterSet:
    """Relabel latent classes and types without changing the model.

    ``class_perm[v]`` is the old class that becomes new class v (same for
    types).  Membership coefficients are re-expressed against the new
    reference category, so all implied weights and likelihoods are
    unchanged.
    """
    class_perm = np.asarray(class_perm, dtype=int)
    type_perm = np.asarray(type_perm, dtype=int)
    k_v, k_u = spec.n_classes, spec.n_types
    if sorted(class_perm.tolist()) != list(range(k_v)):
        raise ValueError("class_perm is not a permutation")
    if sorted(type_perm.tolist()) != list(range(k_u)):
        raise ValueError("type_perm is not a permutation")

    abilities = params.abilities[class_perm]
    lc = params.lc_success[class_perm] if params.lc_success is not None else None

    # Class logits: embed the implicit zero column for the reference class,
    # permute, and re-reference against the new class 0.
    inter_full = np.hstack([np.zeros((k_u, 1)), params.class_intercepts])
    inter_full = inter_full[:, class_perm]
    class_intercepts = inter_full[:, 1:] - inter_full[:, [0]]
    slope_full = np.vstack([np.zeros((1, params.n_student_covariates)),
                            params.class_slopes])
    slope_full = slope_full[class_perm]
    class_slopes = slope_full[1:] - slope_full[[0]]

    class_intercepts = class_intercepts[type_perm]

    type_full = np.concatenate([[0.0], params.type_intercepts])[type_perm]
    type_intercepts = type_full[1:] - type_full[0]
    tslope_full = np.vstack([np.zeros((1, params.n_school_covariates)),
                             params.type_slopes])[type_perm]
    type_slopes = tslope_full[1:] - tslope_full[[0]]

    return params.replace(abilities=abilities, lc_success=lc,
                          class_intercepts=class_intercepts,
                          class_slopes=class_slopes,
                          type_intercepts=type_intercepts,
                          type_slopes=type_slopes)


def align_labels(truth: ParameterSet, estimate: ParameterSet, spec: ModelSpec):
    """Permutations mapping estimated labels onto the truth's labels.

    The class permutation minimizes the total squared distance between the
    (permuted) estimated and true ability rows (success-probability rows
    under the "lc" parameterization); the type permutation then minimizes
    the mismatch of the type-specific class-intercept rows.  Exhaustive
    search, refused above 8 classes or types.
    """
    k_v, k_u = spec.n_classes, spec.n_types
    if k_v > _MAX_EXHAUSTIVE or k_u > _MAX_EXHAUSTIVE:
        raise ValueError("exhaustive label alignment supports at most "
                         f"{_MAX_EXHAUSTIVE} classes/types")
    if spec.parameterization is Parameterization.LC:
        true_block, est_block = truth.lc_success, estimate.lc_success
    else:
        true_block, est_block = truth.abilities, estimate.abilities

    best_class = None
    best_cost = np.inf
    for perm in itertools.permutations(range(k_v)):
        cost = float(((est_block[list(perm)] - true_block) ** 2).sum())
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_class = np.asarray(perm, dtype=int)

    aligned = permute_parameters(estimate, spec, best_class, np.arange(k_u))
    best_type = None
    best_cost = np.inf
    for perm in itertools.permutations(range(k_u)):
        cand = permute_parameters(aligned, spec, np.arange(k_v),
                                  np.asarray(perm, dtype=int))
        cost = float(((cand.class_intercepts - truth.class_intercepts) ** 2).sum())
        cost += float(((cand.type_intercepts - truth.type_intercepts) ** 2).sum())
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_type = np.asarray(perm, dtype=int)
    return best_class, best_type


@dataclass(frozen=True)
class BlockError:
    max_abs: float
    rmse: float
    n_entries: int


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Alignment, per-block errors, classification accuracy, and the
    truth-vs-fit log-likelihood comparison for one simulated fit."""

    class_perm: np.ndarray
    type_perm: np.ndarray
    block_errors: dict
    student_accuracy: float
    school_accuracy: float
    loglik_truth: float
    loglik_fit: float


def _block_error(est: np.ndarray, true: np.ndarray) -> BlockError:
    diff = np.abs(np.asarray(est, dtype=float) - np.asarray(true, dtype=float))
    flat = diff.ravel()
    if flat.size == 0:
        return BlockError(0.0, 0.0, 0)
    return BlockError(float(flat.max()), float(np.sqrt((flat ** 2).mean())),
                      int(flat.size))


def recovery_report(truth: ParameterSet, fit_result, labels: LatentLabels,
                    posteriors, data: ResponseDataset,
                    spec: ModelSpec) -> RecoveryReport:
    """Score a fit against the generating truth after label alignment."""
    class_perm, type_perm = align_labels(truth, fit_result.params, spec)
    aligned = permute_parameters(fit_result.params, spec, class_perm, type_perm)

    free = ~spec.item_bank.is_reference
    errors = {}
    if spec.parameterization is Parameterization.LC:
        errors["lc_success"] = _block_error(aligned.lc_success, truth.lc_success)
    else:
        errors["difficulty"] = _block_error(aligned.difficulty[free],
                                            truth.difficulty[free])
        if spec.parameterization is Parameterization.TWO_PL:
            errors["discrimination"] = _block_error(aligned.discrimination[free],
                                                    truth.discrimination[free])
        errors["abilities"] = _block_error(aligned.abilities, truth.abilities)
    zeta_est = np.concatenate([aligned.class_intercepts.ravel(),
                               aligned.class_slopes.ravel(),
                               aligned.type_intercepts.ravel(),
                               aligned.type_slopes.ravel()])
    zeta_true = np.concatenate([truth.class_intercepts.ravel(),
                                truth.class_slopes.ravel(),
                                truth.type_intercepts.ravel(),
                                truth.type_slopes.ravel()])
    errors["membership"] = _block_error(zeta_est, zeta_true)

    student_map = assign_students(data, posteriors)
    school_map = assign_schools(posteriors)
    hits = int(np.count_nonzero(student_map.labels == class_perm[labels.classes]))
    student_acc = hits / labels.classes.size
    school_acc = float((school_map.labels == type_perm[labels.types]).mean())

    return RecoveryReport(
        class_perm=class_perm,
        type_perm=type_perm,
        block_errors=errors,
        student_accuracy=student_acc,
        school_accuracy=school_acc,
        loglik_truth=marginal_loglik(data, truth, spec),
        loglik_fit=fit_result.loglik,
    )
