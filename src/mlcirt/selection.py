"""Model selection (BIC sweep over school types), MAP classification, and
summary quantities of a fitted model.  Class weights are computed once
per student covariate row, and no (student, type, class) table is built."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ResponseDataset
from .em import (
    FitControls,
    FitResult,
    MultistartError,
    PosteriorTables,
    _child_seed,
    _sum_by,
    e_step,
    multistart_fit,
    student_class_posteriors,
)
from .model import ModelSpec, ParameterSet, check_integer, count_free_parameters
from .weights import log_class_weight_matrix, log_type_weight_matrix

_EMPTY_TYPE_MASS = 1e-12


def bic(loglik: float, n_par: int, n: int) -> float:
    """Bayesian information criterion, -2*loglik + ln(n)*n_par."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if n_par < 0:
        raise ValueError("parameter count must be >= 0")
    return -2.0 * loglik + np.log(n) * n_par


def resolve_bic_n(data: ResponseDataset, bic_n) -> int:
    """Sample-size convention for BIC: 'students', 'schools', or an integer."""
    if bic_n == "students":
        return data.n_students
    if bic_n == "schools":
        return data.n_schools
    return check_integer(bic_n, "bic_n", 1)


@dataclass(frozen=True, eq=False)
class SweepRow:
    n_types: int
    loglik: float | None
    n_par: int
    bic: float | None
    converged: bool | None
    error: str | None = None
    fit: FitResult | None = None


@dataclass(frozen=True, eq=False)
class SweepResult:
    rows: tuple[SweepRow, ...]
    chosen_n_types: int | None
    bic_n: int


def sweep_school_types(data: ResponseDataset, spec: ModelSpec, n_types_values,
                       controls: FitControls, bic_n="students") -> SweepResult:
    """Fit the model for increasing numbers of school types and pick by BIC.

    Stops at the first BIC increase; the previous (smaller) value wins.  A
    multistart whose every start failed (``MultistartError``) is recorded
    in its row and the sweep moves on.  Per-row seeds derive
    deterministically from (controls.seed, n_types).
    """
    values = [check_integer(k, "n_types") for k in n_types_values]
    if values != sorted(values):
        raise ValueError("n_types values must be ascending")
    n = resolve_bic_n(data, bic_n)
    rows: list[SweepRow] = []
    last_ok: SweepRow | None = None
    chosen: int | None = None
    for k in values:
        if k < spec.n_classes:
            warnings.warn(f"n_types={k} is below n_classes={spec.n_classes}; "
                          "the school-level mixture may be too coarse",
                          stacklevel=2)
        row_spec = spec.replace(n_types=k)
        row_controls = controls.replace(seed=_child_seed(controls.seed, k))
        n_par = count_free_parameters(row_spec)
        try:
            result = multistart_fit(data, row_spec, row_controls)
        except MultistartError as exc:
            rows.append(SweepRow(k, None, n_par, None, None, error=str(exc)))
            continue
        row = SweepRow(k, result.loglik, n_par,
                       bic(result.loglik, n_par, n), result.converged, fit=result)
        rows.append(row)
        if last_ok is not None and row.bic > last_ok.bic:
            chosen = last_ok.n_types
            break
        last_ok = row
    if chosen is None and last_ok is not None:
        chosen = last_ok.n_types
    return SweepResult(rows=tuple(rows), chosen_n_types=chosen, bic_n=n)


# ---------------------------------------------------------------------------
# MAP classification and summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StudentAssignments:
    """MAP class label and its posterior of each student, in dataset order."""

    labels: np.ndarray
    posteriors: np.ndarray


@dataclass(frozen=True, eq=False)
class SchoolAssignments:
    labels: np.ndarray
    posteriors: np.ndarray


@dataclass(frozen=True, eq=False)
class SupportPoints:
    """School-type ability summaries, raw and standardized; ``defined`` is
    False (and the summaries NaN) for types that received essentially no
    posterior mass, and for every type of a model without class abilities
    ("lc")."""

    raw: np.ndarray
    standardized: np.ndarray
    defined: np.ndarray


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    student_assignments: StudentAssignments
    school_assignments: SchoolAssignments
    avg_class_weights: np.ndarray
    avg_type_weights: np.ndarray
    support_points: SupportPoints
    abilities_std: np.ndarray | None


def _map_rows(z: np.ndarray):
    """Argmax of each row (ties to the lowest index) and its value."""
    labels = np.argmax(z, axis=1)
    return labels, z[np.arange(z.shape[0]), labels]


def assign_students(data: ResponseDataset,
                    posteriors: PosteriorTables) -> StudentAssignments:
    """MAP class per student; ties break to the lowest class index."""
    return StudentAssignments(*_map_rows(student_class_posteriors(data, posteriors)))


def assign_schools(posteriors: PosteriorTables) -> SchoolAssignments:
    """MAP type per school; ties break to the lowest type index."""
    return SchoolAssignments(*_map_rows(posteriors.type_posterior))


def average_class_weights(data: ResponseDataset, params: ParameterSet,
                          spec: ModelSpec, posteriors: PosteriorTables):
    """Average membership weights at both levels.

    The class average mixes each student's model-implied class weights over
    school types using the school's type posterior, then averages over all
    students; the type average is the mean type posterior across schools.
    The students' type posteriors are summed per covariate row first.
    """
    z_hu = posteriors.type_posterior
    row_mass = _sum_by(data.x_pattern_index, np.repeat(z_hu, data.sizes, axis=0),
                       data.x_patterns.shape[0])                   # (X, k_U)
    total = np.einsum("xu,xuv->v", row_mass,
                      np.exp(log_class_weight_matrix(data.x_patterns, params)))
    return total / data.n_students, z_hu.mean(axis=0)


def standardize_abilities(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Center and scale ability columns by their weighted mean and SD.

    ``weights`` must lie on the simplex; zero-variance columns map to all
    zeros.  Works on a (k,) vector or a (k, s) matrix, column-wise.
    """
    arr = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[:, None]
    out = np.zeros_like(arr)
    for d in range(arr.shape[1]):
        mean = float(w @ arr[:, d])
        var = float(w @ (arr[:, d] - mean) ** 2)
        if var > 1e-24:
            out[:, d] = (arr[:, d] - mean) / np.sqrt(var)
    return out[:, 0] if squeeze else out


def school_support_points(data: ResponseDataset, params: ParameterSet,
                          spec: ModelSpec,
                          posteriors: PosteriorTables) -> SupportPoints:
    """Type-level ability summaries.

    Each school's expected ability under type u is the mean, over its
    students and over dimensions, of the class-weight-weighted class
    abilities; the type's support point is the type-posterior-weighted
    average of these school values.  Types carrying no posterior mass, and
    every type when the model has no class abilities ("lc"), are flagged
    undefined (NaN) rather than fabricated.
    """
    k_u = spec.n_types
    if params.abilities is None:
        return SupportPoints(raw=np.full(k_u, np.nan), standardized=np.full(k_u, np.nan),
                             defined=np.zeros(k_u, dtype=bool))
    z_hu = posteriors.type_posterior
    w_mat = np.exp(log_class_weight_matrix(data.x_patterns, params))
    # (X, k_U, k_V) x (k_V,) mean ability per class over dimensions
    class_mean = params.abilities.mean(axis=1)
    per_student = np.einsum("xuv,v->xu", w_mat, class_mean)[data.x_pattern_index]
    school_mean = (np.add.reduceat(per_student, data.starts, axis=0)
                   / data.sizes[:, None])
    mass = z_hu.sum(axis=0)
    defined = mass > _EMPTY_TYPE_MASS
    raw = np.full(k_u, np.nan)
    raw[defined] = (z_hu[:, defined] * school_mean[:, defined]).sum(axis=0) / mass[defined]
    std = np.full(k_u, np.nan)
    if defined.any():
        w = z_hu.mean(axis=0)[defined]
        std[defined] = standardize_abilities(raw[defined], w / w.sum())
    return SupportPoints(raw=raw, standardized=std, defined=defined)


def type_probabilities_by_profile(params: ParameterSet, profiles) -> np.ndarray:
    """School-type membership probabilities per covariate profile.

    ``profiles`` is a sequence of school covariate vectors (a
    (n_profiles, n_school_covariates) array); the result is a
    (n_profiles, n_types) matrix whose rows lie on the simplex.
    """
    w = np.asarray(profiles, dtype=float)
    if w.ndim != 2 or w.shape[1] != params.n_school_covariates:
        raise ValueError(f"profiles have shape {w.shape}, expected "
                         f"(n_profiles, {params.n_school_covariates})")
    return np.exp(log_type_weight_matrix(w, params))


def classify(data: ResponseDataset, params: ParameterSet, spec: ModelSpec,
             posteriors: PosteriorTables | None = None) -> ClassificationResult:
    """MAP assignments plus summary quantities for one fitted model;
    ``abilities_std`` is None when the model has no class abilities."""
    if posteriors is None:
        posteriors = e_step(data, params, spec)
    avg_class, avg_type = average_class_weights(data, params, spec, posteriors)
    return ClassificationResult(
        student_assignments=assign_students(data, posteriors),
        school_assignments=assign_schools(posteriors),
        avg_class_weights=avg_class,
        avg_type_weights=avg_type,
        support_points=school_support_points(data, params, spec, posteriors),
        abilities_std=(None if params.abilities is None
                       else standardize_abilities(params.abilities, avg_class)),
    )
