"""Hierarchical response data: students nested in schools.

Responses are stored per school as an (n_h, r) integer matrix with values
0, 1, or MISSING (-1).  Covariates are numeric; categorical covariates are
expanded to indicator columns before a dataset is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec

MISSING = -1


@dataclass(frozen=True, eq=False)
class SchoolGroup:
    """One school: its covariates and its students' covariates/responses."""

    school_id: str
    covariates: np.ndarray           # (m_U,)
    student_ids: tuple[str, ...]
    student_covariates: np.ndarray   # (n_h, m_V)
    responses: np.ndarray            # (n_h, r) with values {0, 1, MISSING}

    def __post_init__(self):
        cov = np.array(self.covariates, dtype=float)
        cov.setflags(write=False)
        object.__setattr__(self, "covariates", cov)
        sc = np.array(self.student_covariates, dtype=float)
        sc.setflags(write=False)
        object.__setattr__(self, "student_covariates", sc)
        resp = np.array(self.responses, dtype=np.int8)
        resp.setflags(write=False)
        object.__setattr__(self, "responses", resp)
        object.__setattr__(self, "student_ids", tuple(self.student_ids))

    @property
    def n_students(self) -> int:
        return self.responses.shape[0]


@dataclass(frozen=True, eq=False)
class ResponseDataset:
    """All schools of a survey, in a fixed order."""

    schools: tuple[SchoolGroup, ...]

    def __post_init__(self):
        object.__setattr__(self, "schools", tuple(self.schools))

    @property
    def n_schools(self) -> int:
        return len(self.schools)

    @property
    def n_students(self) -> int:
        return sum(g.n_students for g in self.schools)

    @property
    def n_items(self) -> int:
        return self.schools[0].responses.shape[1]


def _flagged_per_school(arrays, flag) -> np.ndarray:
    """Number of entries of each array that ``flag`` marks, from one pass
    over their concatenation."""
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    owner = np.searchsorted(ends, np.flatnonzero(flag(flat)), side="right")
    return np.bincount(owner, minlength=len(arrays))


def _not_finite(a: np.ndarray) -> np.ndarray:
    return ~np.isfinite(a)


def _outside_codes(a: np.ndarray) -> np.ndarray:
    # SchoolGroup stores int8, so {0, 1, MISSING} is the range [-1, 1].
    return (a < MISSING) | (a > 1)


def validate_dataset(data: ResponseDataset, spec: ModelSpec) -> list[str]:
    """Check dataset invariants against a spec; returns violations."""
    problems: list[str] = []
    if data.n_schools < 1:
        return ["dataset has no schools"]
    r = spec.item_bank.n_items
    # The value checks run once over the concatenated arrays of all schools.
    bad_responses = _flagged_per_school([g.responses for g in data.schools],
                                        _outside_codes)
    bad_w = _flagged_per_school([g.covariates for g in data.schools], _not_finite)
    bad_x = _flagged_per_school([g.student_covariates for g in data.schools],
                                _not_finite)
    seen_ids: set[str] = set()
    for h, g in enumerate(data.schools):
        if g.school_id in seen_ids:
            problems.append(f"duplicate school id {g.school_id!r}")
        seen_ids.add(g.school_id)
        if g.n_students < 1:
            problems.append(f"school {g.school_id!r} has no students")
        if g.responses.shape[1] != r:
            problems.append(f"school {g.school_id!r}: responses have "
                            f"{g.responses.shape[1]} items, expected {r}")
        if g.covariates.shape != (spec.n_school_covariates,):
            problems.append(f"school {g.school_id!r}: covariate vector has shape "
                            f"{g.covariates.shape}, expected ({spec.n_school_covariates},)")
        if g.student_covariates.shape != (g.n_students, spec.n_student_covariates):
            problems.append(f"school {g.school_id!r}: student covariates have shape "
                            f"{g.student_covariates.shape}")
        if len(g.student_ids) != g.n_students:
            problems.append(f"school {g.school_id!r}: {len(g.student_ids)} ids for "
                            f"{g.n_students} students")
        if bad_responses[h]:
            problems.append(f"school {g.school_id!r}: responses outside {{0, 1, NA}}")
        if bad_w[h]:
            problems.append(f"school {g.school_id!r}: non-finite school covariates")
        if bad_x[h]:
            problems.append(f"school {g.school_id!r}: non-finite student covariates")
    return problems
