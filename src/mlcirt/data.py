"""Hierarchical response data: students nested in schools.

A ``ResponseDataset`` holds every student of a survey in one block, grouped
by school: the students of school h are the rows ``starts[h]`` to
``starts[h] + sizes[h]`` of the student arrays.  Responses are one (n, r)
int8 matrix with values 0, 1, or MISSING (-1).  Covariates are numeric;
categorical covariates are expanded to indicator columns before a dataset
is constructed.  ``SchoolGroup`` is one school's slice of a dataset, for
code that wants a school at a time.  The dataset is the one representation
the estimator reads, its answer masks and covariate patterns included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import ModelSpec

MISSING = -1


def _read_only(values, dtype) -> np.ndarray:
    """A read-only view of ``values`` as ``dtype`` (copied only to convert)."""
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class SchoolGroup:
    """One school: its covariates and its students' covariates/responses."""

    school_id: str
    covariates: np.ndarray           # (m_U,)
    student_ids: tuple[str, ...]
    student_covariates: np.ndarray   # (n_h, m_V)
    responses: np.ndarray            # (n_h, r) with values {0, 1, MISSING}

    def __post_init__(self):
        for name, dtype in (("covariates", float), ("student_covariates", float),
                            ("responses", np.int8)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        object.__setattr__(self, "student_ids", tuple(self.student_ids))

    @property
    def n_students(self) -> int:
        return self.responses.shape[0]


@dataclass(frozen=True, eq=False)
class ResponseDataset:
    """All students of a survey, grouped by school in a fixed order.

    - ``school_ids``: (H,) and ``school_covariates``: (H, m_U)
    - ``sizes``: (H,) students per school; ``starts`` (derived) is the
      first student row of each school
    - ``student_ids``: (n,), ``student_covariates``: (n, m_V) and
      ``responses``: (n, r) int8, school by school

    The arrays are taken without copying and kept as read-only views.
    Building a dataset with no school, an empty school, a repeated school
    id, a response outside {0, 1, MISSING} or a non-finite covariate raises
    ``ValueError("invalid dataset: ...")``.  Derived read-only arrays,
    built on first use and then kept: ``is_one`` and ``is_zero``, (n, r)
    float masks of right and wrong answers; ``x_patterns``, the distinct
    student covariate rows in lexicographic order, and ``x_pattern_index``,
    each student's row of them.
    """

    school_ids: np.ndarray
    school_covariates: np.ndarray
    sizes: np.ndarray
    student_ids: np.ndarray
    student_covariates: np.ndarray
    responses: np.ndarray
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        arrays = []
        for name, dtype in (("school_ids", object), ("school_covariates", float),
                            ("sizes", np.intp), ("student_ids", object),
                            ("student_covariates", float), ("responses", np.int8)):
            arrays.append(_read_only(getattr(self, name), dtype))
            object.__setattr__(self, name, arrays[-1])
        h = len(self.sizes) if self.sizes.ndim == 1 else -1
        n = int(self.sizes.sum())
        if ([a.ndim for a in arrays] != [1, 2, 1, 1, 2, 2] or np.any(self.sizes < 0)
                or [len(a) for a in arrays] != [h, h, h, n, n, n]):
            raise ValueError(
                "dataset arrays must be school_ids (H,), school_covariates (H, m_U), "
                "sizes (H,) >= 0 summing to n, student_ids (n,), student_covariates "
                f"(n, m_V) and responses (n, r); got {[a.shape for a in arrays]}")
        problems = _dataset_problems(self)
        if problems:
            raise ValueError("invalid dataset: " + "; ".join(problems))
        object.__setattr__(self, "starts",
                           _read_only(np.cumsum(self.sizes) - self.sizes, np.intp))

    @classmethod
    def from_schools(cls, groups) -> "ResponseDataset":
        """The dataset of a sequence of ``SchoolGroup``s, in their order."""
        groups = tuple(groups)
        return cls(
            school_ids=[g.school_id for g in groups],
            school_covariates=np.stack([g.covariates for g in groups]),
            sizes=[g.n_students for g in groups],
            student_ids=[sid for g in groups for sid in g.student_ids],
            student_covariates=np.concatenate([g.student_covariates for g in groups]),
            responses=np.concatenate([g.responses for g in groups]),
        )

    @property
    def schools(self) -> tuple[SchoolGroup, ...]:
        """Each school's slice of the arrays, as read-only views."""
        return tuple(
            SchoolGroup(sid, w, self.student_ids[a:a + n],
                        self.student_covariates[a:a + n], self.responses[a:a + n])
            for sid, w, a, n in zip(self.school_ids, self.school_covariates,
                                    self.starts.tolist(), self.sizes.tolist()))

    @cached_property
    def is_one(self) -> np.ndarray:
        return _read_only(self.responses == 1, float)

    @cached_property
    def is_zero(self) -> np.ndarray:
        return _read_only(self.responses == 0, float)

    @cached_property
    def _covariate_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        patterns, index = unique_rows(self.student_covariates)
        return _read_only(patterns, float), _read_only(index, np.intp)

    @property
    def x_patterns(self) -> np.ndarray:
        return self._covariate_patterns[0]

    @property
    def x_pattern_index(self) -> np.ndarray:
        return self._covariate_patterns[1]

    @property
    def n_schools(self) -> int:
        return self.school_ids.shape[0]

    @property
    def n_students(self) -> int:
        return self.responses.shape[0]

    @property
    def n_items(self) -> int:
        return self.responses.shape[1]


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


def _dataset_problems(data: ResponseDataset) -> list[str]:
    """What makes a dataset meaningless under any model, school by school."""
    if data.n_schools < 1:
        return ["dataset has no schools"]
    problems: list[str] = []
    # Per school, the number of its students with a flagged value.
    school_of = np.repeat(np.arange(data.n_schools), data.sizes)
    y = data.responses
    # Responses are int8, so {0, 1, MISSING} is the range [-1, 1].
    bad_responses = np.bincount(school_of, ((y < MISSING) | (y > 1)).any(axis=1),
                                data.n_schools)
    bad_x = np.bincount(school_of, ~np.isfinite(data.student_covariates).all(axis=1),
                        data.n_schools)
    bad_w = ~np.isfinite(data.school_covariates).all(axis=1)
    seen_ids: set[str] = set()
    for sid, n_h, bad_y, bad_wh, bad_xh in zip(
            data.school_ids, data.sizes.tolist(), bad_responses, bad_w, bad_x):
        if sid in seen_ids:
            problems.append(f"duplicate school id {sid!r}")
        seen_ids.add(sid)
        if n_h < 1:
            problems.append(f"school {sid!r} has no students")
        if bad_y:
            problems.append(f"school {sid!r}: responses outside {{0, 1, NA}}")
        if bad_wh:
            problems.append(f"school {sid!r}: non-finite school covariates")
        if bad_xh:
            problems.append(f"school {sid!r}: non-finite student covariates")
    return problems


def validate_dataset(data: ResponseDataset, spec: ModelSpec) -> list[str]:
    """How a dataset's item count and covariate widths differ from a spec's."""
    problems: list[str] = []
    for what, have, expected in (
            ("responses have {} items", data.n_items, spec.item_bank.n_items),
            ("school covariates have {} columns", data.school_covariates.shape[1],
             spec.n_school_covariates),
            ("student covariates have {} columns", data.student_covariates.shape[1],
             spec.n_student_covariates)):
        if have != expected:
            problems.append(f"{what.format(have)}, expected {expected}")
    return problems
