"""Dataset container invariants."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mlcirt.data
from mlcirt import (FitControls, ResponseDataset, SchoolGroup, e_step, m_step,
                    marginal_loglik, multistart_fit, validate_dataset)

from helpers import make_spec, random_dataset


def test_well_formed_dataset_validates():
    spec = make_spec(n_items=3, n_classes=2, n_types=2)
    data = random_dataset(spec, np.random.default_rng(0), n_schools=3,
                          school_size=(1, 4))
    assert validate_dataset(data, spec) == []


def test_arrays_are_frozen():
    spec = make_spec(n_items=3, n_classes=2, n_types=2)
    data = random_dataset(spec, np.random.default_rng(1))
    with pytest.raises(ValueError):
        data.schools[0].responses[0, 0] = 1


def test_item_count_mismatch():
    spec = make_spec(n_items=4, n_classes=2, n_types=2)
    data = random_dataset(make_spec(n_items=3, n_classes=2, n_types=2),
                          np.random.default_rng(2))
    problems = validate_dataset(data, spec)
    assert any("expected 4" in p for p in problems)


def invalid_dataset(*problems: str) -> str:
    """The pattern of the construction error that lists ``problems``."""
    return "^" + re.escape("invalid dataset: " + "; ".join(problems)) + "$"


def test_empty_school_and_duplicates_flagged():
    school = SchoolGroup("s0", np.zeros(0), (), np.zeros((0, 0)),
                         np.zeros((0, 2), dtype=np.int8))
    with pytest.raises(ValueError, match=invalid_dataset(
            "school 's0' has no students", "duplicate school id 's0'",
            "school 's0' has no students")):
        ResponseDataset.from_schools((school, school))
    with pytest.raises(ValueError, match=invalid_dataset("dataset has no schools")):
        ResponseDataset((), np.zeros((0, 0)), (), (), np.zeros((0, 0)),
                        np.zeros((0, 0)))


def test_bad_response_values_flagged():
    school = SchoolGroup("s0", np.zeros(0), ("a",), np.zeros((1, 0)),
                         np.array([[0, 3]], dtype=np.int8))
    with pytest.raises(ValueError, match=invalid_dataset(
            "school 's0': responses outside {0, 1, NA}")):
        ResponseDataset.from_schools((school,))


@pytest.mark.parametrize("sizes", [[1, 0, 2], [1, 2, 0]])
def test_school_without_students_cannot_be_built(sizes):
    """An empty school would take its neighbour's rows in every per-school
    sum, or fall off the end of them; it is refused where it is built."""
    with pytest.raises(ValueError, match=invalid_dataset(
            f"school 's{sizes.index(0)}' has no students")):
        ResponseDataset(school_ids=["s0", "s1", "s2"],
                        school_covariates=np.zeros((3, 0)), sizes=sizes,
                        student_ids=["a", "b", "c"],
                        student_covariates=np.zeros((3, 0)),
                        responses=np.zeros((3, 2), dtype=np.int8))


def test_counts():
    spec = make_spec(n_items=3, n_classes=2, n_types=2)
    data = random_dataset(spec, np.random.default_rng(3), n_schools=4,
                          school_size=5)
    assert data.n_schools == 4
    assert data.n_students == 20
    assert data.n_items == 3


def test_problems_name_each_school_in_order():
    """The one-pass response check flags exactly the schools that hold a
    bad value, interleaved with the other checks in school order."""
    def school(sid, responses, w=0.0):
        responses = np.array(responses, dtype=np.int8).reshape(-1, 2)
        n = responses.shape[0]
        return SchoolGroup(sid, np.array([w]), tuple(f"{sid}-{i}" for i in range(n)),
                           np.zeros((n, 0)), responses)

    with pytest.raises(ValueError, match=invalid_dataset(
            "school 'b': responses outside {0, 1, NA}",
            "school 'c' has no students",
            "school 'd': responses outside {0, 1, NA}",
            "school 'd': non-finite school covariates",
            "duplicate school id 'b'",
            "school 'b': responses outside {0, 1, NA}")):
        ResponseDataset.from_schools((
            school("a", [[0, 1], [-1, 1]]),
            school("b", [[0, -2]]),
            school("c", np.zeros((0, 2))),
            school("d", [[1, 1], [1, 3]], w=np.inf),
            school("e", [[-1, -1]]),
            school("b", [[2, 0]]),
        ))


def test_non_finite_covariates_name_their_own_school():
    """The per-school counts from the concatenated arrays land on the
    school that holds the value, next to empty and clean neighbours."""
    def school(sid, x, w=0.0):
        x = np.array(x, dtype=float).reshape(-1, 2)
        n = x.shape[0]
        return SchoolGroup(sid, np.array([w]), tuple(f"{sid}-{i}" for i in range(n)),
                           x, np.zeros((n, 1), dtype=np.int8))

    with pytest.raises(ValueError, match=invalid_dataset(
            "school 'b': non-finite student covariates",
            "school 'c' has no students",
            "school 'c': non-finite school covariates",
            "school 'd': non-finite student covariates",
            "school 'e': non-finite school covariates")):
        ResponseDataset.from_schools((
            school("a", [[0.0, 1.0], [2.0, 3.0]]),
            school("b", [[0.0, 1.0], [np.nan, 3.0]]),
            school("c", np.zeros((0, 2)), w=-np.inf),
            school("d", [[0.0, np.inf]]),
            school("e", [[1.0, 1.0]], w=np.nan),
        ))


# ---------------------------------------------------------------------------
# The flat arrays and their per-school views
# ---------------------------------------------------------------------------

@st.composite
def school_groups(draw):
    """Ragged schools (one-student ones included) of one layout."""
    r = draw(st.integers(0, 3))
    m_v = draw(st.integers(0, 2))
    m_u = draw(st.integers(0, 2))
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    groups = []
    for h in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 4))
        groups.append(SchoolGroup(
            f"s{h}",
            draw(arrays(np.float64, (m_u,), elements=floats)),
            tuple(draw(st.text(max_size=3)) for _ in range(n)),
            draw(arrays(np.float64, (n, m_v), elements=floats)),
            draw(arrays(np.int8, (n, r), elements=st.integers(-1, 1)))))
    return groups


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@given(school_groups())
@settings(max_examples=200, deadline=None)
def test_from_schools_round_trips_bitwise_through_read_only_views(groups):
    data = ResponseDataset.from_schools(groups)
    assert data.n_schools == len(groups)
    assert data.n_students == sum(g.n_students for g in groups)
    assert len(data.schools) == len(groups)
    for got, want in zip(data.schools, groups):
        assert got.school_id == want.school_id
        assert got.student_ids == want.student_ids
        for a, b in ((got.covariates, want.covariates),
                     (got.student_covariates, want.student_covariates),
                     (got.responses, want.responses)):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(bits(a), bits(b))
            assert not a.flags.writeable
        for view, flat in ((got.student_covariates, data.student_covariates),
                           (got.responses, data.responses)):
            assert view.size == 0 or np.shares_memory(view, flat)
    for flat in (data.school_ids, data.school_covariates, data.sizes, data.starts,
                 data.student_ids, data.student_covariates, data.responses):
        assert not flat.flags.writeable


def test_starts_are_the_offsets_of_the_sizes():
    spec = make_spec(n_items=2, n_classes=1, n_types=1)
    data = random_dataset(spec, np.random.default_rng(4), n_schools=4,
                          school_size=(1, 5))
    np.testing.assert_array_equal(data.starts,
                                  np.concatenate([[0], np.cumsum(data.sizes)[:-1]]))


@pytest.mark.parametrize("field, value", [
    ("school_covariates", np.zeros((3, 1))),
    ("sizes", [1, 2, 0]),
    ("sizes", [4, -1]),
    ("student_ids", ["a", "b"]),
    ("student_covariates", np.zeros((4, 1))),
    ("responses", np.zeros((2, 3), dtype=np.int8)),
    ("responses", np.zeros(3, dtype=np.int8)),
])
def test_constructor_rejects_disagreeing_lengths(field, value):
    fields = dict(school_ids=["s0", "s1"], school_covariates=np.zeros((2, 1)),
                  sizes=[1, 2], student_ids=["a", "b", "c"],
                  student_covariates=np.zeros((3, 1)),
                  responses=np.zeros((3, 2), dtype=np.int8))
    ResponseDataset(**fields)
    with pytest.raises(ValueError):
        ResponseDataset(**dict(fields, **{field: value}))


def test_derived_arrays_are_built_once_and_read_only(monkeypatch):
    """A multistart fit, an E-step, an M-step and a likelihood call on one
    dataset find its covariate patterns once and share one set of masks."""
    calls = []
    unique_rows = mlcirt.data.unique_rows

    def counted_unique_rows(x):
        calls.append(x.shape)
        return unique_rows(x)

    monkeypatch.setattr(mlcirt.data, "unique_rows", counted_unique_rows)
    spec = make_spec(n_items=4, n_classes=2, n_types=2, m_v=1, m_u=1)
    rng = np.random.default_rng(5)
    data = random_dataset(spec, rng, n_schools=6, school_size=(2, 6),
                          missing_rate=0.2)
    is_one = data.is_one
    result = multistart_fit(data, spec, FitControls(max_iter=10, n_starts=3))
    posteriors = e_step(data, result.params, spec)
    m_step(data, posteriors, result.params, spec)
    marginal_loglik(data, result.params, spec)

    assert calls == [(data.n_students, 1)]
    assert data.is_one is is_one
    np.testing.assert_array_equal(data.is_one, data.responses == 1)
    np.testing.assert_array_equal(data.is_zero, data.responses == 0)
    assert data.x_pattern_index.shape == (data.n_students,)
    np.testing.assert_array_equal(data.x_patterns[data.x_pattern_index],
                                  data.student_covariates)
    for name in ("is_one", "is_zero", "x_patterns", "x_pattern_index"):
        with pytest.raises(ValueError):
            getattr(data, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, name, None)
