"""Dataset container invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlcirt import ResponseDataset, SchoolGroup, validate_dataset
from mlcirt.likelihood import stack_dataset

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


def test_empty_school_and_duplicates_flagged():
    spec = make_spec(n_items=2, n_classes=1, n_types=1, m_v=0, m_u=0)
    school = SchoolGroup("s0", np.zeros(0), (), np.zeros((0, 0)),
                         np.zeros((0, 2), dtype=np.int8))
    problems = validate_dataset(ResponseDataset.from_schools((school, school)), spec)
    assert any("no students" in p for p in problems)
    assert any("duplicate school id" in p for p in problems)


def test_bad_response_values_flagged():
    spec = make_spec(n_items=2, n_classes=1, n_types=1, m_v=0, m_u=0)
    school = SchoolGroup("s0", np.zeros(0), ("a",), np.zeros((1, 0)),
                         np.array([[0, 3]], dtype=np.int8))
    problems = validate_dataset(ResponseDataset.from_schools((school,)), spec)
    assert any("outside" in p for p in problems)


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
    spec = make_spec(n_items=2, n_classes=1, n_types=1, m_v=0, m_u=1)

    def school(sid, responses, w=0.0):
        responses = np.array(responses, dtype=np.int8).reshape(-1, 2)
        n = responses.shape[0]
        return SchoolGroup(sid, np.array([w]), tuple(f"{sid}-{i}" for i in range(n)),
                           np.zeros((n, 0)), responses)

    data = ResponseDataset.from_schools((
        school("a", [[0, 1], [-1, 1]]),
        school("b", [[0, -2]]),
        school("c", np.zeros((0, 2))),
        school("d", [[1, 1], [1, 3]], w=np.inf),
        school("e", [[-1, -1]]),
        school("b", [[2, 0]]),
    ))
    assert validate_dataset(data, spec) == [
        "school 'b': responses outside {0, 1, NA}",
        "school 'c' has no students",
        "school 'd': responses outside {0, 1, NA}",
        "school 'd': non-finite school covariates",
        "duplicate school id 'b'",
        "school 'b': responses outside {0, 1, NA}",
    ]


def test_non_finite_covariates_name_their_own_school():
    """The per-school counts from the concatenated arrays land on the
    school that holds the value, next to empty and clean neighbours."""
    spec = make_spec(n_items=1, n_classes=1, n_types=1, m_v=2, m_u=1)

    def school(sid, x, w=0.0):
        x = np.array(x, dtype=float).reshape(-1, 2)
        n = x.shape[0]
        return SchoolGroup(sid, np.array([w]), tuple(f"{sid}-{i}" for i in range(n)),
                           x, np.zeros((n, 1), dtype=np.int8))

    data = ResponseDataset.from_schools((
        school("a", [[0.0, 1.0], [2.0, 3.0]]),
        school("b", [[0.0, 1.0], [np.nan, 3.0]]),
        school("c", np.zeros((0, 2)), w=-np.inf),
        school("d", [[0.0, np.inf]]),
        school("e", [[1.0, 1.0]], w=np.nan),
    ))
    assert validate_dataset(data, spec) == [
        "school 'b': non-finite student covariates",
        "school 'c' has no students",
        "school 'c': non-finite school covariates",
        "school 'd': non-finite student covariates",
        "school 'e': non-finite school covariates",
    ]


# ---------------------------------------------------------------------------
# The flat arrays and their per-school views
# ---------------------------------------------------------------------------

@st.composite
def school_groups(draw):
    """Ragged schools (one-student and empty ones included) of one layout."""
    r = draw(st.integers(0, 3))
    m_v = draw(st.integers(0, 2))
    m_u = draw(st.integers(0, 2))
    floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
    groups = []
    for h in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 4))
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


def test_stacking_refers_to_the_dataset_arrays():
    spec = make_spec(n_items=3, n_classes=2, n_types=2, m_v=2, m_u=1)
    data = random_dataset(spec, np.random.default_rng(5), n_schools=3,
                          school_size=(1, 4))
    stacked = stack_dataset(data)
    assert np.shares_memory(stacked.w, data.school_covariates)
    assert stacked.starts is data.starts and stacked.sizes is data.sizes
