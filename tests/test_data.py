"""Dataset container invariants."""

import numpy as np
import pytest

from mlcirt import ResponseDataset, SchoolGroup, validate_dataset

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
    problems = validate_dataset(ResponseDataset((school, school)), spec)
    assert any("no students" in p for p in problems)
    assert any("duplicate school id" in p for p in problems)


def test_bad_response_values_flagged():
    spec = make_spec(n_items=2, n_classes=1, n_types=1, m_v=0, m_u=0)
    school = SchoolGroup("s0", np.zeros(0), ("a",), np.zeros((1, 0)),
                         np.array([[0, 3]], dtype=np.int8))
    problems = validate_dataset(ResponseDataset((school,)), spec)
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

    data = ResponseDataset((
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

    data = ResponseDataset((
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
