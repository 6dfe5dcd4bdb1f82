"""The E-step, the M-step statistics and the classification summaries per
response pattern against the per-student computations of ``reference``.

Students with the same responses and covariate row share one response
pattern (``ResponseDataset.patterns``): their conditional log-likelihood,
class weights and class posteriors given the type are computed once.  Up
to the order of the sums, the pattern path gives what one row per student
gives.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mlcirt import (FitControls, Parameterization, ResponseDataset,
                    assign_students, average_class_weights, classify, e_step, em,
                    fit, initialize, m_step, school_support_points,
                    student_class_posteriors)
from mlcirt._numeric import expit
from mlcirt.simulate import desk_design, simulate_full

import reference
from helpers import make_spec, random_params

RTOL = 1e-12
# Ragged schools, three of them with one student.
SIZES = [1, 7, 1, 4, 12, 1, 9, 5]


def build_dataset(responses, student_covariates, rng, sizes=SIZES):
    h, n = len(sizes), sum(sizes)
    return ResponseDataset(
        school_ids=[f"s{k}" for k in range(h)],
        school_covariates=rng.normal(size=(h, 1)), sizes=sizes,
        student_ids=[f"i{i}" for i in range(n)],
        student_covariates=student_covariates,
        responses=np.asarray(responses, dtype=np.int8))


def random_responses(rng, n, r, missing_rate=0.25):
    y = rng.integers(0, 2, size=(n, r)).astype(np.int8)
    y[rng.random((n, r)) < missing_rate] = -1
    return y


def case(name):
    """(spec, params, data) of one named instance."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n = sum(SIZES)
    spec = make_spec(n_items=3, n_classes=3, n_types=2)
    binary_x = rng.integers(0, 2, size=(n, 1)).astype(float)
    if name == "repeated":
        data = build_dataset(random_responses(rng, n, 3), binary_x, rng)
    elif name == "all-distinct":
        data = build_dataset(random_responses(rng, n, 3), rng.normal(size=(n, 1)),
                             rng)
    elif name == "all-identical":
        data = build_dataset(np.tile([1, -1, 0], (n, 1)), np.full((n, 1), 0.5), rng)
    elif name == "one-type":
        spec = spec.replace(n_types=1)
        data = build_dataset(random_responses(rng, n, 3), binary_x, rng)
    elif name == "one-class":
        spec = spec.replace(n_classes=1)
        data = build_dataset(random_responses(rng, n, 3), binary_x, rng)
    elif name == "lc":
        spec = spec.replace(parameterization=Parameterization.LC)
        data = build_dataset(random_responses(rng, n, 3), binary_x, rng)
    return spec, random_params(spec, rng, scale=1.5), data


CASES = ["repeated", "all-distinct", "all-identical", "one-type", "one-class", "lc"]


def test_cases_cover_the_pattern_counts():
    counts = {name: case(name)[2].patterns.n_patterns for name in CASES}
    assert counts["all-distinct"] == sum(SIZES)
    assert counts["all-identical"] == 1
    assert 1 < counts["repeated"] < sum(SIZES)


@pytest.mark.parametrize("n_items", [1, 39, 40, 120])
def test_patterns_are_the_distinct_pairs_for_any_item_count(n_items):
    """Past 36 items at 40 students (28 at 200,000) a row's base-3 key would
    pass 2**63, so the keys are renumbered densely on the way; the
    patterns stay exact."""
    rng = np.random.default_rng(n_items)
    n = sum(SIZES)
    y = random_responses(rng, n, n_items)
    y[n // 2:] = y[:n - n // 2]                  # every row at least twice
    x = rng.integers(0, 2, size=(n, 1)).astype(float)
    data = build_dataset(y, x, rng)
    patterns = data.patterns
    pairs = np.column_stack([y, data.x_pattern_index])
    assert patterns.n_patterns == len(np.unique(pairs, axis=0))
    np.testing.assert_array_equal(patterns.is_one[patterns.index], y == 1)
    np.testing.assert_array_equal(patterns.is_zero[patterns.index], y == 0)
    np.testing.assert_array_equal(patterns.x_index[patterns.index],
                                  data.x_pattern_index)
    np.testing.assert_array_equal(patterns.counts, np.bincount(patterns.index))


@pytest.mark.parametrize("name", CASES)
def test_e_step_matches_per_student(name):
    spec, params, data = case(name)
    loglik, posteriors = em._e_step(data, params, spec)
    ref_loglik, ref, ref_joint = reference.per_student_e_step(data, params, spec)
    np.testing.assert_allclose(loglik, ref_loglik, rtol=RTOL)
    for field in ("type_posterior", "cond_posterior"):
        np.testing.assert_allclose(getattr(posteriors, field), getattr(ref, field),
                                   rtol=RTOL)
    ref_mass = np.zeros(posteriors.cond_posterior.shape)
    np.add.at(ref_mass, data.patterns.index, ref_joint)
    np.testing.assert_allclose(em._pattern_mass(data, posteriors), ref_mass,
                               rtol=RTOL)
    np.testing.assert_allclose(student_class_posteriors(data, posteriors),
                               ref_joint.sum(axis=1), rtol=RTOL)
    assert e_step(data, params, spec).cond_posterior.tobytes() == \
        posteriors.cond_posterior.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_m_step_statistics_match_per_student(name):
    spec, params, data = case(name)
    _, posteriors = em._e_step(data, params, spec)
    mass = em._pattern_mass(data, posteriors)
    succ, total, design, weights = reference.per_student_m_step_statistics(
        data, reference.per_student_e_step(data, params, spec)[2], spec.n_types)
    ours = em._answer_counts(data.patterns, mass)
    np.testing.assert_allclose(ours[0], succ, rtol=RTOL)
    np.testing.assert_allclose(ours[1], total, rtol=RTOL)
    our_design, our_weights = em._class_block_cases(
        data.x_patterns, data.patterns.x_index, mass, spec.n_types)
    np.testing.assert_array_equal(our_design, design)
    np.testing.assert_allclose(our_weights, weights, rtol=RTOL)


@pytest.mark.parametrize("name", [c for c in CASES if c != "all-identical"])
def test_m_step_of_student_tables_equals_m_step_of_pattern_table(name):
    """``m_step`` of the tables that the per-student E-step computes on each
    student's row lands where ``m_step`` of the fit's own pattern tables
    lands.  (With one response row for all, the item block has no finite
    maximum and its Newton steps run off, so that case is left to the
    statistics above.)"""
    spec, params, data = case(name)
    controls = FitControls()
    _, posteriors = em._e_step(data, params, spec)
    _, tables, _ = reference.per_student_e_step(data, params, spec)
    np.testing.assert_allclose(
        em._pack(m_step(data, tables, params, spec, controls)),
        em._pack(m_step(data, posteriors, params, spec, controls)),
        rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", CASES)
def test_class_posteriors_and_labels_equal_the_student_joint_bitwise(name):
    """Contracting the pattern tables over types one slice at a time gives
    bitwise the class posteriors summed from the (n, k_U, k_V) joint."""
    spec, params, data = case(name)
    posteriors = e_step(data, params, spec)
    _, ref_class = reference.student_tables(data, posteriors)
    assert student_class_posteriors(data, posteriors).tobytes() == ref_class.tobytes()
    ours = assign_students(data, posteriors)
    labels = np.argmax(ref_class, axis=1)
    np.testing.assert_array_equal(ours.labels, labels)
    assert ours.posteriors.tobytes() == \
        ref_class[np.arange(data.n_students), labels].tobytes()


@pytest.mark.parametrize("name", CASES)
def test_summaries_equal_the_per_student_gathers(name):
    spec, params, data = case(name)
    posteriors = e_step(data, params, spec)
    avg_class, avg_type = average_class_weights(data, params, posteriors)
    ref_class, ref_type = reference.average_class_weights(data, params, posteriors)
    np.testing.assert_allclose(avg_class, ref_class, rtol=1e-12, atol=1e-12)
    assert avg_type.tobytes() == ref_type.tobytes()
    ours = school_support_points(data, params, spec, posteriors)
    if name == "lc":
        # No class abilities to average, so no type has a support point.
        assert not ours.defined.any()
        assert np.isnan(ours.raw).all() and np.isnan(ours.standardized).all()
        return
    ref = reference.school_support_points(data, params, spec, posteriors)
    np.testing.assert_array_equal(ours.defined, ref.defined)
    for field in ("raw", "standardized"):
        np.testing.assert_allclose(getattr(ours, field), getattr(ref, field),
                                   rtol=1e-12, atol=1e-12)


def test_classify_builds_no_per_student_joint():
    """Classifying 20,000 desk students (9,525 response patterns) builds
    no (n, k_U, k_V) table.

    Its traced peak was 3,218,619 bytes with the per-student joint and
    class-weight gathers and is 2,142,430 bytes on the patterns; building
    the (n, k_U, k_V) joint (960,000 bytes) for the class posteriors alone
    raises it to 2,781,726 bytes.
    """
    design = desk_design(seed=3, n_schools=1000, school_size=20)
    data = simulate_full(design).dataset
    assert data.patterns.n_patterns == 9525
    tracemalloc.start()
    try:
        classify(data, design.truth, design.spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000, peak


@pytest.mark.parametrize("parameterization", [Parameterization.TWO_PL,
                                              Parameterization.LC])
def test_initial_values_equal_a_scan_of_every_response(parameterization):
    """Counts from the response patterns are sums of whole numbers, so the
    starting values are bitwise those of a scan of every student."""
    rng = np.random.default_rng(8)
    n = sum(SIZES)
    y = random_responses(rng, n, 6)
    y[:, 1], y[:, 2], y[:, 3] = -1, 1, np.where(y[:, 3] == -1, -1, 0)
    data = build_dataset(y, rng.integers(0, 3, size=(n, 1)).astype(float), rng)
    spec = make_spec(dim_of=[0, 0, 0, 1, 1, 1], n_classes=3, n_types=2,
                     parameterization=parameterization)
    raw = reference.initial_item_logits(data)
    assert raw[1] == 0.0 and raw[2] == -5.0 and raw[3] == 5.0
    start = initialize(data, spec)
    if parameterization is Parameterization.LC:
        grid = em._ability_grid(spec.n_classes)
        expected = np.clip(expit(grid[:, None] - raw[None, :]), 1e-8, 1 - 1e-8)
        assert start.lc_success.tobytes() == expected.tobytes()
    else:
        anchored = raw - raw[[0, 0, 0, 3, 3, 3]]
        assert start.difficulty.tobytes() == anchored.tobytes()


def test_fit_keeps_no_per_student_answer_masks():
    """A 20,000-student desk fit holds (P, r) pattern masks, not (n, r) ones.

    Its traced peak was 9,147,846 bytes with per-student masks and is
    4,363,660 bytes with 9,403 response patterns; one (n, r) float mask
    alone is 2,400,000 bytes.
    """
    design = desk_design(seed=2, n_schools=1000, school_size=20)
    data = simulate_full(design).dataset
    controls = FitControls(max_iter=12, tol_loglik=1e-7)
    init = initialize(data, design.spec, seed=4)
    fresh = dataclasses.replace(data)      # builds its patterns in the fit
    tracemalloc.start()
    try:
        fit(fresh, design.spec, controls, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fresh.patterns.n_patterns < data.n_students
    assert peak < 6_000_000, peak
