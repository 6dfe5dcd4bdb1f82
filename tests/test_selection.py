"""BIC, the school-type sweep, MAP assignment, and fitted-model summaries."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import mlcirt.selection
from mlcirt import (
    FitControls,
    Parameterization,
    PosteriorTables,
    ResponseDataset,
    SchoolGroup,
    assign_schools,
    assign_students,
    average_class_weights,
    bic,
    classify,
    e_step,
    multistart_fit,
    school_support_points,
    standardize_abilities,
    sweep_school_types,
    type_probabilities_by_profile,
)
from mlcirt.em import FitResult, MultistartError
from mlcirt.model import count_free_parameters
from mlcirt.simulate import desk_design, simulate_full

import reference
from helpers import make_spec, random_dataset, random_params


class TestBic:

    def test_direct_arithmetic(self):
        assert bic(-100.0, 5, 100) == pytest.approx(200 + 5 * math.log(100),
                                                    abs=1e-10)
        assert bic(-100.0, 5, 100) == pytest.approx(223.02585, abs=1e-5)

    def test_zero_everything(self):
        assert bic(0.0, 0, 17) == 0.0

    def test_large_survey_values(self):
        value = bic(-530039.6, 169, 27592)
        assert value == pytest.approx(1061807.3, abs=0.1)

    def test_monotone_in_complexity_and_fit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ll = -float(rng.uniform(10, 1e5))
            n_par = int(rng.integers(1, 300))
            n = int(rng.integers(2, 10 ** 5))
            assert bic(ll, n_par + 1, n) > bic(ll, n_par, n)
            assert bic(ll - 1.0, n_par, n) > bic(ll, n_par, n)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bic(-1.0, 2, 0)
        with pytest.raises(ValueError):
            bic(-1.0, -1, 10)


def canned_sweep(monkeypatch, logliks, spec, data, ks, **kwargs):
    """Drive sweep_school_types with prescribed per-k log-likelihoods."""
    params_by_k = {k: random_params(spec.replace(n_types=k),
                                    np.random.default_rng(k))
                   for k in ks}

    def fake_fit(_data, row_spec, _controls):
        k = row_spec.n_types
        return FitResult(params=params_by_k[k], loglik=logliks[k],
                         trace=(logliks[k],), n_iter=1, converged=True)

    monkeypatch.setattr(mlcirt.selection, "multistart_fit", fake_fit)
    return sweep_school_types(data, spec, ks, FitControls(n_starts=1), **kwargs)


class TestSweep:

    @pytest.fixture
    def small(self):
        spec = make_spec(n_items=3, n_classes=1, n_types=1, m_v=0, m_u=1)
        data = random_dataset(spec, np.random.default_rng(1), n_schools=4,
                              school_size=3)
        return spec, data

    def test_stops_at_first_bic_increase(self, small, monkeypatch):
        """Unimodal BIC: the sweep stops one step past the minimum."""
        spec, data = small
        n = data.n_students
        # choose logliks so BIC decreases through k=3 and increases at k=4
        delta = count_free_parameters(spec.replace(n_types=2)) - \
            count_free_parameters(spec.replace(n_types=1))
        penalty = math.log(n) * delta
        logliks = {1: -500.0,
                   2: -500.0 + penalty,          # BIC flat would tie; add gain
                   3: -500.0 + 2.2 * penalty,
                   4: -500.0 + 2.3 * penalty}    # small gain: BIC rises
        logliks[2] = -500.0 + 1.2 * penalty
        result = canned_sweep(monkeypatch, logliks, spec, data, [1, 2, 3, 4, 5])
        assert result.chosen_n_types == 3
        assert [row.n_types for row in result.rows] == [1, 2, 3, 4]
        bics = [row.bic for row in result.rows]
        assert bics[0] > bics[1] > bics[2] < bics[3]

    def test_increasing_bic_keeps_first_value(self, small, monkeypatch):
        spec, data = small
        logliks = {1: -500.0, 2: -499.9, 3: -499.8}
        result = canned_sweep(monkeypatch, logliks, spec, data, [1, 2, 3])
        assert result.chosen_n_types == 1
        assert len(result.rows) == 2

    def test_monotone_decreasing_bic_keeps_last(self, small, monkeypatch):
        spec, data = small
        n = data.n_students
        step = math.log(n) * 10
        logliks = {k: -500.0 + k * step for k in (1, 2, 3)}
        result = canned_sweep(monkeypatch, logliks, spec, data, [1, 2, 3])
        assert result.chosen_n_types == 3
        assert len(result.rows) == 3

    def test_chosen_is_argmin_for_unimodal_sequences(self, small, monkeypatch):
        spec, data = small
        rng = np.random.default_rng(2)
        n = data.n_students
        delta = count_free_parameters(spec.replace(n_types=2)) - \
            count_free_parameters(spec.replace(n_types=1))
        penalty = math.log(n) * delta
        for _ in range(10):
            ks = [1, 2, 3, 4]
            best = int(rng.integers(1, 5))
            logliks = {}
            value = -800.0
            for k in ks:
                gain = penalty * (1.5 if k <= best else 0.2)
                value = value + gain
                logliks[k] = value
            result = canned_sweep(monkeypatch, logliks, spec, data, ks)
            bics = {row.n_types: bic(logliks[row.n_types],
                                     count_free_parameters(
                                         spec.replace(n_types=row.n_types)),
                                     n)
                    for row in result.rows}
            assert result.chosen_n_types == min(bics, key=bics.get)

    def test_row_failure_recorded_and_sweep_continues(self, small, monkeypatch):
        spec, data = small

        def flaky(_data, row_spec, _controls):
            if row_spec.n_types == 2:
                raise MultistartError(["start 0: boom"])
            ll = {1: -480.0, 3: -479.0}[row_spec.n_types]
            return FitResult(params=random_params(row_spec,
                                                  np.random.default_rng(0)),
                             loglik=ll, trace=(ll,), n_iter=1, converged=True)

        monkeypatch.setattr(mlcirt.selection, "multistart_fit", flaky)
        result = sweep_school_types(data, spec, [1, 2, 3],
                                    FitControls(n_starts=1))
        assert result.rows[1].error is not None
        assert result.rows[1].loglik is None
        assert len(result.rows) == 3

    @pytest.mark.filterwarnings("ignore:n_types=")
    def test_invalid_fit_inputs_are_raised_not_recorded(self):
        """Only a failed multistart becomes a row: inputs that no row can fit
        raise the ``ValueError`` that ``multistart_fit`` raises."""
        design = desk_design(n_schools=4, school_size=3)
        data = simulate_full(design).dataset
        spec = design.spec.replace(n_student_covariates=2)
        with pytest.raises(ValueError, match="student covariates have 1 columns, "
                                             "expected 2"):
            sweep_school_types(data, spec, [1, 2], FitControls(n_starts=1))

    def test_warns_when_types_below_classes(self, small):
        spec, data = small
        spec = spec.replace(n_classes=3)
        with pytest.warns(UserWarning, match="below n_classes"):
            sweep_school_types(data, spec, [1],
                               FitControls(max_iter=5, n_starts=1))

    def test_descending_range_rejected(self, small):
        spec, data = small
        with pytest.raises(ValueError):
            sweep_school_types(data, spec, [3, 1], FitControls(n_starts=1))


def posterior_tables(z_hu, z_class_list):
    """A dataset with one school per entry of ``z_class_list`` and one
    response pattern per student, and PosteriorTables whose class
    posteriors given every type are the student's row of its school's
    entry (so that, with type posteriors summing to 1, they are its class
    posteriors)."""
    z_hu = np.asarray(z_hu, dtype=float)
    schools, first = [], 0
    for h, z in enumerate(z_class_list):
        n_h = len(z)
        schools.append(SchoolGroup(
            school_id=f"s{h}", covariates=np.zeros(0),
            student_ids=tuple(f"s{h}-i{i}" for i in range(n_h)),
            # A distinct covariate row per student: a pattern per student.
            student_covariates=np.arange(first, first + n_h, dtype=float)[:, None],
            responses=np.zeros((n_h, 1), dtype=np.int8)))
        first += n_h
    data = ResponseDataset.from_schools(schools)
    z_class = np.concatenate([np.asarray(z, dtype=float) for z in z_class_list])
    cond = np.empty((data.n_students, z_hu.shape[1], z_class.shape[1]))
    cond[data.patterns.index] = z_class[:, None, :]
    return data, PosteriorTables(type_posterior=z_hu, cond_posterior=cond)


class TestAssignments:

    def test_student_argmax(self):
        data, post = posterior_tables(np.array([[1.0]]),
                                      [np.array([[0.1, 0.7, 0.2]])])
        out = assign_students(data, post)
        assert out.labels[0] == 1
        assert out.posteriors[0] == pytest.approx(0.7)

    def test_student_tie_breaks_low(self):
        data, post = posterior_tables(np.array([[1.0]]),
                                      [np.array([[1 / 3, 1 / 3, 1 / 3]])])
        assert assign_students(data, post).labels[0] == 0

    def test_student_degenerate(self):
        data, post = posterior_tables(np.array([[1.0]]),
                                      [np.array([[1.0, 0.0, 0.0]])])
        out = assign_students(data, post)
        assert out.labels[0] == 0
        assert out.posteriors[0] == 1.0

    def test_school_argmax_and_ties(self):
        _, post = posterior_tables(np.array([[0.6, 0.4], [0.5, 0.5], [0.0, 1.0]]),
                                   [np.array([[1.0]])] * 3)
        out = assign_schools(post)
        np.testing.assert_array_equal(out.labels, [0, 0, 1])
        np.testing.assert_allclose(out.posteriors, [0.6, 0.5, 1.0])

    def test_argmax_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rng.dirichlet(np.ones(4), size=5)
            data, post = posterior_tables(np.ones((1, 1)), [z])
            base = assign_students(data, post).labels
            data2, post2 = posterior_tables(np.ones((1, 1)), [np.sqrt(z)])
            np.testing.assert_array_equal(assign_students(data2, post2).labels, base)


def with_repeated_rows(data, rng):
    """``data`` with each student's covariate row drawn from three rows, so
    that students share covariate patterns."""
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, -1.0]])
    x = rows[rng.integers(0, len(rows), size=data.n_students)]
    return dataclasses.replace(data, student_covariates=x)


class TestSummaries:

    def test_average_weights_single_class(self):
        spec = make_spec(n_items=3, n_classes=1, n_types=1, m_v=0, m_u=0)
        rng = np.random.default_rng(4)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=2, school_size=3)
        post = e_step(data, params, spec)
        avg_class, avg_type = average_class_weights(data, params, spec, post)
        np.testing.assert_allclose(avg_class, [1.0])
        np.testing.assert_allclose(avg_type, [1.0])

    def test_average_weights_arithmetic_mean(self):
        """Two students with known weights average entry by entry."""
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=1, m_u=0)
        logit = lambda p: math.log(p / (1 - p))
        params = random_params(spec, np.random.default_rng(5)).replace(
            class_intercepts=[[logit(0.8)]], class_slopes=[[logit(0.4) - logit(0.8)]])
        data = random_dataset(spec, np.random.default_rng(6), n_schools=1,
                              school_size=2)
        x = np.array([[0.0], [1.0]])
        school = dataclasses.replace(data.schools[0], student_covariates=x)
        data = ResponseDataset.from_schools((school,))
        post = e_step(data, params, spec)
        avg_class, _ = average_class_weights(data, params, spec, post)
        np.testing.assert_allclose(avg_class, [(0.2 + 0.6) / 2, (0.8 + 0.4) / 2],
                                   atol=1e-12)

    def test_average_weights_match_per_student_loop(self):
        """Ragged schools, three types, two covariate columns, with every
        row distinct and with repeated rows: the sums over covariate
        patterns equal the per-student mixture written as a loop."""
        rng = np.random.default_rng(19)
        spec = make_spec(n_items=3, n_classes=3, n_types=3, m_v=2, m_u=1)
        params = random_params(spec, rng)
        distinct = random_dataset(spec, rng, n_schools=5, school_size=(1, 6))
        for data in (distinct, with_repeated_rows(distinct, rng)):
            post = e_step(data, params, spec)
            total = np.zeros(3)
            for h, school in enumerate(data.schools):
                for x, u in itertools.product(school.student_covariates, range(3)):
                    total += post.type_posterior[h, u] * np.array(
                        reference.class_probs(params.class_intercepts,
                                              params.class_slopes, x, u))
            avg_class, _ = average_class_weights(data, params, spec, post)
            np.testing.assert_allclose(avg_class, total / data.n_students,
                                       atol=1e-12)

    def test_average_weights_on_simplex(self):
        rng = np.random.default_rng(7)
        spec = make_spec(n_items=3, n_classes=3, n_types=2, m_v=1, m_u=1)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=4, school_size=3)
        post = e_step(data, params, spec)
        avg_class, avg_type = average_class_weights(data, params, spec, post)
        assert abs(avg_class.sum() - 1.0) <= 1e-10
        assert abs(avg_type.sum() - 1.0) <= 1e-10

    def test_standardize_hand_example(self):
        out = standardize_abilities(np.array([-1.0, 0.0, 1.0]),
                                    np.full(3, 1 / 3))
        np.testing.assert_allclose(out, [-1.2247448714, 0.0, 1.2247448714],
                                   atol=1e-9)

    def test_standardize_constant_column(self):
        out = standardize_abilities(np.full((3, 2), 0.7), np.full(3, 1 / 3))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_standardize_idempotent(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(4, 2))
        weights = rng.dirichlet(np.ones(4))
        once = standardize_abilities(values, weights)
        twice = standardize_abilities(once, weights)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_standardize_weighted_moments(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            values = rng.normal(size=(5, 3))
            weights = rng.dirichlet(np.ones(5))
            out = standardize_abilities(values, weights)
            for d in range(3):
                mean = weights @ out[:, d]
                var = weights @ (out[:, d] - mean) ** 2
                assert abs(mean) <= 1e-10
                assert abs(var - 1.0) <= 1e-10

    def test_support_points_equal_abilities_collapse(self):
        """All classes at the same ability: every support point equals it,
        and standardization sends them to zero."""
        spec = make_spec(n_items=3, n_classes=2, n_types=2, m_v=0, m_u=0)
        rng = np.random.default_rng(10)
        params = random_params(spec, rng).replace(
            abilities=np.full((2, 1), 0.7))
        data = random_dataset(spec, rng, n_schools=3, school_size=3)
        post = e_step(data, params, spec)
        points = school_support_points(data, params, spec, post)
        np.testing.assert_allclose(points.raw, [0.7, 0.7], atol=1e-12)
        np.testing.assert_allclose(points.standardized, [0.0, 0.0], atol=1e-12)
        assert points.defined.all()

    def test_support_points_single_type_is_overall_mean(self):
        spec = make_spec(n_items=3, n_classes=2, n_types=1, m_v=1, m_u=0)
        rng = np.random.default_rng(11)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=3, school_size=3)
        post = e_step(data, params, spec)
        points = school_support_points(data, params, spec, post)
        # direct double average over schools, students, and classes
        per_school = []
        for school in data.schools:
            values = []
            for i in range(school.n_students):
                w = reference.class_probs(params.class_intercepts,
                                          params.class_slopes,
                                          school.student_covariates[i], 0)
                values.append(float(w @ params.abilities.mean(axis=1)))
            per_school.append(np.mean(values))
        assert points.raw[0] == pytest.approx(np.mean(per_school), abs=1e-12)

    def test_support_points_match_per_student_loop(self):
        """Repeated rows of two covariate columns, three types: the support
        points equal the double average written per student."""
        rng = np.random.default_rng(20)
        spec = make_spec(n_items=3, n_classes=3, n_types=3, m_v=2, m_u=1)
        params = random_params(spec, rng)
        data = with_repeated_rows(
            random_dataset(spec, rng, n_schools=5, school_size=(1, 6)), rng)
        post = e_step(data, params, spec)
        class_mean = params.abilities.mean(axis=1)
        school_mean = np.array([
            [np.mean([reference.class_probs(params.class_intercepts,
                                            params.class_slopes, x, u) @ class_mean
                      for x in school.student_covariates]) for u in range(3)]
            for school in data.schools])
        z = post.type_posterior
        expected = (z * school_mean).sum(axis=0) / z.sum(axis=0)
        points = school_support_points(data, params, spec, post)
        np.testing.assert_allclose(points.raw, expected, atol=1e-12)

    def test_support_points_hand_computed(self):
        """Two schools, two types: weighted double average done by hand."""
        spec = make_spec(n_items=2, n_classes=2, n_types=2, m_v=0, m_u=0)
        logit = lambda p: math.log(p / (1 - p))
        params = random_params(spec, np.random.default_rng(12)).replace(
            abilities=np.array([[-1.0], [2.0]]),
            class_intercepts=[[logit(0.3)], [logit(0.6)]],
            class_slopes=np.zeros((1, 0)))
        data = random_dataset(spec, np.random.default_rng(13), n_schools=2,
                              school_size=2)
        post = e_step(data, params, spec)
        z = post.type_posterior
        # expected ability of any student: -1 * (1 - p) + 2 * p
        e_u = {0: -1.0 + 3.0 * 0.3, 1: -1.0 + 3.0 * 0.6}
        for u in range(2):
            num = z[0, u] * e_u[u] + z[1, u] * e_u[u]
            den = z[:, u].sum()
            points = school_support_points(data, params, spec, post)
            assert points.raw[u] == pytest.approx(num / den, abs=1e-12)

    def test_support_points_empty_type_flagged(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=2, m_v=0, m_u=0)
        rng = np.random.default_rng(14)
        params = random_params(spec, rng)
        data = random_dataset(spec, rng, n_schools=2, school_size=2)
        post = e_step(data, params, spec)
        starved = PosteriorTables(
            type_posterior=np.array([[1.0, 0.0], [1.0, 0.0]]),
            cond_posterior=post.cond_posterior,
        )
        points = school_support_points(data, params, spec, starved)
        assert points.defined[0]
        assert not points.defined[1]
        assert np.isnan(points.raw[1])

    def test_support_points_undefined_without_abilities(self):
        """An "lc" fit has no class abilities to average: every type's
        support point is undefined, and there are no standardized abilities."""
        design = desk_design(seed=1, n_schools=20, school_size=10)
        data = simulate_full(design).dataset
        spec = design.spec.replace(parameterization=Parameterization.LC)
        params = multistart_fit(data, spec, FitControls(max_iter=50, n_starts=2)).params
        assert params.abilities is None
        points = school_support_points(data, params, spec, e_step(data, params, spec))
        assert not points.defined.any()
        assert np.isnan(points.raw).all() and np.isnan(points.standardized).all()
        assert classify(data, params, spec).abilities_std is None

    def test_profile_probabilities(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=2, m_v=0, m_u=1)
        params = random_params(spec, np.random.default_rng(15)).replace(
            type_intercepts=[math.log(4.0)], type_slopes=[[0.0]])
        table = type_probabilities_by_profile(params, [np.array([0.0])])
        np.testing.assert_allclose(table, [[0.2, 0.8]], atol=1e-12)

    def test_profile_uniform_when_zero(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=3, m_v=0, m_u=1)
        params = random_params(spec, np.random.default_rng(16)).replace(
            type_intercepts=np.zeros(2), type_slopes=np.zeros((2, 1)))
        table = type_probabilities_by_profile(
            params, [np.array([0.0]), np.array([1.0])])
        np.testing.assert_allclose(table, np.full((2, 3), 1 / 3), atol=1e-12)

    def test_profile_rows_on_simplex(self):
        rng = np.random.default_rng(17)
        spec = make_spec(n_items=2, n_classes=1, n_types=4, m_v=0, m_u=2)
        params = random_params(spec, rng, scale=2.0)
        table = type_probabilities_by_profile(params, rng.normal(size=(6, 2)))
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_profile_width_mismatch_rejected(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=2, m_v=0, m_u=2)
        params = random_params(spec, np.random.default_rng(18))
        with pytest.raises(ValueError, match="profiles have shape"):
            type_probabilities_by_profile(params, [np.zeros(3)])
        with pytest.raises(ValueError, match="profiles have shape"):
            type_probabilities_by_profile(params, np.zeros(2))
