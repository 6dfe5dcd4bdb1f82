"""Multinomial-logit mixing weights at the student and school levels."""

import math

import numpy as np
import pytest

from mlcirt import school_type_weights, student_class_weights
from mlcirt.weights import log_class_weight_matrix, log_type_weight_matrix

from helpers import make_spec, random_params


def params_with(spec, **blocks):
    return random_params(spec, np.random.default_rng(0)).replace(**blocks)


class TestStudentClassWeights:

    def test_zero_coefficients_give_uniform(self):
        spec = make_spec(n_items=2, n_classes=3, n_types=2, m_v=2)
        params = params_with(spec, class_intercepts=np.zeros((2, 2)),
                             class_slopes=np.zeros((2, 2)))
        w = student_class_weights(np.array([0.4, -1.0]), 0, params)
        np.testing.assert_allclose(w, [1 / 3] * 3, atol=1e-15)

    def test_intercept_log_two_gives_one_to_two_odds(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=0)
        params = params_with(spec, class_intercepts=[[math.log(2.0)]],
                             class_slopes=np.zeros((1, 0)))
        w = student_class_weights(np.zeros(0), 0, params)
        np.testing.assert_allclose(w, [1 / 3, 2 / 3], atol=1e-15)

    def test_slope_log_three_with_unit_covariate(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=1)
        params = params_with(spec, class_intercepts=[[0.0]],
                             class_slopes=[[math.log(3.0)]])
        w = student_class_weights(np.array([1.0]), 0, params)
        np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-15)

    def test_type_index_out_of_range(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=2)
        params = random_params(spec, np.random.default_rng(1))
        with pytest.raises(IndexError):
            student_class_weights(np.zeros(1), 2, params)

    def test_covariate_length_mismatch(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=2)
        params = random_params(spec, np.random.default_rng(1))
        with pytest.raises(ValueError):
            student_class_weights(np.zeros(3), 0, params)

    def test_same_for_every_type_when_intercepts_shared(self):
        spec = make_spec(n_items=2, n_classes=3, n_types=4, m_v=0)
        shared = np.array([0.3, -0.6])
        params = params_with(spec, class_intercepts=np.tile(shared, (4, 1)),
                             class_slopes=np.zeros((2, 0)))
        base = student_class_weights(np.zeros(0), 0, params)
        for u in range(1, 4):
            np.testing.assert_allclose(
                student_class_weights(np.zeros(0), u, params), base)


class TestSchoolTypeWeights:

    def test_zero_coefficients_give_uniform(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=5, m_u=0)
        params = params_with(spec, type_intercepts=np.zeros(4),
                             type_slopes=np.zeros((4, 0)))
        w = school_type_weights(np.zeros(0), params)
        np.testing.assert_allclose(w, [0.2] * 5, atol=1e-15)

    def test_two_types_zero_intercept(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=2, m_u=0)
        params = params_with(spec, type_intercepts=[0.0],
                             type_slopes=np.zeros((1, 0)))
        np.testing.assert_allclose(school_type_weights(np.zeros(0), params),
                                   [0.5, 0.5], atol=1e-15)

    def test_odds_one_two_three(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=3, m_u=0)
        params = params_with(spec,
                             type_intercepts=[math.log(2.0), math.log(3.0)],
                             type_slopes=np.zeros((2, 0)))
        np.testing.assert_allclose(school_type_weights(np.zeros(0), params),
                                   [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_covariate_length_mismatch(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=2, m_u=1)
        params = random_params(spec, np.random.default_rng(1))
        with pytest.raises(ValueError):
            school_type_weights(np.zeros(2), params)
        with pytest.raises(ValueError):
            school_type_weights(np.zeros((1, 1)), params)


class TestSimplexProperties:

    def test_weights_on_simplex(self):
        """Strictly positive entries summing to 1 within 1e-12."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = make_spec(n_items=2,
                             n_classes=int(rng.integers(1, 5)),
                             n_types=int(rng.integers(1, 4)),
                             m_v=int(rng.integers(0, 3)),
                             m_u=int(rng.integers(0, 3)))
            params = random_params(spec, rng, scale=3.0)
            x = rng.normal(size=spec.n_student_covariates)
            w = rng.normal(size=spec.n_school_covariates)
            for u in range(spec.n_types):
                cw = student_class_weights(x, u, params)
                assert np.all(cw > 0)
                assert abs(cw.sum() - 1.0) <= 1e-12
            tw = school_type_weights(w, params)
            assert np.all(tw > 0)
            assert abs(tw.sum() - 1.0) <= 1e-12

    def test_logit_shift_invariance(self):
        """Adding a constant to every class logit leaves weights unchanged."""
        rng = np.random.default_rng(12)
        spec = make_spec(n_items=2, n_classes=4, n_types=2, m_v=2)
        params = random_params(spec, rng)
        x = rng.normal(size=2)
        w = student_class_weights(x, 1, params)
        logits = np.concatenate([[0.0], params.class_intercepts[1]
                                 + params.class_slopes @ x])
        for shift in (-3.0, 0.7, 50.0):
            shifted = np.exp(logits + shift)
            np.testing.assert_allclose(w, shifted / shifted.sum(), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        """Coefficients up to +-700 must not overflow."""
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=0)
        params = params_with(spec, class_intercepts=[[700.0]],
                             class_slopes=np.zeros((1, 0)))
        w = student_class_weights(np.zeros(0), 0, params)
        assert np.all(np.isfinite(w))
        assert w.sum() == pytest.approx(1.0)


class TestBatchedMatrices:

    def test_matrix_matches_scalar_paths(self):
        """Batched rows match the softmax of the logits written out from the
        definition, and the per-vector wrappers up to rounding (the matrix
        product kernel depends on the row count)."""
        rng = np.random.default_rng(13)
        spec = make_spec(n_items=2, n_classes=3, n_types=2, m_v=2, m_u=1)
        params = random_params(spec, rng)
        x = rng.normal(size=(6, 2))
        logw = log_class_weight_matrix(x, params)
        for i in range(6):
            for u in range(2):
                logits = np.concatenate([[0.0], params.class_intercepts[u]
                                         + params.class_slopes @ x[i]])
                expected = np.exp(logits) / np.exp(logits).sum()
                np.testing.assert_allclose(np.exp(logw[i, u]), expected,
                                           atol=1e-14)
                np.testing.assert_allclose(
                    np.exp(logw[i, u]), student_class_weights(x[i], u, params),
                    atol=1e-15)
        w = rng.normal(size=(4, 1))
        logt = log_type_weight_matrix(w, params)
        for h in range(4):
            logits = np.concatenate([[0.0], params.type_intercepts
                                     + params.type_slopes @ w[h]])
            np.testing.assert_allclose(np.exp(logt[h]),
                                       np.exp(logits) / np.exp(logits).sum(),
                                       atol=1e-14)
            np.testing.assert_allclose(np.exp(logt[h]),
                                       school_type_weights(w[h], params),
                                       atol=1e-15)
