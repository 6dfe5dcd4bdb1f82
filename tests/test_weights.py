"""Multinomial-logit mixing weights at the student and school levels."""

import math

import numpy as np
import pytest

from mlcirt import log_class_weight_matrix, log_type_weight_matrix

import reference
from helpers import make_spec, random_params


def params_with(spec, **blocks):
    return random_params(spec, np.random.default_rng(0)).replace(**blocks)


def class_weights(x_rows, params):
    """(n, k_U, k_V) class weights of a block of covariate rows."""
    return np.exp(log_class_weight_matrix(np.asarray(x_rows, dtype=float), params))


def type_weights(w_rows, params):
    """(H, k_U) type weights of a block of school covariate rows."""
    return np.exp(log_type_weight_matrix(np.asarray(w_rows, dtype=float), params))


class TestStudentClassWeights:

    def test_zero_coefficients_give_uniform(self):
        spec = make_spec(n_items=2, n_classes=3, n_types=2, m_v=2)
        params = params_with(spec, class_intercepts=np.zeros((2, 2)),
                             class_slopes=np.zeros((2, 2)))
        w = class_weights([[0.4, -1.0]], params)
        np.testing.assert_allclose(w, np.full((1, 2, 3), 1 / 3), atol=1e-15)

    def test_intercept_log_two_gives_one_to_two_odds(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=0)
        params = params_with(spec, class_intercepts=[[math.log(2.0)]],
                             class_slopes=np.zeros((1, 0)))
        w = class_weights(np.zeros((1, 0)), params)
        np.testing.assert_allclose(w[0, 0], [1 / 3, 2 / 3], atol=1e-15)

    def test_slope_log_three_with_unit_covariate(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=1)
        params = params_with(spec, class_intercepts=[[0.0]],
                             class_slopes=[[math.log(3.0)]])
        w = class_weights([[1.0]], params)
        np.testing.assert_allclose(w[0, 0], [0.25, 0.75], atol=1e-15)

    def test_covariate_length_mismatch(self):
        spec = make_spec(n_items=2, n_classes=2, n_types=1, m_v=2)
        params = random_params(spec, np.random.default_rng(1))
        with pytest.raises(ValueError):
            log_class_weight_matrix(np.zeros((1, 3)), params)

    def test_same_for_every_type_when_intercepts_shared(self):
        spec = make_spec(n_items=2, n_classes=3, n_types=4, m_v=0)
        shared = np.array([0.3, -0.6])
        params = params_with(spec, class_intercepts=np.tile(shared, (4, 1)),
                             class_slopes=np.zeros((2, 0)))
        w = class_weights(np.zeros((1, 0)), params)
        for u in range(1, 4):
            np.testing.assert_allclose(w[0, u], w[0, 0])


class TestSchoolTypeWeights:

    def test_zero_coefficients_give_uniform(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=5, m_u=0)
        params = params_with(spec, type_intercepts=np.zeros(4),
                             type_slopes=np.zeros((4, 0)))
        w = type_weights(np.zeros((1, 0)), params)
        np.testing.assert_allclose(w[0], [0.2] * 5, atol=1e-15)

    def test_two_types_zero_intercept(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=2, m_u=0)
        params = params_with(spec, type_intercepts=[0.0],
                             type_slopes=np.zeros((1, 0)))
        np.testing.assert_allclose(type_weights(np.zeros((1, 0)), params)[0],
                                   [0.5, 0.5], atol=1e-15)

    def test_odds_one_two_three(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=3, m_u=0)
        params = params_with(spec,
                             type_intercepts=[math.log(2.0), math.log(3.0)],
                             type_slopes=np.zeros((2, 0)))
        np.testing.assert_allclose(type_weights(np.zeros((1, 0)), params)[0],
                                   [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_covariate_length_mismatch(self):
        spec = make_spec(n_items=2, n_classes=1, n_types=2, m_u=1)
        params = random_params(spec, np.random.default_rng(1))
        with pytest.raises(ValueError):
            log_type_weight_matrix(np.zeros((1, 2)), params)


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
            cw = class_weights(rng.normal(size=(4, spec.n_student_covariates)),
                               params)
            assert np.all(cw > 0)
            assert np.all(np.abs(cw.sum(axis=2) - 1.0) <= 1e-12)
            tw = type_weights(rng.normal(size=(4, spec.n_school_covariates)),
                              params)
            assert np.all(tw > 0)
            assert np.all(np.abs(tw.sum(axis=1) - 1.0) <= 1e-12)

    def test_logit_shift_invariance(self):
        """Adding a constant to every class logit leaves weights unchanged."""
        rng = np.random.default_rng(12)
        spec = make_spec(n_items=2, n_classes=4, n_types=2, m_v=2)
        params = random_params(spec, rng)
        x = rng.normal(size=2)
        w = class_weights(x[None, :], params)[0, 1]
        logits = np.concatenate([[0.0], params.class_intercepts[1]
                                 + params.class_slopes @ x])
        for shift in (-3.0, 0.7, 50.0):
            shifted = np.exp(logits + shift)
            np.testing.assert_allclose(w, shifted / shifted.sum(), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        """Coefficients up to +-700 must not overflow at either level."""
        spec = make_spec(n_items=2, n_classes=2, n_types=2, m_v=0, m_u=0)
        for coefficient in (700.0, -700.0):
            params = params_with(spec, class_intercepts=[[coefficient], [0.0]],
                                 class_slopes=np.zeros((1, 0)),
                                 type_intercepts=[coefficient],
                                 type_slopes=np.zeros((1, 0)))
            for w in (class_weights(np.zeros((1, 0)), params)[0],
                      type_weights(np.zeros((1, 0)), params)):
                assert np.all(np.isfinite(w))
                np.testing.assert_allclose(w.sum(axis=-1), 1.0)


class TestBatchedMatrices:

    def test_matrix_matches_scalar_paths(self):
        """Every row of the batched matrices matches the softmax of the
        logits written out from the definition, one unit at a time."""
        rng = np.random.default_rng(13)
        spec = make_spec(n_items=2, n_classes=3, n_types=2, m_v=2, m_u=1)
        params = random_params(spec, rng)
        x = rng.normal(size=(6, 2))
        w_class = class_weights(x, params)
        for i in range(6):
            for u in range(2):
                expected = reference.class_probs(params.class_intercepts,
                                                 params.class_slopes, x[i], u)
                np.testing.assert_allclose(w_class[i, u], expected, atol=1e-14)
        w = rng.normal(size=(4, 1))
        w_type = type_weights(w, params)
        for h in range(4):
            expected = reference.type_probs(params.type_intercepts,
                                            params.type_slopes, w[h])
            np.testing.assert_allclose(w_type[h], expected, atol=1e-14)
