"""The numeric helpers: slice-by-slice reductions and the logistic function.

``logsumexp_last`` and the E-step reduce over axes of length k_U or k_V
with one in-place ufunc call per slice.  These tests pin them bit for bit
to the numpy reductions they replace, wherever numpy sums in sequence
(axes shorter than 8), and to scipy within rounding beyond that.

``expit``, ``logit`` and ``log_expit`` are checked against
``scipy.special`` as the oracle, out to the ends of the float range.
"""

import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import logsumexp

from mlcirt._numeric import expit, log_expit, logit, logsumexp_last
from mlcirt.em import e_step, student_class_posteriors
from mlcirt.likelihood import stacked_loglik_terms

import reference
from helpers import make_spec, random_dataset, random_params


def old_logsumexp(arr, axis, keepdims=False):
    """The numpy-reduction formula ``logsumexp_last`` replaced."""
    shift = np.max(arr, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    out = shift + np.log(np.sum(np.exp(arr - shift), axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def with_last_axis(lengths, elements):
    """Arrays of 0-2 leading axes and a last axis of one of ``lengths``."""
    return st.tuples(array_shapes(min_dims=0, max_dims=2, max_side=5),
                     st.sampled_from(lengths)).flatmap(
        lambda s: arrays(np.float64, s[0] + (s[1],), elements=elements))


INFINITE = st.sampled_from([np.inf, -np.inf])
ELEMENTS = st.one_of(st.floats(-60.0, 60.0), INFINITE,
                     st.floats(allow_nan=False, allow_infinity=False))


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(with_last_axis(range(1, 8), ELEMENTS))
def test_equals_numpy_reduction_bitwise_below_eight(arr):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        expected = old_logsumexp(arr, axis=-1)
        got = logsumexp_last(arr)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(bits(got), bits(expected))


@pytest.mark.parametrize("k", range(1, 8))
def test_all_minus_inf_rows_bitwise(k):
    arr = np.full((3, k), -np.inf)
    arr[1] = np.linspace(-2.0, 2.0, k)
    arr[2, 0] = np.inf
    with np.errstate(divide="ignore"):
        got = logsumexp_last(arr)
        expected = old_logsumexp(arr, axis=-1)
    assert got[0] == -np.inf and got[2] == np.inf
    np.testing.assert_array_equal(bits(got), bits(expected))


@settings(max_examples=100, deadline=None)
@given(with_last_axis(range(8, 20),
                      st.one_of(st.floats(-700.0, 700.0), st.just(-np.inf))))
def test_matches_scipy_from_eight(arr):
    with np.errstate(divide="ignore"):
        got = logsumexp_last(arr)
        expected = logsumexp(arr, axis=-1)
    # Both add the shift to log(sum) and log(sum) <= log(k); where the two
    # nearly cancel, the rounding of the shift bounds the absolute error.
    finite = arr[np.isfinite(arr)]
    scale = 1.0 + (np.abs(finite).max() if finite.size else 0.0)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(with_last_axis(range(1, 12), st.floats(-60.0, 60.0)))
def test_keepdims_shape(arr):
    kept = logsumexp_last(arr, keepdims=True)
    assert kept.shape == arr.shape[:-1] + (1,)
    np.testing.assert_array_equal(kept[..., 0], logsumexp_last(arr))


@pytest.mark.parametrize("k_u", [1, 2, 3])
@pytest.mark.parametrize("k_v", [1, 2, 3, 4, 5])
def test_e_step_equals_gather_and_axis_sum_bitwise(k_u, k_v):
    rng = np.random.default_rng(100 * k_u + k_v)
    spec = make_spec(n_items=5, n_classes=k_v, n_types=k_u, m_v=2, m_u=1)
    params = random_params(spec, rng, scale=1.5)
    data = random_dataset(spec, rng, n_schools=7, school_size=(1, 9),
                          missing_rate=0.1)
    post = e_step(data, params, spec)
    z_joint, _ = reference.student_tables(data, post)
    z_class = student_class_posteriors(data, post)

    _, evidence, school_ll, joint, log_mix = stacked_loglik_terms(
        data, params, spec)
    old_hu = np.exp(evidence - school_ll[:, None])
    old_cond = np.exp(joint - log_mix[:, :, None])
    school_index = np.repeat(np.arange(data.n_schools), data.sizes)
    old_joint = old_cond[data.patterns.index] * old_hu[school_index][:, :, None]
    old_class = old_joint.sum(axis=1)
    np.testing.assert_array_equal(bits(post.type_posterior), bits(old_hu))
    np.testing.assert_array_equal(bits(post.cond_posterior), bits(old_cond))
    np.testing.assert_array_equal(bits(z_joint), bits(old_joint))
    np.testing.assert_array_equal(bits(z_class), bits(old_class))


# The extremes: a tiny logit, exp overflowing near 709.8, expit
# underflowing past -745, and the infinities; then a dense grid.
EXTREME_Z = np.array([0.0, 1e-300, 709.0, 745.0, 800.0, np.inf])
LOGISTIC_Z = np.concatenate([EXTREME_Z, -EXTREME_Z, np.linspace(-50.0, 50.0, 4001),
                             np.random.default_rng(0).normal(0.0, 200.0, 4000)])
# scipy switches logit to a log1p form on (0.3, 0.65); 0.5 is exact in both.
LOGIT_P = np.array([0.0, 1e-300, 1e-8, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-8, 1.0])


@pytest.mark.parametrize("ours, oracle, grid", [
    (expit, scipy.special.expit, LOGISTIC_Z),
    (log_expit, scipy.special.log_expit, LOGISTIC_Z),
    (logit, scipy.special.logit, LOGIT_P),
], ids=["expit", "log_expit", "logit"])
def test_logistic_matches_scipy_within_ulps_without_warnings(ours, oracle, grid):
    expected = oracle(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ours(grid)
        scalars = [ours(float(v)) for v in grid[:20]]
    np.testing.assert_array_max_ulp(got, expected, maxulp=4)
    np.testing.assert_array_equal(scalars, got[:20])
