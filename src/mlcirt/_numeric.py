"""Small numeric helpers shared by the model, likelihood and EM internals.

This module is the package's one home for the logistic function of the
response model, P(right answer) = expit(z) for the response logit z:
``expit``, its inverse ``logit`` and its log form ``log_expit``.  Like
the rest of the package they need numpy alone.  At the extremes (|z|
past about 709, p at 0 or 1) they return 0, 1 or +-inf without a
floating-point warning.  ``logsumexp_last`` is the mixture reduction
over the class and type axes.
"""

from __future__ import annotations

import numpy as np


def logsumexp_last(arr: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Max-shifted log-sum-exp over the last axis.

    Rows that are entirely -inf yield -inf rather than NaN.

    The last axis is a class or type count (2-4 in practice), and numpy's
    ``max``/``sum`` along so short a contiguous axis cost about 50 ns per
    element.  So the reduction runs as k - 1 in-place ufunc calls over the
    ``arr[..., j]`` slices instead.  The result is bitwise equal to
    ``shift + log(sum(exp(arr - shift), axis=-1))`` with ``shift`` the
    row maximum (non-finite maxima replaced by 0): ``max`` is exact in any
    order, and numpy adds up a reduced axis shorter than 8 one element at
    a time from the front, which is the order of the slice loop.  For 8
    or more elements numpy sums pairwise and the two can differ in the
    last bit.
    """
    k = arr.shape[-1]
    shift = arr[..., 0].copy()
    for j in range(1, k):
        np.maximum(shift, arr[..., j], out=shift)
    shift[~np.isfinite(shift)] = 0.0
    # ``out=`` throughout keeps 0-d slices (1-D input) arrays, not scalars.
    total = np.empty_like(shift)
    np.exp(np.subtract(arr[..., 0], shift, out=total), out=total)
    term = np.empty_like(shift)
    for j in range(1, k):
        np.subtract(arr[..., j], shift, out=term)
        np.exp(term, out=term)
        total += term
    np.log(total, out=total)
    total += shift
    return total[..., None] if keepdims else total


def expit(z):
    """The logistic function 1 / (1 + exp(-z)); 0 and 1 at -inf and +inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def logit(p):
    """The inverse of ``expit``, log(p / (1 - p)); -inf and +inf at 0 and 1."""
    p = np.asarray(p, dtype=float)     # so that p = 1 divides the numpy way
    with np.errstate(divide="ignore"):
        return np.log(p / (1.0 - p))


def log_expit(z):
    """log(expit(z)), computed as -log(1 + exp(-z)) so that it stays finite
    (about z) where expit(z) underflows to 0; log_expit(-z) is
    log(1 - expit(z))."""
    return -np.logaddexp(0.0, -z)
