"""Small numeric helpers shared by the likelihood and EM internals."""

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
