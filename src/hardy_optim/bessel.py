"""Bessel J0 by power series and its first positive zero by bisection.

Kept free of package-internal numerics so it can serve as an independent
reference for the ODE shooting paths: the series is summed directly from
its definition and the zero is located by sign bisection, nothing else.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import RangeError

# Beyond this the alternating series loses too many digits in float64.
_J0_RANGE = 50.0
_REL_TRUNCATION = 1e-15


def bessel_j0(x):
    """Evaluate J0(x) from the defining series sum_k (-1)^k (x/2)^(2k) / (k!)^2.

    Terms are accumulated until the next term falls below 1e-15 relative to
    the running partial-sum magnitude.  Guarded to |x| <= 50; accuracy
    degrades with cancellation well before that, so callers needing small
    absolute error should stay within |x| <~ 15.  A float gives a float, an
    ndarray an ndarray; every entry stops at its own truncation point, so an
    array gives exactly the elementwise results.
    """
    scalar = not isinstance(x, np.ndarray)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > _J0_RANGE):
        raise RangeError(f"bessel_j0 series guard is |x| <= {_J0_RANGE}, got {x}")
    q = 0.25 * x * x
    term, total, scale = np.ones_like(x), np.ones_like(x), np.ones_like(x)
    active = np.ones(x.shape, dtype=bool)
    k = 0
    while active.any():
        k += 1
        term = np.where(active, term * (-q / (k * k)), term)
        total = np.where(active, total + term, total)
        scale = np.maximum(scale, np.abs(total))
        active &= np.abs(term) > _REL_TRUNCATION * np.maximum(scale, 1e-300)
    return float(total) if scalar else total


@functools.lru_cache(maxsize=1)
def bessel_j0_first_zero() -> float:
    """First positive root of J0, bisected on [2, 3] to 1e-14.

    The bracket is validated (J0(2) > 0 > J0(3)) before bisection starts.
    """
    lo, hi = 2.0, 3.0
    f_lo, f_hi = bessel_j0(lo), bessel_j0(hi)
    if not (f_lo > 0.0 > f_hi):
        raise RangeError("bracket [2, 3] does not straddle the first J0 zero")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
