"""Hoelder-dual lower bound for the constrained Hardy-gap infimum.

For an admissible multiplier c (c <= c(V)) and 0 < p <= 2, every u with
||u||_p = 1 satisfies

    gap(u) >= int c v u^2 >= 1 / || (c v)^{-1} ||_{L^q},   q = p / (2 - p),

so the reciprocal dual norm is a computable lower bound on the gap infimum.
At p = 2 the exponent degenerates and the bound is the essential infimum of
c v over (0, R).

The norm is taken in s = ln(1/r), in log space: with g = ``log_weight``,

    ||(c v)^{-1}||_q^q = n omega_n I,   I = int_{s_R}^inf (c g(s))^(-q) e^(-(2q+n) s) ds,

s_R = ln(1/R), and the bound is exp(-(ln(n omega_n) + ln I) / q), so that
(c v)^(-q) never has to be a float.  On ``log_cells`` (constants, power
laws, tables) ln I is exact, from ``log_cell_tails`` as ``classify``'s
tails; the two log families (an ``EulerTail``) take an exp-sinh double-
exponential rule (Takahasi and Mori 1974) on ``euler_gamma``.  numpy only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bestconst import unit_ball_volume
from .errors import DivergentNorm, DomainError, InvalidP, QuadratureError
from .potentials import (TINY, VANISHING, EulerTail, RadialPotential, exp_or_inf,
                         log_cell_tails)

# The exp-sinh rule sums t in [-4, 3]: u from 2e-19, below which a piece
# of I is under 1e-18 of it, to 7e6, past which the integrand, decaying at
# least like e^(-u) there, is below e^(-1e6) of its peak.
_DE_T_LO, _DE_T_HI = -4.0, 3.0
_DE_LEVELS = 8       # halvings of the step (h = 1/2 .. 1/256) before QuadratureError
_DE_RTOL = 1e-12     # two successive levels agree to this, relative


@dataclass(frozen=True)
class DualBound:
    p: float
    q: Optional[float]            # None encodes the degenerate p = 2 case
    bound: float
    c_used: float
    divergent: bool
    potential: RadialPotential


def dual_lower_bound(p_pot: RadialPotential, c: float, p: float, n: int,
                     R: float) -> DualBound:
    """1 / ||(c v)^{-1}||_{L^{p/(2-p)}} on the ball of radius R.

    The norm is the radial integral (n omega_n int_0^R (c v)^{-q} r^{n-1} dr)^{1/q},
    evaluated as ln I (see the module docstring).  A divergent integral is
    reported as an explicit zero bound with the ``divergent`` flag set (the
    local integrand exponent at the origin is checked first: sigma q + n - 1
    <= -1 certifies divergence, as does a vanishing potential).  A bound
    past the largest double, or 0 at p < 2, raises DivergentNorm.
    """
    if not 0.0 < p <= 2.0:
        raise InvalidP(f"exponent p must be in (0, 2], got {p}")
    if c <= 0.0:
        raise DomainError(f"multiplier must be positive, got {c}")
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    p_pot.check_radius(R)

    if p == 2.0:
        bound = _essential_infimum(p_pot, c, R)
        if bound == math.inf:
            raise DivergentNorm(f"c ess inf v is past the largest double at c = {c!r}")
        return DualBound(p, None, bound, c, divergent=False, potential=p_pot)

    q, tail = p / (2.0 - p), p_pot.tail
    # integrand ~ r^(sigma q + n - 1) at the origin; a vanishing v
    # (amplitude 0) makes (c v)^(-q) infinite everywhere
    exponent0 = p_pot.sigma * q + n - 1.0
    if exponent0 <= -1.0 or tail is VANISHING:
        return DualBound(p, q, 0.0, c, divergent=True, potential=p_pot)

    s_R = -math.log(R)
    if isinstance(tail, EulerTail):
        log_i = _exp_sinh_log_integral(p_pot, c, q, n, s_R)
    else:
        log_i = -q * math.log(c) + float(
            log_cell_tails(p_pot.log_cells, np.array([s_R]), -q, -(2.0 * q + n))[0])
    log_norm = (math.log(n * unit_ball_volume(n)) + log_i) / q
    with np.errstate(over="ignore"):
        bound = float(np.exp(-log_norm))
    if not 0.0 < bound < math.inf:
        raise DivergentNorm(f"dual norm evaluated to exp({log_norm!r})")
    return DualBound(p, q, bound, c, divergent=False, potential=p_pot)


def _exp_sinh_log_integral(p_pot: RadialPotential, c: float, q: float, n: int,
                           s_R: float) -> float:
    """ln I for the two log families by the exp-sinh rule in u = lam (s - s_R),
    u = exp(pi/2 sinh t), with the step h halved (h = 1/2, 1/4, ...) until
    two successive levels agree to _DE_RTOL relative; each level adds the
    new nodes to the old.  lam = 2q + n - 2q / (s_R - s0) >= n is the decay
    rate at s_R of the m = 1 integrand, (s - s0)^(2q) e^(-(2q+n) s), s0 the
    Euler shift.  ln(c g) is ln c + ln G(tau) - 2 tau at tau = ln(s - s0), G
    = ``euler_gamma`` >= A, so that no node underflows g.  Raises
    QuadratureError after _DE_LEVELS levels."""
    s0 = p_pot.euler_shift_hint()
    lam = 2.0 * q + n - 2.0 * q / (s_R - s0)

    def log_terms(t: np.ndarray) -> np.ndarray:
        # ln of the integrand times ds/dt, less the constant -(2q+n) s_R
        e = 0.5 * math.pi * np.sinh(t)
        du = e + np.log(0.5 * math.pi * np.cosh(t) / lam)
        s_off = np.exp(e) / lam
        tau = np.log(s_R - s0 + s_off)
        return -q * (math.log(c) + np.log(p_pot.euler_gamma(tau)) - 2.0 * tau) \
            - (2.0 * q + n) * s_off + du

    h = 0.5
    terms = log_terms(np.arange(_DE_T_LO, _DE_T_HI + 0.5 * h, h))
    estimate = np.logaddexp.reduce(terms) + math.log(h)
    for _ in range(1, _DE_LEVELS):
        h *= 0.5
        terms = np.append(terms, log_terms(np.arange(_DE_T_LO + h, _DE_T_HI, 2.0 * h)))
        estimate, previous = np.logaddexp.reduce(terms) + math.log(h), estimate
        if abs(estimate - previous) <= _DE_RTOL:
            return float(estimate) - (2.0 * q + n) * s_R
    raise QuadratureError(f"dual norm integral unsettled after {_DE_LEVELS} exp-sinh levels: "
                          f"ln I = {float(estimate) - (2.0 * q + n) * s_R!r}")


def _essential_infimum(p_pot: RadialPotential, c: float, R: float) -> float:
    """Infimum of c v over (0, R], 0 where it vanishes.  Exact on ``log_cells``
    (a constant, a power law, a table), where v is monotone on each cell: 0
    when the inner cell falls to the origin (sigma < 0), else c times the
    least of v(R) and v at the knots inside the ball, from ln v where v is
    no normal float.  On the log families, the least of v (of ln v where r^2
    underflows, v = inf at every radius) over 4096 log-spaced radii in [1e-9
    R, R], then over 65 on the two cells around the least, until that
    bracket is 1e-10 wide in ln r: one sampled minimum overstates the dip of
    the X family at m >= 2."""
    tail = p_pot.tail
    if tail is VANISHING:
        return 0.0
    if not isinstance(tail, EulerTail):
        knots, s_R = p_pot.log_cells[0], -math.log(R)
        s = knots[knots >= s_R]
        v = float(min(p_pot.value(R), p_pot.value(np.exp(-s)).min(initial=math.inf)))
        if p_pot.sigma < 0.0:
            return 0.0
        if TINY <= v < math.inf:
            return c * v
        return exp_or_inf(math.log(c) + p_pot.log_weight_exponent(np.append(s, s_R), 2.0).min())
    t, least, ln = np.linspace(math.log(1e-9 * R), math.log(R), 4096), math.inf, False
    while True:
        v = np.log(p_pot.log_weight(-t)) - 2.0 * t if ln else p_pot.value(np.exp(t))
        if not ln and v.min() == math.inf:
            ln = True
            continue
        k = int(np.argmin(v))
        least = min(least, float(v[k]))
        lo, hi = t[max(k - 1, 0)], t[min(k + 1, t.size - 1)]
        if hi - lo <= 1e-10:
            return exp_or_inf(math.log(c) + least) if ln else c * least
        t = np.linspace(lo, hi, 65)
