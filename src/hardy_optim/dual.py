"""Hoelder-dual lower bound for the constrained Hardy-gap infimum.

For an admissible multiplier c (c <= c(V)) and 0 < p <= 2, every u with
||u||_p = 1 satisfies

    gap(u) >= int c v u^2 >= 1 / || (c v)^{-1} ||_{L^q},   q = p / (2 - p),

so the reciprocal dual norm is a computable lower bound on the gap infimum.
At p = 2 the exponent degenerates and the bound is the essential infimum of
c v over (0, R).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bestconst import unit_ball_volume
from .errors import DivergentNorm, DomainError, InvalidP, QuadratureError
from .potentials import RadialPotential


# scipy is imported by the first call that needs it (see ``ode.solve_ivp``)

def quad(*args, **kwargs):
    """scipy.integrate.quad."""
    from scipy import integrate
    return integrate.quad(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    """scipy.optimize.minimize_scalar."""
    from scipy import optimize
    return optimize.minimize_scalar(*args, **kwargs)


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

    The norm is the radial integral (n omega_n int_0^R (c v)^{-q} r^{n-1} dr)^{1/q}.
    A divergent integral is reported as an explicit zero bound with the
    ``divergent`` flag set (the local integrand exponent at the origin is
    checked first: sigma q + n - 1 <= -1 certifies divergence, as does a
    vanishing potential).
    """
    if not 0.0 < p <= 2.0:
        raise InvalidP(f"exponent p must be in (0, 2], got {p}")
    if c <= 0.0:
        raise DomainError(f"multiplier must be positive, got {c}")
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    if not 0.0 < R <= p_pot.r_max * (1.0 + 1e-12):
        raise DomainError(f"R = {R} outside (0, r_max = {p_pot.r_max}]")

    if p == 2.0:
        bound = c * _essential_infimum(p_pot, R)
        return DualBound(p, None, bound, c, divergent=False, potential=p_pot)

    q = p / (2.0 - p)
    # integrand ~ r^(sigma q + n - 1) at the origin; a vanishing v
    # (amplitude 0) makes (c v)^(-q) infinite everywhere
    exponent0 = p_pot.sigma * q + n - 1.0
    if exponent0 <= -1.0 or p_pot.amplitude == 0.0:
        return DualBound(p, q, 0.0, c, divergent=True, potential=p_pot)

    def integrand(t: float) -> float:
        r = math.exp(t)
        return (c * p_pot.value(r)) ** (-q) * r ** n   # dr = r dt

    t_lo, t_hi = math.log(1e-14 * R), math.log(R)
    result = quad(integrand, t_lo, t_hi, limit=400, epsabs=0.0, epsrel=1e-11,
                  full_output=1)
    val, err = result[0], result[1]
    if not (len(result) == 3 or err <= 1e-8 * max(abs(val), 1e-300)):
        raise QuadratureError(f"dual norm integral did not converge: {val} +- {err}")
    # analytic leading term below the quadrature cutoff
    r_cut = 1e-14 * R
    amp = p_pot.singular_amplitude(r_cut)
    if amp > 0.0:
        val += (c * amp) ** (-q) * r_cut ** (exponent0 + 1.0) / (exponent0 + 1.0)
    norm = (n * unit_ball_volume(n) * val) ** (1.0 / q)
    if not math.isfinite(norm) or norm <= 0.0:
        raise DivergentNorm(f"dual norm evaluated to {norm}")
    return DualBound(p, q, 1.0 / norm, c, divergent=False, potential=p_pot)


def _essential_infimum(p_pot: RadialPotential, R: float) -> float:
    """Infimum of v over (0, R].  Exact on ``log_cells`` (a constant, a
    power law, a table), where v is monotone on each cell: 0 when the inner
    cell falls to the origin (sigma < 0), else the least of v(R) and v at
    the knots inside the ball.  For the two log families, the minimum over
    4096 log-spaced radii in [1e-9 R, R], refined by a bounded minimisation
    in ln r over the two sample cells around it: a sampled minimum alone
    overstates the infimum of a non-monotone v (the X family with m >= 2
    dips inside the ball)."""
    if p_pot.log_cells is not None:
        knots = p_pot.log_cells[0]
        inside = p_pot.value(np.exp(-knots[knots >= -math.log(R)])).min(initial=math.inf)
        return 0.0 if p_pot.sigma < 0.0 else float(min(p_pot.value(R), inside))
    t = np.linspace(math.log(1e-9 * R), math.log(R), 4096)
    v = p_pot.value(np.exp(t))
    k = int(np.argmin(v))
    around = (t[max(k - 1, 0)], t[min(k + 1, t.size - 1)])
    refined = minimize_scalar(lambda x: p_pot.value(math.exp(x)), bounds=around,
                              method="bounded", options={"xatol": 1e-10})
    return float(min(v[k], refined.fun))
