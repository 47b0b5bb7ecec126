"""Feasibility of the reduced equation and the best improvement constant.

A multiplier c is feasible when y'' + y'/r + c v(r) y = 0 admits a positive
solution on (0, R).  Numerically:

  * non-critical potentials (sigma < 2): shoot the recessive solution from
    the singular endpoint; feasibility <=> no interior zero.  A zero within
    ``boundary_grace`` of R counts as the boundary case (the J0 profile
    vanishes exactly at R at the optimal constant and is still positive on
    the open interval);
  * critical / strongly singular potentials: work in the log domain.  A
    non-oscillatory Euler certificate plus a positive principal-branch sweep
    certifies feasibility; an oscillatory certificate (or an actual zero of
    the principal branch) certifies infeasibility; otherwise the answer is
    indeterminate at the horizon and said so.

Feasibility is monotone in c (Sturm), so the best constant is the edge of a
certified bracket.  In the radius domain the recessive shot depends smoothly
on c, so the bracket starts at the leading-order Bessel level and is closed
by a bracketed Illinois root solve of the signed shooting margin.  In the log
domain the bracket comes from doubling and bisection; an indeterminate band
around the threshold (met while doubling or bisecting) has its edges refined
separately and reported, and ``c_best`` is the largest certified-feasible
multiplier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .bessel import bessel_j0_first_zero
from .config import SolverSettings
from .errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
from .ode import (ShootingOutcome, Status, euler_tail_certificate, integrate,
                  integrate_principal_tail, log_problem, radius_problem,
                  wants_log_domain)
from .potentials import RadialPotential

_DOUBLING_CAP = 2.0 ** 60   # largest multiplier the upward bracket search tries


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    evidence: ShootingOutcome
    method: str          # "recessive-shot" | "principal-tail" | "oscillation-certificate"
    margin: Optional[float] = None    # radius domain: signed shooting margin, see _margin


@dataclass(frozen=True)
class BestConstantResult:
    c_best: float
    c_lo: float                       # certified feasible
    c_hi: float                       # certified infeasible
    iterations: int
    evidence_lo: ShootingOutcome
    evidence_hi: ShootingOutcome
    tolerance: float
    converged: bool = True
    band: Optional[tuple] = None      # indeterminate band, if the search hit one

    @property
    def bracket(self) -> tuple:
        return (self.c_lo, self.c_hi)


def _margin(out: ShootingOutcome, R: float) -> float:
    """Signed shooting margin of a radius-domain shot, continuous in c:
    y(R) without a zero, else r* y'(r*) ln(R / r*), the value at R of the
    tangent (in ln r) at the first zero r*.  Positive on the feasible side."""
    if out.first_zero is None:
        return float(out.trajectory["y"][-1])
    r = out.first_zero
    return float(r * out.trajectory["dy"][-1] * math.log(R / r))


def feasible(p: RadialPotential, c: float, R: float,
             settings: SolverSettings = SolverSettings()) -> FeasibilityCheck:
    """Decide feasibility of multiplier c on the ball of radius R."""
    if c < 0.0:
        raise DomainError(f"multiplier must be >= 0, got {c}")
    if not wants_log_domain(p):
        prob = radius_problem(p, c, R)
        out = integrate(prob, settings)
        ok = out.status is not Status.ZERO_FOUND or \
            out.first_zero >= R * (1.0 - settings.boundary_grace)
        return FeasibilityCheck(ok, out, "recessive-shot", _margin(out, R))

    prob = log_problem(p, c, R, s_max=settings.s_max)
    cert = euler_tail_certificate(prob, settings)
    if cert is None:
        raise IndeterminateAtHorizon(
            f"multiplier {c}: no Euler comparison certificate by s_max = {settings.s_max}",
            multiplier=c)
    if cert.kind == "nonoscillatory":
        out = integrate_principal_tail(prob, cert, settings)
        interior_zero = out.status is Status.ZERO_FOUND and \
            out.first_zero < R * (1.0 - settings.boundary_grace)
        return FeasibilityCheck(not interior_zero, out, "principal-tail")
    # oscillatory tail: infeasible; run the outer-edge shot for trajectory evidence
    out = replace(integrate(prob, settings), certificate=cert)
    return FeasibilityCheck(False, out, "oscillation-certificate")


def best_constant(p: RadialPotential, R: float, tol: float = 1e-6,
                  settings: SolverSettings = SolverSettings()) -> BestConstantResult:
    """Certified bracket around the supremum of feasible multipliers.

    Radius domain (non-critical potentials): the bracket starts at the
    leading-order Bessel level (z0 (2 - sigma)/2)^2 / (A R^(2 - sigma)),
    exact for constants and power laws, and is expanded by factors of 2
    until one end is feasible and the other infeasible; it is then closed by
    a bracketed Illinois root solve to width tol * max(1, c) / 2.

    Log domain (critical potentials): doubles from c = 1, then bisects to
    relative width ``tol``.  If an indeterminate multiplier turns up while
    doubling or bisecting, the certified edges of that band are refined
    instead, ``converged`` is False, the band is reported, and c_best is
    the largest certified-feasible multiplier.

    Every probe is a ``feasible`` call and ``iterations`` counts them.  The
    upward search stops at 2^60: a potential that never becomes infeasible,
    e.g. amplitude 0, raises NoUpperBracket.
    """
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    check = feasible(p, 0.0, R, settings)
    if not check.feasible:
        raise DomainError("feasibility at c = 0 failed; potential is invalid")
    if wants_log_domain(p):
        return _log_best_constant(p, R, tol, settings, check)
    return _radius_best_constant(p, R, tol, settings, check)


def _radius_best_constant(p, R, tol, settings, zero: FeasibilityCheck) -> BestConstantResult:
    """Scale-aware bracket, then an Illinois solve of the shooting margin.

    The margin decides where the next multiplier goes; the verdict decides
    which end it replaces, so both ends stay certified.  Each iterate is
    clamped at least tol * max(1, c) / 4 inside the bracket, so an iterate
    that lands next to the root on the far side closes the bracket.
    """
    iterations = 1

    def probe(c):
        nonlocal iterations
        iterations += 1
        return feasible(p, c, R, settings)

    amp = p.singular_amplitude(R)
    if amp > 0.0 and math.isfinite(amp):
        two_minus = 2.0 - p.sigma
        c = (bessel_j0_first_zero() * two_minus / 2.0) ** 2 / (amp * R ** two_minus)
        c = min(c, _DOUBLING_CAP)
    else:
        c = 1.0
    # expand by 2, up from a feasible start or down from an infeasible one,
    # until both ends are certified (or [0, c] is already narrow enough)
    lo, hi = (0.0, zero), None
    while True:
        check = probe(c)
        if check.feasible:
            lo = (c, check)
        else:
            hi = (c, check)
        if hi is not None and (lo[0] > 0.0 or c <= 0.5 * tol):
            break
        c *= 2.0 if hi is None else 0.5
        if c > _DOUBLING_CAP:
            raise NoUpperBracket(
                f"no infeasible multiplier up to {_DOUBLING_CAP:g}; "
                "best constant is unbounded", last_multiplier=c / 2.0)

    (a, lo_check), (b, hi_check) = lo, hi
    fa, fb = max(lo_check.margin, 0.0), min(hi_check.margin, 0.0)
    kept = None
    while b - a > 0.5 * tol * max(1.0, 0.5 * (a + b)):
        delta = 0.25 * tol * max(1.0, 0.5 * (a + b))
        x = b - fb * (b - a) / (fb - fa) if fa > fb else 0.5 * (a + b)
        x = min(max(x, a + delta), b - delta)
        check = probe(x)
        if check.feasible:
            a, fa, lo_check = x, max(check.margin, 0.0), check
            if kept == "hi":
                fb *= 0.5      # Illinois: the infeasible end was kept twice
            kept = "hi"
        else:
            b, fb, hi_check = x, min(check.margin, 0.0), check
            if kept == "lo":
                fa *= 0.5
            kept = "lo"
    return BestConstantResult(0.5 * (a + b), a, b, iterations, lo_check.evidence,
                              hi_check.evidence, tolerance=tol)


def _log_best_constant(p, R, tol, settings, zero: FeasibilityCheck) -> BestConstantResult:
    """Doubling from c = 1, then bisection.  A multiplier left indeterminate
    on the way ends the search: the doubling goes on to a certified
    infeasible multiplier, and the band edges are then refined."""
    iterations = 1
    c_lo, ev_lo = 0.0, zero.evidence
    c_hi, ev_hi = 1.0, None
    undecided = []
    while True:
        iterations += 1
        try:
            check = feasible(p, c_hi, R, settings)
        except IndeterminateAtHorizon:
            undecided.append(c_hi)
        else:
            if not check.feasible:
                ev_hi = check.evidence
                break
            c_lo, ev_lo = c_hi, check.evidence
        c_hi *= 2.0
        if c_hi > _DOUBLING_CAP:
            raise NoUpperBracket(
                f"no infeasible multiplier up to {_DOUBLING_CAP:g}; "
                "best constant is unbounded", last_multiplier=c_hi / 2.0)

    while not undecided and c_hi - c_lo > tol * max(1.0, 0.5 * (c_lo + c_hi)):
        mid = 0.5 * (c_lo + c_hi)
        iterations += 1
        try:
            check = feasible(p, mid, R, settings)
        except IndeterminateAtHorizon:
            undecided.append(mid)
            continue
        if check.feasible:
            c_lo, ev_lo = mid, check.evidence
        else:
            c_hi, ev_hi = mid, check.evidence

    band = None
    if undecided:
        c_lo, ev, it = _refine_edge(p, R, c_lo, undecided[0], settings, want=True, tol=tol)
        ev_lo = ev if ev is not None else ev_lo
        c_hi, ev, it2 = _refine_edge(p, R, undecided[-1], c_hi, settings, want=False, tol=tol)
        ev_hi = ev if ev is not None else ev_hi
        iterations += it + it2
        band = (c_lo, c_hi)
    converged = c_hi - c_lo <= tol * max(1.0, 0.5 * (c_lo + c_hi))
    c_best = 0.5 * (c_lo + c_hi) if converged else c_lo
    return BestConstantResult(c_best, c_lo, c_hi, iterations, ev_lo, ev_hi,
                              tolerance=tol, converged=converged, band=band)


def _refine_edge(p, R, lo, hi, settings, want: bool, tol: float):
    """Push the certified boundary into an indeterminate band.

    want=True moves the feasible edge up from lo; want=False moves the
    infeasible edge down from hi.  Returns (edge, evidence, iterations).
    """
    evidence = None
    iterations = 0
    while hi - lo > tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        iterations += 1
        try:
            check = feasible(p, mid, R, settings)
            verdict = check.feasible
        except IndeterminateAtHorizon:
            verdict = None
        if verdict is want:
            if want:
                lo, evidence = mid, check.evidence
            else:
                hi, evidence = mid, check.evidence
        else:
            if want:
                hi = mid
            else:
                lo = mid
    edge = lo if want else hi
    return edge, evidence, iterations


# ---------------------------------------------------------------------------
# Reference constants
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    """omega_n = pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def equal_volume_radius(volume: float, n: int) -> float:
    """Radius of the n-ball with the given volume."""
    if volume <= 0.0:
        raise DomainError(f"volume must be positive, got {volume}")
    return (volume / unit_ball_volume(n)) ** (1.0 / n)


def brezis_vazquez_lambda(n: int, volume: float) -> float:
    """The constant-potential improvement level z0^2 omega_n^(2/n) V^(-2/n)
    for a domain of the given volume in dimension n >= 3."""
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    if volume <= 0.0:
        raise DomainError(f"volume must be positive, got {volume}")
    z0 = bessel_j0_first_zero()
    return z0 * z0 * unit_ball_volume(n) ** (2.0 / n) * volume ** (-2.0 / n)
