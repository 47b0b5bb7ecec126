"""Feasibility of the reduced equation and the best improvement constant.

A multiplier c is feasible when y'' + y'/r + c v(r) y = 0 admits a positive
solution on (0, R).  Numerically:

  * non-critical potentials whose inner cell has slope q < 0 (sigma < 2
    for a power law): shoot the recessive solution from the singular
    endpoint, exactly J0 on the inner cell of a constant, a power law or a
    table, carried cell by cell by exact transfer matrices; feasibility <=>
    no interior zero.  A zero within ``_BOUNDARY_GRACE`` of R counts as the
    boundary case (the J0 profile vanishes exactly at R at the optimal
    constant and is still positive on the open interval);
  * the log families of amplitude A > 0 at c <= c* = 1/(4A): feasible
    without a sweep.  Their ``closed_form`` is a positive solution at c*,
    so by Sturm comparison (the Picone identity) so is every smaller c;
  * critical potentials, the log families above c* and inner cells with
    q >= 0 (``wants_log_domain``): work in the log domain.  A
    non-oscillatory Euler certificate plus a positive principal-branch
    sweep certifies feasibility; an oscillatory certificate (or an actual
    zero of the principal branch) certifies infeasibility, and is the whole
    evidence, since it proves a zero inside its window; otherwise the
    answer is indeterminate at the horizon and said so.

Feasibility is monotone in c (Sturm), so the best constant is the edge of a
certified bracket whichever domain decides each probe, and one loop finds
it for both: for the log families from c* and the oscillatory edge that
``tail_edges`` predicts, with no sweep; for a constant or a power law from
the two multipliers c* (1 -+ tol / 8) around its exact Bessel level c*;
else from a bracket started at the leading-order Bessel level (or at 1),
expanded by factors of 2 and closed by an Illinois root solve of the
signed shooting margin.  A probe that contradicts a prediction falls back
into that search, so every end is certified by its own probe.  An
indeterminate band around the threshold is reported with its certified
edges, and ``c_best`` is then the largest certified-feasible multiplier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
from .ode import (CERTIFICATE_SLACK, S_MAX_DEFAULT, ShootingOutcome, Status, TailEdges,
                  euler_tail_certificate, integrate, integrate_principal_tail, log_problem,
                  radius_problem, tail_edges, wants_log_domain)
from .potentials import J0_FIRST_ZERO, RadialPotential

_DOUBLING_CAP = 2.0 ** 60   # largest multiplier the upward bracket search tries
_BOUNDARY_GRACE = 1e-9      # zeros within this of R (relative) count as boundary
_TOL_FLOOR = 8.0 * 2.0 ** -52  # least tol (8 eps) whose closing step clears the float spacing


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    evidence: ShootingOutcome
    method: str          # "recessive-shot" | "principal-tail" | "oscillation-certificate"
                         # | "closed-form"
    margin: Optional[float] = None    # signed shooting margin, see _margin / _tail_margin


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


def _tail_margin(out: ShootingOutcome, R: float) -> float:
    """_margin of a principal-tail sweep, z at the outer edge or -z'(s*) ln(R / r*),
    divided by max |z| since the sweep has no scale of its own.  ln(R / r*) is
    taken as s* + ln R, since r* = e^-s* underflows beyond s* ~ 745."""
    z, dz = out.trajectory["z"], out.trajectory["dz"]
    edge = z[0] if out.zero_s is None else -dz[0] * (out.zero_s + math.log(R))
    return float(edge / abs(z).max())


def _closed_form_covers(p: RadialPotential, c: float) -> bool:
    """Whether c <= c* = 1/(4A) for a log family of amplitude A > 0, compared
    exactly for the stored A.  Its ``closed_form`` is a positive solution on
    (0, R) at c*, so Sturm comparison makes every such c feasible."""
    return p.log_cells is None and p.amplitude > 0.0 and c < math.inf \
        and Fraction(c) * Fraction(p.amplitude) <= Fraction(1, 4)


def feasible(p: RadialPotential, c: float, R: float, s_max: float = S_MAX_DEFAULT,
             edges: Optional[TailEdges] = None) -> FeasibilityCheck:
    """Decide feasibility of multiplier c on the ball of radius R.  ``s_max``
    is the log-domain horizon; ``edges`` are the log domain's ``tail_edges``
    on this ball, if already computed."""
    if c < 0.0:
        raise DomainError(f"multiplier must be >= 0, got {c}")
    if not wants_log_domain(p):
        prob = radius_problem(p, c, R)
        out = integrate(prob)
        ok = out.status is not Status.ZERO_FOUND or out.first_zero >= R * (1.0 - _BOUNDARY_GRACE)
        return FeasibilityCheck(ok, out, "recessive-shot", _margin(out, R))

    prob = log_problem(p, c, R, s_max=s_max)
    empty = np.empty(0)
    if _closed_form_covers(p, c):
        out = ShootingOutcome({"s": empty, "z": empty, "dz": empty}, None,
                              Status.NO_ZERO_ON_INTERVAL)
        return FeasibilityCheck(True, out, "closed-form")
    cert = euler_tail_certificate(prob, edges=edges)
    if cert is None:
        raise IndeterminateAtHorizon(
            f"multiplier {c}: no Euler comparison certificate by s_max = {prob.s_max}",
            multiplier=c)
    if cert.kind == "nonoscillatory":
        out = integrate_principal_tail(prob, cert)
        interior_zero = out.status is Status.ZERO_FOUND and \
            out.first_zero < R * (1.0 - _BOUNDARY_GRACE)
        return FeasibilityCheck(not interior_zero, out, "principal-tail", _tail_margin(out, R))
    # oscillatory tail: infeasible, and the certificate proves a zero inside its window
    out = ShootingOutcome({"s": empty, "z": empty, "dz": empty}, None, Status.ZERO_FOUND,
                          certificate=cert)
    return FeasibilityCheck(False, out, "oscillation-certificate")


def best_constant(p: RadialPotential, R: float, tol: float = 1e-6,
                  s_max: float = S_MAX_DEFAULT) -> BestConstantResult:
    """Certified bracket around the supremum of feasible multipliers.

    In the log domain both Euler certificates are linear in c, so the band
    edges c_non < c_osc come from one array call of the coefficient
    (``tail_edges``).  The lower end is c_non, or for a log family of
    amplitude A > 0 the largest float c_lo <= 1/(4A), which its closed form
    certifies (c_non <= 1/(4A) up to rounding).  When c_lo and c_osc are
    finite and positive the loop probes c_lo, e (1 + slack) + delta,
    c_osc - delta and c_osc, e = max(c_lo, c_non) and delta = tol * max(1,
    c) / 4, whose inner two are undecided by construction: for the log
    families no probe sweeps, and c_lo = c_best = 1/(4A) for every m, A, R
    and horizon.
    When c_non = 0 < c_osc < inf (an inner cell of slope q >= 0, where
    c(V) = 0) it probes c_osc, predicted infeasible: with c = 0 that is the
    whole bracket once c_osc <= tol / 2.  Without them (the radius domain
    among others) the start is the leading-order Bessel level
    c* = (z0 (2 - sigma)/2)^2 / (A R^(2 - sigma))
    when sigma < 2 and the singular amplitude A is finite and positive, else
    c = 1.  For a constant or a power law (one cell of ``log_cells``) c* is
    exact, and the loop probes c* (1 - tol/8), predicted feasible, and
    c* (1 + tol/8), predicted infeasible (if tol < 8, so both are positive):
    three probes with c = 0, and c_best is c* to rounding.  Otherwise, or
    after a probe that contradicts a prediction, it searches: from the start
    (or the last probe) it expands by factors of 2 until one end is
    certified infeasible and the other feasible (or a band is met, or [0, c]
    is already narrow), and closes the bracket to width tol * max(1, c) / 2
    by an Illinois root solve of the signed shooting margin (a bisection
    where an end has none).  Around an indeterminate band the certified
    edges are bisected toward it instead; ``converged`` is then False and
    c_best is the largest certified-feasible multiplier.

    Every probe is a ``feasible`` call and ``iterations`` counts them.  The
    upward search stops at 2^60: a potential that never becomes infeasible,
    e.g. amplitude 0, raises NoUpperBracket.  A tol below 8 eps (~1.8e-15)
    raises DomainError: its closing step tol * max(1, c) / 4 would not
    clear the float spacing at the bracket's ends, and the loop would probe
    the same multiplier forever.
    """
    if not tol >= _TOL_FLOOR:
        raise DomainError(f"tolerance must be at least {_TOL_FLOOR:.17g}, got {tol}")
    iterations = 0
    edges = tail_edges(log_problem(p, 1.0, R, s_max=s_max)) \
        if wants_log_domain(p) else None
    lo = hi = band = None      # (c, check) certified ends; (lowest, highest) undecided
    # Illinois weights: the ends' margins clipped to their side; 0 without a
    # margin, which turns the Illinois step into a bisection
    fa = fb = 0.0

    def probe(c):
        nonlocal iterations
        iterations += 1
        try:
            return feasible(p, c, R, s_max, edges=edges)
        except IndeterminateAtHorizon:
            return None

    def settle(c, check) -> str:
        """File a probe: a verdict moves the certified end on its own side of
        the band; an undecided or out-of-place one widens the band."""
        nonlocal lo, hi, band, fa, fb
        if check is not None and check.feasible and (band is None or c < band[0]):
            lo, fa = (c, check), max(check.margin or 0.0, 0.0)
            return "lo"
        if check is not None and not check.feasible and (band is None or c > band[1]):
            hi, fb = (c, check), min(check.margin or 0.0, 0.0)
            return "hi"
        band = (c, c) if band is None else (min(band[0], c), max(band[1], c))
        return "band"

    def wide(a, b):
        return b - a > 0.5 * tol * max(1.0, 0.5 * (a + b))

    if settle(0.0, probe(0.0)) != "lo":
        raise DomainError("feasibility at c = 0 failed; potential is invalid")
    c_non, c_osc = (edges.c_non, edges.c_osc) if edges is not None else (0.0, math.inf)
    lower = c_non
    if p.log_cells is None and p.amplitude > 0.0:    # a log family: the largest float <= c*
        lower = p.closed_form_multiplier(R)
        lower = lower if _closed_form_covers(p, lower) else math.nextafter(lower, 0.0)
    edge = max(lower, c_non)     # each c up to edge (1 + slack) is decided
    inside = (edge * (1.0 + CERTIFICATE_SLACK) + 0.25 * tol * max(1.0, edge),
              c_osc - 0.25 * tol * max(1.0, c_osc))
    plan = [(lower, "lo"), (inside[0], "band"), (inside[1], "band"), (c_osc, "hi")]
    # (c, predicted side); never probe an unbounded edge: a sweep costs like sqrt(c)
    if not 0.0 < lower < inside[0] < inside[1] < c_osc < math.inf:
        amp, two_minus = (p.singular_amplitude(R) if p.sigma < 2.0 else 0.0), 2.0 - p.sigma
        c = (J0_FIRST_ZERO * two_minus / 2.0) ** 2 / (amp * R ** two_minus) \
            if 0.0 < amp < math.inf else 1.0
        plan = [(min(c, _DOUBLING_CAP), None)]    # no prediction: search from c
        if c_non == 0.0 < c_osc < math.inf:    # an inner cell with q >= 0: c(V) = 0
            plan = [(c_osc, "hi")]
        # one cell, a constant or a power law: the Bessel level c is exact, so
        # c (1 - tol/8) is predicted feasible and c (1 + tol/8) infeasible
        around = (c * (1.0 - 0.125 * tol), c * (1.0 + 0.125 * tol))
        if 0.0 < amp < math.inf and not p.log_cells[0].size \
                and 0.0 < around[0] < c < around[1] <= _DOUBLING_CAP:
            plan = [(around[0], "lo"), (around[1], "hi")]
    for c, side in plan:
        if settle(c, probe(c)) != side:
            break
    while hi is None or not (lo[0] > 0.0 or band is not None or not wide(0.0, hi[0])):
        c *= 2.0 if hi is None else 0.5
        if c > _DOUBLING_CAP:
            raise NoUpperBracket(
                f"no infeasible multiplier up to {_DOUBLING_CAP:g}; "
                "best constant is unbounded", last_multiplier=c / 2.0)
        settle(c, probe(c))

    # The margin decides where the next multiplier goes; the verdict decides
    # which end it replaces, so both ends stay certified.  Each iterate is
    # clamped at least tol * max(1, c) / 4 inside the bracket, so an iterate
    # that lands next to the root on the far side closes the bracket.
    last = None
    while True:
        if band is None:
            a, b = lo[0], hi[0]
            if not wide(a, b):
                break
            delta = 0.25 * tol * max(1.0, 0.5 * (a + b))
            x = b - fb * (b - a) / (fb - fa) if fa > fb else 0.5 * (a + b)
            x = min(max(x, a + delta), b - delta)
        elif wide(lo[0], band[0]):
            x = 0.5 * (lo[0] + band[0])
        elif wide(band[1], hi[0]):
            x = 0.5 * (band[1] + hi[0])
        else:
            break
        side = settle(x, probe(x))
        if side == last == "lo":
            fb *= 0.5      # Illinois: the same end moved twice, so the other's weight halves
        elif side == last == "hi":
            fa *= 0.5
        last = side

    (c_lo, lo_check), (c_hi, hi_check) = lo, hi
    if band is None:
        return BestConstantResult(0.5 * (c_lo + c_hi), c_lo, c_hi, iterations,
                                  lo_check.evidence, hi_check.evidence, tolerance=tol)
    return BestConstantResult(c_lo, c_lo, c_hi, iterations, lo_check.evidence,
                              hi_check.evidence, tolerance=tol, converged=False,
                              band=(c_lo, c_hi))


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
    return J0_FIRST_ZERO * J0_FIRST_ZERO * unit_ball_volume(n) ** (2.0 / n) * volume ** (-2.0 / n)
