"""Feasibility of the reduced equation and the best improvement constant.

A multiplier c is feasible when y'' + y'/r + c v(r) y = 0 admits a positive
solution on (0, R).  Numerically:

  * constants and power laws with alpha < 2 (one cell of slope q = alpha -
    2 < 0): decided in closed form, without a sweep.  The recessive
    solution is exactly J0(x), x = (2/|q|) sqrt(c A r^(2 - alpha)), so c is
    feasible iff x(R) <= z0, i.e. c <= c* = (z0 |q|/2)^2 / (A R^|q|), and an
    infeasible c has its first zero where x = z0.  Within the rounding of c*
    (a few ulps, ``_level_slack``) the verdict is undecided;
  * tables whose inner cell has slope q < 0: shoot the recessive solution,
    exactly J0 on the inner cell, carried by exact transfer matrices;
    feasibility <=> no interior zero, one below every float radius
    included.  A zero within the sweep's accuracy of R (``_SLIVER``) is
    undecided; a zero at R exactly is the boundary case, feasible;
  * the log families of amplitude A > 0 at c <= c* = 1/(4A): feasible
    without a sweep.  Their ``closed_form`` is a positive solution at c*,
    so by Sturm comparison (the Picone identity) so is every smaller c;
  * the log families above c* and inner cells with q >= 0
    (``wants_log_domain``): work in the log domain.  Where c v = 0 (c = 0
    or amplitude 0) the principal branch is the line z = 1, which certifies
    feasibility; an oscillatory certificate (a rising inner cell's at every
    c > 0) certifies infeasibility and is the whole evidence, since it
    proves a zero inside its window; otherwise the answer is indeterminate
    at the horizon and said so.  Above c* a log family oscillates at
    infinity (its r^2 v (s - s0)^2 tends to A from above), so no
    non-oscillatory certificate exists there.

Every undecided verdict raises IndeterminateAtHorizon.  Feasibility is
monotone in c (Sturm), so the best constant is the edge of a certified
bracket whichever domain decides each probe, found by one loop
(``best_constant``).  An indeterminate band around the threshold is
reported with its certified edges, and ``c_best`` is then the largest
certified-feasible multiplier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
from .ode import (S_MAX_DEFAULT, ShootingOutcome, Status, euler_tail_certificate, integrate,
                  integrate_principal_tail, log_problem, radius_problem, tail_edges,
                  wants_log_domain)
from .potentials import J0_FIRST_ZERO, RadialPotential

_DOUBLING_CAP = 2.0 ** 60   # largest multiplier the upward bracket search tries
_EPS = 2.0 ** -52
_TOL_FLOOR = 8.0 * _EPS     # least tol whose closing step clears the float spacing
_SLIVER = 1e-14             # a table's zero within this / min(1, |q|) of ln(1/R) is undecided


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    evidence: ShootingOutcome
    method: str          # "recessive-shot" | "principal-tail" | "oscillation-certificate"
                         # | "closed-form"
    margin: Optional[float] = None    # of a recessive shot, > 0 if feasible: _margin's, or
                                      # ln(c*/c) / 2 for one cell (_level_verdict)


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


def _margin(out: ShootingOutcome, R: float) -> Optional[float]:
    """Signed shooting margin of a swept radius-domain shot, continuous in c:
    y(R) without a zero, else r* y'(r*) ln(R / r*), the value at R of the
    tangent (in ln r) at the first zero r*.  Positive on the feasible side.
    None for a zero below every float radius, which leaves no trajectory."""
    if out.first_zero is None:
        return float(out.trajectory["y"][-1])
    if not out.trajectory["r"].size:
        return None
    r = out.first_zero
    return float(r * out.trajectory["dy"][-1] * math.log(R / r))


def _closed_form_covers(p: RadialPotential, c: float) -> bool:
    """Whether c <= c* = 1/(4A) for a log family of amplitude A > 0, compared
    exactly for the stored A.  Its ``closed_form`` is a positive solution on
    (0, R) at c*, so Sturm comparison makes every such c feasible."""
    return p.log_cells is None and p.amplitude > 0.0 and c < math.inf \
        and Fraction(c) * Fraction(p.amplitude) <= Fraction(1, 4)


def _bessel_level(p: RadialPotential, R: float) -> Optional[float]:
    """The Bessel level c* = (z0 (2 - sigma)/2)^2 / (A R^(2 - sigma)), A =
    ``singular_amplitude(R)``, where sigma < 2 and both A and c* are finite
    and positive, else None: c(V) for a constant or a power law (to
    ``_level_slack``), a table's search start."""
    if p.log_cells is None or not p.sigma < 2.0:
        return None
    amp, two_minus = p.singular_amplitude(R), 2.0 - p.sigma
    if not 0.0 < amp < math.inf:
        return None
    c = (J0_FIRST_ZERO * two_minus / 2.0) ** 2 / (amp * R ** two_minus)
    return c if 0.0 < c < math.inf else None


def _one_cell(p: RadialPotential) -> bool:
    """Whether p is a constant or a power law with alpha < 2: one cell of
    slope q < 0, whose Bessel level is exact."""
    return p.log_cells is not None and not p.log_cells[0].size and p.log_cells[3][0] < 0.0


def _level_slack(p: RadialPotential, R: float) -> float:
    """Bound on the error of the margin ln(c*/c) / 2 from a one-cell
    ``_bessel_level``: the rounding of z0 and 2 - alpha (an ulp each), of
    ln A, ln R and the exp in A = v(R) R^alpha (ulps of |ln A| and of
    (|alpha| + |q|) |ln R|), of the powers of R, the products and c / c*,
    taken about three times over (on 2e4 random cells, checked against
    50-digit arithmetic, the error stayed below 7% of it)."""
    ell, q = float(p.log_cells[2][0]), float(p.log_cells[3][0])
    return 8.0 * _EPS * (2.0 + abs(ell) + (abs(p.sigma) + abs(q)) * abs(math.log(R)))


def _level_verdict(p: RadialPotential, c: float, R: float, c_star: float) -> FeasibilityCheck:
    """Decide c for one cell of slope q < 0 from its recessive solution
    J0(x), unswept: the margin ln z0 - ln x(R) = ln(c*/c) / 2 is feasible
    above ``_level_slack``, infeasible below minus it, with the first zero
    at s* = ln(1/R) + 2 margin / q, where x = z0, and undecided between."""
    ratio, slack = c / c_star, _level_slack(p, R)
    margin = -0.5 * math.log(ratio) if ratio > 0.0 else math.inf
    if abs(margin) <= slack:
        raise IndeterminateAtHorizon(
            f"multiplier {c}: within the rounding ({slack:.1e}) of the Bessel threshold "
            f"x(R) = z0, c* = {c_star!r}", multiplier=c)
    zero_s = None if margin > 0.0 else -math.log(R) + 2.0 * margin / float(p.log_cells[3][0])
    out = ShootingOutcome(dict.fromkeys("r y dy".split(), np.empty(0)), zero_s,
                          Status.NO_ZERO_ON_INTERVAL if zero_s is None else Status.ZERO_FOUND)
    return FeasibilityCheck(margin > 0.0, out, "recessive-shot", margin)


def _swept_verdict(p: RadialPotential, c: float, R: float, out: ShootingOutcome) -> bool:
    """Whether a recessive sweep of a table is zero-free on (0, R): a zero
    at R exactly is the boundary case, feasible; one within _SLIVER / min(1,
    |q|) of it in s, q the slope of its cell, is undecided: inside R the
    first zero, past R the zero of a zero-free sweep's tangent at R.  That
    is the sweep's tested accuracy: the Bessel-form zero carries the
    rounding of ln x divided by the rate |q|/2 at which ln x moves."""
    s_R, found = -math.log(R), out.status is Status.ZERO_FOUND
    s = out.zero_s if found else s_R
    q = abs(float(p.log_cells[3][p.log_cells[0].searchsorted(s, "right")]))
    bound = _SLIVER / min(1.0, q or 1.0)
    if found:
        near = 0.0 < s - s_R <= bound
    else:    # the tangent in s at R vanishes y(R) / (-R y'(R)) past R
        near = 0.0 < out.trajectory["y"][-1] <= -R * out.trajectory["dy"][-1] * bound
    if near:
        raise IndeterminateAtHorizon(
            f"multiplier {c}: first zero within the sweep's accuracy of R, "
            + (f"at s = {s!r}" if found else "past it by the tangent at R"), multiplier=c)
    return s <= s_R


def feasible(p: RadialPotential, c: float, R: float,
             s_max: float = S_MAX_DEFAULT) -> FeasibilityCheck:
    """Decide feasibility of multiplier c on the ball of radius R.  ``s_max``
    is the log-domain horizon, any finite float.  An undecided verdict
    raises IndeterminateAtHorizon."""
    if not c >= 0.0:
        raise DomainError(f"multiplier must be >= 0, got {c}")
    if not math.isfinite(s_max):
        raise DomainError(f"horizon s_max must be finite, got {s_max}")
    if not wants_log_domain(p):
        c_star = _bessel_level(p, R) if _one_cell(p) else None
        if c_star is not None:
            return _level_verdict(p, c, R, c_star)
        out = integrate(radius_problem(p, c, R))
        return FeasibilityCheck(_swept_verdict(p, c, R, out), out, "recessive-shot",
                                _margin(out, R))

    prob = log_problem(p, c, R, s_max=s_max)
    empty = dict.fromkeys("s z dz".split(), np.empty(0))
    if _closed_form_covers(p, c):
        return FeasibilityCheck(True, ShootingOutcome(empty, None, Status.NO_ZERO_ON_INTERVAL),
                                "closed-form")
    cert = euler_tail_certificate(prob)
    if cert is None:
        raise IndeterminateAtHorizon(
            f"multiplier {c}: no Euler comparison certificate by s_max = {prob.s_max}",
            multiplier=c)
    if cert.kind == "nonoscillatory":    # c v = 0 here: the branch is a line
        out = integrate_principal_tail(prob, cert)
        return FeasibilityCheck(out.status is not Status.ZERO_FOUND, out, "principal-tail")
    # oscillatory tail: infeasible, and the certificate proves a zero inside its window
    out = ShootingOutcome(empty, None, Status.ZERO_FOUND, certificate=cert)
    return FeasibilityCheck(False, out, "oscillation-certificate")


def _rising_cell_hi(p: RadialPotential, R: float, s_max: float, tol: float) -> float:
    """Upper end for an inner cell of slope q >= 0: min(tol / 4, the least c
    whose [s*, s_max] holds a half-oscillation of z'' + c g(s*) z = 0 over s*
    >= s1, the certificate's start), at s_max - s* = min(2/q, s_max - s1),
    not a difference that rounds to 0 once 2/q is below the float spacing of
    s_max; at least c g(s1) = 2^-1022, decided by the certificate anywhere."""
    prob = log_problem(p, 1.0, R, s_max=s_max)
    unit, q = euler_tail_certificate(prob), float(p.log_cells[3][-1])
    s1 = s_max if unit is None else unit.window[0]    # None: g(s1) underflows
    width = min(2.0 / q, s_max - s1) if q > 0.0 else s_max - s1
    g = p.log_weight(s_max - width)
    hi = min(0.25 * tol, (math.pi / width) ** 2 / g if width > 0.0 and g > 0.0 else math.inf)
    return hi if unit is None else max(hi, 2.0 ** -1022 / min(unit.gamma, 1.0))


def best_constant(p: RadialPotential, R: float, tol: float = 1e-6,
                  s_max: float = S_MAX_DEFAULT) -> BestConstantResult:
    """Certified bracket around the supremum of feasible multipliers.

    The loop probes a plan of predicted multipliers, then searches:

      * a log family of amplitude A > 0: the largest float c_lo <= 1/(4A),
        c_lo + delta, c_osc - delta and c_osc (``tail_edges``), delta = tol
        * max(1, c) / 4: the inner two are undecided by construction, no
        probe sweeps, and c_lo = c_best = 1/(4A) for every m, A, R and horizon;
      * an inner cell of slope q >= 0 (c(V) = 0): ``_rising_cell_hi``
        <= tol / 4, certified infeasible by the cell, so with c = 0 that is
        the whole bracket;
      * a constant or a power law: c* (1 -+ tol / 8) (only the upper one
        from tol = 8 on), around its exact Bessel level c* = (z0 (2 -
        sigma)/2)^2 / (A R^(2 - sigma)), or c* (1 -+ 4 slack) where tol / 8
        lies within the rounding of c* (``_level_slack``, tol ~ 8 eps).
        ``feasible`` decides each by x(R) against z0, from the same c*,
        unswept: three probes with c = 0, and c_best is c* to rounding.  A
        bracket still too wide is closed to a band of that rounding's width
        around c*, whose probes are undecided;

    Otherwise, or after a probe that contradicts a prediction, it expands
    from the Bessel level (a table's, if sigma < 2 and its amplitude A is
    finite and positive, else c = 1) or the last probe by factors of 2 until
    one end is certified infeasible and the other feasible (or a band is
    met, or [0, c] is already narrow), and closes the bracket to width
    tol * max(1, c) / 2 by an Illinois root solve of the signed shooting
    margin (a bisection where an end has none).  Around an indeterminate
    band the certified edges are bisected toward it instead, beside a band
    of one multiplier c from c (1 -+ tol / 8) on, unless tol / 8 lies within
    a one-cell level's rounding; unless the bracket then closes,
    ``converged`` is False and c_best is the largest certified-feasible
    multiplier.

    Every probe is a ``feasible`` call and ``iterations`` counts them.  The
    upward search stops at 2^60: a potential that never becomes infeasible,
    e.g. amplitude 0 (each probe the line z = 1), raises NoUpperBracket.
    A tol below 8 eps (~1.8e-15) raises DomainError: its closing step tol *
    max(1, c) / 4 would not clear the float spacing at the bracket's ends,
    and the loop would probe the same multiplier forever.
    """
    if not tol >= _TOL_FLOOR:
        raise DomainError(f"tolerance must be at least {_TOL_FLOOR:.17g}, got {tol}")
    iterations = 0
    lo = hi = band = None      # (c, check) certified ends; (lowest, highest) undecided
    # Illinois weights: the ends' margins clipped to their side; 0 without a
    # margin, which turns the Illinois step into a bisection
    fa = fb = 0.0

    def probe(c):
        nonlocal iterations
        iterations += 1
        try:
            return feasible(p, c, R, s_max)
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
    lower, c_osc = 0.0, math.inf
    if p.log_cells is None and p.amplitude > 0.0:    # the largest float <= c* = 1/(4A)
        lower = p.closed_form_multiplier(R)
        lower = lower if _closed_form_covers(p, lower) else math.nextafter(lower, 0.0)
        c_osc = tail_edges(log_problem(p, 1.0, R, s_max=s_max)).c_osc
    inside = (lower + 0.25 * tol * max(1.0, lower), c_osc - 0.25 * tol * max(1.0, c_osc))
    plan = [(lower, "lo"), (inside[0], "band"), (inside[1], "band"), (c_osc, "hi")]
    # (c, predicted side); never probe an unbounded edge: a sweep costs like sqrt(c)
    if not 0.0 < lower < inside[0] < inside[1] < c_osc < math.inf:
        level = _bessel_level(p, R)
        c = 1.0 if level is None else level
        plan = [(min(c, _DOUBLING_CAP), None)]    # no prediction: search from c
        if p.log_cells is not None and wants_log_domain(p) and p.amplitude > 0.0:    # c(V) = 0
            plan = [(_rising_cell_hi(p, R, s_max, tol), "hi")]
        # one cell, a constant or a power law: the Bessel level c is exact, so
        # c (1 - step) is feasible and c (1 + step) infeasible, each decided
        # by the same level, with step = tol/8 or, where that lies within the
        # level's rounding, 4 slack; from tol = 8 on, [0, c (1 + step)] is narrow
        if level is not None and _one_cell(p):
            step = max(0.125 * tol, 4.0 * _level_slack(p, R))
            below, above = c * (1.0 - step), c * (1.0 + step)
            if above <= _DOUBLING_CAP:
                plan = [(below, "lo"), (above, "hi")] if below > 0.0 else [(above, "hi")]
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
    beside = not (_one_cell(p) and 0.125 * tol <= _level_slack(p, R))
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
            x = max(x, band[0] * (1.0 - 0.125 * tol)) if band[0] == band[1] and beside else x
        elif wide(band[1], hi[0]):
            x = 0.5 * (band[1] + hi[0])
            x = min(x, band[1] * (1.0 + 0.125 * tol)) if band[0] == band[1] and beside else x
        else:
            break
        side = settle(x, probe(x))
        if side == last == "lo":
            fb *= 0.5      # Illinois: the same end moved twice, so the other's weight halves
        elif side == last == "hi":
            fa *= 0.5
        last = side

    (c_lo, lo_check), (c_hi, hi_check) = lo, hi
    if band is None or not wide(c_lo, c_hi):
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
