"""Feasibility of the reduced equation and the best improvement constant.

A multiplier c is feasible when y'' + y'/r + c v(r) y = 0 admits a positive
solution on (0, R).  What does not depend on c is a rule (``_rule``), built
once per (potential, R, s_max), whose ``verdict(c)`` decides a probe and
whose ``plan(tol, checks)`` yields the multipliers ``best_constant`` probes:

  * ``_LevelRule``, a constant or a power law with alpha < 2 and A > 0: c
    against its Bessel level c*, in closed form at every amplitude and R;
  * ``_ClosedRule``, a log family of amplitude A > 0: feasible at c <=
    1/(4A) by its closed form, infeasible from its Euler edge c_osc on;
  * ``_TailRule``, an inner cell of slope q >= 0, or amplitude 0 of any
    kind (``VANISHING``): the tail's certificate, per probe, unswept;
  * ``_SweptRule``, a table whose inner cell falls: swept per probe, with
    the c-derivative of its Pruefer margin, so its plan is Newton's.

Every undecided verdict raises IndeterminateAtHorizon.  Feasibility is
monotone in c (Sturm), so the best constant is the edge of a certified
bracket, and an indeterminate band is reported with its certified edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
# bench/spans.py patches integrate, euler_tail_certificate and integrate_principal_tail
# here; no rule calls the last two, kept until the bench drops them (ROADMAP item 13)
from .ode import (NO_ROWS, S_MAX_DEFAULT, ShootingOutcome, Status, TailCertificate,
                  euler_tail_certificate, integrate, integrate_principal_tail, radius_problem)
from .potentials import (HUGE, J0_FIRST_ZERO, TINY, VANISHING, EulerTail, RadialPotential,
                         outer_edge)

_EPS = 2.0 ** -52
_LN_HUGE = math.log(HUGE)
_TOL_FLOOR = 8.0 * _EPS     # least tol whose closing step clears the float spacing
_SLIVER = 1e-14             # a table's zero within this / min(1, |q|) of ln(1/R) is undecided


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    evidence: ShootingOutcome
    method: str    # "recessive-shot" | "principal-tail" | "oscillation-certificate" | "closed-form"
    margin: Optional[float] = None    # >= 0 if feasible: ``_SweptRule``'s, or ln(c*/c) / 2


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


def _bessel_level(p: RadialPotential, R: float) -> tuple:
    """(c*, ln c*, slack) of a cell kind on the ball of radius R: the Bessel
    level c* = k / g(s_R), k = (z0 (2 - sigma)/2)^2, ln g(s_R) =
    ``log_weight_exponent(s_R)``, s_R = ln(1/R), exact on the model at any
    size; c* = k / e^(ln g) (e^(ln c*) where |ln g| > 700), 0 or inf where
    not a normal float.  The slack, 8 eps (2 + |ln A| +
    (|sigma| + |q|) |ln R|), plus 8 eps |ln k| where c* is not normal and the
    margin ln(c*/c) / 2 is a difference of logs, bounds a one cell's margin
    error (below 0.1 of it on 2e4 random cells, against 50 digits)."""
    p.check_radius(R)
    s_R = -math.log(R)
    log_g = float(p.log_weight_exponent(s_R))
    half = 0.5 * J0_FIRST_ZERO * (2.0 - p.sigma)    # sqrt(k), > 0 on a falling cell
    log_k = 2.0 * math.log(half)
    log_level = log_k - log_g
    if abs(log_g) <= 700.0:
        level = half * half / math.exp(log_g)
    else:
        level = math.exp(log_level) if log_level <= _LN_HUGE else math.inf
    normal = TINY <= level <= HUGE
    level = level if normal else 0.0 if log_level < 0.0 else math.inf
    ell, q = p.inner_cell[2:]
    terms = 2.0 + abs(ell) + (abs(p.sigma) + abs(q)) * abs(s_R) + (0.0 if normal else abs(log_k))
    return level, log_level, 8.0 * _EPS * terms


@dataclass(eq=False)
class _Rule:
    """What decides a probe of (p, R, s_max), ``verdict(c)``, and plans
    ``best_constant``'s, ``plan(tol, checks)``: the ends it certifies, or a
    table's iterates, each yielded once ``checks`` holds the last one's."""

    p: RadialPotential
    R: float
    s_max: float

    def _oscillating(self, c: float, cert: Optional[TailCertificate]) -> FeasibilityCheck:
        """Infeasible by cert, a zero inside its window; undecided without one."""
        if cert is None:
            raise IndeterminateAtHorizon(f"multiplier {c}: no Euler comparison certificate by "
                                         f"s_max = {self.s_max}", multiplier=c)
        out = ShootingOutcome(NO_ROWS, None, Status.ZERO_FOUND, certificate=cert)
        return FeasibilityCheck(False, out, "oscillation-certificate")


@dataclass(eq=False)
class _LevelRule(_Rule):
    """One cell of slope q = alpha - 2 < 0.  Its recessive solution is
    exactly J0(x), x = (2/|q|) sqrt(c A r^(2 - alpha)), so c is feasible iff
    x(R) <= z0, i.e. c <= c* (``_bessel_level``)."""

    level: float        # c*, 0 or inf where it is not a normal float
    log_level: float    # ln c*
    slack: float
    no_zero = ShootingOutcome(NO_ROWS, None, Status.NO_ZERO_ON_INTERVAL)    # shared

    def verdict(self, c: float) -> FeasibilityCheck:
        """Unswept: the margin ln z0 - ln x(R) = ln(c*/c) / 2 (from c / c*
        where c* is a normal float, else (ln c* - ln c) / 2) is feasible
        above the slack, infeasible below minus it, with the first zero at
        s* = ln(1/R) + 2 margin / q, where x = z0, and undecided between."""
        if 0.0 < self.level < math.inf:
            ratio = c / self.level
            margin = -0.5 * math.log(ratio) if ratio > 0.0 else math.inf
        else:
            margin = 0.5 * (self.log_level - math.log(c)) if c > 0.0 else math.inf
        if abs(margin) <= self.slack:
            raise IndeterminateAtHorizon(
                f"multiplier {c}: within the rounding ({self.slack:.1e}) of the Bessel threshold "
                f"x(R) = z0, ln c* = {self.log_level!r}", multiplier=c)
        if margin > 0.0:
            return FeasibilityCheck(True, self.no_zero, "recessive-shot", margin)
        zero_s = -math.log(self.R) + 2.0 * margin / self.p.inner_cell[3]
        return FeasibilityCheck(False, ShootingOutcome(NO_ROWS, zero_s, Status.ZERO_FOUND),
                                "recessive-shot", margin)

    def plan(self, tol: float, checks: list) -> list:
        """c* (1 -+ step), c* clamped to the normal floats, the lower one only
        if normal: step = max(tol / 8, 2 slack + 8 eps) is the least whose
        margin clears the slack, so c_best is c* to rounding."""
        step = max(0.125 * tol, 2.0 * self.slack + 8.0 * _EPS)
        level = min(max(self.level, TINY), HUGE)
        plan = [level * (1.0 - step), min(level * (1.0 + step), HUGE)]
        return plan if plan[0] >= TINY else plan[1:]


@dataclass(eq=False)
class _ClosedRule(_Rule):
    """A log family of amplitude A > 0: its ``closed_form`` solves at 1/(4A),
    so c <= c_closed is feasible (Sturm, Picone), unswept; above, r^2 v (s -
    s0)^2 tends to A from above, and c >= c_osc is infeasible by the Euler
    edge's certificate with gamma scaled by c, c between undecided."""

    c_closed: float     # the largest float c with c A <= 1/4
    c_osc: float        # ``EulerTail.edge``, and its certificate's (gamma, shift, window) at c = 1
    unit: tuple
    closed = FeasibilityCheck(True, ShootingOutcome(NO_ROWS, None,
                                                    Status.NO_ZERO_ON_INTERVAL), "closed-form")

    def verdict(self, c: float) -> FeasibilityCheck:
        if c <= self.c_closed:
            return self.closed
        gamma, shift, window = self.unit
        return self._oscillating(c, TailCertificate("oscillatory", c * gamma, shift, window)
                                 if c >= self.c_osc else None)

    def plan(self, tol: float, checks: list) -> list:
        """[c_closed, c_osc], so c_lo = c_best = 1/(4A) for every m, A, R and
        horizon; an infinite c_osc raises IndeterminateAtHorizon."""
        plan = [self.c_closed, self.c_osc]
        if plan[1] == math.inf:    # the closed form decides c <= 1/(4A), and nothing above
            raise IndeterminateAtHorizon(f"multipliers in [{plan[0]!r}, inf) undecided: no Euler "
                                         f"edge is finite by s_max = {self.s_max!r}",
                                         multiplier=plan[1])
        return plan


class _TailRule(_Rule):
    """A ``RisingCell`` (a table's too) or ``VANISHING``, by the tail's
    certificate, unswept: where c v = 0 (c = 0, or amplitude 0) y = 1 solves,
    positive on the ball; a rising cell oscillates at every c > 0."""

    def verdict(self, c: float) -> FeasibilityCheck:
        tail = self.p.tail
        if c == 0.0 or tail is VANISHING:
            out = ShootingOutcome(NO_ROWS, None, Status.NO_ZERO_ON_INTERVAL,
                                  certificate=VANISHING.certificate(c, self.R, self.s_max))
            return FeasibilityCheck(True, out, "principal-tail")
        return self._oscillating(c, tail.certificate(c, self.R, self.s_max))

    def plan(self, tol: float, checks: list) -> list:
        """A rising cell, c(V) = 0: its ``planned_end``, the least c it
        certifies.  (``best_constant`` stops amplitude 0 after c = 0.)"""
        return [self.p.tail.planned_end()]


@dataclass(eq=False)
class _SweptRule(_Rule):
    """A table whose inner cell falls, swept per probe (``integrate``).  Its
    margin, ln(1/R) - s* at a first zero s*, else atan2(z, z') at s_R =
    ln(1/R) (pi less the Pruefer angle there), falls in ln c at the rate c
    mass / (z^2 + z'^2) at the end row (``ShootingOutcome.c_mass``), and a
    zero below every float radius, on the inner cell of slope q, at -1/q:
    its plan is Newton's."""

    level: float    # the inner cell's Bessel level, clamped to the normal floats

    def verdict(self, c: float) -> FeasibilityCheck:
        """Feasible iff the margin is >= 0, undecided within _SLIVER / min(1,
        |q|) of 0, q the slope of the cell of the zero or of R: the sweep's
        tested accuracy, the rounding of ln x over the rate |q|/2 at which it
        moves.  A zero below every float radius has no row and no margin."""
        out, s_R = integrate(radius_problem(self.p, c, self.R)), -math.log(self.R)
        if out.end is None:
            return FeasibilityCheck(False, out, "recessive-shot")
        s, (_, z, dz), (knots, *_, q) = out.zero_s, out.end.values(), self.p.log_cells
        margin = math.atan2(z, dz) if s is None else s_R - s
        q = abs(float(q[knots.searchsorted(s_R if s is None else s, "right")]))
        if 0.0 < abs(margin) <= _SLIVER / min(1.0, q or 1.0):
            raise IndeterminateAtHorizon(
                f"multiplier {c}: first zero within the sweep's accuracy of R, "
                + ("past it by the tangent at R" if s is None else f"at s = {s!r}"), multiplier=c)
        return FeasibilityCheck(margin >= 0.0, out, "recessive-shot", margin)

    def plan(self, tol: float, checks: list):
        """Newton in ln c on the margin from the Bessel level, each step
        clamped to +-2 and replaced by the geometric mean of the certified
        ends where it leaves them or has no slope (by a step of 2 toward an
        end at 0 or inf) until a step is within tol/8, an iterate undecided
        or the ends within tol; then the pair x (1 -+ tol/8) about the last
        estimate, each end doubled out until certified or past its end."""
        lo, hi, x = 0.0, math.inf, self.level
        while True:
            yield (c := x)
            if (check := checks[-1]) is None:    # c lies within the sweep's accuracy of c(V)
                break
            lo, hi = (c, hi) if check.feasible else (lo, c)
            out, x, step = check.evidence, math.nan, None    # Newton's step in ln c
            if check.margin is not None and 0.0 < (out.c_mass or 0.0) < math.inf:
                _, z, dz = out.end.values()    # dm/d ln c = -c mass / rho^2
                step = check.margin * (z * z + dz * dz) / out.c_mass
            elif out.end is None:    # a zero below every float radius, on the inner cell
                step = (out.zero_s + math.log(self.R)) * self.p.inner_cell[3]    # ds*/d ln c = -1/q
            if step is not None:
                x = min(max(c * math.exp(min(max(step, -2.0), 2.0)), lo), hi)
            if abs(x - c) <= 0.125 * tol * c:
                break
            x = x if lo < x < hi else math.sqrt(lo) * math.sqrt(hi)
            x = x if lo < x < hi else min(c * math.exp(2.0 if check.feasible else -2.0), HUGE)
            if not lo < x < hi or hi - lo <= tol * lo:
                break
        for sign in (-1.0, 1.0):
            step = 0.125 * tol
            while lo < (c := x * (1.0 + sign * step)) < hi:
                yield c
                if checks[-1] is not None and checks[-1].feasible is (sign < 0.0):
                    break
                step *= 2.0


_slot: Optional[tuple] = None    # (p, R, s_max, rule) of the last rule built, replaced whole


def _rule(p: RadialPotential, R: float, s_max: float) -> _Rule:
    """The rule of (p, R, s_max).  One slot, keyed by p's identity and equal
    R and s_max, holds p, so that identity is never reused
    (``RadialPotential`` is frozen, so p always gives the same rule); a rule
    that fails to build (an invalid R or horizon raises DomainError) stores
    nothing."""
    global _slot
    slot = _slot
    if slot is not None and slot[0] is p and slot[1] == R and slot[2] == s_max:
        return slot[3]
    tail = p.tail
    if isinstance(tail, EulerTail):
        p.check_radius(R)
        rule = _ClosedRule(p, R, s_max, tail.c_closed, *tail.edge(R, s_max))
    elif tail.log_domain:    # a rising cell, or VANISHING: R and s_max as a log problem checks them
        p.check_radius(R)
        outer_edge(R, s_max)
        rule = _TailRule(p, R, s_max)
    elif tail[0] > -math.inf:    # a table's falling cell: a finite knot
        rule = _SweptRule(p, R, s_max, min(max(_bessel_level(p, R)[0], TINY), HUGE))
    else:    # one falling cell
        rule = _LevelRule(p, R, s_max, *_bessel_level(p, R))
    _slot = (p, R, s_max, rule)
    return rule


def feasible(p: RadialPotential, c: float, R: float,
             s_max: float = S_MAX_DEFAULT) -> FeasibilityCheck:
    """Decide feasibility of multiplier c on the ball of radius R by the rule
    of (p, R, s_max) (``_rule``).  ``s_max`` is the log-domain horizon,
    finite and beyond the outer edge ln(1/R).  An undecided verdict raises
    IndeterminateAtHorizon."""
    if not c >= 0.0:
        raise DomainError(f"multiplier must be >= 0, got {c}")
    if not math.isfinite(s_max):
        raise DomainError(f"horizon s_max must be finite, got {s_max}")
    slot = _slot    # the kept rule, matched as ``_rule`` matches it, without a Python call
    rule = slot[3] if slot is not None and slot[0] is p and slot[1] == R and slot[2] == s_max \
        else _rule(p, R, s_max)
    return rule.verdict(c)


def best_constant(p: RadialPotential, R: float, tol: float = 1e-6,
                  s_max: float = S_MAX_DEFAULT) -> BestConstantResult:
    """Certified bracket around the supremum of feasible multipliers.

    The loop probes c = 0, then the plan of the rule (``_rule``): a one
    cell's pair c* (1 -+ step) about its Bessel level, a log family's
    closed form and Euler edge, a rising cell's least certified multiplier,
    or a table's Newton iterates on its Pruefer margin from its inner
    cell's Bessel level, then the pair x (1 -+ tol/8) about the last one,
    an undecided end stepped out by doubling (``_SweptRule.plan``).  The
    certified ends are the answer, converged where within tol c / 2 (tol
    max(1, c) / 2 from c_lo = 0, a rising cell's [0, 2^-1022]), else the
    band; c_best is their midpoint if converged at c_lo > 0, else c_lo.  A
    verdict that contradicts an undecided one (Sturm) widens the band
    instead of moving an end past it.

    Every probe is a ``feasible`` call and ``iterations`` counts them.
    NoUpperBracket means that no float multiplier is infeasible: raised at
    amplitude 0 (c v = 0) after the probe at c = 0, else once no planned
    multiplier (up to the largest double) is certified infeasible.  A tol
    below 8 eps (~1.8e-15) raises DomainError: its closing step tol c / 8
    would not clear the float spacing at the bracket's ends.
    """
    if not tol >= _TOL_FLOOR:
        raise DomainError(f"tolerance must be at least {_TOL_FLOOR:.17g}, got {tol}")
    iterations = 0
    lo = hi = band = None      # (c, check) certified ends; (lowest, highest) undecided

    def probe(c):
        """A check of c (None where undecided), filed: a verdict moves the
        certified end on its own side of the band; an undecided or
        out-of-place one widens the band."""
        nonlocal iterations, lo, hi, band
        iterations += 1
        try:
            check = feasible(p, c, R, s_max)
        except IndeterminateAtHorizon:
            check = None
        if check is not None and check.feasible and (band is None or c < band[0]):
            lo = (c, check)
        elif check is not None and not check.feasible and (band is None or c > band[1]):
            hi = (c, check)
        else:
            band = (c, c) if band is None else (min(band[0], c), max(band[1], c))
        return check

    probe(0.0)
    if p.tail is VANISHING:
        raise NoUpperBracket("amplitude 0: c v = 0, so no float multiplier is infeasible")
    checks = []
    for c in _rule(p, R, s_max).plan(tol, checks):
        checks.append(probe(c))
    if hi is None:
        raise NoUpperBracket(f"no float multiplier is certified infeasible, up to {c!r}")

    (c_lo, lo_check), (c_hi, hi_check) = lo, hi
    mid = 0.5 * c_lo + 0.5 * c_hi    # c_best, and a relative width but on [0, c_hi] (a rising cell's)
    done = c_hi - c_lo <= 0.5 * tol * (mid if c_lo > 0.0 else max(1.0, mid))
    return BestConstantResult(mid if done and c_lo else c_lo, c_lo, c_hi, iterations,
                              lo_check.evidence, hi_check.evidence, tolerance=tol,
                              converged=done, band=None if done else (c_lo, c_hi))


# ---------------------------------------------------------------------------
# Reference constants
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    """omega_n = pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def brezis_vazquez_lambda(n: int, volume: float) -> float:
    """The constant-potential improvement level z0^2 omega_n^(2/n) V^(-2/n)
    for a domain of the given volume in dimension n >= 3."""
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    if volume <= 0.0:
        raise DomainError(f"volume must be positive, got {volume}")
    return J0_FIRST_ZERO * J0_FIRST_ZERO * unit_ball_volume(n) ** (2.0 / n) * volume ** (-2.0 / n)
