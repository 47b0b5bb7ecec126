"""Feasibility of the reduced equation and the best improvement constant.

A multiplier c is feasible when y'' + y'/r + c v(r) y = 0 admits a positive
solution on (0, R).  What does not depend on c is a rule (``_rule``), built
once per (potential, R, s_max), whose ``verdict(c)`` decides a probe and
whose ``plan(tol)`` names the ends that ``best_constant`` probes:

  * ``_LevelRule``, a constant or a power law with alpha < 2: c against its
    Bessel level c*, in closed form at every amplitude and R;
  * ``_ClosedRule``, a log family of amplitude A > 0: feasible at c <=
    1/(4A) by its closed form, infeasible from its Euler edge c_osc on;
  * ``_TailRule``, an inner cell of slope q >= 0 or a log family at
    amplitude 0: the certificates of the log domain, per probe;
  * none for a table whose inner cell falls: it is swept per call, exactly
    by transfer matrices (``_swept_verdict``), and searched.

Every undecided verdict raises IndeterminateAtHorizon.  Feasibility is
monotone in c (Sturm), so the best constant is the edge of a certified
bracket, and an indeterminate band is reported with its certified edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
from .ode import (S_MAX_DEFAULT, ShootingOutcome, Status, TailCertificate, TailEdges,
                  euler_tail_certificate, integrate, integrate_principal_tail, log_problem,
                  radius_problem, tail_edges)
from .potentials import J0_FIRST_ZERO, TINY, RadialPotential

_EPS = 2.0 ** -52
_HUGE = math.nextafter(math.inf, 0.0)    # the largest double
_LN_TINY, _LN_HUGE = math.log(TINY), math.log(_HUGE)
_TOL_FLOOR = 8.0 * _EPS     # least tol whose closing step clears the float spacing
_SLIVER = 1e-14             # a table's zero within this / min(1, |q|) of ln(1/R) is undecided


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    evidence: ShootingOutcome
    method: str    # "recessive-shot" | "principal-tail" | "oscillation-certificate" | "closed-form"
    margin: Optional[float] = None    # > 0 if feasible: a table's _margin, one cell's ln(c*/c) / 2


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


def _closed_form_covers(c: float, A: float) -> bool:
    """Whether c A <= 1/4 exactly, for floats c, A >= 0 (c may be inf): with
    c = a/b and A = u/v, whether 4 a u <= b v."""
    if c == math.inf:
        return False
    (a, b), (u, v) = c.as_integer_ratio(), A.as_integer_ratio()
    return 4 * a * u <= b * v


def _bessel_level(p: RadialPotential, R: float) -> tuple:
    """(c*, ln c*, slack) of a cell kind on the ball of radius R: the Bessel
    level c* = k / g(s_R), k = (z0 (2 - sigma)/2)^2, ln g(s_R) =
    ``log_weight_exponent(s_R)``, s_R = ln(1/R), exact on the model at any
    size; c* = k / e^(ln g) (e^(ln c*) where |ln g| > 700), 0 or inf where
    not a normal float (inf at amplitude 0).  The slack, 8 eps (2 + |ln A| +
    (|sigma| + |q|) |ln R|), plus 8 eps |ln k| where c* is not normal and the
    margin ln(c*/c) / 2 is a difference of logs, bounds a one cell's margin
    error (below 0.1 of it on 2e4 random cells, against 50 digits)."""
    p.check_radius(R)
    s_R = -math.log(R)
    log_g = float(p.log_weight_exponent(s_R))
    half = abs(0.5 * J0_FIRST_ZERO * (2.0 - p.sigma))    # sqrt(k)
    log_k = 2.0 * math.log(half) if half else -math.inf
    log_level = log_k - log_g
    if abs(log_g) <= 700.0:
        level = half * half / math.exp(log_g)
    else:
        level = math.exp(log_level) if log_level <= _LN_HUGE else math.inf
    normal = TINY <= level <= _HUGE
    level = level if normal else 0.0 if log_level < 0.0 else math.inf
    if log_g == -math.inf:    # amplitude 0: the margin is inf at every c
        return level, log_level, 0.0
    ell, q = p.inner_cell[2:]
    terms = 2.0 + abs(ell) + (abs(p.sigma) + abs(q)) * abs(s_R) + (0.0 if normal else abs(log_k))
    return level, log_level, 8.0 * _EPS * terms


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


@dataclass(frozen=True)
class _Rule:
    """What decides a probe of (p, R, s_max), ``verdict(c)``, and plans
    ``best_constant``'s, ``plan(tol)``: ends it certifies, each probed once."""

    p: RadialPotential
    R: float
    s_max: float

    def _oscillating(self, c: float, cert: Optional[TailCertificate]) -> FeasibilityCheck:
        """Infeasible by cert, a zero inside its window; undecided without one."""
        if cert is None:
            raise IndeterminateAtHorizon(f"multiplier {c}: no Euler comparison certificate by "
                                         f"s_max = {self.s_max}", multiplier=c)
        empty = dict.fromkeys("s z dz".split(), np.empty(0))
        out = ShootingOutcome(empty, None, Status.ZERO_FOUND, certificate=cert)
        return FeasibilityCheck(False, out, "oscillation-certificate")


@dataclass(frozen=True)
class _LevelRule(_Rule):
    """One cell of slope q = alpha - 2 < 0.  Its recessive solution is
    exactly J0(x), x = (2/|q|) sqrt(c A r^(2 - alpha)), so c is feasible iff
    x(R) <= z0, i.e. c <= c* (``_bessel_level``)."""

    level: float        # c*, 0 or inf where it is not a normal float
    log_level: float    # ln c*
    slack: float

    def verdict(self, c: float) -> FeasibilityCheck:
        """Unswept: the margin ln z0 - ln x(R) = ln(c*/c) / 2 (from c / c*
        where c* is a normal float, else (ln c* - ln c) / 2) is feasible
        above the slack, infeasible below minus it, with the first zero at
        s* = ln(1/R) + 2 margin / q, where x = z0, and undecided between."""
        if 0.0 < self.level < math.inf:
            ratio = c / self.level
            margin = -0.5 * math.log(ratio) if ratio > 0.0 else math.inf
        elif c > 0.0 and self.log_level < math.inf:    # ln c* = inf at amplitude 0, even at c = inf
            margin = 0.5 * (self.log_level - math.log(c))
        else:
            margin = math.inf
        if abs(margin) <= self.slack:
            raise IndeterminateAtHorizon(
                f"multiplier {c}: within the rounding ({self.slack:.1e}) of the Bessel threshold "
                f"x(R) = z0, ln c* = {self.log_level!r}", multiplier=c)
        zero_s = None if margin > 0.0 else -math.log(self.R) + 2.0 * margin / self.p.inner_cell[3]
        out = ShootingOutcome(dict.fromkeys("r y dy".split(), np.empty(0)), zero_s,
                              Status.NO_ZERO_ON_INTERVAL if zero_s is None else Status.ZERO_FOUND)
        return FeasibilityCheck(margin > 0.0, out, "recessive-shot", margin)

    def plan(self, tol: float) -> list:
        """c* (1 -+ step), c* clamped to the normal floats, the lower one only
        if normal: step = max(tol / 8, 2 slack + 8 eps) is the least whose
        margin clears the slack, so c_best is c* to rounding."""
        step = max(0.125 * tol, 2.0 * self.slack + 8.0 * _EPS)
        level = min(max(self.level, TINY), _HUGE)
        plan = [level * (1.0 - step), min(level * (1.0 + step), _HUGE)]
        return plan if plan[0] >= TINY else plan[1:]


@dataclass(frozen=True)
class _ClosedRule(_Rule):
    """A log family of amplitude A > 0: its ``closed_form`` solves at 1/(4A),
    so c <= c_closed is feasible (Sturm, Picone), unswept; above, r^2 v (s -
    s0)^2 tends to A from above, and c >= c_osc is infeasible by the Euler
    edge's certificate with gamma scaled by c, c between undecided."""

    c_closed: float     # the largest float c with c A <= 1/4
    edges: TailEdges    # ``tail_edges`` at c = 1

    def verdict(self, c: float) -> FeasibilityCheck:
        if c <= self.c_closed:
            empty = dict.fromkeys("s z dz".split(), np.empty(0))
            return FeasibilityCheck(True, ShootingOutcome(empty, None, Status.NO_ZERO_ON_INTERVAL),
                                    "closed-form")
        return self._oscillating(c, self.edges.certificate(c))

    def plan(self, tol: float) -> list:
        """[c_closed, c_osc], so c_lo = c_best = 1/(4A) for every m, A, R and
        horizon; an infinite c_osc raises IndeterminateAtHorizon."""
        plan = [self.c_closed, self.edges.c_osc]
        if plan[1] == math.inf:    # the closed form decides c <= 1/(4A), and nothing above
            raise IndeterminateAtHorizon(f"multipliers in [{plan[0]!r}, inf) undecided: no Euler "
                                         f"edge is finite by s_max = {self.s_max!r}",
                                         multiplier=plan[1])
        return plan


class _TailRule(_Rule):
    """An inner cell of slope q >= 0 (a table's too) or a log family at
    amplitude 0, decided by ``euler_tail_certificate``: the principal branch
    (the line z = 1) where c v = 0, a rising cell's oscillation at c > 0."""

    def verdict(self, c: float) -> FeasibilityCheck:
        prob = log_problem(self.p, c, self.R, s_max=self.s_max)
        cert = euler_tail_certificate(prob)
        if cert is not None and cert.kind == "nonoscillatory":    # c v = 0: the branch is a line
            out = integrate_principal_tail(prob, cert)
            return FeasibilityCheck(out.status is not Status.ZERO_FOUND, out, "principal-tail")
        return self._oscillating(c, cert)

    def plan(self, tol: float) -> list:
        """A rising cell, c(V) = 0: the least c whose certificate's gamma is
        normal, 2^-1022 where q > 0 (it moves out to c g = 1), else 2^-1022 /
        min(e^ell, 1), in logs where e^ell is not normal, clamped to the
        largest double.  (``best_constant`` stops amplitude 0 after c = 0.)"""
        ell, q = self.p.inner_cell[2:]
        g, x = math.exp(min(ell, 0.0)), _LN_TINY - ell    # min(e^ell, 1), ln(TINY/e^ell)
        return [TINY if q > 0.0 else TINY / g if g >= TINY
                else math.exp(x) if x <= _LN_HUGE else _HUGE]


_slot: Optional[tuple] = None    # (p, R, s_max, rule) of the last rule built, replaced whole


def _rule(p: RadialPotential, R: float, s_max: float) -> Optional[_Rule]:
    """The rule of (p, R, s_max), or None for a table whose inner cell
    falls, which has none.  One slot, keyed by p's identity and equal R and
    s_max, holds p, so that identity is never reused (``RadialPotential`` is
    frozen, so p always gives the same rule); a rule that fails to build (an
    invalid R or horizon raises DomainError) stores nothing."""
    global _slot
    slot = _slot
    if slot is not None and slot[0] is p and slot[1] == R and slot[2] == s_max:
        return slot[3]
    rule, cell = None, p.inner_cell
    if cell is None and p.amplitude > 0.0:
        edges = tail_edges(log_problem(p, 1.0, R, s_max=s_max))
        c = p.closed_form_multiplier(R)    # 1/(4A) rounded: c or the float below it is c_closed
        c = c if _closed_form_covers(c, p.amplitude) else math.nextafter(c, 0.0)
        rule = _ClosedRule(p, R, s_max, c, edges)
    elif cell is None or cell[3] >= 0.0:
        rule = _TailRule(p, R, s_max)
    elif cell[0] == -math.inf:
        rule = _LevelRule(p, R, s_max, *_bessel_level(p, R))
    _slot = (p, R, s_max, rule)
    return rule


def feasible(p: RadialPotential, c: float, R: float,
             s_max: float = S_MAX_DEFAULT) -> FeasibilityCheck:
    """Decide feasibility of multiplier c on the ball of radius R.  ``s_max``
    is the log-domain horizon, finite and beyond the outer edge ln(1/R).  An
    undecided verdict raises IndeterminateAtHorizon.  A table whose inner
    cell falls sweeps its cells; a rule (``_rule``) decides every other kind."""
    if not c >= 0.0:
        raise DomainError(f"multiplier must be >= 0, got {c}")
    if not math.isfinite(s_max):
        raise DomainError(f"horizon s_max must be finite, got {s_max}")
    rule = _rule(p, R, s_max)
    if rule is None:    # a table whose inner cell falls
        out = integrate(radius_problem(p, c, R))
        return FeasibilityCheck(_swept_verdict(p, c, R, out), out, "recessive-shot",
                                _margin(out, R))
    return rule.verdict(c)


def best_constant(p: RadialPotential, R: float, tol: float = 1e-6,
                  s_max: float = S_MAX_DEFAULT) -> BestConstantResult:
    """Certified bracket around the supremum of feasible multipliers.

    The loop probes c = 0, then the plan of the rule (``_rule``), whose
    certified ends are the answer: the band, unsearched, where they are
    wider than tol (the rule decides nothing between them, but within 8 eps
    of a one cell's).  A table is searched from its Bessel level, clamped to
    the normal floats: by factors of 2 until one end is certified infeasible
    and the other feasible (or a band is met, or [0, c] is already narrow),
    then to width tol * max(1, c) / 2 by an Illinois root solve of the
    signed shooting margin, a bisection unless both ends have one.  Around
    an indeterminate band the certified edges are bisected toward it
    instead, beside a band of one multiplier c from c (1 -+ tol / 8) on;
    unless the bracket then closes, ``converged`` is False and c_best is
    the largest certified-feasible multiplier.

    Every probe is a ``feasible`` call and ``iterations`` counts them.
    NoUpperBracket means that no float multiplier is infeasible: raised at
    amplitude 0 (c v = 0) after the probe at c = 0, else once no planned end
    (for a table, the largest double) is certified infeasible.  A tol below
    8 eps (~1.8e-15) raises DomainError: its closing step tol * max(1, c) /
    4 would not clear the float spacing at the bracket's ends.
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
        return b - a > 0.5 * tol * max(1.0, 0.5 * a + 0.5 * b)

    settle(0.0, probe(0.0))
    if p.amplitude == 0.0:
        raise NoUpperBracket("amplitude 0: c v = 0, so no float multiplier is infeasible")
    rule = _rule(p, R, s_max)
    if rule is None:    # a table: double or halve from its level, then close on the margin
        c = min(max(_bessel_level(p, R)[0], TINY), _HUGE)
        settle(c, probe(c))
        while hi is None or not (lo[0] > 0.0 or band is not None or not wide(0.0, hi[0])):
            if hi is None and c == _HUGE:
                raise NoUpperBracket(f"no float multiplier is certified infeasible, up to {c!r}")
            c = min(2.0 * c, _HUGE) if hi is None else 0.5 * c
            settle(c, probe(c))

        # The margin decides where the next multiplier goes; the verdict
        # decides which end it replaces, so both ends stay certified.  Each
        # iterate is clamped at least tol * max(1, c) / 4 inside the bracket,
        # so an iterate that lands next to the root on the far side closes it.
        last = None
        while True:
            if band is None:
                a, b = lo[0], hi[0]
                if not wide(a, b):
                    break
                delta = 0.25 * tol * max(1.0, 0.5 * a + 0.5 * b)
                x = b - fb * (b - a) / (fb - fa) if fa > 0.0 > fb else 0.5 * a + 0.5 * b
                x = min(max(x, a + delta), b - delta)
            elif wide(lo[0], band[0]):
                x = 0.5 * lo[0] + 0.5 * band[0]
                x = max(x, band[0] * (1.0 - 0.125 * tol)) if band[0] == band[1] else x
            elif wide(band[1], hi[0]):
                x = 0.5 * band[1] + 0.5 * hi[0]
                x = min(x, band[1] * (1.0 + 0.125 * tol)) if band[0] == band[1] else x
            else:
                break
            side = settle(x, probe(x))
            if side == last == "lo":
                fb *= 0.5      # Illinois: the same end moved twice, so the other's weight halves
            elif side == last == "hi":
                fa *= 0.5
            last = side
    else:    # the planned ends, the band where they are wider than tol
        for c in rule.plan(tol):
            settle(c, probe(c))
        if hi is None:
            raise NoUpperBracket(f"no float multiplier is certified infeasible, up to {c!r}")
        band = (lo[0], hi[0])

    (c_lo, lo_check), (c_hi, hi_check) = lo, hi
    done = band is None or not wide(c_lo, c_hi)
    return BestConstantResult(0.5 * c_lo + 0.5 * c_hi if done else c_lo, c_lo, c_hi, iterations,
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
