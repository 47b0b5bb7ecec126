"""Feasibility of the reduced equation and the best improvement constant.

A multiplier c is feasible when y'' + y'/r + c v(r) y = 0 admits a positive
solution on (0, R).  Numerically:

  * constants and power laws with alpha < 2 (one cell of slope q = alpha -
    2 < 0): decided in closed form, without a sweep, at every amplitude and
    R.  The recessive solution is exactly J0(x), x = (2/|q|) sqrt(c A
    r^(2 - alpha)), so c is feasible iff x(R) <= z0, i.e. c <= c* = (z0
    |q|/2)^2 / (A R^|q|) (``_bessel_level``, in logs outside the floats),
    and an infeasible c has its first zero where x = z0.  Within the
    rounding of c* (a few ulps) the verdict is undecided;
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

What does not depend on c is a rule (``_rule``), built once per
(potential, R, s_max): a one cell's Bessel level c*, ln c* and its
rounding, or a log family's closed-form end, the largest float c with c A
<= 1/4, and its Euler edge c_osc (``tail_edges``).  A probe then only
compares c with the rule's thresholds.  One slot holds the last rule,
keyed by the potential's identity and equal R and s_max; it holds the
potential, so that identity is never reused, and ``RadialPotential`` is
frozen, so the same object always gives the same rule.  Tables, rising
inner cells and the log families at amplitude 0 have no rule and are
decided per call.

Every undecided verdict raises IndeterminateAtHorizon.  Feasibility is
monotone in c (Sturm), so the best constant is the edge of a certified
bracket whichever domain decides each probe, found by one loop
(``best_constant``), whose probes share one rule.  A kind with a rule is
probed only at the ends the rule certifies; a table is searched.  An
indeterminate band around the threshold is reported with its certified
edges, and ``c_best`` is then the largest certified-feasible multiplier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, IndeterminateAtHorizon, NoUpperBracket
from .ode import (S_MAX_DEFAULT, ShootingOutcome, Status, TailEdges, euler_tail_certificate,
                  integrate, integrate_principal_tail, log_problem, radius_problem, tail_edges,
                  wants_log_domain)
from .potentials import J0_FIRST_ZERO, RadialPotential

_EPS = 2.0 ** -52
_TINY, _HUGE = 2.0 ** -1022, math.nextafter(math.inf, 0.0)    # the least normal, the largest double
_LN_TINY, _LN_HUGE = math.log(_TINY), math.log(_HUGE)
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
    normal = _TINY <= level <= _HUGE
    level = level if normal else 0.0 if log_level < 0.0 else math.inf
    if log_g == -math.inf:    # amplitude 0: the margin is inf at every c
        return level, log_level, 0.0
    ell, q = float(p.log_cells[2][0]), float(p.log_cells[3][0])
    terms = 2.0 + abs(ell) + (abs(p.sigma) + abs(q)) * abs(s_R) + (0.0 if normal else abs(log_k))
    return level, log_level, 8.0 * _EPS * terms


def _level_verdict(p: RadialPotential, c: float, R: float, rule: _Rule) -> FeasibilityCheck:
    """Decide c for one cell of slope q < 0 from its recessive solution
    J0(x), unswept: the margin ln z0 - ln x(R) = ln(c*/c) / 2 (from c / c*
    where c* is a normal float, else (ln c* - ln c) / 2) is feasible above
    the rule's slack, infeasible below minus it, with the first zero at s*
    = ln(1/R) + 2 margin / q, where x = z0, and undecided between."""
    if 0.0 < rule.level < math.inf:
        ratio = c / rule.level
        margin = -0.5 * math.log(ratio) if ratio > 0.0 else math.inf
    elif c > 0.0 and rule.log_level < math.inf:    # ln c* = inf at amplitude 0, even at c = inf
        margin = 0.5 * (rule.log_level - math.log(c))
    else:
        margin = math.inf
    if abs(margin) <= rule.slack:
        raise IndeterminateAtHorizon(
            f"multiplier {c}: within the rounding ({rule.slack:.1e}) of the Bessel threshold "
            f"x(R) = z0, ln c* = {rule.log_level!r}", multiplier=c)
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


@dataclass(frozen=True)
class _Rule:
    """What decides a probe of (p, R, s_max) before c is known: a one cell's
    ``_bessel_level``, or a log family's closed-form end and Euler edges."""

    level: Optional[float] = None       # c*, 0 or inf where it is not a normal float
    log_level: float = 0.0              # ln c*
    slack: float = 0.0
    c_closed: float = 0.0               # the largest float c with c A <= 1/4
    edges: Optional[TailEdges] = None   # ``tail_edges`` at c = 1


_slot: Optional[tuple] = None    # (p, R, s_max, rule) of the last rule built, replaced whole


def _rule(p: RadialPotential, R: float, s_max: float) -> Optional[_Rule]:
    """The rule of (p, R, s_max), or None for a table, a rising inner cell
    and a log family at amplitude 0, which have none.  One slot, keyed by
    p's identity and equal R and s_max; a rule that fails to build (an
    invalid R or horizon raises DomainError) stores nothing."""
    global _slot
    slot = _slot
    if slot is not None and slot[0] is p and slot[1] == R and slot[2] == s_max:
        return slot[3]
    rule = None
    if p.log_cells is None and p.amplitude > 0.0:
        edges = tail_edges(log_problem(p, 1.0, R, s_max=s_max))
        c = p.closed_form_multiplier(R)    # 1/(4A) rounded: c or the float below it is c_closed
        c = c if _closed_form_covers(c, p.amplitude) else math.nextafter(c, 0.0)
        rule = _Rule(c_closed=c, edges=edges)
    elif p.log_cells is not None and not p.log_cells[0].size and p.log_cells[3][0] < 0.0:
        rule = _Rule(*_bessel_level(p, R))    # a constant or a power law with alpha < 2
    _slot = (p, R, s_max, rule)
    return rule


def feasible(p: RadialPotential, c: float, R: float,
             s_max: float = S_MAX_DEFAULT) -> FeasibilityCheck:
    """Decide feasibility of multiplier c on the ball of radius R.  ``s_max``
    is the log-domain horizon, finite and beyond the outer edge ln(1/R).  An
    undecided verdict raises IndeterminateAtHorizon.

    A constant or a power law with alpha < 2 compares c with the Bessel
    level of its rule (``_rule``, kept for the next call with the same
    potential object, R and s_max) at every amplitude and R; a table sweeps
    its cells; a log family of amplitude A > 0 is feasible at c <= c_closed
    (c A <= 1/4 exactly), infeasible at c >= c_osc by the edge's certificate
    with gamma scaled by c, and undecided between."""
    if not c >= 0.0:
        raise DomainError(f"multiplier must be >= 0, got {c}")
    if not math.isfinite(s_max):
        raise DomainError(f"horizon s_max must be finite, got {s_max}")
    rule = _rule(p, R, s_max)
    if rule is not None and rule.level is not None:
        return _level_verdict(p, c, R, rule)
    if not wants_log_domain(p):    # a table
        out = integrate(radius_problem(p, c, R))
        return FeasibilityCheck(_swept_verdict(p, c, R, out), out, "recessive-shot",
                                _margin(out, R))

    empty = dict.fromkeys("s z dz".split(), np.empty(0))
    if rule is not None:    # a log family of amplitude A > 0
        if c <= rule.c_closed:
            return FeasibilityCheck(True, ShootingOutcome(empty, None, Status.NO_ZERO_ON_INTERVAL),
                                    "closed-form")
        cert = rule.edges.certificate(c)
    else:
        prob = log_problem(p, c, R, s_max=s_max)
        cert = euler_tail_certificate(prob)
        if cert is not None and cert.kind == "nonoscillatory":    # c v = 0: the branch is a line
            out = integrate_principal_tail(prob, cert)
            return FeasibilityCheck(out.status is not Status.ZERO_FOUND, out, "principal-tail")
    if cert is None:
        raise IndeterminateAtHorizon(
            f"multiplier {c}: no Euler comparison certificate by s_max = {s_max}", multiplier=c)
    # oscillatory tail: infeasible, and the certificate proves a zero inside its window
    out = ShootingOutcome(empty, None, Status.ZERO_FOUND, certificate=cert)
    return FeasibilityCheck(False, out, "oscillation-certificate")


def best_constant(p: RadialPotential, R: float, tol: float = 1e-6,
                  s_max: float = S_MAX_DEFAULT) -> BestConstantResult:
    """Certified bracket around the supremum of feasible multipliers.

    The loop probes c = 0, then a plan of multipliers, each once, each an
    end certified by the rule of its kind:

      * a log family of amplitude A > 0: the largest float c_lo <= 1/(4A)
        (the closed form) and c_osc (``tail_edges``).  No probe sweeps, and
        c_lo = c_best = 1/(4A) for every m, A, R and horizon.  An infinite
        c_osc raises IndeterminateAtHorizon, naming [1/(4A), inf) and s_max;
      * an inner cell of slope q >= 0 (c(V) = 0): 2^-1022 / min(gamma, 1),
        gamma of its ``euler_tail_certificate`` at c = 1 (from ln g where g
        underflows on a flat cell), infeasible by the cell out to s = inf;
      * a constant or a power law, at every amplitude and R: c* (1 -+ step)
        around its exact Bessel level c* (``_bessel_level``) clamped to
        [2^-1022, the largest double], the lower one only if normal, step =
        max(tol / 8, 2 slack + 8 eps), the least step whose margin clears
        the level's slack.  ``feasible`` decides each by x(R) against z0,
        unswept: three probes with c = 0, and c_best is c* to rounding;
      * a table: its own Bessel level, clamped to the normal floats.

    Where a log family's or a one cell's certified ends are wider than tol
    (c_osc - c_lo, or a slack above tol / 8), the rule decides no multiplier
    between them (but within 8 eps of a one cell's): they are the band,
    unsearched.  Otherwise (a table, a one-cell level at the largest double,
    or a probe that contradicts the plan) the loop expands from the last
    probe by factors of 2 until one end is certified infeasible and the
    other feasible (or a band is met, or [0, c] is already narrow), and
    closes the bracket to width tol * max(1, c) / 2 by an Illinois root
    solve of the signed shooting margin, a bisection unless both ends have
    one.  Around an indeterminate band the certified edges are bisected
    toward it instead, beside a band of one multiplier c from c (1 -+ tol /
    8) on; unless the bracket then closes, ``converged`` is False and c_best
    is the largest certified-feasible multiplier.

    Every probe is a ``feasible`` call and ``iterations`` counts them.  The
    plan reads its ends (c_lo, c_osc, the level and its slack) from the
    rule that decides every probe (``_rule``, built once for (p, R, s_max)).
    NoUpperBracket means that no float multiplier is infeasible: at
    amplitude 0 (c v = 0) it is raised after the probe at c = 0, and
    otherwise once the largest double is not certified infeasible.  A tol
    below 8 eps (~1.8e-15) raises DomainError: its closing step tol * max(1,
    c) / 4 would not clear the float spacing at the bracket's ends, and the
    loop would probe the same multiplier forever.
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
    # the plan, each multiplier probed once: an end from the rule that certifies it
    rule = _rule(p, R, s_max)
    if p.log_cells is None:    # the largest float <= c* = 1/(4A), and the Euler edge
        plan = [rule.c_closed, rule.edges.c_osc]
        if plan[1] == math.inf:    # the closed form decides c <= 1/(4A), and nothing above
            raise IndeterminateAtHorizon(f"multipliers in [{plan[0]!r}, inf) undecided: no Euler "
                                         f"edge is finite by s_max = {s_max!r}", multiplier=plan[1])
    elif wants_log_domain(p):    # a rising inner cell, c(V) = 0: the least c whose c g(s1)
        # is a normal double, from ln g where g underflows at c = 1 (a flat inner cell)
        unit = euler_tail_certificate(log_problem(p, 1.0, R, s_max=s_max))
        plan = [_TINY / min(unit.gamma, 1.0) if unit else math.exp(_LN_TINY - p.log_cells[2][-1])]
    elif rule is not None:    # one cell: c* (1 -+ step), the least step whose margin clears
        # the level's slack, c* clamped to the normal floats
        step = max(0.125 * tol, 2.0 * rule.slack + 8.0 * _EPS)
        level = min(max(rule.level, _TINY), _HUGE)
        plan = [level * (1.0 - step), min(level * (1.0 + step), _HUGE)]
        plan = plan if plan[0] >= _TINY else plan[1:]
    else:    # a table: search from its Bessel level, clamped to the normal floats
        plan = [min(max(_bessel_level(p, R)[0], _TINY), _HUGE)]
    for c in plan:
        settle(c, probe(c))
    if rule is not None and band is None and hi is not None and wide(lo[0], hi[0]):
        band = (lo[0], hi[0])    # what the rule leaves undecided, to its ends' rounding
    while hi is None or not (lo[0] > 0.0 or band is not None or not wide(0.0, hi[0])):
        if hi is None and c == _HUGE:
            raise NoUpperBracket(f"no float multiplier is certified infeasible, up to {c!r}")
        c = min(2.0 * c, _HUGE) if hi is None else 0.5 * c
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
