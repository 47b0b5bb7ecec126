"""Integration of the reduced radial equation y'' + y'/r + c v(r) y = 0.

Under s = ln(1/r) the equation becomes z'' + a(s) z = 0 with
a(s) = c e^{-2s} v(e^{-s}), and every shot is one sweep of that equation
from some start state (``_sweep``): the recessive shot runs from the inner
cell down to the outer edge, the outer-edge shot runs up to the horizon
s_max, the principal tail runs back from the horizon.  Radius-domain
problems report their sweep as (r, y, dy/dr), log-domain problems as
(s, z, dz/ds).  Where a = 0 a sweep is the line through its start state.

Constants, power laws and ``custom`` tables are log-log linear: on each of
their cells ln a = ln c + ell + q (s - anchor), and z'' + a z = 0 is solved
exactly there by cylinder functions Z0(x), x = (2/|q|) sqrt(a(s)); from
x = 1e3 on (and for q = 0, cos / sin) in Hankel's
modulus-phase form, whose phase never forms x itself.  Their sweeps multiply
Wronskian-normalised (det 1) 2x2 transfer matrices cell by cell, and Newton
steps on the monotone phase of the exact solution, ``_fundamental``'s, which
the zero's target phase also reads, find the first zero inside a cell, so a
cell holding two zeros is no trap.  The recessive
branch at r = 0 is exactly J0(x) on the inner cell, which needs q < 0 there
(sigma < 2).  This is the coefficient-approximation method (Pruess 1973;
Pryce, Numerical Solution of Sturm-Liouville Problems, 1993) on the model
the tables themselves define.

The two log families are swept by the same carry and phase search on Euler
cells in tau = ln(s - s0), where w = z e^(-tau/2) solves w'' + (c G - 1/4) w
= 0 exactly at G constant, and G does not rise: the laws at the cells' ends
bracket the first zero (``_euler_sweep``), reported in s.

Beyond any fixed horizon, Sturm comparison (Hartman, Ordinary Differential
Equations, Ch. XI) certifies oscillation by the potential's ``tail``
(``euler_tail_certificate``): a log family compares with z'' + g/(s -
s0)^2 z = 0 at its shift, where a (s - s0)^2 does not rise; a rising inner
cell (q >= 0) with z'' + a(s1) z = 0 out to s = inf, so every c > 0
oscillates; only a = 0 has a non-oscillatory tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, GridTooCoarse, IndeterminateAtHorizon, NonPositiveTrajectory,
                     UnsupportedSingularity)
from .potentials import (HUGE, J0_FIRST_ZERO, S_MAX_DEFAULT, VANISHING, EulerTail,
                         RadialPotential, TailCertificate, outer_edge)

_TRAJECTORY_START = 1e-8      # radius / R where a recessive trajectory starts at most
_DEEPEST_START = 700.0        # largest s a recessive trajectory starts at: r ~ 1e-304
_CELL_SAMPLES = 16            # trajectory samples per cell, its entry included
_EULER_CELLS = 3000           # tau-cells of a log family's sweep past m = 1
_EULER_GRADING = 0.1          # their widths grow like this + tau - tau(outer edge)
_EULER_SAMPLES = 256          # trajectory samples of a log family's sweep, uniform in tau
_SMALL_X = 1e-30              # below it J0, Y0, x J1, x Y1 are their leading terms
_X_ASYMPTOTIC = 1e3           # x from which Z0 takes its modulus-phase form
_RICCATI_SAMPLES = 4097       # dense-output resamples of riccati_check
NO_ROWS = {frame: MappingProxyType(dict.fromkeys(frame.split(), np.frombuffer(b"")))
           for frame in ("s z dz", "r y dy")}    # of an outcome without a sweep: shared, read-only


# scipy.special is imported by the first call that needs it (``_bessel``)

def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, uncalled: the name bench/spans.py patches (ROADMAP item 5)."""
    from scipy import integrate
    return integrate.solve_ivp(*args, **kwargs)


class Domain(Enum):
    RADIUS = "radius"
    LOG = "log"


class Status(Enum):
    NO_ZERO_ON_INTERVAL = "NoZeroOnInterval"
    ZERO_FOUND = "ZeroFound"
    HORIZON_REACHED = "HorizonReached"


@dataclass(frozen=True)
class HardyODEProblem:
    """Immutable description of one shooting problem."""

    potential: RadialPotential
    c: float
    R: float
    domain: Domain = Domain.RADIUS
    s_max: float = S_MAX_DEFAULT    # outer horizon (log domain): finite, beyond the outer edge

    def __post_init__(self):
        if not self.c >= 0.0:
            raise DomainError(f"multiplier must be >= 0, got {self.c}")
        self.potential.check_radius(self.R)
        if self.domain is Domain.LOG:
            outer_edge(self.R, self.s_max)
        elif not math.isfinite(self.s_max):
            raise DomainError(f"horizon s_max must be finite, got {self.s_max}")

    def coefficient(self, x):
        """Equation coefficient in this domain's variable: c*v(r) at radius x,
        or a(s) = c e^{-2s} v(e^{-s}) at log-abscissa x; float or ndarray."""
        if self.domain is Domain.RADIUS:
            return self.c * self.potential.value(x)
        return self.c * self.potential.log_weight(x)


def radius_problem(p: RadialPotential, c: float, R: float) -> HardyODEProblem:
    return HardyODEProblem(p, c, R, Domain.RADIUS)


def log_problem(p: RadialPotential, c: float, R: float,
                s_max: float = S_MAX_DEFAULT) -> HardyODEProblem:
    return HardyODEProblem(p, c, R, Domain.LOG, s_max=s_max)


def to_log_domain(prob: HardyODEProblem, s_max: float = S_MAX_DEFAULT) -> HardyODEProblem:
    if prob.domain is not Domain.RADIUS:
        raise DomainError("to_log_domain expects a radius-domain problem")
    return replace(prob, domain=Domain.LOG, s_max=s_max)


@dataclass(frozen=True)
class ShootingOutcome:
    """First zero, termination and solution of one integration.  A sweep
    keeps one state, its dense output (of r or s, answering on ``span``).
    Its ``trajectory``, (r, y, dy/dr) in increasing r or (s, z, dz/ds) in
    increasing s, is a view of that formed on first read, a first zero the
    exact row z = 0; ``end`` is the row where it stopped, read by verdicts."""

    rows: dict | Callable                 # column name -> sample array, or the function forming it
    zero_s: Optional[float]               # log abscissa s* of the first zero, if any
    status: Status
    certificate: Optional[TailCertificate] = None
    dense: Optional[Callable] = field(default=None, repr=False, compare=False)
    end: Optional[dict] = None            # column name -> value at the first zero, else at the end
    span: Optional[tuple] = None          # (lo, hi): the range of s swept
    c_mass: Optional[float] = None        # a cell sweep's integral of a z^2 ds, recessive to r = 0
    zero_bracket: Optional[tuple] = None  # (lo, hi): an Euler sweep's s certified to hold zero_s

    @cached_property
    def trajectory(self) -> dict:
        return self.rows() if callable(self.rows) else self.rows

    @property
    def first_zero(self) -> Optional[float]:
        """Radius r* = e^-s* of the first zero; 0.0 beyond s* ~ 745."""
        return None if self.zero_s is None else math.exp(-self.zero_s)


def _vanishes(prob: HardyODEProblem) -> bool:
    """Whether a = c g vanishes: c = 0 or the ``VANISHING`` tail (amplitude 0)."""
    return prob.c == 0.0 or prob.potential.tail is VANISHING


def _line(prob: HardyODEProblem, s_from: float, s_to: float, state0) -> tuple:
    """The sweep where a = 0: the line z = z0 + z0' (s - s_from), up to its
    zero if it crosses 0 inside the sweep."""
    z0, dz0 = float(state0[0]), float(state0[1])
    cross = s_from - z0 / dz0 if dz0 != 0.0 else math.nan    # where the line meets 0
    zero_t = cross if min(s_from, s_to) <= cross <= max(s_from, s_to) else None
    t = np.array([s_from, s_to if zero_t is None else zero_t])

    def dense(s):
        return np.array([z0 + dz0 * (np.asarray(s) - s_from), np.full(np.shape(s), dz0)])

    return t, zero_t, None if zero_t is None else dz0, dense, None, None


# ---------------------------------------------------------------------------
# Exact cell sweeps: the log-log linear kinds' cells, the log families' Euler cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Segments:
    """The cells a sweep crosses, clipped to it, in sweep order: segment k
    runs from u[k] to w[k], where ln a = ln a(u) + q[k] (s - u[k]).  Where
    bessel[k] its solutions are J0 and Y0 at ln x = lnx[k] + q[k] (s - u[k]) / 2
    and omega[k] = 1; elsewhere x >= _X_ASYMPTOTIC (or q = 0) and they take the
    modulus-phase form with omega[k] = sqrt(a(u)) (see ``_hankel``).  A
    solution A f1 + B f2 vanishes where the phase meets atan2(B, omega A) + pi/2
    (mod pi), and the phase rises at omega det F / (f11^2 + (omega f12)^2)."""

    u: np.ndarray
    w: np.ndarray
    bessel: np.ndarray
    q: np.ndarray
    lnx: np.ndarray
    omega: np.ndarray
    log_a: np.ndarray    # ln a(u)


def _segments(prob: HardyODEProblem, s_from: float, s_to: float) -> _Segments:
    """Split [s_from, s_to] at the knots and pick each piece's model.

    A piece along which x grows past x(u) + 2 pi ends there: its phase
    then gains more than pi, so the sweep's first zero lies inside, and no
    x beyond it (which could overflow) is ever formed.  Its rise in ln x is
    formed apart from ln x, which would absorb it from x ~ 1e15 on.
    """
    knots, anchors, ell, q = prob.potential.log_cells
    inside = knots[(knots - s_from) * (knots - s_to) < 0.0]
    pts = np.concatenate([[s_from], inside if s_to > s_from else inside[::-1], [s_to]])
    u, w = pts[:-1], pts[1:]
    cell = np.searchsorted(knots, 0.5 * (u + w))
    h = w - u
    q, log_a = q[cell], math.log(prob.c) + ell[cell] + q[cell] * (u - anchors[cell])   # a(u) > 0
    lnx = np.full(u.size, math.inf)
    sloped = q != 0.0
    lnx[sloped] = np.log(2.0 / np.abs(q[sloped])) + 0.5 * log_a[sloped]
    bessel = np.minimum(lnx, lnx + 0.5 * q * h) < math.log(_X_ASYMPTOTIC)
    omega = np.where(bessel, 1.0, np.exp(0.5 * np.minimum(log_a, 1400.0)))
    rise = np.logaddexp(0.0, math.log(2.0 * math.pi) - lnx)
    capped = np.flatnonzero((q * h > 0.0) & (0.5 * q * h > rise))
    if capped.size:
        k = capped[0]
        w[k] = u[k] + 2.0 * rise[k] / q[k]
        u, w, bessel, q, lnx, omega, log_a = (a[:k + 1] for a in
                                              (u, w, bessel, q, lnx, omega, log_a))
    return _Segments(u, w, bessel, q, lnx, omega, log_a)


def _bessel(lnx: np.ndarray) -> tuple[np.ndarray, ...]:
    """J0, Y0, x J1 and x Y1 at x = e^lnx; below _SMALL_X their leading
    terms, taken from ln x, since x itself may underflow there (Y0 is
    (2/pi) (ln(x/2) + Euler's gamma))."""
    from scipy import special
    x = np.exp(np.minimum(lnx, 700.0))
    small = x < _SMALL_X
    xs = np.where(small, 1.0, x)
    y0 = np.where(small, (lnx - math.log(2.0) + np.euler_gamma) * (2.0 / math.pi), special.y0(xs))
    return (np.where(small, 1.0, special.j0(xs)), y0,
            np.where(small, 0.5 * x * x, xs * special.j1(xs)),
            np.where(small, -2.0 / math.pi, xs * special.y1(xs)))


def _phase_root(phase: Callable, target: float, lo: float, hi: float, s: float) -> float:
    """The s in [lo, hi] where a monotone phase(s) -> (value, slope) equals
    ``target``: Newton steps from s, bisections where they leave the
    bracket, until a step, the error after it (step^3 / last step^2 at
    Newton's rate) or the bracket is within 1e-15 + 4 eps |s|."""
    last = 0.0    # the last Newton step, 0 after a bisection
    while True:
        value, slope = phase(s)
        step = (value - target) / slope    # > 0: the root lies below s
        lo, hi = (lo, s) if step > 0.0 else (s, hi)
        tol = 1e-15 + 2.0 ** -50 * abs(s)
        if abs(step) <= tol or abs(step) ** 3 <= tol * last * last or hi - lo <= tol:
            return float(s - step)
        s, last = (s - step, abs(step)) if lo < s - step < hi else (0.5 * (lo + hi), 0.0)


def _hankel(omega: np.ndarray, q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fundamental matrix and phase of z'' + omega^2 e^(q t) z = 0 at t from
    the modulus-phase form of Z0 for x >= _X_ASYMPTOTIC: with p = 1/x,
    M^2 pi x / 2 = P = 1 - p^2/8 + 27 p^4/128 and theta = x - pi/4 + d,
    d = -p/8 + 25 p^3/384 (Hankel's expansions, Abramowitz and Stegun
    9.2.28-29, next terms ~p^6 and p^5; theta' = 1/P to that order), the
    solutions are m cos(psi) and m sin(psi) / omega with m = sqrt(P x(0) / x)
    and psi = sign(q) (theta - theta(0)), whose x - x(0) part is formed as
    omega t expm1(q t / 2) / (q t / 2), never from x itself.  At q = 0 they are
    cos and sin exactly, at omega = 0 the line 1, t; the Wronskian is 1."""
    y = 0.5 * q * t
    rho = np.exp(y)                                      # x / x(0)
    gain = np.divide(np.expm1(y), y, out=np.ones_like(y), where=y != 0.0)
    p0 = np.divide(np.abs(q), 2.0 * omega, out=np.zeros_like(q), where=omega > 0.0)
    p = p0 / rho
    big_p = 1.0 - p * p / 8.0 + 27.0 * p ** 4 / 128.0
    psi = omega * t * gain + np.sign(q) * ((p0 - p) / 8.0 + 25.0 * (p ** 3 - p0 ** 3) / 384.0)
    m = np.sqrt(big_p / rho)
    dm = -0.25 * q * m * (1.0 - (p * p / 4.0 - 27.0 * p ** 4 / 32.0) / big_p)
    cos, sin = np.cos(psi), np.sin(psi)
    sin_w = np.divide(sin, omega, out=t * gain, where=omega > 0.0)
    return (m * cos, m * sin_w, dm * cos - m * omega * rho / big_p * sin,
            dm * sin_w + m * rho / big_p * cos, psi)


def _bessel_form(lnx0: np.ndarray, half_q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fundamental matrix (J0, Y0 and their s-derivatives) and phase at ln x
    = lnx0 + half_q t: arg(J0 + i Y0) on its branch, which increases with x,
    x - pi/2 < theta <= x - pi/4."""
    lnx = lnx0 + half_q * t
    j0, y0, xj1, xy1 = _bessel(lnx)
    x, theta = np.exp(np.minimum(lnx, 700.0)), np.arctan2(y0, j0)
    theta += 2.0 * math.pi * np.rint((x - 0.25 * math.pi - theta) / (2.0 * math.pi))
    return j0, y0, -half_q * xj1, -half_q * xy1, theta


def _fundamental(seg: _Segments, idx: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fundamental matrix (f11, f12, f21, f22) of segments ``idx`` at ``s``,
    whose columns are the states (z, dz/ds) of two solutions, and the phase
    there: J0, Y0 and arg(J0 + i Y0) unwrapped, or ``_hankel``'s form."""
    t, bessel = s - seg.u[idx], seg.bessel[idx]
    if bessel.all():
        return _bessel_form(seg.lnx[idx], 0.5 * seg.q[idx], t)
    if not bessel.any():
        return _hankel(seg.omega[idx], seg.q[idx], t)
    out = tuple(np.empty_like(t) for _ in range(5))
    rest = ~bessel
    for f, v, w in zip(out, _bessel_form(seg.lnx[idx][bessel], 0.5 * seg.q[idx][bessel],
                                         t[bessel]),
                       _hankel(seg.omega[idx][rest], seg.q[idx][rest], t[rest])):
        f[bessel], f[rest] = v, w
    return out


def _transfer(a: tuple, b: tuple) -> tuple[np.ndarray, ...]:
    """Transfer matrices T = B adj(A) / (+-sqrt(det A det B)), state(w) = T state(u),
    from the fundamental matrices A at u and B at w.  Dividing by the
    numerical Wronskians instead of their exact value (q / pi or 1) gives
    det T = 1 up to rounding, however large the Y0 column is."""
    a11, a12, a21, a22 = a[:4]
    b11, b12, b21, b22 = b[:4]
    det_a = a11 * a22 - a12 * a21
    norm = np.copysign(np.sqrt(det_a * (b11 * b22 - b12 * b21)), det_a)
    return ((b11 * a22 - b12 * a21) / norm, (b12 * a11 - b11 * a12) / norm,
            (b21 * a22 - b22 * a21) / norm, (b22 * a11 - b21 * a12) / norm)


def _carry(transfer: tuple, state0) -> tuple[np.ndarray, np.ndarray]:
    """The states (z, z'): state0, then each segment's end, carried by its transfer matrix."""
    zi, dzi = float(state0[0]), float(state0[1])
    z, dz = [zi], [dzi]
    for t11, t12, t21, t22 in zip(*(t.tolist() for t in transfer)):
        zi, dzi = t11 * zi + t12 * dzi, t21 * zi + t22 * dzi
        z.append(zi)
        dz.append(dzi)
    return np.array(z), np.array(dz)


def _zero_targets(A, B, omega, theta_u, theta_w) -> tuple[np.ndarray, np.ndarray]:
    """Where A f1 + B f2 = (modulus) cos(phase - phi), phi = atan2(B, omega A), vanishes first
    along the sweep: its target phase, and whether the phase from theta_u to theta_w reaches it."""
    phi = np.arctan2(B, omega * A)
    up = theta_w > theta_u
    turns = (theta_u - phi - 0.5 * math.pi) / math.pi
    target = phi + 0.5 * math.pi + math.pi * np.where(up, np.floor(turns) + 1.0,
                                                     np.ceil(turns) - 1.0)
    return target, np.where(up, target <= theta_w, target >= theta_w) & (theta_w != theta_u)


def _cell_sweep(prob: HardyODEProblem, s_from: float, s_to: float, state0) -> tuple:
    """Sweep a log-log linear kind exactly: carry the state across the
    segments by their transfer matrices, find the first segment whose exact
    solution vanishes, and locate the zero from the solution's phase, so two
    zeros inside one segment are no trap.  Its samples: _CELL_SAMPLES per
    segment and its end; a knot belongs to the segment it starts."""
    seg = _segments(prob, s_from, s_to)
    n = seg.u.size
    both = _fundamental(seg, np.tile(np.arange(n), 2), np.concatenate([seg.u, seg.w]))
    a, b = tuple(f[:n] for f in both), tuple(f[n:] for f in both)    # at u and at w
    z, dz = _carry(_transfer(a, b), state0)    # the states at each u, then at the last w
    det = a[0] * a[3] - a[1] * a[2]
    A, B = (a[3] * z[:-1] - a[1] * dz[:-1]) / det, (a[0] * dz[:-1] - a[2] * z[:-1]) / det
    target, hit = _zero_targets(A, B, seg.omega, a[4], b[4])

    zero_t = None
    if hit.any():
        k = int(np.argmax(hit))
        one = np.array([k])
        goal, u, h, lnx, w = (float(v[k]) for v in (target, seg.u, 0.5 * seg.q, seg.lnx, seg.omega))

        def phase(s):    # the phase and its slope omega det F / (f11^2 + (omega f12)^2)
            f11, f12, f21, f22, theta = (float(v[0]) for v in _fundamental(seg, one, np.array([s])))
            return theta, w * (f11 * f22 - f12 * f21) / (f11 * f11 + (w * f12) ** 2)
        # Newton starts where theta ~ x - pi/4 - 1/(8x), or psi ~ +-(x - x(u)), hits it
        if seg.bessel[k]:
            beta = goal + 0.25 * math.pi
            guess = u + (math.log(beta + 0.125 / beta) - lnx) / h if beta > 1.0 else u
        else:    # exact where flat: psi = omega (s - u)
            y = h * goal / w
            guess = u + (math.log1p(y) / h if h else goal / w) if y > -1.0 else u
        lo, hi = sorted((u, float(seg.w[k])))
        zero_t = _phase_root(phase, goal, lo, hi, min(max(guess, lo), hi))
        n = k + 1
    elif seg.w[-1] != s_to:    # capped: its zero lies within the spacing of s of its start
        zero_t = float(seg.u[-1])

    sign = 1.0 if s_to > s_from else -1.0
    ends = sign * seg.w[:n]

    def dense(s):    # f (A, B) of the segments k holding s: the states (z, dz/ds)
        t = np.atleast_1d(np.asarray(s, dtype=float))
        k = np.minimum(np.searchsorted(ends, sign * t, side="right"), n - 1)
        f11, f12, f21, f22, _ = _fundamental(seg, k, t)
        out = np.array([f11 * A[k] + f12 * B[k], f21 * A[k] + f22 * B[k]])
        return out if np.ndim(s) else out[:, 0]

    frac = np.arange(_CELL_SAMPLES) / _CELL_SAMPLES
    t = (seg.u[:n, None] + (seg.w - seg.u)[:n, None] * frac).ravel()
    if zero_t is None:
        t = np.append(t, seg.w[-1])
    t = t[np.append(True, np.diff(t) != 0.0)]
    zero_dz = None if zero_t is None else float(dense(zero_t)[1])
    z[n], dz[n], s_end = (z[n], dz[n], seg.w[n - 1]) if zero_t is None else (0.0, zero_dz, zero_t)
    return t, zero_t, zero_dz, dense, sign * _mass(seg, n, z, dz, s_end), None


def _mass(seg: _Segments, n: int, z: np.ndarray, dz: np.ndarray, s_end: float) -> float:
    """The integral of a z^2 over the first n segments, the last ending at
    s_end, from the states (z, z') at their starts and at s_end, signed by
    the direction swept: E = a z^2 + z'^2 has E' = q a z^2, so it is (E(w) -
    E(u)) / q, but where |q h| <= 2^-26, as E is constant to q h there and
    (s E - z z')' = 2 a z^2, (h E - z z' |_u^w) / 2."""
    q, log_a, h = seg.q[:n], seg.log_a[:n], np.append(seg.w[:n - 1], s_end) - seg.u[:n]
    z_u, dz_u, z_w, dz_w = z[:n], dz[:n], z[1:n + 1], dz[1:n + 1]
    flat = np.abs(q * h) <= 2.0 ** -26
    with np.errstate(over="ignore", invalid="ignore"):    # a past the floats: an inf mass
        e_u = np.exp(log_a) * z_u * z_u + dz_u * dz_u
        e_w = np.exp(log_a + q * h) * z_w * z_w + dz_w * dz_w
        return float(np.sum(np.where(flat, 0.5 * (h * e_u - z_w * dz_w + z_u * dz_u),
                                     (e_w - e_u) / np.where(flat, 1.0, q))))


def _euler_law(k2: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The solutions C, S of w'' + k2 w = 0 with C = S' = 1, S = C' = 0 at t = 0, their
    phase atan2(nu S, C), odd and monotone, and nu = sqrt|k2| (1 at k2 = 0): cos, sin / nu
    and phase nu t where k2 > 0; cosh, sinh / nu where k2 < 0; 1, t where k2 = 0."""
    osc, flat = k2 > 0.0, k2 == 0.0
    nu = np.where(flat, 1.0, np.sqrt(np.abs(k2)))
    x, hyp = nu * t, np.where(k2 < 0.0, nu * t, 0.0)
    S = np.where(flat, t, np.where(osc, np.sin(x), np.sinh(hyp)) / nu)
    C = np.where(osc, np.cos(x), np.cosh(hyp))
    return C, S, np.where(osc, x, np.arctan2(nu * S, C)), nu


def _euler_sweep(prob: HardyODEProblem, s_from: float, s_to: float, state0) -> tuple:
    """Sweep a log family on Euler cells: in tau = ln(s - s0), s0 its Euler shift,
    z = e^(tau/2) w and w'' + (c G - 1/4) w = 0, G = ``EulerTail.gamma`` non-increasing
    (Facts 1, 2).  On _EULER_CELLS cells graded from the outer edge's end (one at
    m = 1, G = A), three laws hold G at each cell's left end, right end or midpoint.
    By Sturm comparison (Hartman, Ch. XI) the end laws' first zeros bracket the true
    one and the midpoint law's, reported with the bracket: a zero only where every
    law vanishes, none only where none does, else IndeterminateAtHorizon."""
    tail, c = prob.potential.tail, prob.c
    tau0, tau1 = math.log(s_from - tail.s0), math.log(s_to - tail.s0)
    n = 1 if tail.m == 1 else _EULER_CELLS
    grade = np.expm1(np.linspace(0.0, math.log1p(abs(tau1 - tau0) / _EULER_GRADING), n + 1))
    tau = min(tau0, tau1) + _EULER_GRADING * (grade if tau1 > tau0 else grade[::-1])
    tau[0], tau[-1] = tau0, tau1
    g = tail.gamma(np.append(tau, 0.5 * (tau[:-1] + tau[1:])))    # at the ends, then the midpoints
    if not c * float(np.max(g)) <= HUGE:
        raise DomainError(f"c G = {c} x {np.max(g)} on a log family's Euler cells overflows")
    starts = tail.s0 + np.exp(tau)    # the cells' starts in s; (w, w') at s_from, where w = z
    starts[0], w0 = s_from, (state0[0], (s_from - tail.s0) * state0[1] - 0.5 * state0[0])
    laws, lo, hi, sign = [], min(s_from, s_to), max(s_from, s_to), math.copysign(1.0, tau1 - tau0)
    for G in (np.maximum(g[:n], g[1:n + 1]), np.minimum(g[:n], g[1:n + 1]), g[n + 1:]):
        C, S, theta, nu = _euler_law(k2 := c * G - 0.25, np.diff(tau))
        w, dw = _carry((C, S, -k2 * S, C), w0)
        target, hit = _zero_targets(w[:-1], dw[:-1], nu, 0.0, theta)
        k, t, zero = int(np.argmax(hit)), None, None
        if hit[k]:    # the phase inverted in cell k: nu t, tan t or atan(tanh(nu t))
            phase, rate = float(target[k]), float(nu[k])
            t = phase / rate if k2[k] > 0.0 else math.tan(phase) if k2[k] == 0.0 else \
                math.atanh(math.tan(phase)) / rate
            zero = min(max(starts[k] + (starts[k] - tail.s0) * math.expm1(t), lo), hi)
        laws.append((k2, w, dw, k, t, zero))
    if len({law[4] is None for law in laws}) > 1:
        raise IndeterminateAtHorizon(f"c = {c}: the Euler end laws disagree on a zero by s = {s_to}", c)
    k2, w, dw, k, t, zero = laws[2]

    def at(j, t, sigma):    # (z, dz/ds) of the midpoint law t into cell j, at sigma = s - s0
        C, S, _, _ = _euler_law(k2[j], t)
        wt, gain = C * w[j] + S * dw[j], np.exp(0.5 * (tau[j] + t - tau0))
        return np.array([gain * wt, gain * (0.5 * wt + C * dw[j] - k2[j] * S * w[j]) / sigma])

    def dense(s):
        sigma = np.atleast_1d(np.asarray(s, dtype=float)) - tail.s0
        j = np.searchsorted(sign * tau[1:-1], sign * np.log(sigma), side="right")
        out = at(j, np.log(sigma) - tau[j], sigma)
        return out if np.ndim(s) else out[:, 0]

    bracket = None if t is None else tuple(sorted(law[5] for law in laws[:2]))
    zero = None if t is None else min(max(zero, bracket[0]), bracket[1])
    inner = tail.s0 + np.exp(np.linspace(tau0, tau1 if t is None else tau[k] + t, _EULER_SAMPLES)[1:-1])
    samples = np.concatenate([[s_from], inner, [s_to] if t is None else []])
    return (samples[np.append(True, np.diff(samples) != 0.0)], zero,
            None if t is None else float(at(k, t, zero - tail.s0)[1]), dense, None, bracket)


# ---------------------------------------------------------------------------
# The sweep of z'' + a(s) z = 0 and its public entry points
# ---------------------------------------------------------------------------

def integrate(prob: HardyODEProblem) -> ShootingOutcome:
    """Shoot the problem across its interval and report the first zero.

    Radius domain: the recessive sweep from the inner cell down to the outer
    edge, reported as (r, y, dy/dr) (only its zero where that lies below
    every float radius).  Log domain: starts at the outer edge with z = 1,
    z' = 0 and sweeps toward increasing s up to s_max.
    """
    if prob.domain is Domain.RADIUS:
        s0, state0 = _inner_cell_start(prob)
        if state0 is None:    # s0 is the zero, beyond s = 700: no row
            return ShootingOutcome(NO_ROWS["r y dy"], s0, Status.ZERO_FOUND)
        out = _sweep(prob, s0, -math.log(prob.R), state0)
        if out.c_mass is not None:    # J0's tail past s0, where ln a falls at the rate -q (``_mass``)
            (z, dz), q, g = state0, prob.potential.inner_cell[3], prob.potential.log_weight(s0)
            c_mass = out.c_mass + (prob.c * g * z * z + dz * dz) / -q
            out = replace(out, c_mass=c_mass)
        return _radius_columns(out)
    return _sweep(prob, outer_edge(prob.R), prob.s_max, (1.0, 0.0))


def integrate_principal_tail(prob: HardyODEProblem,
                             certificate: TailCertificate) -> ShootingOutcome:
    """Integrate the principal-at-infinity branch down from the start of the
    certified window (the horizon).

    Requires a non-oscillatory tail certificate; the branch is seeded with
    the decaying Euler exponent mu = (1 - sqrt(1 - 4 gamma))/2 through
    z'/z = mu/(s_top - shift), then swept backward to the outer edge.  Its
    positivity decides whether a positive solution exists on the whole
    interval (the principal branch is minimal, so it vanishes first).
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("integrate_principal_tail expects a log-domain problem")
    if certificate.kind != "nonoscillatory":
        raise DomainError("principal tail integration needs a non-oscillatory certificate")
    gamma = min(certificate.gamma, 0.25)
    mu = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * gamma)))
    s_top = certificate.window[0]
    state0 = (1.0, mu / (s_top - certificate.shift))
    return _sweep(prob, s_top, -math.log(prob.R), state0, certificate)


def _inner_cell_start(prob: HardyODEProblem):
    """Start s0 of a recessive sweep and the recessive state (z, dz/ds) there:
    exactly J0(x) on the inner cell (z = 1 where a = 0).  s0 is the radius
    1e-8 R or the innermost knot, whichever is smaller, moved inward until
    x <= 1 but not past s = 700 (r ~ 1e-304).

    Where J0(x) already vanishes there (sigma within ~1e-3 of 2, well above
    the best constant), the state is None and s0 that zero, x = z0.

    Raises UnsupportedSingularity for the log families and for an inner cell
    with q >= 0 (sigma >= 2), which have no recessive branch of this form.
    """
    p = prob.potential
    if p.inner_cell is None:
        raise UnsupportedSingularity(
            f"{p.kind.value} potential has no recessive cell start; use the log domain")
    knot, anchor, ell, q = p.inner_cell
    s0 = max(-math.log(_TRAJECTORY_START * prob.R), knot)
    if _vanishes(prob):
        return s0, (1.0, 0.0)
    if q >= 0.0:
        raise UnsupportedSingularity(
            f"inner cell slope q = {q} >= 0 (sigma >= 2): no recessive start, use the log domain")
    lnx = math.log(2.0 / -q) + 0.5 * (math.log(prob.c) + ell + q * (s0 - anchor))
    if lnx > 0.0:
        step = max(0.0, min(-2.0 * lnx / q, _DEEPEST_START - s0))
        s0, lnx = s0 + step, lnx + 0.5 * q * step
    ln_z0 = math.log(J0_FIRST_ZERO)
    if lnx >= ln_z0:
        return float(s0 + 2.0 * (lnx - ln_z0) / -q), None
    j0, _, xj1, _ = _bessel(np.array([lnx]))
    return s0, (float(j0[0]), float(-0.5 * q * xj1[0]))


def _sweep(prob: HardyODEProblem, s_from: float, s_to: float, state0,
           certificate: Optional[TailCertificate] = None) -> ShootingOutcome:
    """Integrate z'' + a(s) z = 0 from s_from to s_to.

    As the line through the start state where a = 0 (``_vanishes``); else
    exactly, cell by cell, for the log-log linear kinds and on Euler cells
    for the log families, each of which returns its samples, first zero and
    slope there, dense output, c mass (a cell sweep's alone) and zero bracket
    (an Euler sweep's alone): the end row and the rows (the samples before
    the zero, then the row z = 0 with that slope, sorted by s) are read off it.
    Without a zero, a sweep toward the outer edge (decreasing s) has covered
    its interval; outward, it has only reached its horizon.
    """
    engine = (_line if _vanishes(prob) else _euler_sweep
              if isinstance(prob.potential.tail, EulerTail) else _cell_sweep)
    t, zero_t, zero_dz, run, c_mass, bracket = engine(prob, s_from, s_to, state0)
    to_edge = s_to < s_from    # toward the outer edge r = R
    if zero_t is None:    # the last sample, s_to
        status = Status.NO_ZERO_ON_INTERVAL if to_edge else Status.HORIZON_REACHED
        end = (float(t[-1]), *(float(v) for v in run(t[-1])))
    else:    # the engine's z there is only as exact as its root
        status, end = Status.ZERO_FOUND, (zero_t, 0.0, zero_dz)
    lo, hi = sorted((s_from, end[0]))

    def dense(x):
        if not lo - 1e-12 <= np.min(x) <= np.max(x) <= hi + 1e-12:
            raise DomainError(f"abscissa {x} outside the swept range [{lo}, {hi}]")
        return run(x)

    def rows():    # the samples before the zero, the start even where the zero rounds to it
        s = t if zero_t is None else t[np.append(True, t[1:] > zero_t if to_edge else t[1:] < zero_t)]
        columns = np.vstack([s, run(s)])
        if zero_t is not None:
            columns = np.column_stack([columns, end])
        return dict(zip(("s", "z", "dz"), columns[:, ::-1] if to_edge else columns))

    return ShootingOutcome(rows, zero_t, status, certificate=certificate, dense=dense,
                           end=dict(zip(("s", "z", "dz"), end)), span=(lo, hi),
                           c_mass=c_mass, zero_bracket=bracket)


def _radius_columns(out: ShootingOutcome) -> ShootingOutcome:
    """A sweep in the radius frame: r = e^-s, y = z and dy/dr = -z'/r in
    increasing r, rows and end row alike, with a dense output of r."""
    def columns(s, z, dz):
        r = np.exp(-s[::-1])
        if out.first_zero is not None:
            r[-1] = out.first_zero    # math.exp, which np.exp may miss by an ulp
        return dict(zip(("r", "y", "dy"), (r, z[::-1], -dz[::-1] / r)))

    def dense_r(radius):
        state = out.dense(-np.log(radius))
        return np.array([state[0], -state[1] / radius])

    end = columns(*(np.array([v]) for v in out.end.values()))
    return replace(out, rows=lambda: columns(*out.trajectory.values()), dense=dense_r,
                   end={k: float(v[0]) for k, v in end.items()})


# ---------------------------------------------------------------------------
# Euler-comparison tail certificates
# ---------------------------------------------------------------------------

def euler_tail_certificate(prob: HardyODEProblem) -> Optional[TailCertificate]:
    """Classify the coefficient tail a(s) = c g(s) by the potential's
    ``tail``: non-oscillatory where a = 0 (c = 0 too), oscillatory at c > 0
    on a rising cell and from c_osc on for a log family, else None; a
    falling cell raises DomainError."""
    if prob.domain is not Domain.LOG:
        raise DomainError("tail certificates live in the log domain")
    tail = prob.potential.tail if prob.c else VANISHING    # c = 0: a = 0 whatever g is
    return tail.certificate(prob.c, prob.R, prob.s_max)


# ---------------------------------------------------------------------------
# Riccati transform and pointwise residuals
# ---------------------------------------------------------------------------

def riccati_check(outcome: ShootingOutcome, prob: HardyODEProblem) -> float:
    """Max |psi' + psi^2 + a(s)| along the solution, psi = z'/z.

    psi is the log-derivative of the solution in the log variable (equal to
    -r y'(r)/y(r) in radius terms); for an exact solution the expression
    vanishes identically, so the returned maximum bounds the combined
    integration and finite-difference error.  A sweep is read off its dense
    output across its span, not its rows.  Needs a log-frame outcome and
    strictly positive z on a range of s of positive length.
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("riccati_check expects a log-domain problem")
    if "z" not in (outcome.end or outcome.trajectory):    # the frame's columns
        raise DomainError("riccati_check expects a log-domain trajectory")
    swept = outcome.dense is not None
    s = np.linspace(*outcome.span, _RICCATI_SAMPLES) if swept else outcome.trajectory["s"]
    if s.size < 2 or not s[-1] > s[0]:
        raise DomainError("trajectory spans no range of s")
    z, dz = outcome.dense(s) if swept else (outcome.trajectory[k] for k in ("z", "dz"))
    if np.any(z <= 0.0):
        raise NonPositiveTrajectory("trajectory is not strictly positive on the sampled range")
    psi = dz / z
    dpsi = np.gradient(psi, s)
    a = prob.coefficient(s)
    residual = np.abs(dpsi + psi ** 2 + a)
    return float(np.max(residual[2:-2])) if residual.size > 4 else float(np.max(residual))


def residual(phi: np.ndarray, prob: HardyODEProblem, grid: np.ndarray) -> float:
    """Max scaled residual of the equation along sampled phi values.

    The operator y'' + y'/r is r^(-2)-homogeneous, so the pointwise residual
    is measured in its scale-invariant form

        r^2 |phi'' + phi'/r + c v phi| / max(1, |phi|)
          = |phi_tt + r^2 c v phi| / max(1, |phi|),   t = ln r,

    which keeps both the stencil error and the coefficient O(1) uniformly
    down to the singular endpoint (the unweighted residual of the singular
    families grows like 1/r^2 in float64 round-off and says nothing).
    Uniformly log-spaced grids get a 4th-order central stencil, anything
    else 2nd-order uneven differences.
    """
    phi = np.asarray(phi, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 5 or phi.size != grid.size:
        raise GridTooCoarse(f"need >= 5 matching samples, got {phi.size} on {grid.size}")
    if prob.domain is not Domain.RADIUS:
        raise DomainError("residual expects a radius-domain problem")
    t = np.log(grid)
    h = np.diff(t)
    uniform = np.max(np.abs(h - h[0])) <= 1e-9 * abs(h[0])
    if uniform:
        hh = h[0]
        phi_tt = np.full_like(phi, np.nan)
        phi_tt[2:-2] = (-phi[:-4] + 16 * phi[1:-3] - 30 * phi[2:-2]
                        + 16 * phi[3:-1] - phi[4:]) / (12.0 * hh * hh)
    else:
        dphi = np.gradient(phi, t)
        phi_tt = np.gradient(dphi, t)
        phi_tt[:2] = phi_tt[-2:] = np.nan
    a = prob.c * prob.potential.log_weight(-t)
    res = np.abs(phi_tt + a * phi) / np.maximum(1.0, np.abs(phi))
    return float(np.nanmax(res[2:-2]))
