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
steps on the monotone phase of the exact solution find the first zero
inside a cell, so a cell holding two zeros is no trap.  The recessive
branch at r = 0 is exactly J0(x) on the inner cell, which needs q < 0 there
(sigma < 2).  This is the coefficient-approximation method (Pruess 1973;
Pryce, Numerical Solution of Sturm-Liouville Problems, 1993) on the model
the tables themselves define.

The two log families are swept by DOP853 in one solve_ivp call, in the
Liouville variable tau = ln(s - s0), s0 = (outer edge) - 1, whose
coefficient tends to a constant at the horizon, so a sweep to any finite
s_max costs little more than one to 1e6; the integrator's terminal event
ends it at the first sign change.  Trajectories and zeros are reported in s.

Beyond any fixed horizon, Sturm comparison (Hartman, Ordinary Differential
Equations, Ch. XI) certifies oscillation.  The log families compare with
z'' + g/(s - s0)^2 z = 0 at their shift, where a (s - s0)^2 does not rise:
the outer edge to the horizon must hold an Euler half-oscillation, decided
from a (s - s0)^2 at those two abscissae (``tail_edges``).  Only a = 0 has a
non-oscillatory tail.  A cell kind in the log domain has a rising inner
cell (q >= 0), on which z'' + a(s1) z = 0 is a minorant out to s = inf:
every c > 0 oscillates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, GridTooCoarse, NonPositiveTrajectory,
                     StepSizeUnderflow, UnsupportedSingularity)
from .potentials import J0_FIRST_ZERO, TINY, RadialPotential, exp_or_inf

_RTOL, _ATOL = 1e-10, 1e-14   # DOP853 tolerances of the log-family sweeps
S_MAX_DEFAULT = 1e6           # default log-domain horizon
_TRAJECTORY_START = 1e-8      # radius / R where a recessive trajectory starts at most
_DEEPEST_START = 700.0        # largest s a recessive trajectory starts at: r ~ 1e-304
_CELL_SAMPLES = 16            # trajectory samples per cell, its entry included
_SMALL_X = 1e-30              # below it J0, Y0, x J1, x Y1 are their leading terms
_X_ASYMPTOTIC = 1e3           # x from which Z0 takes its modulus-phase form
_RICCATI_SAMPLES = 4097       # dense-output resamples of riccati_check


# scipy is imported by the first call that needs it: scipy.integrate to sweep a
# log family, scipy.special (in ``_bessel`` and ``_phase_at``) to sweep cells

def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp."""
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
        if self.c < 0.0:
            raise DomainError(f"multiplier must be >= 0, got {self.c}")
        self.potential.check_radius(self.R)
        if not math.isfinite(self.s_max):
            raise DomainError(f"horizon s_max must be finite, got {self.s_max}")
        if self.domain is Domain.LOG and not self.s_max > _outer_edge(self):
            raise DomainError(
                f"horizon s_max = {self.s_max} not beyond the outer edge {_outer_edge(self)}")

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
class TailCertificate:
    """Sturm-comparison verdict for the coefficient tail a(s).

    ``gamma`` is the extreme of a(s) (s - shift)^2 over the certified window:
    a maximum for the non-oscillatory side (at most 1/4, 0 where a = 0) on
    [s_max, inf), a minimum for the oscillatory side (must exceed 1/4 over a
    long enough window); a rising inner cell's (shift None) bounds a itself.
    """

    kind: str                 # "nonoscillatory" | "oscillatory"
    gamma: float
    shift: Optional[float]
    window: tuple             # (s1, s2) where the comparison holds


@dataclass(frozen=True)
class ShootingOutcome:
    """Trajectory plus zero/termination bookkeeping for one integration."""

    trajectory: dict                      # column name -> sample array
    zero_s: Optional[float]               # log abscissa s* of the first zero, if any
    status: Status
    certificate: Optional[TailCertificate] = None
    dense: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def first_zero(self) -> Optional[float]:
        """Radius r* = e^-s* of the first zero; 0.0 beyond s* ~ 745."""
        return None if self.zero_s is None else math.exp(-self.zero_s)


def _outer_edge(prob: HardyODEProblem) -> float:
    """Log abscissa just inside r = R where the outward sweep, the tail grid
    and the a = 0 certificate start."""
    return -math.log(prob.R) + 1e-9


def _vanishes(prob: HardyODEProblem) -> bool:
    """Whether a = c g vanishes: c = 0 or amplitude 0 (table samples are > 0)."""
    return prob.c == 0.0 or prob.potential.amplitude == 0.0


def wants_log_domain(p: RadialPotential) -> bool:
    """The log families (no ``log_cells``) and inner cells of slope q = sigma
    - 2 >= 0 (alpha >= 2 for a power law) have no recessive start at r = 0
    (``_inner_cell_start``): their feasibility is decided in the log domain."""
    return p.inner_cell is None or p.inner_cell[3] >= 0.0


# ---------------------------------------------------------------------------
# DOP853 sweeps of the log families, in the Liouville variable
# ---------------------------------------------------------------------------

@dataclass
class _RawRun:
    t: np.ndarray
    y: np.ndarray                 # shape (2, n)
    zero_t: Optional[float]
    zero_dz: Optional[float]      # the slope dz/ds at zero_t, where z = 0
    dense: Optional[Callable]


def _line(s_from: float, s_to: float, state0) -> _RawRun:
    """The sweep where a = 0: the line z = z0 + z0' (s - s_from), up to its
    zero if it crosses 0 inside the sweep."""
    z0, dz0 = float(state0[0]), float(state0[1])
    cross = s_from - z0 / dz0 if dz0 != 0.0 else math.nan    # where the line meets 0
    zero_t = cross if min(s_from, s_to) <= cross <= max(s_from, s_to) else None
    t = np.array([s_from, s_to if zero_t is None else zero_t])

    def dense(s):
        return np.array([z0 + dz0 * (np.asarray(s) - s_from), np.full(np.shape(s), dz0)])

    return _RawRun(t, dense(t), zero_t, None if zero_t is None else dz0, dense)


def _liouville_sweep(prob: HardyODEProblem, s_from: float, s_to: float, state0) -> _RawRun:
    """Sweep a log family from s_from to s_to in tau = ln(s - s0), s0 = (outer
    edge) - 1, by one solve_ivp call; the first sign change ends it at the
    terminal event, whose root is already refined on the dense output.

    With sigma = s - s0 = e^tau and z = w e^((tau - tau_start)/2), the
    equation z'' + a z = 0 is exactly w_tt + (a sigma^2 - 1/4) w = 0, whose
    coefficient tends to the constant c A - 1/4 at the horizon: steps grow
    with s, so the sweep costs little at any horizon.  No sigma^2 is formed:
    a sigma^2 = c G(ln(sigma + delta)) (sigma / (sigma + delta))^2, with
    G = ``euler_gamma`` and sigma + delta = s - ``euler_shift_hint``.
    """
    z0, dz0 = float(state0[0]), float(state0[1])
    lo, hi = sorted((s_from, s_to))
    c, gamma = prob.c, prob.potential.euler_gamma
    s0 = _outer_edge(prob) - 1.0
    delta = s0 - prob.potential.euler_shift_hint()
    sigma0 = s_from - s0
    tau0 = math.log(sigma0)

    def rhs(tau, u):
        sigma = math.exp(tau)
        ratio = sigma / (sigma + delta)
        return (u[1], (0.25 - c * gamma(math.log(sigma + delta)) * ratio * ratio) * u[0])

    def zero_event(tau, u):
        return u[0]
    zero_event.terminal = True
    zero_event.direction = 0.0

    sol = solve_ivp(rhs, (tau0, math.log(s_to - s0)), (z0, sigma0 * dz0 - 0.5 * z0),
                    method="DOP853", rtol=_RTOL, atol=_ATOL, dense_output=True,
                    events=[zero_event])
    if sol.status == -1:
        last = s0 + math.exp(sol.t[-1]) if sol.t.size else s_from
        raise StepSizeUnderflow(f"integrator stalled at abscissa {last}: {sol.message}", last)

    def to_z(tau, u):
        """(s, z, dz/ds) from tau and (w, w_t); s0 + sigma is only as exact as
        s0, so it is clipped into the swept range."""
        sigma, gain = np.exp(tau), np.exp(0.5 * (tau - tau0))
        return np.clip(s0 + sigma, lo, hi), gain * u[0], gain * (u[1] + 0.5 * u[0]) / sigma

    s, z, dz = to_z(sol.t, sol.y)
    s[0] = s_from
    zero_t = zero_dz = None
    if sol.t_events[0].size:
        zero_t, _, zero_dz = (float(v) for v in to_z(sol.t_events[0][0], sol.y_events[0][0]))
    else:
        s[-1] = s_to

    def dense(s):
        tau = np.log(np.asarray(s) - s0)
        return np.array(to_z(tau, sol.sol(tau))[1:])

    return _RawRun(s, np.array([z, dz]), zero_t, zero_dz, dense)


# ---------------------------------------------------------------------------
# Exact cell sweeps of the log-log linear kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Segments:
    """The cells a sweep crosses, clipped to it, in sweep order: segment k
    runs from u[k] to w[k], where ln a = ln a(u) + q[k] (s - u[k]).  Where
    bessel[k] its solutions are J0 and Y0 at ln x = lnx[k] + q[k] (s - u[k]) / 2;
    elsewhere x >= _X_ASYMPTOTIC (or q = 0) and they take the modulus-phase
    form with omega[k] = sqrt(a(u)) (see ``_hankel``)."""

    u: np.ndarray
    w: np.ndarray
    bessel: np.ndarray
    q: np.ndarray
    lnx: np.ndarray
    omega: np.ndarray


def _segments(prob: HardyODEProblem, s_from: float, s_to: float) -> _Segments:
    """Split [s_from, s_to] at the knots and pick each piece's model.

    A piece along which x grows past x(u) + 2 pi ends there: its phase
    then gains more than pi, so the sweep's first zero lies inside, and no
    x beyond it (which could overflow) is ever formed.
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
    omega = np.where(bessel, 0.0, np.exp(0.5 * np.minimum(log_a, 1400.0)))
    cap = np.log(np.exp(np.minimum(lnx, 700.0)) + 2.0 * math.pi)
    capped = np.flatnonzero((q * h > 0.0) & (lnx + 0.5 * q * h > cap))
    if capped.size:
        k = capped[0]
        w[k] = u[k] + 2.0 * (cap[k] - lnx[k]) / q[k]
        u, w, bessel, q, lnx, omega = (a[:k + 1] for a in (u, w, bessel, q, lnx, omega))
    return _Segments(u, w, bessel, q, lnx, omega)


def _small_y0(lnx):
    """Y0 at x = e^lnx < _SMALL_X, from ln x: (2/pi) (ln(x/2) + Euler's gamma)."""
    return (lnx - math.log(2.0) + np.euler_gamma) * (2.0 / math.pi)


def _bessel(lnx: np.ndarray) -> tuple[np.ndarray, ...]:
    """J0, Y0, x J1 and x Y1 at x = e^lnx; below _SMALL_X their leading
    terms, taken from ln x, since x itself may underflow there."""
    from scipy import special
    x = np.exp(np.minimum(lnx, 700.0))
    small = x < _SMALL_X
    xs = np.where(small, 1.0, x)
    return (np.where(small, 1.0, special.j0(xs)), np.where(small, _small_y0(lnx), special.y0(xs)),
            np.where(small, 0.5 * x * x, xs * special.j1(xs)),
            np.where(small, -2.0 / math.pi, xs * special.y1(xs)))


def _unwrap(x, theta):
    """The Bessel phase theta = arg(J0 + i Y0) on its branch: it increases
    with x, and x - pi/2 < theta <= x - pi/4; float or ndarray."""
    return theta + 2.0 * math.pi * np.rint((x - 0.25 * math.pi - theta) / (2.0 * math.pi))


def _phase_at(lnx: float, rate: float) -> tuple[float, float]:
    """The unwrapped Bessel phase at one x = e^lnx and its slope where ln x
    grows at ``rate``, 2 rate / (pi (J0^2 + Y0^2)), in scalar arithmetic."""
    from scipy import special
    x = math.exp(min(lnx, 700.0))
    j0, y0 = (1.0, _small_y0(lnx)) if x < _SMALL_X else (special.j0(x), special.y0(x))
    return _unwrap(x, math.atan2(y0, j0)), 2.0 * rate / (math.pi * (j0 * j0 + y0 * y0))


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
    """Fundamental matrix (J0, Y0 and their s-derivatives) and unwrapped
    phase at ln x = lnx0 + half_q t."""
    lnx = lnx0 + half_q * t
    j0, y0, xj1, xy1 = _bessel(lnx)
    theta = _unwrap(np.exp(np.minimum(lnx, 700.0)), np.arctan2(y0, j0))
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


def _cell_sweep(prob: HardyODEProblem, s_from: float, s_to: float, state0) -> _RawRun:
    """Sweep a log-log linear kind exactly: carry the state across the
    segments by their transfer matrices, find the first segment whose exact
    solution vanishes, and locate the zero from the solution's phase, so two
    zeros inside one segment are no trap.  The trajectory holds
    _CELL_SAMPLES points per segment, knots included, and its end."""
    seg = _segments(prob, s_from, s_to)
    n = seg.u.size
    both = _fundamental(seg, np.tile(np.arange(n), 2), np.concatenate([seg.u, seg.w]))
    a, b = tuple(f[:n] for f in both), tuple(f[n:] for f in both)    # at u and at w
    zi, dzi = float(state0[0]), float(state0[1])
    z, dz = [zi], [dzi]
    for t11, t12, t21, t22 in zip(*(t[:-1].tolist() for t in _transfer(a, b))):
        zi, dzi = t11 * zi + t12 * dzi, t21 * zi + t22 * dzi
        z.append(zi)
        dz.append(dzi)
    z, dz = np.array(z), np.array(dz)
    det = a[0] * a[3] - a[1] * a[2]
    A, B = (a[3] * z - a[1] * dz) / det, (a[0] * dz - a[2] * z) / det    # state = F(s) (A, B)

    # the exact solution is (modulus) cos(phase - phi): its zeros sit at
    # phase = phi + pi/2 (mod pi), first the one next to the entry along the
    # sweep
    theta_u, theta_w = a[4], b[4]
    phi = np.arctan2(B, np.where(seg.bessel, A, seg.omega * A))
    up = theta_w > theta_u
    turns = (theta_u - phi - 0.5 * math.pi) / math.pi
    target = phi + 0.5 * math.pi + math.pi * np.where(up, np.floor(turns) + 1.0,
                                                     np.ceil(turns) - 1.0)
    hit = np.where(up, target <= theta_w, target >= theta_w) & (theta_w != theta_u)

    zero_t = None
    if hit.any():
        k = int(np.argmax(hit))
        if seg.q[k] == 0.0:
            zero_t = float(seg.u[k] + target[k] / seg.omega[k])
        else:
            # Newton starts where theta ~ x - pi/4 - 1/(8x), or psi ~ +-(x - x(u)), hits it
            goal, u, h, lnx = (float(v[k]) for v in (target, seg.u, 0.5 * seg.q, seg.lnx))
            if seg.bessel[k]:
                phase = lambda s: _phase_at(lnx + h * (s - u), h)
                beta = goal + 0.25 * math.pi
                guess = u + (math.log(beta + 0.125 / beta) - lnx) / h if beta > 1.0 else u
            else:
                one, w = np.array([k]), float(seg.omega[k])

                def phase(s):    # psi and its slope, omega det F / (f11^2 + (omega f12)^2)
                    f11, f12, f21, f22, psi = (float(v[0]) for v in
                                               _fundamental(seg, one, np.array([s])))
                    return psi, w * (f11 * f22 - f12 * f21) / (f11 * f11 + (w * f12) ** 2)
                guess = u + math.log1p(h * goal / w) / h if h * goal / w > -1.0 else u
            lo, hi = sorted((u, float(seg.w[k])))
            zero_t = _phase_root(phase, goal, lo, hi, min(max(guess, lo), hi))
        n = k + 1

    def state(k, t):    # f (A, B) of segments k at t: the states (z, dz/ds)
        f11, f12, f21, f22, _ = _fundamental(seg, k, t)
        return np.array([f11 * A[k] + f12 * B[k], f21 * A[k] + f22 * B[k]])

    frac = np.arange(_CELL_SAMPLES) / _CELL_SAMPLES
    t = (seg.u[:n, None] + (seg.w - seg.u)[:n, None] * frac).ravel()
    owner = np.repeat(np.arange(n), _CELL_SAMPLES)
    if zero_t is None:
        t, owner = np.append(t, seg.w[-1]), np.append(owner, n - 1)
    keep = np.ones(t.size, dtype=bool)
    keep[1:] = np.diff(t) != 0.0
    t, owner = t[keep], owner[keep]
    y = state(owner, t)

    sign = 1.0 if s_to > s_from else -1.0
    ends = sign * seg.w[:n]

    def dense(s):
        t = np.atleast_1d(np.asarray(s, dtype=float))
        out = state(np.minimum(np.searchsorted(ends, sign * t), n - 1), t)
        return out if np.ndim(s) else out[:, 0]

    return _RawRun(t, y, zero_t, None if zero_t is None else float(dense(zero_t)[1]), dense)


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
        if state0 is None:    # s0 is the zero, beyond s = 700
            columns = dict.fromkeys("r y dy".split(), np.empty(0))
            return ShootingOutcome(columns, s0, Status.ZERO_FOUND)
        return _radius_columns(_sweep(prob, s0, -math.log(prob.R), state0))
    return _sweep(prob, _outer_edge(prob), prob.s_max, (1.0, 0.0))


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
    exactly, cell by cell, for the log-log linear kinds and by DOP853 in the
    Liouville variable for the log families.  The trajectory ends at the
    first zero, if any, as the row z = 0 with the engine's slope there, and
    is sorted by s; its dense output answers on that range only.  Without a
    zero, a sweep toward the outer edge (decreasing s) has covered its whole
    interval; a sweep outward has only reached its horizon.
    """
    if _vanishes(prob):
        run = _line(s_from, s_to, state0)
    elif prob.potential.log_cells is not None:
        run = _cell_sweep(prob, s_from, s_to, state0)
    else:
        run = _liouville_sweep(prob, s_from, s_to, state0)
    to_edge = s_to < s_from    # toward the outer edge r = R
    s, z, dz = run.t, run.y[0], run.y[1]
    if run.zero_t is None:
        status = Status.NO_ZERO_ON_INTERVAL if to_edge else Status.HORIZON_REACHED
    else:
        status = Status.ZERO_FOUND
        before = s > run.zero_t if to_edge else s < run.zero_t
        before[0] = True    # the start, even where the zero rounds to its s
        s = np.append(s[before], run.zero_t)
        z = np.append(z[before], 0.0)    # the engine's z there is only as exact as its root
        dz = np.append(dz[before], run.zero_dz)
    if to_edge:
        s, z, dz = s[::-1], z[::-1], dz[::-1]
    lo, hi = float(s[0]), float(s[-1])

    def dense(x):
        if not lo - 1e-12 <= np.min(x) <= np.max(x) <= hi + 1e-12:
            raise DomainError(f"abscissa {x} outside the swept range [{lo}, {hi}]")
        return run.dense(x)

    return ShootingOutcome({"s": s, "z": z, "dz": dz}, run.zero_t, status,
                           certificate=certificate, dense=dense)


def _radius_columns(out: ShootingOutcome) -> ShootingOutcome:
    """A sweep in the radius frame: r = e^-s, y = z and dy/dr = -z'/r, in
    increasing r, with a dense output that takes a radius."""
    s, z, dz = (out.trajectory[k][::-1] for k in ("s", "z", "dz"))
    r = np.exp(-s)
    if out.first_zero is not None:
        r[-1] = out.first_zero    # math.exp, which np.exp may miss by an ulp
    def dense_r(radius):
        state = out.dense(-np.log(radius))
        return np.array([state[0], -state[1] / radius])

    return replace(out, trajectory={"r": r, "y": z, "dy": -dz / r}, dense=dense_r)


# ---------------------------------------------------------------------------
# Euler-comparison tail certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEdges:
    """Shifted-Euler edge: c >= c_osc (inf if none) is oscillatory by the
    certificate unit_osc at c = 1, its gamma scaled by c."""

    c_osc: float
    unit_osc: TailCertificate

    def certificate(self, c: float) -> Optional[TailCertificate]:
        """The oscillatory certificate of multiplier c >= c_osc, else None."""
        return replace(self.unit_osc, gamma=c * self.unit_osc.gamma) if c >= self.c_osc else None


def tail_edges(prob: HardyODEProblem) -> TailEdges:
    """The edge of a log family from gamma = g (s - s0)^2 (``euler_gamma``)
    at s0 = ``euler_shift_hint``, where it does not rise on [outer edge, inf)
    and tends to the amplitude A: c_osc = (1/4 + (pi / ln(sigma_max /
    sigma_edge))^2) / min(gamma_edge, gamma_max), sigma = s - s0 (inf at A =
    0 and where that ratio rounds to 1), makes the outer edge to the horizon
    hold a half-oscillation of a minorant Euler solution, a zero of every
    solution (Hartman, Ch. XI); no shorter window needs less.  That min is
    gamma_max up to rounding, so the certificate's gamma also bounds gamma
    on all of [s_max, inf).

    A cell kind raises DomainError (see ``euler_tail_certificate``)."""
    if prob.domain is not Domain.LOG:
        raise DomainError("tail certificates live in the log domain")
    p, lo = prob.potential, _outer_edge(prob)
    if p.log_cells is not None:
        raise DomainError(f"a {p.kind.value} potential has no tail edges, only its inner cell")
    s0 = p.euler_shift_hint()
    sigma_edge, sigma_max = lo - s0, prob.s_max - s0
    gamma = min(p.euler_gamma(math.log(sigma_edge)), p.euler_gamma(math.log(sigma_max)))
    width = math.log(sigma_max / sigma_edge)    # 0 where s_max - s0 rounds to the edge's
    need = 0.25 + (math.pi / width) ** 2 if width > 0.0 else math.inf
    return TailEdges(need / gamma if gamma > 0.0 else math.inf,
                     TailCertificate("oscillatory", gamma, s0, (lo, prob.s_max)))


def euler_tail_certificate(prob: HardyODEProblem) -> Optional[TailCertificate]:
    """Classify the coefficient tail a(s) = c g(s).  Where a = 0 (c = 0 or
    amplitude 0) it is non-oscillatory, gamma = 0.  A cell kind's inner cell
    rises (q >= 0; q < 0 raises DomainError) from s1 = max(outer edge,
    innermost knot) out to s = inf, where the model is exact, so a >= gamma
    = min(c g(s1), 1e300) (from ln g where g is 0, subnormal or inf)
    there, and by Sturm comparison with z'' + gamma z = 0 every solution
    vanishes inside [s1, s1 + pi / sqrt(gamma)], within the horizon or not.
    Where c g(s1) is below 2^-1022 and q > 0, s1 moves out along the cell
    to where c g = 1, so gamma is a normal double (None only where q = 0
    and c g is not one).  A log family is oscillatory if c >= c_osc of
    ``tail_edges``, else None."""
    if prob.domain is not Domain.LOG:
        raise DomainError("tail certificates live in the log domain")
    c, p, s_start = prob.c, prob.potential, _outer_edge(prob)
    if _vanishes(prob):
        return TailCertificate("nonoscillatory", 0.0, s_start - 1.0, (prob.s_max, math.inf))
    if p.inner_cell is not None:
        knot, anchor, ell, q = p.inner_cell
        if q < 0.0:
            raise DomainError("an inner cell of slope q < 0 is swept in the radius domain")
        s1 = max(s_start, knot)
        if q > 0.0 and c * p.log_weight(s1) < TINY:    # out to where ln(c g) = 0
            s1 = anchor + (-math.log(c) - ell) / q
        g, log_g = p.log_weight(s1), p.log_weight_exponent(s1)
        gamma = min(c * g if TINY <= g < math.inf else exp_or_inf(math.log(c) + log_g), 1e300)
        if gamma < TINY:    # subnormal or 0: its rounding no longer bounds a
            return None
        return TailCertificate("oscillatory", gamma, None,
                               (s1, math.nextafter(s1 + math.pi / math.sqrt(gamma), math.inf)))
    return tail_edges(prob).certificate(c)


# ---------------------------------------------------------------------------
# Riccati transform and pointwise residuals
# ---------------------------------------------------------------------------

def riccati_check(outcome: ShootingOutcome, prob: HardyODEProblem) -> float:
    """Max |psi' + psi^2 + a(s)| along the trajectory, psi = z'/z.

    psi is the log-derivative of the solution in the log variable (equal to
    -r y'(r)/y(r) in radius terms); for an exact solution the expression
    vanishes identically, so the returned maximum bounds the combined
    integration and finite-difference error.  Needs strictly positive z on
    a range of s of positive length.
    """
    if prob.domain is not Domain.LOG:
        raise DomainError("riccati_check expects a log-domain problem")
    if "z" not in outcome.trajectory:
        raise DomainError("riccati_check expects a log-domain trajectory")
    s, z, dz = (outcome.trajectory[k] for k in ("s", "z", "dz"))
    if s.size < 2 or not s[-1] > s[0]:
        raise DomainError("trajectory spans no range of s")
    if outcome.dense is not None:
        s = np.linspace(s[0], s[-1], _RICCATI_SAMPLES)
        z, dz = outcome.dense(s)
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
